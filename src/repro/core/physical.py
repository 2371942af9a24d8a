"""Physical frame allocator for the unified memory pool.

One MI300A APU exposes a single 128 GiB physical memory shared by the CPU
and the GPU.  This module manages that pool at 4 KiB frame granularity and
models the two behaviours the paper's system-software study hinges on:

* **Up-front allocations** (hipMalloc et al.) obtain *contiguous, aligned
  chunks*, which later let the amdgpu driver encode large fragments in GPU
  PTEs (paper Section 5.3) and interleave evenly across memory channels
  (Section 5.4).

* **On-demand allocations** (malloc first-touch faults) draw *scattered
  single frames* from a steady-state fragmented free list whose available
  frames are biased across channels.  The bias is what degrades Infinity
  Cache slice utilisation for malloc'd buffers (Section 5.4), and the lack
  of contiguity is what produces small GPU fragments and ~7-16x more GPU
  TLB misses (Section 5.3, Fig. 9).

The allocator is deterministic given its seed, so experiments reproduce
bit-identically.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from ..hw.config import HBMGeometry, MI300AConfig, PAGE_SIZE


#: Buckets of the guide table over the channel draw's CDF.
GUIDE_BUCKETS = 4096

_NO_FRAMES = np.empty(0, dtype=np.int64)


class OutOfMemoryError(MemoryError):
    """Raised when the physical pool cannot satisfy a request."""


class TransientAllocationError(OutOfMemoryError):
    """An allocation failed for a transient reason (injected): the pool
    is not actually exhausted and an immediate retry may succeed.  The
    HIP layer's bounded retry-with-backoff consumes these."""


#: 1, 2, 4 or 8 True bools read as one unsigned word, by width.
_TRUE_WORD = {width: 0x0101010101010101 >> (64 - 8 * width) for width in (1, 2, 4, 8)}


def _all_set(flags: np.ndarray, width: int) -> np.ndarray:
    """Whether each group of *width* (a power of two) bools is all True.

    Reads the bool bytes as 2-, 4- or 8-byte words and compares each word
    with the all-ones byte pattern, folding eight bytes per step.
    """
    while width > 1:
        step = min(width, 8)
        flags = flags.view(f"u{step}") == _TRUE_WORD[step]
        width //= step
    return flags


def _fill_runs(out: np.ndarray, starts: np.ndarray, run: int) -> None:
    """Write the *run* frames from each of *starts* into *out*, in order.

    That is ``starts[:, None] + arange(run)`` raveled.  Runs of one or two
    frames are written column by column: a broadcast over so short an
    inner axis costs several times more.
    """
    runs = out.reshape(-1, run)
    if run > 2:
        np.add(starts[:, None], np.arange(run), out=runs)
        return
    for page in range(run):
        np.add(starts, page, out=runs[:, page])


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted *values* without repeats.

    A sort plus an adjacent-difference mask: ``np.unique`` hashes, which
    costs far more than sorting on the short integer arrays drawn here.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@functools.lru_cache(maxsize=32)
def _boot_tables(geo: HBMGeometry, skew: float, seed: int) -> tuple:
    """The per-boot channel-draw tables, as read-only arrays.

    Returns ``(weights, cdf, guide, residues, rng_state)``: everything
    :class:`PhysicalMemory` derives from its config and seed before the
    first allocation, ending with the state of ``default_rng(seed)``
    after the weight draw.  A pure function of its arguments, so each
    (geometry, skew, seed) is computed once per process.
    """
    rng = np.random.default_rng(seed)
    # Steady-state free-list channel bias: scattered allocations draw
    # frames from channels according to these weights.  The weights are
    # fixed per boot (per instance), mirroring how a long-running
    # system's buddy free list ends up unevenly distributed.
    channels = geo.channels
    if skew > 0:
        raw = np.exp(rng.normal(0.0, 4.0 * skew, size=channels))
    else:
        raw = np.ones(channels)
    weights = raw / raw.sum()
    # The channel draw is Generator.choice(p=weights), made faster by
    # a guide table over the same CDF (see _draw_channels).  For u in
    # bucket b (b <= u * B < b + 1, B = GUIDE_BUCKETS) the CDF search
    # returns between #{cdf <= b / B} and #{cdf < (b + 1) / B}; the
    # guide holds that count where the two agree and -1 where a CDF
    # value falls inside the bucket.  Scaling by the power of two B is
    # exact, so the counts are of ceil(cdf * B) <= b, floor(cdf * B) <= b.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    scaled, edges = cdf * GUIDE_BUCKETS, GUIDE_BUCKETS + 1
    at_start = np.bincount(np.ceil(scaled).astype(np.intp), minlength=edges)
    below_end = np.bincount(np.floor(scaled).astype(np.intp), minlength=edges)
    at_start, below_end = at_start.cumsum(), below_end.cumsum()
    guide = np.where(at_start == below_end, at_start, -1)[:GUIDE_BUCKETS]
    # With one page per interleave unit, the frames of channel
    # (stack s, lane l) form the residue class  s + stacks*l  mod
    # (stacks * lanes); precompute residue per channel index.
    stacks = np.arange(channels) // geo.channels_per_stack
    lanes = np.arange(channels) % geo.channels_per_stack
    residues = stacks + geo.stacks * lanes
    for table in (weights, cdf, guide, residues):
        table.flags.writeable = False
    return weights, cdf, guide, residues, rng.bit_generator.state


class PhysicalMemory:
    """Frame allocator over the APU's unified physical pool."""

    def __init__(self, config: MI300AConfig, seed: int = 0x1300A) -> None:
        self._config = config
        self._total_frames = config.total_pages
        # True = frame is free.
        self._free = np.ones(self._total_frames, dtype=bool)
        self._free_count = self._total_frames
        geo = config.hbm
        (self._channel_weights, self._cdf, self._guide, self._channel_residue,
         state) = _boot_tables(geo, config.policy.free_list_channel_skew, seed)
        self._rng = np.random.default_rng(seed)
        self._rng.bit_generator.state = state
        self._residue_modulus = geo.stacks * geo.channels_per_stack
        # Fault injection: plan consulted at allocation entry, and the
        # frames claimed by injected fragmentation pressure (released by
        # defragment()/release_pressure(), owned by no allocation).
        self.inject = None
        self._pressure_frames = np.empty(0, dtype=np.int64)

    @property
    def total_frames(self) -> int:
        """Number of 4 KiB frames in the pool."""
        return self._total_frames

    @property
    def free_frames(self) -> int:
        """Number of currently free frames."""
        return self._free_count

    @property
    def used_bytes(self) -> int:
        """Bytes of physical memory currently allocated."""
        return (self._total_frames - self._free_count) * PAGE_SIZE

    @property
    def free_bytes(self) -> int:
        """Bytes of physical memory currently free."""
        return self._free_count * PAGE_SIZE

    def channel_weights(self) -> np.ndarray:
        """The free-list channel bias weights (for inspection/ablation)."""
        return self._channel_weights.copy()

    # ------------------------------------------------------------------
    # Contiguous (up-front) allocation
    # ------------------------------------------------------------------

    def alloc_chunks(
        self,
        npages: int,
        chunk_pages: int,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> np.ndarray:
        """Allocate *npages* frames as aligned contiguous chunks.

        Frames are returned in allocation order: whole chunks of
        *chunk_pages* contiguous frames, each aligned to *chunk_pages*, with
        a final partial chunk if *npages* is not a multiple.  This is the
        up-front allocator path (hipMalloc and friends): the driver can
        later encode each chunk as a single large fragment.

        *frame_range* restricts the search to the half-open frame window
        ``[lo, hi)`` — the NPS4 placement path, where a partition-local
        allocation must stay inside one NUMA domain's physical quadrant.
        """
        if chunk_pages <= 0 or chunk_pages & (chunk_pages - 1):
            raise ValueError(f"chunk_pages must be a power of two, got {chunk_pages}")
        self._admit(npages, contiguous=True)
        nchunks = -(-npages // chunk_pages)  # the last one may be partial
        starts = self._find_aligned_runs(nchunks, chunk_pages, frame_range)
        frames = np.empty(nchunks * chunk_pages, dtype=np.int64)
        _fill_runs(frames, starts, chunk_pages)
        frames = frames[:npages]
        # Whole chunks are claimed as aligned words of the bitmap, a
        # partial last chunk frame by frame.
        width, whole = min(chunk_pages, 8), npages // chunk_pages
        words = (starts[:whole, None] // width + np.arange(chunk_pages // width))
        self._claim(words.ravel(), width, tail=frames[whole * chunk_pages:])
        return frames

    def _check_range(self, frame_range: Optional[Tuple[int, int]]) -> Tuple[int, int]:
        """The frame window ``[lo, hi)``: *frame_range* or the whole pool."""
        lo, hi = frame_range or (0, self._total_frames)
        if not 0 <= lo < hi <= self._total_frames:
            raise ValueError(
                f"frame range [{lo}, {hi}) outside pool of "
                f"{self._total_frames} frames"
            )
        return lo, hi

    def _find_aligned_runs(
        self,
        count: int,
        chunk_pages: int,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> np.ndarray:
        """Find *count* free, aligned runs of *chunk_pages* frames each."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        # View the bitmap as aligned blocks and find fully-free blocks.
        lo, hi = self._check_range(frame_range)
        first_block = -(-lo // chunk_pages)  # align the window start up
        usable = (hi // chunk_pages) * chunk_pages
        base = first_block * chunk_pages
        if base >= usable:
            raise OutOfMemoryError(
                f"frame range too small for {chunk_pages}-page chunks"
            )
        # The stride-3 pick below reads only the first 3*count candidates,
        # so scan windows that grow from the start of the range and stop
        # once that many are found; only a short pool is scanned whole.
        nblocks, need = (usable - base) // chunk_pages, 3 * count
        found, done, window = [], 0, max(need, 64)
        while done < nblocks and sum(map(len, found)) < need:
            stop = min(nblocks, done + window)
            bits = self._free[base + done * chunk_pages : base + stop * chunk_pages]
            found.append(done + np.flatnonzero(_all_set(bits, chunk_pages)))
            done, window = stop, 2 * window
        candidates = first_block + np.concatenate(found)
        if len(candidates) < count:
            raise OutOfMemoryError(
                f"cannot find {count} contiguous runs of {chunk_pages} pages "
                f"(only {len(candidates)} available)"
            )
        # Leave a gap between selected blocks when the pool allows it:
        # separately obtained chunks are not physically adjacent on a
        # steady-state system, so chunks must not merge into accidental
        # mega-fragments that a real fragmented free list would not give.
        # The stride is odd (3) so the selected blocks still sweep every
        # memory-channel residue class of the power-of-two interleave
        # (an even stride would alias onto a subset of the channels).
        if len(candidates) >= 3 * count:
            candidates = candidates[::3]
        return candidates[:count].astype(np.int64) * chunk_pages

    # ------------------------------------------------------------------
    # Scattered (on-demand) allocation
    # ------------------------------------------------------------------

    def _draw_channels(self, n: int) -> np.ndarray:
        """*n* channels drawn by the free-list weights.

        Returns ``rng.choice(channels, size=n, p=weights)``, which is
        ``cdf.searchsorted(rng.random(n), "right")``: the same uniform
        doubles, so the draws and the generator state match it.  Only the
        draws that land in a bucket the guide cannot resolve are searched.
        """
        u = self._rng.random(n)
        channels = self._guide[(u * GUIDE_BUCKETS).astype(np.intp)]
        inexact = np.flatnonzero(channels < 0)
        channels[inexact] = self._cdf.searchsorted(u[inexact], "right")
        return channels

    def alloc_scattered(
        self,
        npages: int,
        pair_fraction: Optional[float] = None,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> np.ndarray:
        """Allocate *npages* frames one page at a time, with free-list bias.

        This is the on-demand fault path for CPU first touch: frames are
        drawn from channels according to the biased free-list weights, and
        a configurable fraction of draws land an adjacent free pair
        (modelling occasional buddy-allocator luck).  The result is low
        physical contiguity and an uneven channel histogram.

        *frame_range* restricts draws to the half-open window ``[lo, hi)``
        (NPS4 placement: scattered pages stay in one NUMA domain).
        """
        self._admit(npages, contiguous=False)
        if pair_fraction is None:
            pair_fraction = self._config.policy.on_demand_pair_fraction

        allocated: list[np.ndarray] = []
        remaining = npages
        try:
            # Some draws produce adjacent pairs: allocate those in pairs.
            pair_pages = int(npages * pair_fraction) & ~1
            if pair_pages:
                pairs = self._draw_scattered(pair_pages // 2, run=2,
                                             frame_range=frame_range)
                allocated.append(pairs)
                remaining -= len(pairs)
            if remaining:
                singles = self._draw_scattered(remaining, run=1,
                                               frame_range=frame_range)
                allocated.append(singles)
        except OutOfMemoryError:
            # A failed later draw must not leak the earlier batches.
            for batch in allocated:
                self.free(batch)
            raise
        return np.concatenate(allocated)[:npages]

    def _draw_scattered(
        self,
        ndraws: int,
        run: int,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> np.ndarray:
        """Draw *ndraws* free runs of *run* (1 or 2) frames from biased
        channels.

        Returns the flattened frame numbers (``ndraws * run`` entries).
        They are not in draw order: each sampling attempt oversamples its
        remaining need by 1.6x and keeps the lowest ``need_runs`` distinct
        free candidates, so each attempt's frames come back ascending.
        Falls back to a sweep of the lowest free frames if rejection
        sampling stalls (nearly-full pool).

        The rotation ``k`` of a draw comes from
        ``integers(k_lo, max(k_hi - 1, k_lo + 1))``, which never returns
        the window's last whole rotation ``k_hi - 1`` unless it is the
        only one: only the sweep fallback reaches its frames.
        """
        mod = self._residue_modulus
        lo, hi = self._check_range(frame_range)
        k_lo, k_hi = -(-lo // mod), hi // mod
        # When the window holds a whole rotation (k_hi > k_lo), every
        # drawn rotation lies in [k_lo, k_hi - 1], so every run does too
        # (mod is a multiple of run) and needs no window check.
        in_window = k_hi > k_lo
        # A run is one naturally aligned word of the bitmap (buddy
        # order-1 blocks are aligned, so the driver can encode them as
        # fragments), indexed by start // run: checked, deduplicated and
        # claimed as words.  The pool is < 2**31 frames.
        shift = run.bit_length() - 1
        words_free = self._free.view(f"u{run}")
        total = ndraws * run
        out = np.empty(total, dtype=np.int64)
        filled = 0
        attempts = 0
        while filled < total and attempts < 64:
            need_runs = (total - filled + run - 1) // run
            # Oversample to absorb rejections.
            n = max(int(need_runs * 1.6) + 16, 32)
            channels = self._draw_channels(n)
            ks = self._rng.integers(k_lo, max(k_hi - 1, k_lo + 1), size=n)
            starts = self._channel_residue[channels] + ks * mod
            words = (starts >> shift).astype(np.int32)
            if not in_window:
                words = words[(words >= -(-lo // run)) & (words < hi // run)]
            words = words[words_free[words] == _TRUE_WORD[run]]
            words = _distinct(words)[:need_runs]
            self._claim(words, run)
            got = run * words.size
            _fill_runs(out[filled : filled + got], words << shift, run)
            filled += got
            attempts += 1
        if filled < total:
            # Pool too full for sampling: sweep for any free frames.
            free_idx = lo + np.flatnonzero(self._free[lo:hi])[: total - filled]
            if len(free_idx) < total - filled:
                # Roll back the frames this draw already claimed so a
                # failed allocation never leaks partial progress.
                if filled:
                    self.free(out[:filled])
                raise OutOfMemoryError("physical pool exhausted")
            self._claim(free_idx)
            out[filled:] = free_idx
        return out

    # ------------------------------------------------------------------
    # Free / bookkeeping
    # ------------------------------------------------------------------

    def free(self, frames: np.ndarray) -> None:
        """Return *frames* to the pool.  Double-free raises ``ValueError``."""
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size == 0:
            return
        if frames.min() < 0 or frames.max() >= self._total_frames:
            raise ValueError("frame number out of range")
        if self._free[frames].any():
            raise ValueError("double free of physical frame")
        self._free[frames] = True
        self._free_count += int(frames.size)

    def _claim(
        self, words: np.ndarray, width: int = 1, tail: np.ndarray = _NO_FRAMES
    ) -> None:
        """Claim the aligned *width*-frame runs at word indices *words*,
        plus the single frames *tail*; with the default width, *words*
        are frames.

        The bitmap is read as 1-, 2-, 4- or 8-byte words, so a run is
        checked and cleared as one word.  All or nothing: if any frame is
        taken, nothing is claimed.
        """
        view = self._free.view(f"u{width}")
        if not (view[words] == _TRUE_WORD[width]).all() or (
            tail.size and not self._free[tail].all()
        ):
            raise OutOfMemoryError("attempted to claim a non-free frame")
        view[words] = 0
        self._free[tail] = False
        self._free_count -= width * int(words.size) + int(tail.size)

    def is_free(self, frame: int) -> bool:
        """True when *frame* is currently unallocated."""
        return bool(self._free[frame])

    # ------------------------------------------------------------------
    # Fault injection: transient failures and fragmentation pressure
    # ------------------------------------------------------------------

    def _admit(self, npages: int, contiguous: bool) -> None:
        """Fire the ``physical.alloc`` injection site for a request, then
        check its size against the free pool."""
        if npages <= 0:
            raise ValueError(f"npages must be positive, got {npages}")
        fault = None if self.inject is None else self.inject.fire(
            "physical.alloc",
            npages=npages,
            contiguous=contiguous,
            free_frames=self._free_count,
        )
        if fault is not None:
            if fault.kind == "transient":
                raise TransientAllocationError(
                    f"injected transient allocation failure "
                    f"({npages} frame request)"
                )
            if fault.kind != "pressure":
                raise ValueError(
                    f"physical.alloc does not understand kind {fault.kind!r}"
                )
            self.apply_pressure(float(fault.params.get("fraction", 0.25)))
        if npages > self._free_count:
            raise OutOfMemoryError(
                f"requested {npages} frames, only {self._free_count} free"
            )

    def apply_pressure(self, fraction: float) -> int:
        """Fragment the free list: claim every other free frame.

        Claims up to *fraction* of the free frames in an every-second
        pattern, destroying contiguous runs the way a hostile co-tenant
        (or a long uptime) would.  The frames belong to no allocation;
        :meth:`release_pressure` / :meth:`defragment` return them.
        Returns the number of frames claimed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"pressure fraction must be in [0, 1], got {fraction}")
        free_idx = np.flatnonzero(self._free)
        take = free_idx[::2][: int(len(free_idx) * fraction)]
        if take.size == 0:
            return 0
        self._claim(take)
        self._pressure_frames = np.concatenate([self._pressure_frames, take])
        return int(take.size)

    def release_pressure(self) -> int:
        """Free all injected-pressure frames; returns how many."""
        reclaimed = int(self._pressure_frames.size)
        if reclaimed:
            self.free(self._pressure_frames)
            self._pressure_frames = np.empty(0, dtype=np.int64)
        return reclaimed

    def defragment(self) -> int:
        """Memory-reclaim/compaction analogue: the defrag-then-retry hook.

        On real hardware the driver responds to allocation failure by
        compacting and reclaiming; in the simulator the only reclaimable
        state is injected fragmentation pressure.  Returns the number of
        frames recovered (0 = the OOM is genuine).
        """
        return self.release_pressure()

    @property
    def pressure_frames(self) -> int:
        """Frames currently held by injected fragmentation pressure."""
        return int(self._pressure_frames.size)

    def audit(self) -> list[str]:
        """Internal-consistency problems (empty list = healthy pool)."""
        problems: list[str] = []
        bitmap_free = int(self._free.sum())
        if bitmap_free != self._free_count:
            problems.append(
                f"free bitmap ({bitmap_free}) disagrees with free count "
                f"({self._free_count})"
            )
        if self._pressure_frames.size:
            problems.append(
                f"{self._pressure_frames.size} injected-pressure frame(s) "
                "still claimed"
            )
        return problems
