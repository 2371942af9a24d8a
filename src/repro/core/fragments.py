"""Opportunistic GPU page-table fragment computation.

A *fragment* is a virtually and physically contiguous, naturally aligned,
power-of-two run of pages with identical flags.  The GPU L1 TLB can hold a
single entry for a whole fragment, greatly increasing its reach (paper
Section 3.2).  The amdgpu driver sets the 5-bit PTE fragment field
opportunistically by scanning for maximal contiguous page ranges when it
maps pages.

This module reproduces that scan with whole-array numpy code.  Given the
physical frames backing a virtually contiguous page range, it:

1. finds maximal runs where frames are physically contiguous (constant
   ``frame - vpn`` delta); pages of single-page runs keep exponent 0,
2. decomposes all multi-page runs at once, in passes: each pass emits,
   for every unfinished run, the largest power-of-two block that starts
   at the run's position, is aligned in both the virtual and the physical
   address space, and fits in the rest of the run.  The delta's own
   alignment caps every block, so a run takes at most about 2 x 32
   passes, however long it is, and
3. assigns each page the exponent of its covering block.

Up-front allocators produce long aligned runs and therefore large
fragments; on-demand first-touch order produces mostly single-page runs
and fragment exponent 0 — the mechanism behind Fig. 9's TLB miss gap.
"""

from __future__ import annotations

import numpy as np

from ..hw.config import MAX_FRAGMENT_EXPONENT


def _trailing_zeros(values: np.ndarray) -> np.ndarray:
    """Number of trailing zero bits per element (0 input -> 63)."""
    v = values.astype(np.int64)
    # (v & -v) - 1 sets exactly the bits below the lowest set bit; for 0
    # it sets all 64, capped to 63.
    below = ((v & -v) - 1).view(np.uint64)
    return np.minimum(np.bitwise_count(below), 63)


def _floor_log2(values: np.ndarray) -> np.ndarray:
    """``floor(log2(v))`` per positive element (exact below 2**53)."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64) - 1


def _run_bounds(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each maximal physically contiguous run."""
    is_bound = np.empty(len(frames) + 1, dtype=bool)  # run starts, then the end
    is_bound[[0, -1]] = True
    np.not_equal(frames[1:] - frames[:-1], 1, out=is_bound[1:-1])
    bounds = np.flatnonzero(is_bound)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def contiguous_runs(frames: np.ndarray) -> list[tuple[int, int]]:
    """Maximal physically contiguous runs over a virtually contiguous range.

    *frames* holds the physical frame of each consecutive virtual page.
    Returns ``(start_index, length)`` pairs covering the whole range.
    """
    frames = np.asarray(frames, dtype=np.int64)
    return [(int(s), int(n)) for s, n in zip(*_run_bounds(frames))]


def compute_fragments(
    frames: np.ndarray,
    base_vpn: int,
    max_exponent: int = MAX_FRAGMENT_EXPONENT,
) -> np.ndarray:
    """Per-page fragment exponents for a mapped virtual range.

    Args:
        frames: physical frame number of each consecutive virtual page,
            starting at virtual page number *base_vpn*.
        base_vpn: virtual page number of ``frames[0]`` (fragment blocks
            must be aligned in the virtual address space).
        max_exponent: cap on the exponent (5-bit field -> 31).

    Returns:
        int8 array of the same length: entry i covers ``2**exp[i]`` pages.
    """
    frames = np.asarray(frames, dtype=np.int64)
    starts, lengths = _run_bounds(frames)
    multi = lengths > 1
    # Single-page runs (the scattered case) keep exponent 0.
    pos, end = starts[multi], starts[multi] + lengths[multi]
    # A run's frame - vpn delta is constant, so min(tz(vpn), tz(pfn)) is
    # min(tz(vpn), tz(delta)): the delta's alignment caps every block.
    cap = np.minimum(_trailing_zeros(frames[pos] - (base_vpn + pos)), max_exponent)
    # Each emitted span adds its exponent at its first page and removes it
    # past its last, so a running sum yields every page's exponent.
    steps = np.zeros(len(frames) + 1, dtype=np.int8)
    while pos.size:  # one greedy block per unfinished run per pass
        remaining = end - pos
        exp = np.minimum(
            np.minimum(_trailing_zeros(base_vpn + pos), _floor_log2(remaining)),
            cap,
        )
        # A block at the cap leaves the next position aligned to the cap,
        # so every further whole cap-sized block is emitted in this pass.
        size = np.where(exp == cap, remaining >> exp << exp, 1 << exp)
        steps[pos] += exp
        pos = pos + size
        steps[pos] -= exp
        live = pos < end
        pos, end, cap = pos[live], end[live], cap[live]
    return np.cumsum(steps[:-1], dtype=np.int8)


def fragment_histogram(exponents: np.ndarray) -> dict[int, int]:
    """Count of pages per fragment exponent (for profiling/diagnostics)."""
    exponents = np.asarray(exponents)
    values, counts = np.unique(exponents, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def distinct_fragments(exponents: np.ndarray) -> int:
    """Number of distinct fragment entries covering the range.

    Each block of ``2**exp`` pages sharing one exponent is a single TLB
    entry, so the count of distinct fragments is what a streaming kernel's
    TLB miss counter converges to (one miss per fragment per pass when the
    stream exceeds TLB reach).
    """
    exponents = np.asarray(exponents)
    if len(exponents) == 0:
        return 0
    # The sum of 2**-exp over the pages, as an integer count of
    # 2**-top units, rounded half to even as round() rounds the float sum.
    # That float sum is exact: a page of exponent e lies in a fragment of
    # 2**e pages inside a buffer of N <= 2**25 pages (the pool), so every
    # partial sum is a multiple of 2**-e no larger than N, and
    # N * 2**e <= 2**50 < 2**53.  The two forms therefore always agree.
    counts = np.bincount(exponents.astype(np.intp, copy=False))
    top = len(counts) - 1
    units = 0
    for count in counts.tolist():  # Horner: sum of count_e * 2**(top - e)
        units = 2 * units + count
    whole, rest = divmod(units, 1 << top)
    if 2 * rest > 1 << top or (2 * rest == 1 << top and whole & 1):
        whole += 1
    return whole


def average_fragment_bytes(exponents: np.ndarray, page_size: int = 4096) -> float:
    """Average fragment size in bytes over the mapped range."""
    count = distinct_fragments(exponents)
    if count == 0:
        return 0.0
    return len(exponents) * page_size / count
