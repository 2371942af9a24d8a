"""HBM3 stack and channel model.

The MI300A has eight HBM3 stacks of 16 GiB each; every stack exposes 16
memory channels, for 128 channels total.  Physical pages are interleaved
among the stacks at 4 KiB granularity (paper Section 5.4), so the memory
channel serving a physical page is a pure function of its frame number.

The subsystem also models the NPS memory-partitioning modes of the
Instinct partitioning guide (SNIPPETS.md §1): in NPS1 (the default, and
the paper's testbed) the whole physical range interleaves across all
eight stacks; in NPS4 the range splits into four equal NUMA domains, one
per IOD, each interleaving only across that IOD's two stacks.  The
frame→(stack, channel) mapping stays a pure function of the frame number
in every mode.

This module provides that mapping plus per-channel traffic accounting used
by the Infinity Cache balance model.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .config import HBMGeometry, PAGE_SIZE

#: Latency of one on-the-fly ECC correction event (scrub + retry of the
#: affected burst).  HBM3 corrects single-symbol errors inline; the cost
#: is small but observable under an injected error storm.
ECC_CORRECTION_NS = 2_000.0


class UncorrectableECCError(RuntimeError):
    """A multi-symbol HBM frame error the ECC code cannot correct.

    On hardware this poisons the cacheline and RAS kills the consuming
    process; the runtime surfaces it as ``hipErrorECCNotCorrectable``.
    """


class HBMSubsystem:
    """Maps physical frames to stacks/channels and tracks traffic.

    Args:
        geometry: the HBM organisation to model.
        numa_domains: number of NPS memory partitions (1 for NPS1, 4 for
            NPS4).  Domain *d* owns the contiguous frame range
            ``[d * frames_per_domain, (d+1) * frames_per_domain)`` and
            interleaves it across the stacks ``d, d + numa_domains, ...``
            — the stacks whose HBM PHYs sit on IOD *d*.
    """

    def __init__(self, geometry: HBMGeometry, numa_domains: int = 1) -> None:
        if geometry.interleave_bytes % PAGE_SIZE != 0:
            raise ValueError("interleave granularity must be a page multiple")
        if numa_domains < 1 or geometry.stacks % numa_domains != 0:
            raise ValueError(
                f"numa_domains must divide the {geometry.stacks} stacks, "
                f"got {numa_domains}"
            )
        total_frames = geometry.capacity_bytes // PAGE_SIZE
        if total_frames % numa_domains != 0:
            raise ValueError("domains must split the pool evenly")
        self._geometry = geometry
        self._numa_domains = numa_domains
        self._frames_per_domain = total_frames // numa_domains
        self._stacks_per_domain = geometry.stacks // numa_domains
        self._channel_bytes = np.zeros(geometry.channels, dtype=np.int64)
        # RAS counters (the `amd-smi metric --ecc` view) + fault injection.
        self.inject = None
        self.correctable_errors = 0
        self.uncorrectable_errors = 0

    @property
    def geometry(self) -> HBMGeometry:
        """The HBM organisation this subsystem models."""
        return self._geometry

    @property
    def capacity_bytes(self) -> int:
        """Total HBM capacity in bytes."""
        return self._geometry.capacity_bytes

    @property
    def numa_domains(self) -> int:
        """Number of NPS memory partitions (1 = NPS1, 4 = NPS4)."""
        return self._numa_domains

    @property
    def frames_per_domain(self) -> int:
        """Frames in each NUMA domain's contiguous physical range."""
        return self._frames_per_domain

    def domain_of_frame(self, frame: int) -> int:
        """NUMA domain owning physical frame number *frame*."""
        return frame // self._frames_per_domain

    def domain_frame_range(self, domain: int) -> Tuple[int, int]:
        """Half-open frame range ``[lo, hi)`` of one NUMA domain."""
        self._check_domain(domain)
        lo = domain * self._frames_per_domain
        return lo, lo + self._frames_per_domain

    def stacks_of_domain(self, domain: int) -> List[int]:
        """Stack indices a NUMA domain interleaves over.

        Domain *d* owns the stacks hosted by IOD *d* (stack indices
        congruent to *d* modulo the domain count); in NPS1 the single
        domain owns every stack.
        """
        self._check_domain(domain)
        return [
            s for s in range(self._geometry.stacks)
            if s % self._numa_domains == domain
        ]

    def channels_of_domain(self, domain: int) -> List[int]:
        """Memory-channel indices served by a NUMA domain's stacks."""
        lanes = self._geometry.channels_per_stack
        return [
            s * lanes + lane
            for s in self.stacks_of_domain(domain)
            for lane in range(lanes)
        ]

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self._numa_domains:
            raise IndexError(
                f"domain {domain} out of range [0, {self._numa_domains})"
            )

    def stack_of_frame(self, frame: int) -> int:
        """Stack index serving physical frame number *frame*.

        Frames are interleaved round-robin at the interleave granularity
        (one 4 KiB page per stack by default) across the owning domain's
        stacks — all of them in NPS1, the local IOD's two in NPS4.
        """
        pages_per_unit = self._geometry.interleave_bytes // PAGE_SIZE
        domain = frame // self._frames_per_domain
        local_unit = (frame % self._frames_per_domain) // pages_per_unit
        return domain + self._numa_domains * (local_unit % self._stacks_per_domain)

    def channel_of_frame(self, frame: int) -> int:
        """Memory channel index serving physical frame number *frame*.

        Within a stack, consecutive interleave units rotate across that
        stack's channels, so a long contiguous physical range touches every
        channel of its domain evenly — this is why up-front contiguous
        allocations achieve balanced Infinity Cache slice utilisation
        (paper Section 5.4); in NPS4 the rotation covers only the local
        domain's 32 channels.
        """
        geo = self._geometry
        pages_per_unit = geo.interleave_bytes // PAGE_SIZE
        domain = frame // self._frames_per_domain
        unit = (frame % self._frames_per_domain) // pages_per_unit
        stack = domain + self._numa_domains * (unit % self._stacks_per_domain)
        lane = (unit // self._stacks_per_domain) % geo.channels_per_stack
        return stack * geo.channels_per_stack + lane

    def channels_of_frames(self, frames: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`channel_of_frame` over an array of frames."""
        geo = self._geometry
        arr = np.asarray(frames, dtype=np.int64)
        pages_per_unit = geo.interleave_bytes // PAGE_SIZE
        domain = arr // self._frames_per_domain
        unit = (arr % self._frames_per_domain) // pages_per_unit
        stack = domain + self._numa_domains * (unit % self._stacks_per_domain)
        lane = (unit // self._stacks_per_domain) % geo.channels_per_stack
        return stack * geo.channels_per_stack + lane

    def local_fraction(self, frames: Sequence[int], domain: int) -> float:
        """Fraction of *frames* resident in *domain* (1.0 for empty sets)."""
        self._check_domain(domain)
        arr = np.asarray(frames, dtype=np.int64)
        if arr.size == 0:
            return 1.0
        return float(np.mean(arr // self._frames_per_domain == domain))

    def channel_histogram(self, frames: Sequence[int]) -> np.ndarray:
        """Bytes-per-channel histogram for a set of resident frames."""
        channels = self.channels_of_frames(frames)
        counts = np.bincount(channels, minlength=self._geometry.channels)
        return counts * PAGE_SIZE

    def record_traffic(self, frames: Iterable[int], bytes_per_frame: int) -> None:
        """Account *bytes_per_frame* of traffic to each frame's channel."""
        for frame in frames:
            self._channel_bytes[self.channel_of_frame(frame)] += bytes_per_frame

    def traffic_bytes(self) -> np.ndarray:
        """A copy of cumulative per-channel traffic counters."""
        return self._channel_bytes.copy()

    def reset_traffic(self) -> None:
        """Zero all per-channel traffic counters."""
        self._channel_bytes[:] = 0

    def ecc_check(self, nbytes: int) -> float:
        """Consult the injection plan for frame errors on one access.

        Returns the extra correction latency in ns (0 when nothing
        fired).  Correctable errors bump the RAS counter and cost
        :data:`ECC_CORRECTION_NS` each; an uncorrectable error raises
        :class:`UncorrectableECCError` after counting itself.
        """
        if self.inject is None:
            return 0.0
        fault = self.inject.fire("hbm.ecc", nbytes=nbytes)
        if fault is None:
            return 0.0
        if fault.kind == "correctable":
            count = max(1, int(fault.params.get("count", 1)))
            self.correctable_errors += count
            return count * ECC_CORRECTION_NS
        if fault.kind == "uncorrectable":
            self.uncorrectable_errors += 1
            raise UncorrectableECCError(
                f"uncorrectable HBM frame error during a {nbytes}-byte "
                "access: data poisoned"
            )
        raise ValueError(f"hbm.ecc does not understand kind {fault.kind!r}")


def channel_balance(histogram: np.ndarray) -> float:
    """Return a [0, 1] balance score for a bytes-per-channel histogram.

    1.0 means perfectly even distribution across channels; lower values
    indicate bias.  Defined as the ratio of mean to max occupancy, which is
    1 for a uniform histogram and approaches ``1/n`` when all data sits on
    one of *n* channels.  An empty histogram is perfectly balanced.
    """
    total = float(histogram.sum())
    if total == 0.0:
        return 1.0
    peak = float(histogram.max())
    mean = total / len(histogram)
    return mean / peak


def effective_slice_hit_fraction(
    histogram: np.ndarray, slice_capacity_bytes: int
) -> float:
    """Fraction of resident bytes coverable by per-channel cache slices.

    The Infinity Cache is partitioned into slices mapped to individual
    memory channels (paper Section 5.4): a slice can only cache data on its
    own channel.  Given the bytes-per-channel histogram of a buffer, the
    cacheable fraction is ``sum(min(bytes_c, slice_capacity)) / sum(bytes_c)``.
    Bias in the physical mapping overloads some slices while leaving others
    idle, reducing this fraction — the mechanism behind malloc's higher CPU
    latency near the Infinity Cache capacity (paper Fig. 2 and Section 5.4).
    """
    total = float(histogram.sum())
    if total == 0.0:
        return 1.0
    covered = np.minimum(histogram, slice_capacity_bytes).sum()
    return float(covered) / total
