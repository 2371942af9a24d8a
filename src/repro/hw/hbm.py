"""HBM3 stack and channel model.

The MI300A has eight HBM3 stacks of 16 GiB each; every stack exposes 16
memory channels, for 128 channels total.  Physical pages are interleaved
among the stacks at 4 KiB granularity (paper Section 5.4), so the memory
channel serving a physical page is a pure function of its frame number.

The subsystem also models the NPS memory-partitioning modes of the
Instinct partitioning guide (SNIPPETS.md §1): in NPS1 (the default, and
the paper's testbed) the whole physical range interleaves across all
eight stacks; in NPS4 the range splits into four equal NUMA domains, one
per IOD, each interleaving only across that IOD's two stacks.

The interleave formula makes a frame's channel depend only on its NUMA
domain and on its interleave unit modulo the domain's rotation period
(``stacks_per_domain * channels_per_stack`` units).  The subsystem
evaluates the formula once per (domain, residue) pair into a table that
every mapping then reads.  Like hardware interleaving, which selects the
channel by address bits, this needs the unit (``pages_per_unit``) and the
period to be powers of two, and each domain to hold whole rotations:
``frames_per_domain`` a multiple of ``pages_per_unit * period``.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

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


@functools.lru_cache(maxsize=16)
def _channel_table(geometry: HBMGeometry, numa_domains: int) -> np.ndarray:
    """The interleave formula on one frame per (domain, residue) key.

    Units rotate across the domain's stacks — every stack in NPS1, the
    local IOD's two in NPS4 — and a stack's consecutive units across
    its channels, so a contiguous range spreads evenly over the
    domain's channels (paper Section 5.4).  The table is a read-only
    permutation of the channels, computed once per (geometry, domains).
    """
    fpd = geometry.capacity_bytes // PAGE_SIZE // numa_domains
    ppu = geometry.interleave_bytes // PAGE_SIZE
    stacks_per_domain = geometry.stacks // numa_domains
    period = stacks_per_domain * geometry.channels_per_stack
    keys = np.arange(numa_domains * period)
    frames = keys // period * fpd + keys % period * ppu
    domain = frames // fpd
    unit = (frames % fpd) // ppu
    stack = domain + numa_domains * (unit % stacks_per_domain)
    lane = (unit // stacks_per_domain) % geometry.channels_per_stack
    table = stack * geometry.channels_per_stack + lane
    table.flags.writeable = False
    return table


class HBMSubsystem:
    """Maps physical frames to NUMA domains, stacks and channels.

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
        pages_per_unit = geometry.interleave_bytes // PAGE_SIZE
        self._period = geometry.stacks // numa_domains * geometry.channels_per_stack
        if any(n & (n - 1) for n in (pages_per_unit, self._period)):
            raise ValueError("interleave unit and period must be powers of two")
        if self._frames_per_domain % (pages_per_unit * self._period):
            raise ValueError("each domain must hold whole interleave rotations")
        self._unit_shift = pages_per_unit.bit_length() - 1
        self._channel_of_key = _channel_table(geometry, numa_domains)
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

    def domain_frame_range(self, domain: int) -> Tuple[int, int]:
        """Half-open frame range ``[lo, hi)`` of one NUMA domain."""
        self._check_domain(domain)
        lo = domain * self._frames_per_domain
        return lo, lo + self._frames_per_domain

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self._numa_domains:
            raise IndexError(
                f"domain {domain} out of range [0, {self._numa_domains})"
            )

    def _keys(self, frames: Sequence[int]) -> np.ndarray:
        """Each frame's table key, ``domain * period + unit % period``."""
        arr = np.asarray(frames, dtype=np.int64)
        keys = arr & ((self._period << self._unit_shift) - 1)
        if self._unit_shift:
            keys >>= self._unit_shift
        if self._numa_domains > 1:
            keys += arr // self._frames_per_domain * self._period
        return keys

    def channels_of_frames(self, frames: Sequence[int]) -> np.ndarray:
        """Memory channel index serving each physical frame."""
        return self._channel_of_key[self._keys(frames)]

    def local_fraction(self, frames: Sequence[int], domain: int) -> float:
        """Fraction of *frames* resident in *domain* (1.0 for empty sets)."""
        self._check_domain(domain)
        arr = np.asarray(frames, dtype=np.int64)
        if arr.size == 0:
            return 1.0
        return float(np.mean(arr // self._frames_per_domain == domain))

    def channel_histogram(self, frames: Sequence[int]) -> np.ndarray:
        """Bytes-per-channel histogram for a set of resident frames."""
        counts = np.bincount(self._keys(frames), minlength=self._channel_of_key.size)
        histogram = np.empty_like(counts)
        histogram[self._channel_of_key] = counts * PAGE_SIZE
        return histogram

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
