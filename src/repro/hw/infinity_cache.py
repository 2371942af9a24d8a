"""Infinity Cache model.

The Infinity Cache is a 256 MiB memory-side cache shared between the CPU
and GPU, new in CDNA 3.  It is partitioned into slices mapped to individual
memory channels and does not participate in coherency (paper Section 2.2).

Because it is memory-side, its effectiveness for a given buffer depends on
how the buffer's *physical* pages are distributed across memory channels:
each slice can only hold data homed on its channel.  This module turns a
physical frame set into a hit-fraction estimate used by the latency and
bandwidth models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import InfinityCacheGeometry
from .hbm import HBMSubsystem, channel_balance, effective_slice_hit_fraction


@dataclass(frozen=True)
class ICResidency:
    """How well a buffer's working set maps onto the Infinity Cache.

    Attributes:
        working_set_bytes: bytes of the buffer under consideration.
        capacity_fraction: working set / IC capacity (can exceed 1).
        balance: [0, 1] channel-balance score of the physical mapping.
        hit_fraction: expected fraction of memory-side accesses served
            from the IC once warmed.
    """

    working_set_bytes: int
    capacity_fraction: float
    balance: float
    hit_fraction: float


class InfinityCache:
    """Slice-partitioned memory-side cache."""

    def __init__(self, geometry: InfinityCacheGeometry, hbm: HBMSubsystem) -> None:
        if geometry.slices != hbm.geometry.channels:
            raise ValueError(
                "Infinity Cache slices must match HBM channel count "
                f"({geometry.slices} != {hbm.geometry.channels})"
            )
        self._geometry = geometry
        self._hbm = hbm

    @property
    def geometry(self) -> InfinityCacheGeometry:
        """The cache organisation this model uses."""
        return self._geometry

    @property
    def capacity_bytes(self) -> int:
        """Total Infinity Cache capacity."""
        return self._geometry.capacity_bytes

    def residency(
        self,
        frames: Sequence[int],
        visible_channels: Optional[Sequence[int]] = None,
    ) -> ICResidency:
        """Estimate steady-state IC behaviour for a buffer's frame set.

        For a buffer streamed repeatedly (the paper's pointer-chase and
        STREAM patterns), the achievable hit fraction is bounded by how
        much of each channel's share of the buffer fits in that channel's
        slice.  A perfectly interleaved buffer no larger than the IC gets
        hit_fraction 1.0; a biased mapping saturates the hot slices first.

        *visible_channels* restricts the usable slices to a subset — the
        partition-aware view: a logical device in a partitioned mode can
        only warm the slices of the channels its traffic reaches, so bytes
        homed on other channels are uncacheable from its perspective.
        """
        frames = np.asarray(frames, dtype=np.int64)
        working_set = int(frames.size) * 4096
        if frames.size == 0:
            return ICResidency(0, 0.0, 1.0, 1.0)
        histogram = self._hbm.channel_histogram(frames)
        balance = channel_balance(histogram)
        if visible_channels is None:
            hit_fraction = effective_slice_hit_fraction(
                histogram, self._geometry.slice_capacity_bytes
            )
        else:
            visible = np.zeros(len(histogram), dtype=bool)
            visible[np.asarray(visible_channels, dtype=np.int64)] = True
            covered = np.minimum(
                histogram[visible], self._geometry.slice_capacity_bytes
            ).sum()
            hit_fraction = float(covered) / float(histogram.sum())
        capacity_fraction = working_set / self._geometry.capacity_bytes
        return ICResidency(working_set, capacity_fraction, balance, hit_fraction)

    def hit_fraction(
        self,
        frames: Sequence[int],
        visible_channels: Optional[Sequence[int]] = None,
    ) -> float:
        """Shorthand for ``residency(frames).hit_fraction``."""
        return self.residency(frames, visible_channels).hit_fraction
