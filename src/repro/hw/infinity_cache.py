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

from typing import Sequence

from .config import InfinityCacheGeometry
from .hbm import HBMSubsystem, effective_slice_hit_fraction


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

    def hit_fraction(self, frames: Sequence[int]) -> float:
        """Steady-state IC hit fraction for a buffer's frame set.

        For a buffer streamed repeatedly (the paper's pointer-chase and
        STREAM patterns), the achievable hit fraction is bounded by how
        much of each channel's share of the buffer fits in that channel's
        slice.  A perfectly interleaved buffer no larger than the IC gets
        1.0; a biased mapping saturates the hot slices first.  An empty
        frame set has nothing to miss and also gets 1.0.
        """
        return effective_slice_hit_fraction(
            self._hbm.channel_histogram(frames),
            self._geometry.slice_capacity_bytes,
        )
