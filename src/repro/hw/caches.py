"""Cache-hierarchy capacity/latency model (the GPU side of Fig. 2).

The paper's latency study (Fig. 2) walks a pointer chain over buffers from
1 KiB to 4 GiB and reads off plateaus at each cache level.  For a random
pointer chase the level that serves an access is essentially determined by
whether the working set fits in that level, with smooth transitions as the
working set straddles a capacity boundary.  This module models exactly
that: a stack of levels, each with a capacity and a load-to-use latency,
plus a capacity-weighted blending rule at the boundaries.  The CPU side,
whose Infinity Cache share depends on the buffer's physical frames, is
:func:`repro.perf.latency.cpu_chase_latency_ns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .config import CacheGeometry, MI300AConfig


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the lookup hierarchy as seen by the latency model.

    ``capacity_bytes`` of None marks the terminal level (main memory),
    which serves everything that misses all finite levels.
    """

    name: str
    capacity_bytes: int | None
    latency_ns: float


class CacheHierarchy:
    """A stack of cache levels terminated by main memory."""

    def __init__(self, levels: Sequence[HierarchyLevel]) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        if levels[-1].capacity_bytes is not None:
            raise ValueError("last level must be terminal (capacity None)")
        finite = [lv.capacity_bytes for lv in levels[:-1]]
        if any(c is None for c in finite):
            raise ValueError("only the last level may be terminal")
        if any(
            finite[i] >= finite[i + 1]  # type: ignore[operator]
            for i in range(len(finite) - 1)
        ):
            raise ValueError("finite level capacities must strictly increase")
        self._levels = list(levels)

    def hit_fractions(self, working_set_bytes: int) -> List[Tuple[str, float]]:
        """Fraction of uniform-random accesses served by each level.

        For a working set W and level capacities c1 < c2 < ..., a uniform
        random chase keeps the hottest ``c_i`` bytes at level i (ideal LRU
        behaviour), so level i serves ``min(W, c_i) - min(W, c_{i-1})``
        bytes' worth of accesses out of W.
        """
        if working_set_bytes <= 0:
            raise ValueError("working set must be positive")
        fractions: List[Tuple[str, float]] = []
        covered = 0
        for level in self._levels:
            if level.capacity_bytes is None:
                served = working_set_bytes - covered
            else:
                reach = min(working_set_bytes, level.capacity_bytes)
                served = max(0, reach - covered)
                covered = max(covered, reach)
            fractions.append((level.name, served / working_set_bytes))
        return fractions

    def average_latency_ns(self, working_set_bytes: int) -> float:
        """Capacity-weighted average access latency for a random chase."""
        total = 0.0
        for (name, fraction), level in zip(
            self.hit_fractions(working_set_bytes), self._levels
        ):
            total += fraction * level.latency_ns
        return total


def gpu_hierarchy(
    config: MI300AConfig, ic_hit_fraction: float = 1.0
) -> CacheHierarchy:
    """Build the GPU-side hierarchy: L1, L2, Infinity Cache, HBM.

    *ic_hit_fraction* scales the usable Infinity Cache capacity to reflect
    channel-balance effects (1.0 = perfectly balanced physical mapping).
    The GPU has no L3; between L2 (4 MiB) and the IC (256 MiB) the paper
    observes the 205-218 ns IC plateau.
    """
    ic_capacity = int(config.infinity_cache.capacity_bytes * ic_hit_fraction)
    levels = [
        _level(config.gpu_l1),
        _level(config.gpu_l2),
        HierarchyLevel("infinity_cache", max(ic_capacity, 1), config.gpu_ic_latency_ns),
        HierarchyLevel("hbm", None, config.gpu_hbm_latency_ns),
    ]
    return CacheHierarchy(levels)


def _level(geometry: CacheGeometry) -> HierarchyLevel:
    return HierarchyLevel(geometry.name, geometry.capacity_bytes, geometry.latency_ns)
