"""Memory-latency model (paper Fig. 2).

The pointer-chase latency of a buffer is the capacity-weighted average of
the cache levels its working set straddles (:func:`_chase_walk_ns`, one
walk for both devices), with one system-software twist the paper
highlights: on the CPU side, the *allocator* determines how well the
buffer's physical pages map onto the Infinity Cache's per-channel slices.
A biased mapping (malloc first-touch) shrinks the effective IC and pushes
the latency curve to its HBM plateau hundreds of MiB early (Sections 4.1
and 5.4).

GPU latency is modelled as allocator-insensitive, as measured in the
paper: the GPU's memory path re-orders and coalesces across enough
in-flight requests that IC slice imbalance is not visible in the chase.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..hw.config import MI300AConfig
from ..hw.infinity_cache import InfinityCache


def ic_hit_fraction_for_frames(
    ic: InfinityCache, frames: Sequence[int], working_set_bytes: int
) -> float:
    """IC hit fraction of the first *working_set_bytes* of a buffer.

    The chase touches a prefix of the buffer; only those frames compete
    for Infinity Cache slices.
    """
    frames = np.asarray(frames)
    pages = max(1, min(len(frames), working_set_bytes // 4096))
    return ic.hit_fraction(frames[:pages])


def cpu_chase_latency_ns(
    config: MI300AConfig,
    working_set_bytes: int,
    ic: InfinityCache | None = None,
    frames: Sequence[int] | None = None,
    uncached: bool = False,
) -> float:
    """CPU pointer-chase latency for a working set on given frames.

    On-chip levels (L1/L2/L3) serve their capacity share; accesses that
    spill past L3 hit the memory-side Infinity Cache with the buffer's
    channel-balance-determined hit fraction and go to HBM otherwise —
    the mechanism behind malloc's early latency plateau (Section 5.4).
    Without frame information the physical mapping is assumed perfectly
    balanced (the HIP-allocator case).
    """
    if uncached:
        return config.cpu_hbm_latency_ns
    if ic is not None and frames is not None and len(frames):
        ic_fraction = ic_hit_fraction_for_frames(ic, frames, working_set_bytes)
    else:
        # Perfectly balanced mapping: the IC covers its capacity's share.
        ic_fraction = min(
            1.0, config.infinity_cache.capacity_bytes / max(1, working_set_bytes)
        )
    memory_latency = (
        ic_fraction * config.cpu_ic_latency_ns
        + (1.0 - ic_fraction) * config.cpu_hbm_latency_ns
    )
    on_chip = [
        (level.capacity_bytes, level.latency_ns)
        for level in (config.cpu_l1, config.cpu_l2, config.cpu_l3)
    ]
    return _chase_walk_ns(on_chip, memory_latency, working_set_bytes)


def _chase_walk_ns(
    levels: Sequence[Tuple[int, float]],
    memory_latency_ns: float,
    working_set_bytes: int,
) -> float:
    """Capacity-weighted average latency of a uniform-random chase.

    For a working set W and level capacities c1 < c2 < ..., ideal LRU
    keeps the hottest ``c_i`` bytes at level i, so level i serves
    ``min(W, c_i) - min(W, c_{i-1})`` bytes' worth of accesses out of W;
    whatever spills past the last level costs *memory_latency_ns*.
    """
    ws = max(1, working_set_bytes)
    covered = 0
    total = 0.0
    for capacity, latency in levels:
        reach = min(ws, capacity)
        total += max(0, reach - covered) / ws * latency
        covered = max(covered, reach)
    return total + (ws - covered) / ws * memory_latency_ns


def gpu_chase_latency_ns(
    config: MI300AConfig,
    working_set_bytes: int,
    uncached: bool = False,
) -> float:
    """GPU pointer-chase latency for a working set.

    Matches the paper's observation that GPU latency on MI300A is
    insensitive to the allocator in use (Section 4.1).
    """
    if uncached:
        return config.gpu_hbm_latency_ns
    # The GPU has no L3; between L2 (4 MiB) and the IC (256 MiB) the
    # paper observes the 205-218 ns IC plateau.
    levels = [
        (config.gpu_l1.capacity_bytes, config.gpu_l1.latency_ns),
        (config.gpu_l2.capacity_bytes, config.gpu_l2.latency_ns),
        (config.infinity_cache.capacity_bytes, config.gpu_ic_latency_ns),
    ]
    return _chase_walk_ns(levels, config.gpu_hbm_latency_ns, working_set_bytes)


def chase_latency_ns(
    config: MI300AConfig,
    device: str,
    working_set_bytes: int,
    ic: InfinityCache | None = None,
    frames: Sequence[int] | None = None,
    uncached: bool = False,
) -> float:
    """Dispatch :func:`cpu_chase_latency_ns` / :func:`gpu_chase_latency_ns`."""
    if device == "cpu":
        return cpu_chase_latency_ns(config, working_set_bytes, ic, frames, uncached)
    if device == "gpu":
        return gpu_chase_latency_ns(config, working_set_bytes, uncached)
    raise ValueError(f"unknown device {device!r}")
