"""Allocation-speed benchmark (paper Fig. 6 and Section 5.1).

The paper's benchmark allocates N=100 chunks of size M in one loop and
frees them in a second loop, timing each loop, for M from 2 B to 1 GiB.
Two modes are provided:

* :func:`cost_sweep` queries the calibrated allocator cost models
  directly (exactly the Fig. 6 curves, cheap at any size);
* :func:`timed_loop` actually performs the allocations on a simulated
  APU and reads the clock, verifying the live allocators charge the same
  costs the models predict (used by the integration tests).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core import allocators as alloc_costs
from ..hw.config import MI300AConfig, default_config
from ..runtime.apu import APU, make_apu
from .allocators import allocate


def _cost_functions(
    config: MI300AConfig, allocator: str
) -> tuple[Callable[[int], float], Callable[[int], float]]:
    if allocator == "malloc":
        return (
            lambda s: alloc_costs.malloc_cost_ns(config, s),
            lambda s: alloc_costs.malloc_free_cost_ns(config, s),
        )
    if allocator == "hipMalloc":
        return (
            lambda s: alloc_costs.hip_malloc_cost_ns(config, s),
            lambda s: alloc_costs.hip_free_cost_ns(config, s),
        )
    if allocator == "hipHostMalloc":
        return (
            lambda s: alloc_costs.pinned_alloc_cost_ns(config, s, managed=False),
            lambda s: alloc_costs.pinned_free_cost_ns(config, s),
        )
    if allocator == "hipMallocManaged(xnack=0)":
        return (
            lambda s: alloc_costs.pinned_alloc_cost_ns(config, s, managed=True),
            lambda s: alloc_costs.pinned_free_cost_ns(config, s),
        )
    if allocator == "hipMallocManaged(xnack=1)":
        costs = config.allocator_costs
        return (
            lambda s: costs.managed_xnack_alloc_ns,
            lambda s: costs.managed_xnack_free_ns,
        )
    raise ValueError(f"unknown allocator {allocator!r}")


def cost_sweep(allocator: str, sizes: Sequence[int]) -> List[list]:
    """Fig. 6: one allocator's curve, from the cost models.

    One row ``[allocator, size_bytes, alloc_ns, free_ns]`` per size, the
    times per call.
    """
    alloc_fn, free_fn = _cost_functions(default_config(), allocator)
    return [[allocator, size, alloc_fn(size), free_fn(size)] for size in sizes]


def timed_loop(
    allocator: str,
    size_bytes: int,
    count: int = 100,
    warmup: int = 10,
    apu: Optional[APU] = None,
) -> Tuple[float, float]:
    """Run the paper's two-loop benchmark on a live APU.

    Allocates *count* chunks in a loop (after *warmup* discarded rounds
    of a single alloc/free pair), frees them in a second loop, and reads
    the simulated clock around each loop.  Returns the per-call
    ``(alloc_ns, free_ns)``.
    """
    if apu is None:
        needed_gib = max(2, (size_bytes * count >> 30) + 1)
        apu = make_apu(
            needed_gib, xnack=allocator.endswith("(xnack=1)")
        )
    mem = apu.memory
    for _ in range(warmup):
        mem.free(allocate(apu, allocator, size_bytes))

    start = apu.clock.now_ns
    chunks = [allocate(apu, allocator, size_bytes) for _ in range(count)]
    alloc_ns = (apu.clock.now_ns - start) / count

    start = apu.clock.now_ns
    for chunk in chunks:
        mem.free(chunk)
    free_ns = (apu.clock.now_ns - start) / count

    return alloc_ns, free_ns
