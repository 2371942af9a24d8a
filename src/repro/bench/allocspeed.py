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

from typing import List, Optional, Sequence, Tuple

from ..core import allocators as alloc_costs
from ..hw.config import default_config
from ..runtime.apu import APU, make_apu
from ..runtime.hip import HipRuntime
from .allocators import resolve


#: Row label -> its (alloc, free) cost models, each ``f(config, size)``.
_COST_MODELS = {
    "malloc": (alloc_costs.malloc_cost_ns, alloc_costs.malloc_free_cost_ns),
    "hipMalloc": (alloc_costs.hip_malloc_cost_ns, alloc_costs.hip_free_cost_ns),
    "hipHostMalloc": (
        lambda c, s: alloc_costs.pinned_alloc_cost_ns(c, s, managed=False),
        alloc_costs.pinned_free_cost_ns,
    ),
    "hipMallocManaged(xnack=0)": (
        lambda c, s: alloc_costs.pinned_alloc_cost_ns(c, s, managed=True),
        alloc_costs.pinned_free_cost_ns,
    ),
    "hipMallocManaged(xnack=1)": (
        lambda c, s: c.allocator_costs.managed_xnack_alloc_ns,
        lambda c, s: c.allocator_costs.managed_xnack_free_ns,
    ),
}


def cost_sweep(allocator: str, sizes: Sequence[int]) -> List[list]:
    """Fig. 6: one allocator's curve, from the cost models.

    One row ``[allocator, size_bytes, alloc_ns, free_ns]`` per size, the
    times per call.
    """
    if allocator not in _COST_MODELS:
        raise ValueError(f"unknown allocator {allocator!r}")
    alloc_fn, free_fn = _COST_MODELS[allocator]
    config = default_config()
    return [[allocator, size, alloc_fn(config, size), free_fn(config, size)]
            for size in sizes]


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
    name, xnack = resolve(allocator)
    if apu is None:
        apu = make_apu(max(2, (size_bytes * count >> 30) + 1), xnack=xnack)
    runtime = HipRuntime(apu)
    for _ in range(warmup):
        runtime.hipFree(runtime.allocate(size_bytes, name))

    start = apu.clock.now_ns
    chunks = [runtime.allocate(size_bytes, name) for _ in range(count)]
    alloc_ns = (apu.clock.now_ns - start) / count

    start = apu.clock.now_ns
    for chunk in chunks:
        runtime.hipFree(chunk)
    free_ns = (apu.clock.now_ns - start) / count

    return alloc_ns, free_ns
