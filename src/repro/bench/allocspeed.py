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

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core import allocators as alloc_costs
from ..hw.config import GiB, MI300AConfig, default_config
from ..runtime.apu import APU, make_apu
from .allocators import allocate

#: Fig. 6's size axis: 2 B to 1 GiB, powers of two (decimated for speed).
DEFAULT_SIZES = [2 << i for i in range(0, 30, 2)] + [1 * GiB]

ALLOCATORS = [
    "malloc",
    "hipMalloc",
    "hipHostMalloc",
    "hipMallocManaged(xnack=0)",
    "hipMallocManaged(xnack=1)",
]


@dataclass(frozen=True)
class AllocSample:
    """Per-call allocation and deallocation times at one size."""

    allocator: str
    size_bytes: int
    alloc_ns: float
    free_ns: float


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


def cost_sweep(
    allocator: str,
    sizes: Optional[Sequence[int]] = None,
    config: Optional[MI300AConfig] = None,
) -> List[AllocSample]:
    """The Fig. 6 curve for one allocator, from the cost models."""
    config = config or default_config()
    alloc_fn, free_fn = _cost_functions(config, allocator)
    return [
        AllocSample(allocator, size, alloc_fn(size), free_fn(size))
        for size in (sizes if sizes is not None else DEFAULT_SIZES)
    ]


def full_cost_sweep(
    sizes: Optional[Sequence[int]] = None,
    config: Optional[MI300AConfig] = None,
) -> List[AllocSample]:
    """All allocators' Fig. 6 curves."""
    out: List[AllocSample] = []
    for allocator in ALLOCATORS:
        out.extend(cost_sweep(allocator, sizes, config))
    return out


def timed_loop(
    allocator: str,
    size_bytes: int,
    count: int = 100,
    warmup: int = 10,
    apu: Optional[APU] = None,
) -> AllocSample:
    """Run the paper's two-loop benchmark on a live APU.

    Allocates *count* chunks in a loop (after *warmup* discarded rounds
    of a single alloc/free pair), frees them in a second loop, and reads
    the simulated clock around each loop.
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

    return AllocSample(allocator, size_bytes, alloc_ns, free_ns)
