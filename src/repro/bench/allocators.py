"""The benchmarks' allocator names, mapped onto the simulated memory manager.

Figs. 2, 3 and 6 label their series with these names; managed
allocations are tagged with the XNACK mode they imply.
"""

from __future__ import annotations

from ..core.allocators import Allocation
from ..runtime.apu import APU


def allocate(apu: APU, allocator: str, size: int) -> Allocation:
    """Allocate *size* bytes on *apu* the way *allocator* does."""
    mem = apu.memory
    if allocator == "malloc":
        return mem.malloc(size)
    if allocator == "malloc+register":
        return mem.host_register(mem.malloc(size))
    if allocator == "hipMalloc":
        return mem.hip_malloc(size)
    if allocator == "hipHostMalloc":
        return mem.hip_host_malloc(size)
    if allocator.startswith("hipMallocManaged"):
        return mem.hip_malloc_managed(size)
    if allocator == "__managed__":
        return mem.managed_static(size)
    raise ValueError(f"unknown allocator {allocator!r}")


def wants_xnack(allocator: str) -> bool:
    """Whether *allocator*'s benchmark runs with XNACK (GPU page-fault
    replay) enabled: plain malloc needs it for GPU access at all."""
    return allocator in ("malloc", "hipMallocManaged(xnack=1)")
