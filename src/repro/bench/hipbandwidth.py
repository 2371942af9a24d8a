"""Legacy CPU-GPU transfer benchmark (paper Section 4.3, hip_bandwidth).

Measures achieved hipMemcpy bandwidth between "host memory" (malloc or
hipHostMalloc) and "GPU memory" (hipMalloc), and GPU-to-GPU, with the
SDMA engines enabled or disabled.  Buffers are pre-touched so the
numbers isolate the copy path, as the original benchmark's warmup does.
"""

from __future__ import annotations

from typing import Optional

from ..hw.config import MiB
from ..runtime.apu import make_apu
from ..runtime.hip import HipRuntime

DEFAULT_COPY_BYTES = 256 * MiB

#: (label, src allocator, dst allocator) combinations of the paper.
COMBINATIONS = [
    ("malloc -> hipMalloc", "malloc", "hipMalloc"),
    ("hipHostMalloc -> hipMalloc", "hipHostMalloc", "hipMalloc"),
    ("hipMalloc -> hipMalloc", "hipMalloc", "hipMalloc"),
]


def _alloc(runtime: HipRuntime, allocator: str, size: int):
    if allocator == "malloc":
        return runtime.malloc(size)
    if allocator == "hipMalloc":
        return runtime.hipMalloc(size)
    if allocator == "hipHostMalloc":
        return runtime.hipHostMalloc(size)
    raise ValueError(f"unknown allocator {allocator!r}")


def measure_memcpy(
    src_allocator: str,
    dst_allocator: str,
    sdma_enabled: bool = True,
    copy_bytes: int = DEFAULT_COPY_BYTES,
    warmup: int = 1,
    iterations: int = 3,
    memory_gib: Optional[int] = None,
) -> float:
    """Achieved bandwidth (bytes/s) of one transfer configuration."""
    if memory_gib is None:
        memory_gib = max(4, (copy_bytes >> 30) * 4 + 2)
    apu = make_apu(memory_gib, xnack=True)
    runtime = HipRuntime(apu, sdma_enabled=sdma_enabled)
    src = _alloc(runtime, src_allocator, copy_bytes)
    dst = _alloc(runtime, dst_allocator, copy_bytes)
    for _ in range(warmup):
        runtime.hipMemcpy(dst, src, copy_bytes)
    start = apu.clock.now_ns
    for _ in range(iterations):
        runtime.hipMemcpy(dst, src, copy_bytes)
    elapsed_s = (apu.clock.now_ns - start) / 1e9
    return copy_bytes * iterations / elapsed_s
