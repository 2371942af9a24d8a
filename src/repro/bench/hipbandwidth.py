"""Legacy CPU-GPU transfer benchmark (paper Section 4.3, hip_bandwidth).

Measures achieved hipMemcpy bandwidth between "host memory" (malloc or
hipHostMalloc) and "GPU memory" (hipMalloc), and GPU-to-GPU, with the
SDMA engines enabled or disabled.  One untimed warm-up copy precedes
three timed ones, so the numbers isolate the copy path, as the original
benchmark's warmup does.
"""

from __future__ import annotations

from typing import List

from ..runtime.hip import make_runtime

#: The paper's transfers: label -> (source, destination allocator).
TRANSFERS = {
    "malloc -> hipMalloc": ("malloc", "hipMalloc"),
    "hipHostMalloc -> hipMalloc": ("hipHostMalloc", "hipMalloc"),
    "hipMalloc -> hipMalloc": ("hipMalloc", "hipMalloc"),
}

#: Timed copies per measurement.
ITERATIONS = 3


def measure_memcpy(
    transfer: str, sdma: bool, copy_bytes: int, memory_gib: int
) -> List[list]:
    """Achieved bandwidth of one :data:`TRANSFERS` label, SDMA on or off.

    One row ``[transfer, sdma, copy_bytes, bandwidth_bytes_per_s]``.
    """
    runtime = make_runtime(memory_gib, xnack=True, sdma_enabled=sdma)
    clock = runtime.apu.clock
    src, dst = (runtime.allocate(copy_bytes, allocator)
                for allocator in TRANSFERS[transfer])
    runtime.hipMemcpy(dst, src, copy_bytes)  # warm-up
    start = clock.now_ns
    for _ in range(ITERATIONS):
        runtime.hipMemcpy(dst, src, copy_bytes)
    elapsed_s = (clock.now_ns - start) / 1e9
    return [[transfer, sdma, copy_bytes, copy_bytes * ITERATIONS / elapsed_s]]
