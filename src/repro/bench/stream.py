"""STREAM TRIAD bandwidth benchmark (paper Fig. 3 and Figs. 9-10).

GPU arrays are 256 MiB, CPU arrays 610 MiB, as in the paper.  Each
configuration is (allocator, first-touch device); the CPU side sweeps
thread counts 1..24 and reports the best, reproducing the paper's
methodology.  The benchmark runs through the kernel engine, so the GPU
TLB-miss counter (Fig. 9) and the CPU page-fault counter (Fig. 10) tick
as side effects and are sampled with the profiling interfaces.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..hw.config import MiB
from ..profiling.perfstat import PerfStat
from ..profiling.rocprof import RocProf
from ..core.allocators import Allocation
from ..runtime.hip import HipRuntime, make_runtime
from ..runtime.kernels import BufferAccess, KernelEngine, KernelSpec
from .allocators import resolve

#: Array sizes from the paper's method section.
GPU_ARRAY_BYTES = 256 * MiB
CPU_ARRAY_BYTES = 610 * MiB

#: STREAM's standard iteration count (best-of-10 reporting).
NTIMES = 10

#: Fig. 10's configurations: label -> (allocator, xnack, init_device).
FIG10_CONFIGS = {
    "malloc / baseline": ("malloc", False, "cpu"),
    "malloc / xnack": ("malloc", True, "cpu"),
    "malloc / gpu-init": ("malloc", True, "gpu"),
    "hipMalloc / baseline": ("hipMalloc", False, "cpu"),
    "hipMalloc / gpu-init": ("hipMalloc", False, "gpu"),
    "hipHostMalloc / baseline": ("hipHostMalloc", False, "cpu"),
    "hipHostMalloc / gpu-init": ("hipHostMalloc", False, "gpu"),
    "managed / xnack": ("hipMallocManaged(xnack=1)", True, "cpu"),
}


def _triad_spec(a, b, c) -> KernelSpec:
    return KernelSpec(
        "triad",
        [
            BufferAccess(a, "read", "stream", passes=NTIMES),
            BufferAccess(b, "read", "stream", passes=NTIMES),
            BufferAccess(c, "write", "stream", passes=NTIMES),
        ],
    )


def _bandwidth(array_bytes: int, memory_ns: float) -> float:
    return 3 * array_bytes * NTIMES / (memory_ns / 1e9)


def _triad_arrays(
    runtime: HipRuntime, name: str, init_device: str, array_bytes: int
) -> List[Allocation]:
    """TRIAD's three arrays from *name*, first-touched on *init_device*."""
    arrays = [runtime.allocate(array_bytes, name) for _ in range(3)]
    for arr in arrays:
        runtime.apu.touch(arr, init_device)
    return arrays


def _gpu_triad(
    allocator: str, init_device: str, array_bytes: int, memory_gib: int
) -> Tuple[float, int]:
    """GPU TRIAD: ``(bandwidth_bytes_per_s, gpu_tlb_misses)``."""
    name, xnack = resolve(allocator)
    runtime = make_runtime(memory_gib, xnack=xnack)
    apu = runtime.apu
    arrays = _triad_arrays(runtime, name, init_device, array_bytes)

    rocprof = RocProf(apu)
    rocprof.start()
    result = KernelEngine(apu).run_gpu(_triad_spec(*arrays))
    apu.streams.device_synchronize()
    return _bandwidth(array_bytes, result.memory_ns), rocprof.stop().tlb_misses


def _cpu_triad(
    allocator: str, init_device: str, array_bytes: int, memory_gib: int
) -> Tuple[float, int]:
    """CPU TRIAD over 1..cores threads: ``(best bandwidth, its threads)``."""
    name, xnack = resolve(allocator)
    runtime = make_runtime(memory_gib, xnack=xnack)
    apu = runtime.apu
    arrays = _triad_arrays(runtime, name, init_device, array_bytes)

    engine = KernelEngine(apu)
    best_bw, best_threads = 0.0, 1
    for t in range(1, apu.cpu.cores + 1):
        result = engine.run_cpu(_triad_spec(*arrays), threads=t)
        bandwidth = _bandwidth(array_bytes, result.memory_ns)
        if bandwidth > best_bw:
            best_bw, best_threads = bandwidth, t
    return best_bw, best_threads


def triad(
    case: str, memory_gib: int, array_bytes: Optional[int] = None
) -> List[list]:
    """Fig. 3: best TRIAD bandwidth of one ``device|allocator|init`` case.

    *array_bytes* defaults to the paper's size for the device.  One row
    ``[device, allocator, init_device, bandwidth_bytes_per_s,
    best_threads]``; ``best_threads`` is 0 on the GPU.
    """
    device, allocator, init = case.split("|")
    if device == "gpu":
        bandwidth, _ = _gpu_triad(allocator, init,
                                  array_bytes or GPU_ARRAY_BYTES, memory_gib)
        threads = 0
    else:
        bandwidth, threads = _cpu_triad(allocator, init,
                                        array_bytes or CPU_ARRAY_BYTES,
                                        memory_gib)
    return [[device, allocator, init, bandwidth, threads]]


def tlb_misses(allocator: str, array_bytes: int, memory_gib: int) -> List[list]:
    """Fig. 9: one row ``[allocator, gpu_tlb_misses,
    bandwidth_bytes_per_s]`` of a CPU-initialised GPU TRIAD."""
    bandwidth, misses = _gpu_triad(allocator, "cpu", array_bytes, memory_gib)
    return [[allocator, misses, bandwidth]]


def cpu_fault_count(config: str, array_bytes: int, memory_gib: int) -> List[list]:
    """Fig. 10: total CPU page faults in the CPU STREAM benchmark.

    Counts faults across allocation, initialisation and the TRIAD
    iterations for one :data:`FIG10_CONFIGS` label.  One row
    ``[config, allocator, xnack, init_device, page_faults]``.
    """
    allocator, xnack, init = FIG10_CONFIGS[config]
    runtime = make_runtime(memory_gib, xnack=xnack)
    apu = runtime.apu
    perf = PerfStat(apu)
    perf.start()
    arrays = _triad_arrays(runtime, resolve(allocator)[0], init, array_bytes)
    KernelEngine(apu).run_cpu(_triad_spec(*arrays), threads=apu.cpu.cores)
    return [[config, allocator, xnack, init, perf.stop().page_faults]]
