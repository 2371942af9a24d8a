"""STREAM TRIAD bandwidth benchmark (paper Fig. 3 and Figs. 9-10).

GPU arrays are 256 MiB, CPU arrays 610 MiB, as in the paper.  Each
configuration is (allocator, first-touch device); the CPU side sweeps
thread counts 1..24 and reports the best, reproducing the paper's
methodology.  The benchmark runs through the kernel engine, so the GPU
TLB-miss counter (Fig. 9) and the CPU page-fault counter (Fig. 10) tick
as side effects and can be sampled with the profiling interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


from ..hw.config import MiB
from ..profiling.perfstat import PerfStat, PerfStatReport
from ..profiling.rocprof import RocProf
from ..runtime.apu import APU, make_apu
from ..runtime.kernels import BufferAccess, KernelEngine, KernelSpec
from .allocators import allocate, wants_xnack

#: Array sizes from the paper's method section.
GPU_ARRAY_BYTES = 256 * MiB
CPU_ARRAY_BYTES = 610 * MiB

#: STREAM's standard iteration count (best-of-10 reporting).
NTIMES = 10

STREAM_ALLOCATORS = [
    "malloc",
    "malloc+register",
    "hipMalloc",
    "hipHostMalloc",
    "hipMallocManaged(xnack=0)",
    "hipMallocManaged(xnack=1)",
    "__managed__",
]


@dataclass
class StreamResult:
    """One bar of Fig. 3 plus the profiler counters behind Figs. 9-10."""

    allocator: str
    device: str
    init_device: str
    array_bytes: int
    bandwidth_bytes_per_s: float
    best_threads: int
    gpu_tlb_misses: int
    cpu_page_faults: int


def _make_apu_for(allocator: str, memory_gib: Optional[int]) -> APU:
    if memory_gib is None:
        memory_gib = 16
    return make_apu(memory_gib, xnack=wants_xnack(allocator))


def _triad_spec(a, b, c, passes: int) -> KernelSpec:
    return KernelSpec(
        "triad",
        [
            BufferAccess(a, "read", "stream", passes=passes),
            BufferAccess(b, "read", "stream", passes=passes),
            BufferAccess(c, "write", "stream", passes=passes),
        ],
    )


def gpu_triad(
    allocator: str,
    init_device: str = "cpu",
    array_bytes: int = GPU_ARRAY_BYTES,
    ntimes: int = NTIMES,
    memory_gib: Optional[int] = None,
) -> StreamResult:
    """GPU TRIAD bandwidth for one allocator/init combination."""
    apu = _make_apu_for(allocator, memory_gib)
    arrays = [allocate(apu, allocator, array_bytes) for _ in range(3)]
    for arr in arrays:
        apu.touch(arr, init_device)

    engine = KernelEngine(apu)
    rocprof, perf = RocProf(apu), PerfStat(apu)
    rocprof.start()
    perf.start()
    result = engine.run_gpu(_triad_spec(*arrays, passes=ntimes))
    apu.streams.device_synchronize()
    counters = rocprof.stop()
    faults = perf.stop()

    moved = 3 * array_bytes * ntimes
    bandwidth = moved / (result.memory_ns / 1e9)
    return StreamResult(
        allocator,
        "gpu",
        init_device,
        array_bytes,
        bandwidth,
        best_threads=0,
        gpu_tlb_misses=counters.tlb_misses,
        cpu_page_faults=faults.page_faults,
    )


def cpu_triad(
    allocator: str,
    init_device: str = "cpu",
    array_bytes: int = CPU_ARRAY_BYTES,
    ntimes: int = NTIMES,
    threads: Optional[Sequence[int]] = None,
    memory_gib: Optional[int] = None,
) -> StreamResult:
    """CPU TRIAD: sweeps thread counts and reports the best (Fig. 3)."""
    apu = _make_apu_for(allocator, memory_gib)
    arrays = [allocate(apu, allocator, array_bytes) for _ in range(3)]
    perf = PerfStat(apu)
    perf.start()
    for arr in arrays:
        apu.touch(arr, init_device)

    engine = KernelEngine(apu)
    sweep = list(threads) if threads is not None else list(
        range(1, apu.cpu.cores + 1)
    )
    best_bw, best_threads = 0.0, sweep[0]
    for t in sweep:
        result = engine.run_cpu(_triad_spec(*arrays, passes=ntimes), threads=t)
        moved = 3 * array_bytes * ntimes
        bandwidth = moved / (result.memory_ns / 1e9)
        if bandwidth > best_bw:
            best_bw, best_threads = bandwidth, t
    faults = perf.stop()
    return StreamResult(
        allocator,
        "cpu",
        init_device,
        array_bytes,
        best_bw,
        best_threads=best_threads,
        gpu_tlb_misses=0,
        cpu_page_faults=faults.page_faults,
    )


def cpu_fault_count(
    allocator: str,
    xnack: bool,
    init_device: str = "cpu",
    array_bytes: int = CPU_ARRAY_BYTES,
    ntimes: int = NTIMES,
    memory_gib: int = 16,
) -> PerfStatReport:
    """Total CPU page faults in the CPU STREAM benchmark (Fig. 10).

    Counts faults across allocation, initialisation and *ntimes* TRIAD
    iterations, for an explicit XNACK mode (Fig. 10's three configs are
    baseline XNACK=0, XNACK=1, and GPU init).
    """
    apu = make_apu(memory_gib, xnack=xnack)
    perf = PerfStat(apu)
    perf.start()
    arrays = [allocate(apu, allocator, array_bytes) for _ in range(3)]
    for arr in arrays:
        apu.touch(arr, init_device)
    engine = KernelEngine(apu)
    engine.run_cpu(_triad_spec(*arrays, passes=ntimes), threads=apu.cpu.cores)
    return perf.stop()
