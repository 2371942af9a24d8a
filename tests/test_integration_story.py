"""End-to-end integration: the paper's full pipeline on one APU.

One test class walks the whole story — characterise, port, verify — the
way a user of this library would, crossing every subsystem boundary:
allocators -> faults -> page tables -> TLBs -> kernel engine ->
profilers -> porting strategies -> the hipsan porting rules.
"""

import numpy as np
import pytest

from repro.analyze import analyze_log
from repro.hw.config import MiB
from repro.profiling import PerfStat, RocProf
from repro.profiling.memusage import MemoryUsageProfiler
from repro.runtime import make_runtime
from repro.runtime.kernels import BufferAccess, KernelSpec


@pytest.fixture(scope="module")
def story():
    """Run the full explicit-then-unified story once."""
    out = {}

    # ---- Act 1: characterise the allocators ---------------------------
    hip = make_runtime(memory_gib=4, xnack=True)
    apu = hip.apu
    rocprof = RocProf(apu)
    bandwidths, misses = {}, {}
    for allocator in ("hipMalloc", "hipHostMalloc", "malloc"):
        arr = hip.array(16 << 20, np.float32, allocator)
        apu.touch(arr.allocation, "cpu")
        rocprof.start()
        result = hip.launchKernel(
            KernelSpec("probe", [BufferAccess(arr.allocation, "read",
                                              passes=10)])
        )
        hip.hipDeviceSynchronize()
        region = rocprof.stop()
        bandwidths[allocator] = 64 * MiB * 10 / (result.memory_ns / 1e9)
        misses[allocator] = region.tlb_misses
    out["bandwidths"] = bandwidths
    out["misses"] = misses

    # ---- Act 2: an explicit-model app, traced -------------------------
    hip2 = make_runtime(memory_gib=4, xnack=True, trace=True)
    apu2 = hip2.apu
    usage = MemoryUsageProfiler(apu2)
    h = hip2.array(16 << 20, np.float32, "malloc", name="h_data")
    d = hip2.array(16 << 20, np.float32, "hipMalloc", name="d_data")
    h.np[:] = 1.5
    apu2.touch(h.allocation, "cpu")
    usage.sample()
    hip2.hipMemcpy(d, h)
    hip2.launchKernel(KernelSpec("square",
                                 [BufferAccess(d.allocation, "readwrite")]))
    hip2.hipDeviceSynchronize()
    d.np[:] = d.np ** 2
    hip2.hipMemcpy(h, d)
    usage.sample()
    out["explicit_result"] = float(h.np.sum())
    out["explicit_peak"] = usage.peak_bytes
    out["advice"] = [
        f for f in analyze_log(apu2.trace)
        if f.rule == "hipsan.duplicated-pair"
    ]
    out["explicit_time"] = apu2.clock.now_ns

    # ---- Act 3: the unified port -------------------------------------
    hip3 = make_runtime(memory_gib=4, xnack=True)
    apu3 = hip3.apu
    usage3 = MemoryUsageProfiler(apu3)
    perf = PerfStat(apu3)
    u = hip3.array(16 << 20, np.float32, "hipMalloc", name="unified")
    u.np[:] = 1.5
    apu3.touch(u.allocation, "cpu")
    usage3.sample()
    perf.start()
    hip3.launchKernel(KernelSpec("square",
                                 [BufferAccess(u.allocation, "readwrite")]))
    hip3.hipDeviceSynchronize()
    u.np[:] = u.np ** 2
    out["unified_faults"] = perf.stop()
    usage3.sample()
    out["unified_result"] = float(u.np.sum())
    out["unified_peak"] = usage3.peak_bytes
    out["unified_time"] = apu3.clock.now_ns
    return out


class TestCharacterisationActs:
    def test_allocator_bandwidth_ordering(self, story):
        bw = story["bandwidths"]
        assert bw["hipMalloc"] > bw["hipHostMalloc"] > bw["malloc"]

    def test_tlb_misses_anticorrelate_with_bandwidth(self, story):
        misses = story["misses"]
        assert misses["hipMalloc"] < misses["hipHostMalloc"]
        assert misses["hipMalloc"] < misses["malloc"]


class TestPortingActs:
    def test_advisor_found_the_pair(self, story):
        (pair,) = story["advice"]
        assert "'h_data'" in pair.message
        assert "'d_data'" in pair.message
        assert f"{64 * MiB} B" in pair.message

    def test_results_identical(self, story):
        assert story["unified_result"] == pytest.approx(
            story["explicit_result"]
        )

    def test_unified_saves_memory(self, story):
        assert story["unified_peak"] <= story["explicit_peak"] / 1.8

    def test_unified_saves_time(self, story):
        assert story["unified_time"] < story["explicit_time"]

    def test_unified_takes_no_gpu_faults(self, story):
        # hipMalloc memory is GPU-mapped up-front.
        assert story["unified_faults"].gpu_major_pages == 0
        assert story["unified_faults"].gpu_minor_pages == 0
