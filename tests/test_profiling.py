"""Tests for the profiling interfaces (repro.profiling)."""

import pytest

from repro.core.meminfo import snapshot
from repro.hw.config import MiB
from repro.profiling.memusage import MemoryUsageProfiler
from repro.profiling.perfstat import PerfStat
from repro.profiling.rocprof import COUNTER_MAP, RocProf
from repro.runtime.kernels import BufferAccess, KernelSpec


class TestRocProf:
    def test_counts_region_delta_only(self, hip):
        buf = hip.hipMalloc(16 * MiB)
        # Pre-region activity must not leak into the measurement.
        hip.launchKernel(KernelSpec("warm", [BufferAccess(buf, "read")]))
        prof = RocProf(hip.apu)
        prof.start()
        result = hip.launchKernel(
            KernelSpec("hot", [BufferAccess(buf, "read", passes=5)])
        )
        region = prof.stop()
        assert region.tlb_misses == result.tlb_misses
        assert region["GRBM_GUI_ACTIVE_kernels"] == 1

    def test_stop_without_start_rejected(self, hip):
        with pytest.raises(RuntimeError):
            RocProf(hip.apu).stop()

    def test_traffic_counters(self, hip):
        buf = hip.hipMalloc(4 * MiB)
        prof = RocProf(hip.apu)
        prof.start()
        hip.launchKernel(KernelSpec("k", [BufferAccess(buf, "readwrite")]))
        region = prof.stop()
        assert region["TCC_EA_RDREQ_bytes"] == 4 * MiB
        assert region["TCC_EA_WRREQ_bytes"] == 4 * MiB

    def test_counter_map_names(self):
        assert "TCP_UTCL1_TRANSLATION_MISS_sum" in COUNTER_MAP


class TestPerfStat:
    def test_counts_cpu_faults(self, apu):
        buf = apu.memory.malloc(1 * MiB)
        perf = PerfStat(apu)
        perf.start()
        apu.touch(buf, "cpu")
        report = perf.stop()
        assert report.page_faults == 256
        assert report.faulted_pages == 256

    def test_region_scoped(self, apu):
        a = apu.memory.malloc(1 * MiB)
        b = apu.memory.malloc(1 * MiB)
        apu.touch(a, "cpu")  # outside region
        perf = PerfStat(apu)
        perf.start()
        apu.touch(b, "cpu")
        assert perf.stop().page_faults == 256

    def test_gpu_fault_pages_reported(self, apu):
        buf = apu.memory.malloc(1 * MiB)
        perf = PerfStat(apu)
        perf.start()
        apu.touch(buf, "gpu")
        report = perf.stop()
        assert report.gpu_major_pages == 256

    def test_str_format(self, apu):
        perf = PerfStat(apu)
        perf.start()
        report = perf.stop()
        assert "page-faults" in str(report)


class TestMemoryUsageProfiler:
    def test_peak_via_libnuma_sampling(self, apu):
        profiler = MemoryUsageProfiler(apu)
        big = apu.memory.hip_malloc(32 * MiB)
        profiler.sample()
        apu.memory.free(big)
        apu.memory.hip_malloc(1 * MiB)
        profiler.sample()
        assert profiler.peak_bytes == 32 * MiB

    def test_interfaces_snapshot(self, apu):
        # The five-interface readings sit beside the profiler in
        # repro.core.meminfo; hipMalloc is physical but not in VmRSS.
        apu.memory.hip_malloc(2 * MiB)
        snap = snapshot(apu.memory, apu.physical)
        assert snap.meminfo_used == 2 * MiB
        assert snap.vm_rss == 0
