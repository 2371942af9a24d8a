"""Unit tests for the memory-usage interfaces (repro.core.meminfo).

The paper's Section 3.2 point: the interfaces disagree, each with a
specific blind spot.  These tests pin the visibility matrix.
"""

import pytest

from repro.core.meminfo import (
    hip_mem_get_info,
    libnuma_free,
    proc_meminfo,
    rocm_smi_used_bytes,
    snapshot,
    vm_rss,
)
from repro.hw.config import MiB
from repro.profiling.memusage import MemoryUsageProfiler


class TestPhysicalInterfaces:
    def test_meminfo_sees_up_front_immediately(self, apu):
        before = proc_meminfo(apu.physical)["MemUsed"]
        apu.memory.hip_malloc(4 * MiB)
        after = proc_meminfo(apu.physical)["MemUsed"]
        assert after - before == 4 * MiB

    def test_meminfo_sees_on_demand_after_touch(self, apu):
        buf = apu.memory.malloc(4 * MiB)
        assert proc_meminfo(apu.physical)["MemUsed"] == 0
        apu.touch(buf, "cpu")
        assert proc_meminfo(apu.physical)["MemUsed"] == 4 * MiB

    def test_libnuma_matches_meminfo(self, apu):
        apu.memory.hip_host_malloc(2 * MiB)
        free, total = libnuma_free(apu.physical)
        info = proc_meminfo(apu.physical)
        assert total - free == info["MemUsed"]
        assert total == info["MemTotal"]


class TestHipInterfaces:
    def test_hip_mem_get_info_sees_only_hipmalloc(self, apu):
        free0, total = hip_mem_get_info(apu.memory, apu.physical)
        assert free0 == total
        apu.memory.hip_malloc(4 * MiB)
        free1, _ = hip_mem_get_info(apu.memory, apu.physical)
        assert free0 - free1 == 4 * MiB
        # Other allocators are invisible to it.
        buf = apu.memory.hip_host_malloc(8 * MiB)
        apu.touch(apu.memory.malloc(8 * MiB), "cpu")
        free2, _ = hip_mem_get_info(apu.memory, apu.physical)
        assert free2 == free1

    def test_rocm_smi_matches_hip(self, apu):
        apu.memory.hip_malloc(4 * MiB)
        apu.memory.hip_host_malloc(4 * MiB)
        assert rocm_smi_used_bytes(apu.memory) == 4 * MiB


class TestProcessInterfaces:
    def test_vm_rss_excludes_hipmalloc(self, apu):
        apu.memory.hip_malloc(4 * MiB)
        assert vm_rss(apu.memory) == 0

    def test_vm_rss_sees_touched_malloc(self, apu):
        buf = apu.memory.malloc(4 * MiB)
        assert vm_rss(apu.memory) == 0
        apu.touch(buf, "cpu")
        assert vm_rss(apu.memory) == 4 * MiB

    def test_vm_rss_sees_pinned_host(self, apu):
        apu.memory.hip_host_malloc(2 * MiB)
        assert vm_rss(apu.memory) == 2 * MiB


class TestDisagreement:
    def test_no_single_interface_sees_everything(self, apu):
        """The paper's core observation, as an executable statement."""
        apu.memory.hip_malloc(4 * MiB)  # invisible to VmRSS
        apu.memory.hip_host_malloc(4 * MiB)  # invisible to hipMemGetInfo
        snap = snapshot(apu.memory, apu.physical)
        truth = 8 * MiB
        assert snap.meminfo_used == truth  # only the physical counters
        assert snap.rocm_smi_used < truth
        assert snap.vm_rss < truth


class TestPeakSampler:
    def test_tracks_high_water_mark(self, apu):
        profiler = MemoryUsageProfiler(apu)
        a = apu.memory.hip_malloc(8 * MiB)
        profiler.sample()
        apu.memory.free(a)
        apu.memory.hip_malloc(2 * MiB)
        profiler.sample()
        assert profiler.peak_bytes == 8 * MiB

    def test_relative_to_baseline(self, apu):
        apu.memory.hip_malloc(4 * MiB)  # pre-existing usage
        profiler = MemoryUsageProfiler(apu)
        apu.memory.hip_malloc(2 * MiB)
        assert profiler.sample() == 2 * MiB
