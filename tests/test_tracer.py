"""Tests for the porting advisor over the runtime event log
(repro.profiling.tracer)."""

from types import SimpleNamespace

import pytest

from repro.hw.config import MiB
from repro.profiling import PortingAdvisor
from repro.runtime import make_runtime
from repro.runtime.kernels import BufferAccess, KernelSpec


def _traced():
    return make_runtime(memory_gib=2, xnack=True, trace=True)


def _kinds(log, wanted=("alloc", "free", "memcpy", "kernel")):
    return [e.kind for e in log if e.kind in wanted]


@pytest.fixture
def traced_explicit_run():
    """A miniature explicit-model run: h/d pair + copies + kernel.

    Yields the run's event ``log``, its ``apu`` and the ``kernel``'s
    :class:`KernelResult`.
    """
    hip = _traced()
    memory = hip.apu.memory
    h = memory.malloc(16 * MiB, name="h_data")
    d = memory.hip_malloc(16 * MiB, name="d_data")
    memory.hip_malloc(4 * MiB, name="d_scratch")
    hip.hipMemcpy(d, h, 16 * MiB)
    kernel = hip.launchKernel(
        KernelSpec("stencil", [BufferAccess(d, "readwrite")])
    )
    hip.hipDeviceSynchronize()
    hip.hipMemcpy(h, d, 16 * MiB)
    return SimpleNamespace(log=hip.apu.trace, apu=hip.apu, kernel=kernel)


class TestTracer:
    def test_records_events_in_order(self, traced_explicit_run):
        assert _kinds(traced_explicit_run.log) == [
            "alloc", "alloc", "alloc", "memcpy", "kernel", "memcpy",
        ]

    def test_live_bytes(self, traced_explicit_run):
        apu = traced_explicit_run.apu
        assert apu.memory.live_bytes() == 36 * MiB
        scratch = next(a for a in apu.memory.allocations
                       if a.vma.name == "d_scratch")
        apu.memory.free(scratch)
        assert apu.memory.live_bytes() == 32 * MiB
        assert _kinds(apu.trace)[-1] == "free"

    def test_accessed_tracking(self):
        hip = _traced()
        memory = hip.apu.memory
        copied = memory.malloc(1 * MiB, name="copied")
        launched = memory.hip_malloc(1 * MiB, name="launched")
        memory.hip_malloc(1 * MiB, name="idle")
        staging = memory.hip_malloc(1 * MiB, name="staging")
        hip.hipMemcpy(staging, copied)
        hip.launchKernel(KernelSpec("k", [BufferAccess(launched, "read")]))
        hip.hipDeviceSynchronize()
        report = PortingAdvisor(hip.apu.trace).analyse()
        assert report.dead_allocations == ["idle"]

    def test_query_helpers(self, traced_explicit_run):
        kinds = _kinds(traced_explicit_run.log)
        assert kinds.count("memcpy") == 2
        assert kinds.count("kernel") == 1
        assert kinds.count("alloc") == 3

    def test_log_carries_copy_and_fault_time(self):
        hip = _traced()
        memory = hip.apu.memory
        h = memory.malloc(4 * MiB, name="h")
        d = memory.hip_malloc(4 * MiB, name="d")
        hip.hipMemcpy(d, h)  # resolves the copy's first-touch faults
        started = hip.apu.clock.now_ns
        hip.hipMemcpy(d, h)
        copy = [e for e in hip.apu.trace if e.kind == "memcpy"][-1]
        assert copy.data["duration_ns"] == pytest.approx(
            hip.apu.clock.now_ns - started
        )
        fresh = memory.malloc(4 * MiB, name="fresh")
        result = hip.launchKernel(
            KernelSpec("k", [BufferAccess(fresh, "read")])
        )
        kernel = [e for e in hip.apu.trace if e.kind == "kernel"][-1]
        assert result.fault_ns > 0
        assert kernel.data["fault_ns"] == result.fault_ns


class TestAdvisor:
    def test_finds_duplicated_pair(self, traced_explicit_run):
        report = PortingAdvisor(traced_explicit_run.log).analyse()
        assert len(report.duplicated_pairs) == 1
        finding = report.duplicated_pairs[0]
        assert finding.host_buffer == "h_data"
        assert finding.device_buffer == "d_data"
        assert finding.copies == 2
        assert finding.memory_saving_bytes == 16 * MiB

    def test_potential_saving(self, traced_explicit_run):
        report = PortingAdvisor(traced_explicit_run.log).analyse()
        assert report.potential_memory_saving_bytes == 16 * MiB

    def test_copy_fraction(self, traced_explicit_run):
        log = traced_explicit_run.log
        report = PortingAdvisor(log).analyse()
        copies = [e.data["duration_ns"] for e in log if e.kind == "memcpy"]
        assert all(c > 0 for c in copies)
        assert report.copy_time_ns == pytest.approx(sum(copies))
        assert report.duplicated_pairs[0].copy_time_ns == pytest.approx(
            sum(copies)
        )
        kernel = traced_explicit_run.kernel
        assert report.kernel_time_ns == pytest.approx(kernel.duration_ns)
        assert report.copy_fraction == pytest.approx(
            sum(copies) / (sum(copies) + kernel.duration_ns)
        )

    def test_dead_allocation_detected(self, traced_explicit_run):
        report = PortingAdvisor(traced_explicit_run.log).analyse()
        assert report.dead_allocations == ["d_scratch"]

    def test_fault_dominated_kernel(self):
        hip = _traced()
        vec = hip.apu.memory.malloc(4 * MiB, name="std::vector")
        hip.launchKernel(KernelSpec("euclid", [BufferAccess(vec, "read")]))
        hip.hipDeviceSynchronize()
        report = PortingAdvisor(hip.apu.trace).analyse()
        assert report.fault_dominated_kernels == ["euclid"]

    def test_unified_run_is_clean(self):
        hip = _traced()
        buf = hip.apu.memory.hip_malloc(16 * MiB, name="unified")
        hip.launchKernel(KernelSpec("stencil", [BufferAccess(buf, "read")]))
        hip.hipDeviceSynchronize()
        report = PortingAdvisor(hip.apu.trace).analyse()
        assert not report.duplicated_pairs
        assert not report.dead_allocations
        assert not report.fault_dominated_kernels
        assert report.copy_fraction == 0.0

    def test_size_mismatch_not_paired(self):
        hip = _traced()
        h = hip.apu.memory.malloc(16 * MiB, name="h")
        d = hip.apu.memory.hip_malloc(8 * MiB, name="d")
        hip.hipMemcpy(d, h, 8 * MiB)
        report = PortingAdvisor(hip.apu.trace).analyse()
        assert not report.duplicated_pairs

    def test_summary_text(self, traced_explicit_run):
        text = PortingAdvisor(traced_explicit_run.log).summarise()
        assert "duplicated" in text
        assert "h_data" in text
        assert "d_scratch" in text
        assert "copies are" in text

    def test_untraced_runtime_is_rejected(self):
        hip = make_runtime(memory_gib=2, xnack=True)
        with pytest.raises(ValueError, match="trace=True"):
            PortingAdvisor(hip.apu.trace)

    def test_summary_clean_text(self):
        hip = _traced()
        buf = hip.apu.memory.hip_malloc(1 * MiB, name="u")
        hip.launchKernel(KernelSpec("k", [BufferAccess(buf, "read")]))
        hip.hipDeviceSynchronize()
        text = PortingAdvisor(hip.apu.trace).summarise()
        assert "already unified" in text
