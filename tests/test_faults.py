"""Unit tests for the fault handler and XNACK semantics (repro.core.faults)."""

import numpy as np
import pytest

from repro.core.faults import GPUMemoryAccessError
from repro.core.address_space import GPU_ACCESS_NEVER
from repro.hw.config import PAGE_SIZE
from repro.inject import InjectionPlan, Injector, NthCall
from repro.perf.faultmodel import (
    fault_burst_time_ns,
    sample_latency_distribution,
)
from repro.runtime import make_apu


class TestCPUOnDemandFaults:
    def test_first_touch_allocates_and_maps(self, apu):
        buf = apu.memory.malloc(16 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 16, "cpu")
        assert report.cpu_fault_events == 16  # one per page
        assert report.cpu_faulted_pages == 16
        assert buf.vma.sys_valid.all()
        assert buf.vma.resident_pages() == 16

    def test_second_touch_no_faults(self, apu):
        buf = apu.memory.malloc(4 * PAGE_SIZE)
        apu.faults.touch_range(buf.vma, 0, 4, "cpu")
        report = apu.faults.touch_range(buf.vma, 0, 4, "cpu")
        assert not report.any_faults
        assert report.service_time_ns == 0.0

    def test_partial_touch(self, apu):
        buf = apu.memory.malloc(8 * PAGE_SIZE)
        apu.faults.touch_range(buf.vma, 2, 3, "cpu")
        assert buf.vma.resident_pages() == 3
        assert buf.vma.sys_valid[2:5].all()

    def test_counters_accumulate(self, apu):
        buf = apu.memory.malloc(4 * PAGE_SIZE)
        apu.faults.touch_range(buf.vma, 0, 2, "cpu")
        apu.faults.touch_range(buf.vma, 2, 2, "cpu")
        assert apu.faults.counters.cpu_fault_events == 4

    def test_service_time_positive(self, apu):
        buf = apu.memory.malloc(4 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 4, "cpu")
        assert report.service_time_ns > 0

    def test_concurrency_reduces_service_time(self, apu):
        a = apu.memory.malloc(256 * PAGE_SIZE)
        b = apu.memory.malloc(256 * PAGE_SIZE)
        t1 = apu.faults.touch_range(a.vma, 0, 256, "cpu", concurrency=1)
        t12 = apu.faults.touch_range(b.vma, 0, 256, "cpu", concurrency=12)
        assert t12.service_time_ns < t1.service_time_ns


class TestCPUFaultAround:
    def test_up_front_memory_faults_in_batches(self, apu):
        buf = apu.memory.hip_malloc(1 << 20)  # 256 pages, all backed
        report = apu.faults.touch_range(buf.vma, 0, 256, "cpu")
        # 512 KiB fault-around -> 128 pages per event -> 2 events.
        assert report.cpu_fault_events == 2
        assert report.cpu_faulted_pages == 256

    def test_gpu_touched_halves_granularity(self, apu):
        buf = apu.memory.hip_malloc(1 << 20)
        apu.faults.touch_range(buf.vma, 0, 256, "gpu")
        report = apu.faults.touch_range(buf.vma, 0, 256, "cpu")
        assert report.cpu_fault_events == 4  # 256 KiB windows

    def test_sparse_touch_counts_windows(self, apu):
        buf = apu.memory.hip_malloc(4 << 20)  # 1024 pages
        # Touch one page in each of three distinct 128-page windows.
        for page in (0, 200, 900):
            apu.faults.touch_range(buf.vma, page, 1, "cpu")
        assert apu.faults.counters.cpu_fault_events == 3


class TestGPUFaults:
    def test_major_fault_allocates_chunks(self, apu):
        buf = apu.memory.malloc(64 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 64, "gpu")
        assert report.gpu_major_pages == 64
        assert buf.vma.gpu_valid.all()
        assert buf.vma.sys_valid.all()  # system table also populated
        # Chunked allocation: physically contiguous runs -> big fragments.
        assert buf.vma.fragment.max() >= 4

    def test_minor_fault_propagates_only(self, apu):
        buf = apu.memory.malloc(16 * PAGE_SIZE)
        apu.faults.touch_range(buf.vma, 0, 16, "cpu")
        report = apu.faults.touch_range(buf.vma, 0, 16, "gpu")
        assert report.gpu_minor_pages == 16
        assert report.gpu_major_pages == 0

    def test_minor_faster_than_major(self, apu):
        a = apu.memory.malloc(1024 * PAGE_SIZE)
        b = apu.memory.malloc(1024 * PAGE_SIZE)
        major = apu.faults.touch_range(a.vma, 0, 1024, "gpu")
        apu.faults.touch_range(b.vma, 0, 1024, "cpu")
        minor = apu.faults.touch_range(b.vma, 0, 1024, "gpu")
        assert minor.service_time_ns < major.service_time_ns

    def test_gpu_touch_of_mapped_memory_is_free(self, apu):
        buf = apu.memory.hip_malloc(16 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 16, "gpu")
        assert not report.any_faults
        assert buf.vma.gpu_touched

    def test_gpu_touched_flag_set(self, apu):
        buf = apu.memory.malloc(4 * PAGE_SIZE)
        assert not buf.vma.gpu_touched
        apu.faults.touch_range(buf.vma, 0, 4, "gpu")
        assert buf.vma.gpu_touched


class TestXNACKSemantics:
    def test_malloc_gpu_access_requires_xnack(self, apu_noxnack):
        buf = apu_noxnack.memory.malloc(4 * PAGE_SIZE)
        with pytest.raises(GPUMemoryAccessError):
            apu_noxnack.faults.touch_range(buf.vma, 0, 4, "gpu")

    def test_hipmalloc_gpu_access_without_xnack(self, apu_noxnack):
        buf = apu_noxnack.memory.hip_malloc(4 * PAGE_SIZE)
        report = apu_noxnack.faults.touch_range(buf.vma, 0, 4, "gpu")
        assert not report.any_faults

    def test_static_host_never_gpu_accessible(self, apu):
        buf = apu.memory.static_host(4 * PAGE_SIZE)
        with pytest.raises(GPUMemoryAccessError):
            apu.faults.touch_range(buf.vma, 0, 4, "gpu")

    def test_unmapped_page_fatal_without_xnack(self, apu_noxnack):
        # hipMallocManaged without XNACK is up-front: GPU-safe.
        managed = apu_noxnack.memory.hip_malloc_managed(4 * PAGE_SIZE)
        report = apu_noxnack.faults.touch_range(managed.vma, 0, 4, "gpu")
        assert not report.any_faults

    def test_error_message_mentions_xnack(self, apu_noxnack):
        buf = apu_noxnack.memory.malloc(PAGE_SIZE)
        with pytest.raises(GPUMemoryAccessError, match="XNACK"):
            apu_noxnack.faults.touch_range(buf.vma, 0, 1, "gpu")


class TestLatencySampling:
    def test_means_match_calibration(self, apu):
        for kind, mean in (("cpu", 9e3), ("gpu_minor", 16e3), ("gpu_major", 18e3)):
            draws = sample_latency_distribution(apu.config, kind, 20_000)
            assert draws.mean() == pytest.approx(mean, rel=0.05)

    def test_unknown_kind_rejected(self, apu):
        with pytest.raises(ValueError):
            sample_latency_distribution(apu.config, "dma", 1)

    def test_unknown_device_rejected(self, apu):
        buf = apu.memory.malloc(PAGE_SIZE)
        with pytest.raises(ValueError):
            apu.faults.touch_range(buf.vma, 0, 1, "npu")


BURST_PAGES = (1, 2, 16, 1_000, 10_000, 262_144)


@pytest.fixture(scope="module")
def apu4():
    """One 4 GiB XNACK APU shared by the burst-cost cases (each frees)."""
    return make_apu(4, xnack=True)


class TestOneFaultCostModel:
    """The engine charges every fault burst with the one fault model."""

    def _burst(self, apu, kind, pages, concurrency):
        buf = apu.memory.malloc(pages * PAGE_SIZE)
        if kind == "gpu_minor":
            apu.faults.touch_range(buf.vma, 0, pages, "cpu", concurrency=12)
        device = "cpu" if kind == "cpu" else "gpu"
        report = apu.faults.touch_range(
            buf.vma, 0, pages, device, concurrency=concurrency
        )
        apu.memory.free(buf)
        return report

    @pytest.mark.parametrize("pages", BURST_PAGES)
    @pytest.mark.parametrize("kind", ["gpu_major", "gpu_minor"])
    def test_gpu_burst_equals_model(self, apu4, kind, pages):
        report = self._burst(apu4, kind, pages, apu4.gpu.compute_units)
        assert report.service_time_ns == fault_burst_time_ns(
            apu4.config, kind, pages
        )

    @pytest.mark.parametrize("pages", BURST_PAGES)
    @pytest.mark.parametrize("cores", [1, 12, 24])
    def test_cpu_burst_equals_model(self, apu4, cores, pages):
        report = self._burst(apu4, "cpu", pages, cores)
        assert report.cpu_fault_events == pages
        assert report.service_time_ns == fault_burst_time_ns(
            apu4.config, "cpu", pages, cores=cores
        )

    @pytest.mark.parametrize("cores", [1, 12, 24])
    def test_one_page_costs_the_single_fault_latency(self, config, cores):
        costs = config.fault_costs
        for kind, latency in (
            ("cpu", costs.cpu_single_latency_ns),
            ("gpu_minor", costs.gpu_minor_single_latency_ns),
            ("gpu_major", costs.gpu_major_single_latency_ns),
        ):
            assert fault_burst_time_ns(config, kind, 1, cores=cores) == latency

    @pytest.mark.parametrize("pages", [1, 100, 10_000])
    @pytest.mark.parametrize("kind", ["gpu_major", "gpu_minor"])
    def test_stormed_burst_equals_model(self, kind, pages):
        # A factor-4 storm replays every faulted page three more times,
        # and one dropped replay re-runs a one-page handler pass.
        plan = InjectionPlan([
            Injector("xnack.storm", "storm", NthCall(1),
                     params={"factor": 4.0}),
            Injector("xnack.retry", "drop", NthCall(1)),
        ], seed=0, name="storm")
        apu = make_apu(1, xnack=True, inject=plan)
        report = self._burst(apu, kind, pages, apu.gpu.compute_units)
        assert (report.storm_replay_pages, report.xnack_retries) == (
            3 * pages, 1
        )
        assert report.service_time_ns == (
            fault_burst_time_ns(apu.config, kind, pages)
            + fault_burst_time_ns(apu.config, "gpu_major", 1)
            + fault_burst_time_ns(apu.config, "gpu_minor", 3 * pages)
        )

    def test_fig8_mean_is_the_one_page_cost(self, config):
        for kind in ("cpu", "gpu_minor", "gpu_major"):
            draws = sample_latency_distribution(config, kind, 200_000)
            assert draws.mean() == pytest.approx(
                fault_burst_time_ns(config, kind, 1), rel=0.01
            )


class TestEagerGPUMaps:
    """The Bertolli et al. eager-maps configuration (paper Section 7)."""

    def _eager_apu(self):
        import dataclasses

        from repro.hw.config import small_config
        from repro.runtime.apu import APU

        cfg = small_config(2 << 30)
        cfg = cfg.replace(
            policy=dataclasses.replace(cfg.policy, eager_gpu_maps=True)
        )
        return APU(config=cfg, xnack=True)

    def test_cpu_touch_propagates_to_gpu_table(self):
        apu = self._eager_apu()
        buf = apu.memory.malloc(64 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 64, "cpu")
        assert report.eager_mapped_pages == 64
        assert buf.vma.gpu_valid.all()

    def test_gpu_then_takes_no_minor_faults(self):
        apu = self._eager_apu()
        buf = apu.memory.malloc(64 * PAGE_SIZE)
        apu.faults.touch_range(buf.vma, 0, 64, "cpu")
        report = apu.faults.touch_range(buf.vma, 0, 64, "gpu")
        assert not report.any_faults

    def test_eager_mapping_costs_cpu_time(self, apu):
        eager = self._eager_apu()
        lazy_buf = apu.memory.malloc(256 * PAGE_SIZE)
        eager_buf = eager.memory.malloc(256 * PAGE_SIZE)
        lazy = apu.faults.touch_range(lazy_buf.vma, 0, 256, "cpu")
        eager_report = eager.faults.touch_range(eager_buf.vma, 0, 256, "cpu")
        assert eager_report.service_time_ns > lazy.service_time_ns

    def test_static_host_memory_not_propagated(self):
        apu = self._eager_apu()
        buf = apu.memory.static_host(16 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 16, "cpu")
        assert report.eager_mapped_pages == 0
        assert not buf.vma.gpu_valid.any()

    def test_default_policy_is_lazy(self, apu):
        buf = apu.memory.malloc(16 * PAGE_SIZE)
        report = apu.faults.touch_range(buf.vma, 0, 16, "cpu")
        assert report.eager_mapped_pages == 0
        assert not buf.vma.gpu_valid.any()
