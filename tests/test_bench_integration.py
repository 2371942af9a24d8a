"""Integration tests for the benchmark library (repro.bench).

Small problem sizes; the full paper-scale sweeps live in benchmarks/.
"""

import numpy as np
import pytest

from repro.bench import (
    allocspeed,
    hipbandwidth,
    histogram,
    multichase,
    pagefault,
    stream,
)
from repro.exp import get_spec
from repro.hw.config import KiB, MiB, default_config
from repro.perf.faultmodel import fault_throughput_pages_per_s
from repro.runtime import make_apu


class TestMultichase:
    def test_curve_shape(self):
        samples = multichase.chase_curve(
            "hipMalloc", "gpu", sizes=[1 * KiB, 1 * MiB, 64 * MiB],
            memory_gib=2,
        )
        latencies = [s.latency_ns for s in samples]
        assert latencies == sorted(latencies)
        assert samples[0].latency_ns == pytest.approx(57, abs=2)

    def test_cpu_below_gpu(self):
        cpu = multichase.chase_curve(
            "hipMalloc", "cpu", sizes=[1 * MiB], memory_gib=2
        )[0]
        gpu = multichase.chase_curve(
            "hipMalloc", "gpu", sizes=[1 * MiB], memory_gib=2
        )[0]
        assert cpu.latency_ns < gpu.latency_ns

    def test_malloc_penalty_near_ic_capacity(self):
        malloc = multichase.chase_curve(
            "malloc", "cpu", sizes=[512 * MiB], memory_gib=16
        )[0]
        hip = multichase.chase_curve(
            "hipMalloc", "cpu", sizes=[512 * MiB], memory_gib=16
        )[0]
        assert malloc.latency_ns > hip.latency_ns + 10

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ValueError):
            multichase.chase_curve("cudaMalloc", "cpu", sizes=[1 * KiB])


class TestStream:
    def test_gpu_tiers(self):
        hip = stream.gpu_triad("hipMalloc", array_bytes=64 * MiB, memory_gib=2)
        host = stream.gpu_triad("hipHostMalloc", array_bytes=64 * MiB, memory_gib=2)
        assert hip.bandwidth_bytes_per_s > host.bandwidth_bytes_per_s

    def test_cpu_best_threads(self):
        result = stream.cpu_triad(
            "hipMalloc", array_bytes=64 * MiB, memory_gib=2
        )
        assert result.best_threads == 24
        result_b = stream.cpu_triad(
            "malloc", array_bytes=64 * MiB, memory_gib=16
        )
        assert result_b.best_threads == 9

    def test_fault_counter_scales_with_array(self):
        report = stream.cpu_fault_count(
            "malloc", xnack=False, array_bytes=16 * MiB, memory_gib=2
        )
        assert report.page_faults == 3 * (16 * MiB // 4096)

    def test_hipmalloc_far_fewer_cpu_faults(self):
        hip_faults = stream.cpu_fault_count(
            "hipMalloc", xnack=False, array_bytes=16 * MiB, memory_gib=2
        ).page_faults
        malloc_faults = stream.cpu_fault_count(
            "malloc", xnack=False, array_bytes=16 * MiB, memory_gib=2
        ).page_faults
        assert malloc_faults > 50 * hip_faults

    def test_tlb_miss_gap(self):
        malloc, hip = (
            stream.gpu_triad(a, array_bytes=64 * MiB, memory_gib=2)
            for a in ("malloc", "hipMalloc")
        )
        assert malloc.gpu_tlb_misses > 5 * hip.gpu_tlb_misses


class TestHipBandwidth:
    def test_three_regimes(self):
        slow = hipbandwidth.measure_memcpy(
            "malloc", "hipMalloc", sdma_enabled=True, copy_bytes=64 * MiB,
            memory_gib=2,
        )
        blit = hipbandwidth.measure_memcpy(
            "malloc", "hipMalloc", sdma_enabled=False, copy_bytes=64 * MiB,
            memory_gib=2,
        )
        d2d = hipbandwidth.measure_memcpy(
            "hipMalloc", "hipMalloc", copy_bytes=64 * MiB, memory_gib=2
        )
        assert slow == pytest.approx(58e9, rel=0.1)
        assert blit == pytest.approx(850e9, rel=0.1)
        assert d2d == pytest.approx(1.9e12, rel=0.15)
        assert slow < blit < d2d


class TestHistogramBench:
    def test_sweeps_return_samples(self):
        cpu = histogram.cpu_sweep(1 << 10, "uint64", threads=[1, 24])
        gpu = histogram.gpu_sweep(1 << 10, "uint64", threads=[64, 3328])
        assert len(cpu) == 2 and len(gpu) == 2
        assert all(s.updates_per_s > 0 for s in cpu + gpu)

    def test_hybrid_grid_dimensions(self):
        grid = histogram.hybrid_grid(
            1 << 10, "uint64", cpu_threads=[6], gpu_threads=[64, 3328]
        )
        assert len(grid) == 2

    def test_histogram_conservation(self):
        hist = histogram.run_histogram_kernel(128, updates=10_000, workers=7)
        assert hist.sum() == 10_000

    def test_histogram_deterministic(self):
        a = histogram.run_histogram_kernel(64, 1000, workers=3, seed=1)
        b = histogram.run_histogram_kernel(64, 1000, workers=3, seed=1)
        assert np.array_equal(a, b)

    def test_histogram_fp64(self):
        hist = histogram.run_histogram_kernel(16, 500, dtype="fp64")
        assert hist.dtype == np.float64
        assert hist.sum() == pytest.approx(500.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            histogram.run_histogram_kernel(0, 10)


class TestAllocSpeedBench:
    def test_cost_sweep_matches_live_timing(self):
        """The live allocators must charge what the models predict."""
        for allocator in ("malloc", "hipMalloc", "hipHostMalloc"):
            model = allocspeed.cost_sweep(allocator, sizes=[1 * MiB])[0]
            live = allocspeed.timed_loop(allocator, 1 * MiB, count=10, warmup=2)
            assert live.alloc_ns == pytest.approx(model.alloc_ns, rel=0.01)
            assert live.free_ns == pytest.approx(model.free_ns, rel=0.01)

    def test_malloc_fastest_small(self):
        rows = {
            a: allocspeed.cost_sweep(a, sizes=[32])[0].alloc_ns
            for a in dict(get_spec("fig6").grid)["allocator"]
        }
        assert min(rows, key=rows.get) == "malloc"

    def test_managed_xnack_constant(self):
        rows = allocspeed.cost_sweep(
            "hipMallocManaged(xnack=1)", sizes=[2, 1 * MiB, 1 << 30]
        )
        assert len({r.alloc_ns for r in rows}) == 1


class TestPageFaultBench:
    def test_measured_close_to_model_at_plateau(self):
        measured = pagefault.measured_throughput("cpu", 20_000)
        assert measured == pytest.approx(872e3, rel=0.25)

    def test_measured_gpu_minor_beats_major(self):
        minor = pagefault.measured_throughput("gpu_minor", 20_000)
        major = pagefault.measured_throughput("gpu_major", 20_000)
        assert minor > major

    def test_measured_cpu12_beats_cpu1(self):
        one = pagefault.measured_throughput("cpu", 20_000)
        twelve = pagefault.measured_throughput("cpu12", 20_000)
        assert twelve > 2 * one

    @pytest.mark.parametrize("pages", [1, 100, 20_000])
    @pytest.mark.parametrize(
        "scenario", ["gpu_major", "gpu_minor", "cpu", "cpu12"]
    )
    def test_measured_equals_model(self, scenario, pages):
        # The engine and Fig. 7 price a burst with the same function.
        measured = pagefault.measured_throughput(scenario, pages)
        assert measured == pytest.approx(
            fault_throughput_pages_per_s(default_config(), scenario, pages),
            rel=1e-12,
        )

    def test_latency_stats(self):
        stats = {s.scenario: s for s in pagefault.latency_distributions(5_000)}
        assert stats["cpu"].mean_us == pytest.approx(9.0, rel=0.05)
        assert stats["gpu_major"].p95_us > stats["cpu"].p95_us

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            pagefault.measured_throughput("dma", 10)

    def test_unknown_scenario_leaves_the_apu_untouched(self):
        apu = make_apu(2, xnack=True)
        before = (list(apu.memory.allocations), apu.memory.live_bytes())
        with pytest.raises(ValueError):
            pagefault.measured_throughput("dma", 10, apu=apu)
        assert (list(apu.memory.allocations), apu.memory.live_bytes()) == before
