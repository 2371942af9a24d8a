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


def _dicts(experiment, rows):
    """Rows of a registered experiment's runner, keyed by its columns."""
    columns = get_spec(experiment).columns
    return [dict(zip(columns, row)) for row in rows]


def _latencies(allocator, device, sizes, memory_gib):
    rows = multichase.chase_curve(allocator, device, sizes, memory_gib)
    return [r["latency_ns"] for r in _dicts("fig2", rows)]


class TestMultichase:
    def test_curve_shape(self):
        latencies = _latencies(
            "hipMalloc", "gpu", [1 * KiB, 1 * MiB, 64 * MiB], memory_gib=2
        )
        assert latencies == sorted(latencies)
        assert latencies[0] == pytest.approx(57, abs=2)

    def test_cpu_below_gpu(self):
        (cpu,) = _latencies("hipMalloc", "cpu", [1 * MiB], memory_gib=2)
        (gpu,) = _latencies("hipMalloc", "gpu", [1 * MiB], memory_gib=2)
        assert cpu < gpu

    def test_malloc_penalty_near_ic_capacity(self):
        (malloc,) = _latencies("malloc", "cpu", [512 * MiB], memory_gib=16)
        (hip,) = _latencies("hipMalloc", "cpu", [512 * MiB], memory_gib=16)
        assert malloc > hip + 10

    def test_unknown_allocator_rejected(self):
        with pytest.raises(ValueError):
            multichase.chase_curve("cudaMalloc", "cpu", [1 * KiB], 2)


def _triad(case, memory_gib):
    (row,) = _dicts("fig3", stream.triad(case, memory_gib, 64 * MiB))
    return row


def _faults(config):
    (row,) = _dicts("fig10", stream.cpu_fault_count(config, 16 * MiB, 2))
    return row["page_faults"]


class TestStream:
    def test_gpu_tiers(self):
        hip = _triad("gpu|hipMalloc|cpu", memory_gib=2)
        host = _triad("gpu|hipHostMalloc|cpu", memory_gib=2)
        assert hip["bandwidth_bytes_per_s"] > host["bandwidth_bytes_per_s"]

    def test_cpu_best_threads(self):
        assert _triad("cpu|hipMalloc|cpu", memory_gib=2)["best_threads"] == 24
        assert _triad("cpu|malloc|cpu", memory_gib=16)["best_threads"] == 9

    def test_fault_counter_scales_with_array(self):
        assert _faults("malloc / baseline") == 3 * (16 * MiB // 4096)

    def test_hipmalloc_far_fewer_cpu_faults(self):
        assert _faults("malloc / baseline") > 50 * _faults("hipMalloc / baseline")

    def test_tlb_miss_gap(self):
        malloc, hip = (
            _dicts("fig9", stream.tlb_misses(a, 64 * MiB, 2))[0]["gpu_tlb_misses"]
            for a in ("malloc", "hipMalloc")
        )
        assert malloc > 5 * hip


class TestHipBandwidth:
    def test_three_regimes(self):
        def bandwidth(transfer, sdma):
            rows = hipbandwidth.measure_memcpy(transfer, sdma, 64 * MiB, 2)
            return _dicts("memcpy", rows)[0]["bandwidth_bytes_per_s"]

        slow = bandwidth("malloc -> hipMalloc", True)
        blit = bandwidth("malloc -> hipMalloc", False)
        d2d = bandwidth("hipMalloc -> hipMalloc", True)
        assert slow == pytest.approx(58e9, rel=0.1)
        assert blit == pytest.approx(850e9, rel=0.1)
        assert d2d == pytest.approx(1.9e12, rel=0.15)
        assert slow < blit < d2d


class TestHistogramBench:
    def test_sweeps_return_samples(self):
        cpu = _dicts("fig4", histogram.isolated_sweep("cpu", "uint64", 1 << 10))
        gpu = _dicts("fig4", histogram.isolated_sweep("gpu", "uint64", 1 << 10))
        assert [r["threads"] for r in cpu] == list(histogram.CPU_THREADS)
        assert [r["threads"] for r in gpu] == list(histogram.GPU_THREADS)
        assert all(r["updates_per_s"] > 0 for r in cpu + gpu)

    def test_hybrid_grid_dimensions(self):
        grid = histogram.hybrid_grid(
            "uint64", 1 << 10, cpu_threads=[6], gpu_threads=[64, 3328]
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
            (model,) = _dicts("fig6", allocspeed.cost_sweep(allocator, [1 * MiB]))
            alloc_ns, free_ns = allocspeed.timed_loop(
                allocator, 1 * MiB, count=10, warmup=2
            )
            assert alloc_ns == pytest.approx(model["alloc_ns"], rel=0.01)
            assert free_ns == pytest.approx(model["free_ns"], rel=0.01)

    def test_malloc_fastest_small(self):
        rows = {
            a: _dicts("fig6", allocspeed.cost_sweep(a, [32]))[0]["alloc_ns"]
            for a in dict(get_spec("fig6").grid)["allocator"]
        }
        assert min(rows, key=rows.get) == "malloc"

    def test_managed_xnack_constant(self):
        rows = _dicts("fig6", allocspeed.cost_sweep(
            "hipMallocManaged(xnack=1)", [2, 1 * MiB, 1 << 30]
        ))
        assert len({r["alloc_ns"] for r in rows}) == 1


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
        stats = {
            r["fault_type"]: r
            for r in _dicts("fig8", pagefault.latency_distributions(5_000))
        }
        assert stats["cpu"]["mean_us"] == pytest.approx(9.0, rel=0.05)
        assert stats["gpu_major"]["p95_us"] > stats["cpu"]["p95_us"]

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            pagefault.measured_throughput("dma", 10)

    def test_unknown_scenario_leaves_the_apu_untouched(self):
        apu = make_apu(2, xnack=True)
        before = (list(apu.memory.allocations), apu.memory.live_bytes())
        with pytest.raises(ValueError):
            pagefault.measured_throughput("dma", 10, apu=apu)
        assert (list(apu.memory.allocations), apu.memory.live_bytes()) == before
