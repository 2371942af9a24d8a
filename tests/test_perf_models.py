"""Tests for the calibrated performance models (repro.perf).

These pin the paper's reported numbers as regression anchors: Fig. 2
(latency), Fig. 3 (bandwidth), Figs. 4-5 (atomics), Figs. 7-8 (faults).
"""

import numpy as np
import pytest

from repro.bench.stream import triad
from repro.hw.config import GiB, KiB, MiB, default_config
from repro.perf.atomics import (
    cpu_atomic_throughput,
    cpu_atomic_update_cost_ns,
    gpu_atomic_throughput,
    hybrid_atomic_throughput,
)
from repro.perf.bandwidth import (
    BufferTraits,
    cpu_stream_bandwidth,
    gpu_stream_bandwidth,
    stream_time_ns,
)
from repro.perf.faultmodel import (
    fault_burst_time_ns,
    fault_throughput_pages_per_s,
    prefault_speedup,
    sample_latency_distribution,
)
from repro.perf.latency import cpu_chase_latency_ns, gpu_chase_latency_ns


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def traits(on_demand=False, uncached=False, fragment=64 * KiB, balance=1.0):
    return BufferTraits(on_demand, uncached, fragment, balance)


class TestLatencyModel:
    def test_gpu_plateaus(self, cfg):
        assert gpu_chase_latency_ns(cfg, 1 * KiB) == pytest.approx(57, abs=1)
        assert 100 <= gpu_chase_latency_ns(cfg, 1 * MiB) <= 108
        assert 205 <= gpu_chase_latency_ns(cfg, 128 * MiB) <= 218
        assert 333 <= gpu_chase_latency_ns(cfg, 4 * GiB) <= 350

    def test_cpu_plateaus(self, cfg):
        assert cpu_chase_latency_ns(cfg, 1 * KiB) == pytest.approx(1.0, abs=0.2)
        assert 228 <= cpu_chase_latency_ns(cfg, 4 * GiB) <= 241

    def test_uncached_is_flat_hbm(self, cfg):
        assert cpu_chase_latency_ns(cfg, 1 * KiB, uncached=True) == pytest.approx(
            cfg.cpu_hbm_latency_ns
        )
        assert gpu_chase_latency_ns(cfg, 1 * KiB, uncached=True) == pytest.approx(
            cfg.gpu_hbm_latency_ns
        )

    def test_monotonic_in_working_set(self, cfg):
        sizes = [1 * KiB, 64 * KiB, 1 * MiB, 32 * MiB, 512 * MiB, 4 * GiB]
        for fn in (cpu_chase_latency_ns, gpu_chase_latency_ns):
            values = [fn(cfg, s) for s in sizes]
            assert values == sorted(values)


class TestBandwidthModel:
    def test_gpu_tiers_match_fig3(self, cfg):
        hip = gpu_stream_bandwidth(cfg, traits(fragment=64 * KiB))
        pinned = gpu_stream_bandwidth(cfg, traits(fragment=8 * KiB))
        on_demand = gpu_stream_bandwidth(cfg, traits(on_demand=True, fragment=8 * KiB))
        managed = gpu_stream_bandwidth(cfg, traits(uncached=True))
        assert hip == pytest.approx(3.6e12, rel=0.02)
        assert 2.1e12 <= pinned <= 2.2e12
        assert 1.8e12 <= on_demand <= 1.9e12
        assert managed == pytest.approx(103e9)
        assert hip > pinned > on_demand > managed

    def test_hipmalloc_advantage_factor(self, cfg):
        # Paper: hipMalloc is 1.6-2.0x faster than other GPU options.
        hip = gpu_stream_bandwidth(cfg, traits(fragment=64 * KiB))
        others = [
            gpu_stream_bandwidth(cfg, traits(fragment=8 * KiB)),
            gpu_stream_bandwidth(cfg, traits(on_demand=True, fragment=4 * KiB)),
        ]
        for other in others:
            assert 1.6 <= hip / other <= 2.0

    def test_cpu_case_a_peak(self):
        (row,) = triad("cpu|hipMalloc|cpu", memory_gib=2, array_bytes=64 * MiB)
        _, _, _, bandwidth, best_threads = row
        assert bandwidth == pytest.approx(208e9, rel=0.01)
        assert best_threads == 24

    def test_cpu_case_b_peak(self):
        (row,) = triad("cpu|malloc|cpu", memory_gib=16, array_bytes=64 * MiB)
        _, _, _, bandwidth, best_threads = row
        assert bandwidth == pytest.approx(181e9, rel=0.01)
        assert best_threads == 9

    def test_cpu_case_b_declines_past_knee(self, cfg):
        t = traits(balance=0.2)
        allcore = cpu_stream_bandwidth(cfg, t, 24)
        assert 173e9 <= allcore <= 176e9

    def test_cpu_single_thread_equal_both_cases(self, cfg):
        a = cpu_stream_bandwidth(cfg, traits(balance=1.0), 1)
        b = cpu_stream_bandwidth(cfg, traits(balance=0.2), 1)
        assert a == b

    def test_cpu_uncached_capped(self, cfg):
        bw = cpu_stream_bandwidth(cfg, traits(uncached=True), 24)
        assert bw <= cfg.bandwidth.cpu_uncached_bytes_per_s

    def test_gpu_vs_cpu_utilisation(self, cfg):
        # Paper: CPU reaches ~3% of theoretical peak, GPU ~67%.
        peak = cfg.hbm.peak_bandwidth_bytes_per_s
        cpu_frac = 208e9 / peak
        gpu_frac = gpu_stream_bandwidth(cfg, traits()) / peak
        assert cpu_frac < 0.05
        assert 0.6 <= gpu_frac <= 0.75

    def test_stream_time(self):
        assert stream_time_ns(1000, 1e9) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            stream_time_ns(-1, 1e9)
        with pytest.raises(ValueError):
            stream_time_ns(1, 0)


class TestAtomicsModel:
    def test_uint64_3x_fp64_on_cpu(self, cfg):
        for elements in (1, 1 << 10):
            u = cpu_atomic_throughput(cfg, elements, 1, "uint64")
            f = cpu_atomic_throughput(cfg, elements, 1, "fp64")
            assert u / f == pytest.approx(3.0, rel=0.05)

    def test_gpu_dtype_insensitive(self, cfg):
        for elements in (1, 1 << 10, 1 << 20, 1 << 30):
            u = gpu_atomic_throughput(cfg, elements, 3328, "uint64")
            f = gpu_atomic_throughput(cfg, elements, 3328, "fp64")
            assert u == f

    def test_small_arrays_dip_at_two_threads(self, cfg):
        for elements in (1, 1 << 10, 1 << 20):
            one = cpu_atomic_throughput(cfg, elements, 1, "uint64")
            two = cpu_atomic_throughput(cfg, elements, 2, "uint64")
            assert two < one

    def test_1m_overtakes_single_thread_at_six(self, cfg):
        one = cpu_atomic_throughput(cfg, 1 << 20, 1, "uint64")
        assert cpu_atomic_throughput(cfg, 1 << 20, 3, "uint64") < one
        assert cpu_atomic_throughput(cfg, 1 << 20, 6, "uint64") > one

    def test_1m_is_cpu_sweet_spot(self, cfg):
        at24 = {
            s: cpu_atomic_throughput(cfg, s, 24, "uint64")
            for s in (1, 1 << 10, 1 << 20, 1 << 30)
        }
        assert max(at24, key=at24.get) == 1 << 20

    def test_1g_scales_linearly_with_lower_slope(self, cfg):
        t12 = cpu_atomic_throughput(cfg, 1 << 30, 12, "uint64")
        t24 = cpu_atomic_throughput(cfg, 1 << 30, 24, "uint64")
        assert t24 / t12 == pytest.approx(2.0, rel=0.05)
        assert t24 < cpu_atomic_throughput(cfg, 1 << 20, 24, "uint64")

    def test_uint64_1k_faster_than_1g(self, cfg):
        for threads in (1, 6, 12, 24):
            assert cpu_atomic_throughput(cfg, 1 << 10, threads, "uint64") > \
                cpu_atomic_throughput(cfg, 1 << 30, threads, "uint64")

    def test_fp64_1k_similar_or_slower_than_1g(self, cfg):
        t1k = cpu_atomic_throughput(cfg, 1 << 10, 24, "fp64")
        t1g = cpu_atomic_throughput(cfg, 1 << 30, 24, "fp64")
        assert t1k <= t1g * 1.25

    def test_single_element_decreases_with_threads(self, cfg):
        values = [
            cpu_atomic_throughput(cfg, 1, t, "uint64") for t in (1, 2, 6, 24)
        ]
        assert values[0] == max(values)

    def test_gpu_higher_than_cpu_except_few_threads(self, cfg):
        # Many threads: GPU wins decisively on 1M.
        assert gpu_atomic_throughput(cfg, 1 << 20, 3328, "uint64") > \
            10 * cpu_atomic_throughput(cfg, 1 << 20, 24, "uint64")
        # 64 GPU threads vs 24 CPU threads on 1M: GPU does not dominate.
        assert gpu_atomic_throughput(cfg, 1 << 20, 64, "uint64") < \
            cpu_atomic_throughput(cfg, 1 << 20, 24, "uint64")

    def test_gpu_single_element_flat(self, cfg):
        values = {
            gpu_atomic_throughput(cfg, 1, t, "uint64")
            for t in (640, 3328, 14592)
        }
        assert len(values) == 1

    def test_gpu_1m_highest(self, cfg):
        at_max = {
            s: gpu_atomic_throughput(cfg, s, 14592, "uint64")
            for s in (1, 1 << 10, 1 << 20, 1 << 30)
        }
        assert max(at_max, key=at_max.get) == 1 << 20

    def test_invalid_inputs_rejected(self, cfg):
        with pytest.raises(ValueError):
            cpu_atomic_throughput(cfg, 0, 1, "uint64")
        with pytest.raises(ValueError):
            gpu_atomic_throughput(cfg, 1, 0, "uint64")


class TestHybridAtomics:
    def test_1k_cpu_crushed_at_high_gpu_threads(self, cfg):
        for gpu_threads in (3328, 6400, 14592):
            h = hybrid_atomic_throughput(cfg, 1 << 10, 6, gpu_threads, "uint64")
            assert 0.11 <= h.cpu_relative <= 0.28

    def test_1k_cpu_best_case_within_paper_band(self, cfg):
        h = hybrid_atomic_throughput(cfg, 1 << 10, 6, 64, "uint64")
        assert 0.7 <= h.cpu_relative <= 0.9  # "at best within 13%"

    def test_1k_gpu_stable_below_3328(self, cfg):
        h = hybrid_atomic_throughput(cfg, 1 << 10, 6, 1280, "uint64")
        assert h.gpu_relative >= 0.95

    def test_1k_gpu_drops_to_about_079_at_max(self, cfg):
        h = hybrid_atomic_throughput(cfg, 1 << 10, 24, 14592, "uint64")
        assert 0.75 <= h.gpu_relative <= 0.85

    def test_1m_uint64_corun_speedup(self, cfg):
        best = max(
            hybrid_atomic_throughput(cfg, 1 << 20, 6, g, "uint64").cpu_relative
            for g in (2304, 3328, 6400)
        )
        assert 1.05 <= best <= 1.2  # paper: up to 1.14x

    def test_1m_gpu_slight_speedup(self, cfg):
        h = hybrid_atomic_throughput(cfg, 1 << 20, 6, 6400, "uint64")
        assert 1.0 <= h.gpu_relative <= 1.05


class TestFaultModel:
    def test_plateaus_match_fig7(self, cfg):
        assert fault_throughput_pages_per_s(cfg, "gpu_major", 10**6) == \
            pytest.approx(1.1e6, rel=0.05)
        assert fault_throughput_pages_per_s(cfg, "gpu_minor", 10**7) == \
            pytest.approx(9.0e6, rel=0.05)
        assert fault_throughput_pages_per_s(cfg, "cpu", 10**5) == \
            pytest.approx(872e3, rel=0.05)
        assert fault_throughput_pages_per_s(cfg, "cpu12", 10**5) == \
            pytest.approx(3.7e6, rel=0.05)

    def test_throughput_monotonic(self, cfg):
        for scenario in ("gpu_major", "gpu_minor", "cpu", "cpu12"):
            values = [
                fault_throughput_pages_per_s(cfg, scenario, n)
                for n in (1, 10, 100, 10**4, 10**6)
            ]
            assert values == sorted(values)

    def test_gpu_minor_ramps_to_saturation(self, cfg):
        # The GPU-minor curve keeps climbing until ~10 M pages.
        at_1m = fault_throughput_pages_per_s(cfg, "gpu_minor", 10**6)
        at_10m = fault_throughput_pages_per_s(cfg, "gpu_minor", 10**7)
        assert at_10m > at_1m * 1.05

    def test_prefault_speedup_near_paper(self, cfg):
        assert 1.8 <= prefault_speedup(cfg, 10**7) <= 2.8

    def test_latency_distributions_match_fig8(self, cfg):
        cpu = sample_latency_distribution(cfg, "cpu", 50_000)
        minor = sample_latency_distribution(cfg, "gpu_minor", 50_000)
        major = sample_latency_distribution(cfg, "gpu_major", 50_000)
        assert cpu.mean() == pytest.approx(9e3, rel=0.03)
        assert np.percentile(cpu, 95) == pytest.approx(11e3, rel=0.05)
        assert minor.mean() == pytest.approx(16e3, rel=0.03)
        assert np.percentile(minor, 95) == pytest.approx(20e3, rel=0.05)
        assert major.mean() == pytest.approx(18e3, rel=0.03)
        assert np.percentile(major, 95) == pytest.approx(22e3, rel=0.05)

    def test_gpu_latency_ratio(self, cfg):
        # Paper: GPU fault latency is 1.8-2.0x the CPU latency.
        cpu = sample_latency_distribution(cfg, "cpu", 20_000).mean()
        minor = sample_latency_distribution(cfg, "gpu_minor", 20_000).mean()
        major = sample_latency_distribution(cfg, "gpu_major", 20_000).mean()
        assert 1.7 <= minor / cpu <= 2.1
        assert 1.8 <= major / cpu <= 2.2

    def test_burst_time_scales(self, cfg):
        short = fault_burst_time_ns(cfg, "cpu", 10)
        long = fault_burst_time_ns(cfg, "cpu", 10_000)
        assert long > short
        assert fault_burst_time_ns(cfg, "cpu", 0) == 0.0

    def test_unknown_scenario_rejected(self, cfg):
        with pytest.raises(ValueError):
            fault_throughput_pages_per_s(cfg, "dma", 100)
