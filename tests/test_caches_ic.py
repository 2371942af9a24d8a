"""Unit tests for the cache hierarchy and Infinity Cache models."""

import numpy as np
import pytest

from repro.hw.caches import CacheHierarchy, HierarchyLevel, gpu_hierarchy
from repro.hw.config import (
    InfinityCacheGeometry,
    KiB,
    MiB,
    GiB,
    default_config,
)
from repro.hw.hbm import HBMSubsystem
from repro.hw.infinity_cache import InfinityCache
from repro.perf.latency import cpu_chase_latency_ns


@pytest.fixture
def cfg():
    return default_config()


class TestCacheHierarchy:
    def _simple(self):
        return CacheHierarchy(
            [
                HierarchyLevel("l1", 1024, 1.0),
                HierarchyLevel("l2", 8192, 10.0),
                HierarchyLevel("mem", None, 100.0),
            ]
        )

    def test_hit_fractions_sum_to_one(self):
        h = self._simple()
        for ws in (100, 1024, 5000, 1 << 20):
            fractions = dict(h.hit_fractions(ws))
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_tiny_working_set_all_l1(self):
        fractions = dict(self._simple().hit_fractions(512))
        assert fractions["l1"] == pytest.approx(1.0)

    def test_average_latency_monotonic_in_working_set(self):
        h = self._simple()
        sizes = [256, 1024, 4096, 16384, 1 << 20]
        latencies = [h.average_latency_ns(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_average_latency_bounds(self):
        h = self._simple()
        assert h.average_latency_ns(100) == pytest.approx(1.0)
        assert h.average_latency_ns(1 << 30) == pytest.approx(100.0, rel=0.01)

    def test_zero_working_set_rejected(self):
        with pytest.raises(ValueError):
            self._simple().hit_fractions(0)

    def test_last_level_must_be_terminal(self):
        with pytest.raises(ValueError):
            CacheHierarchy([HierarchyLevel("l1", 1024, 1.0)])

    def test_capacities_must_increase(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                [
                    HierarchyLevel("l1", 8192, 1.0),
                    HierarchyLevel("l2", 1024, 10.0),
                    HierarchyLevel("mem", None, 100.0),
                ]
            )


class TestPaperLatencyAnchors:
    """Fig. 2's plateau values, straight from the latency models."""

    def test_gpu_l1_at_1kib(self, cfg):
        assert gpu_hierarchy(cfg).average_latency_ns(1 * KiB) == pytest.approx(57.0)

    def test_gpu_l2_at_1mib(self, cfg):
        lat = gpu_hierarchy(cfg).average_latency_ns(1 * MiB)
        assert 100 <= lat <= 108

    def test_gpu_ic_at_128mib(self, cfg):
        lat = gpu_hierarchy(cfg).average_latency_ns(128 * MiB)
        assert 205 <= lat <= 218

    def test_gpu_hbm_at_4gib(self, cfg):
        lat = gpu_hierarchy(cfg).average_latency_ns(4 * GiB)
        assert 333 <= lat <= 350

    def test_cpu_l1_at_1kib(self, cfg):
        assert cpu_chase_latency_ns(cfg, 1 * KiB) == pytest.approx(1.0)

    def test_cpu_hbm_at_4gib(self, cfg):
        lat = cpu_chase_latency_ns(cfg, 4 * GiB)
        assert 228 <= lat <= 241

    def test_cpu_faster_than_gpu_everywhere(self, cfg):
        gpu = gpu_hierarchy(cfg)
        for size in (1 * KiB, 1 * MiB, 64 * MiB, 1 * GiB, 4 * GiB):
            assert cpu_chase_latency_ns(cfg, size) < gpu.average_latency_ns(size)

    def test_reduced_ic_fraction_raises_cpu_latency(self, cfg):
        ic = InfinityCache(cfg.infinity_cache, HBMSubsystem(cfg.hbm))
        ws = 512 * MiB
        npages = ws // 4096
        # All pages on eight channels: frames congruent mod 128.
        skewed = np.concatenate(
            [np.arange(c, c + 128 * (npages // 8), 128) for c in range(8)]
        )
        full = cpu_chase_latency_ns(cfg, ws)
        biased = cpu_chase_latency_ns(cfg, ws, ic=ic, frames=skewed)
        assert biased > full


class TestInfinityCache:
    def _ic(self, cfg):
        hbm = HBMSubsystem(cfg.hbm)
        return InfinityCache(cfg.infinity_cache, hbm), hbm

    def test_balanced_buffer_fits_fully(self, cfg):
        ic, _ = self._ic(cfg)
        frames = np.arange(256 * MiB // 4096)  # exactly IC-sized, contiguous
        res = ic.residency(frames)
        assert res.balance == pytest.approx(1.0)
        assert res.hit_fraction == pytest.approx(1.0)

    def test_double_ic_buffer_hits_half(self, cfg):
        ic, _ = self._ic(cfg)
        frames = np.arange(512 * MiB // 4096)
        assert ic.residency(frames).hit_fraction == pytest.approx(0.5)

    def test_biased_buffer_hits_less(self, cfg):
        ic, _ = self._ic(cfg)
        npages = 512 * MiB // 4096
        contiguous = np.arange(npages)
        # All pages on eight channels: frames congruent mod 128.
        biased = np.concatenate(
            [np.arange(c, c + 128 * (npages // 8), 128) for c in range(8)]
        )
        assert ic.residency(biased).hit_fraction < \
            ic.residency(contiguous).hit_fraction

    def test_empty_frame_set(self, cfg):
        ic, _ = self._ic(cfg)
        res = ic.residency(np.array([], dtype=np.int64))
        assert res.hit_fraction == 1.0
        assert res.working_set_bytes == 0

    def test_slice_count_must_match_channels(self, cfg):
        hbm = HBMSubsystem(cfg.hbm)
        with pytest.raises(ValueError):
            InfinityCache(InfinityCacheGeometry(slices=64), hbm)
