"""Unit tests for the chase-latency walk and the Infinity Cache model."""

import numpy as np
import pytest

from repro.hw.config import (
    InfinityCacheGeometry,
    KiB,
    MiB,
    GiB,
    default_config,
)
from repro.hw.hbm import HBMSubsystem, channel_balance
from repro.hw.infinity_cache import InfinityCache
from repro.perf.latency import (
    _chase_walk_ns,
    cpu_chase_latency_ns,
    gpu_chase_latency_ns,
)


@pytest.fixture
def cfg():
    return default_config()


class TestCacheHierarchy:
    """The one capacity walk behind both devices' chase latency."""

    def _latency(self, working_set_bytes):
        return _chase_walk_ns([(1024, 1.0), (8192, 10.0)], 100.0, working_set_bytes)

    def test_hit_fractions_sum_to_one(self):
        # With every level at 1 ns the average is the sum of the fractions.
        for ws in (100, 1024, 5000, 1 << 20):
            ones = _chase_walk_ns([(1024, 1.0), (8192, 1.0)], 1.0, ws)
            assert ones == pytest.approx(1.0)

    def test_tiny_working_set_all_l1(self):
        assert self._latency(512) == pytest.approx(1.0)

    def test_average_latency_monotonic_in_working_set(self):
        sizes = [256, 1024, 4096, 16384, 1 << 20]
        latencies = [self._latency(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_average_latency_bounds(self):
        assert self._latency(100) == pytest.approx(1.0)
        assert self._latency(1 << 30) == pytest.approx(100.0, rel=0.01)


class TestPaperLatencyAnchors:
    """Fig. 2's plateau values, straight from the latency models."""

    def test_gpu_l1_at_1kib(self, cfg):
        assert gpu_chase_latency_ns(cfg, 1 * KiB) == pytest.approx(57.0)

    def test_gpu_l2_at_1mib(self, cfg):
        lat = gpu_chase_latency_ns(cfg, 1 * MiB)
        assert 100 <= lat <= 108

    def test_gpu_ic_at_128mib(self, cfg):
        lat = gpu_chase_latency_ns(cfg, 128 * MiB)
        assert 205 <= lat <= 218

    def test_gpu_hbm_at_4gib(self, cfg):
        lat = gpu_chase_latency_ns(cfg, 4 * GiB)
        assert 333 <= lat <= 350

    def test_cpu_l1_at_1kib(self, cfg):
        assert cpu_chase_latency_ns(cfg, 1 * KiB) == pytest.approx(1.0)

    def test_cpu_hbm_at_4gib(self, cfg):
        lat = cpu_chase_latency_ns(cfg, 4 * GiB)
        assert 228 <= lat <= 241

    def test_cpu_faster_than_gpu_everywhere(self, cfg):
        for size in (1 * KiB, 1 * MiB, 64 * MiB, 1 * GiB, 4 * GiB):
            assert cpu_chase_latency_ns(cfg, size) < gpu_chase_latency_ns(cfg, size)

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
        ic, hbm = self._ic(cfg)
        frames = np.arange(256 * MiB // 4096)  # exactly IC-sized, contiguous
        assert channel_balance(hbm.channel_histogram(frames)) == pytest.approx(1.0)
        assert ic.hit_fraction(frames) == pytest.approx(1.0)

    def test_double_ic_buffer_hits_half(self, cfg):
        ic, _ = self._ic(cfg)
        frames = np.arange(512 * MiB // 4096)
        assert ic.hit_fraction(frames) == pytest.approx(0.5)

    def test_biased_buffer_hits_less(self, cfg):
        ic, _ = self._ic(cfg)
        npages = 512 * MiB // 4096
        contiguous = np.arange(npages)
        # All pages on eight channels: frames congruent mod 128.
        biased = np.concatenate(
            [np.arange(c, c + 128 * (npages // 8), 128) for c in range(8)]
        )
        assert ic.hit_fraction(biased) < ic.hit_fraction(contiguous)

    def test_empty_frame_set(self, cfg):
        ic, _ = self._ic(cfg)
        assert ic.hit_fraction(np.array([], dtype=np.int64)) == 1.0

    def test_slice_count_must_match_channels(self, cfg):
        hbm = HBMSubsystem(cfg.hbm)
        with pytest.raises(ValueError):
            InfinityCache(InfinityCacheGeometry(slices=64), hbm)
