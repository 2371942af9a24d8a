"""Unit tests for the physical frame allocator (repro.core.physical)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.hw.config import PAGE_SIZE, small_config
from repro.hw.hbm import HBMSubsystem, channel_balance
from repro.core.physical import GUIDE_BUCKETS, OutOfMemoryError, PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(small_config(1 << 30))


class TestBookkeeping:
    def test_starts_all_free(self, phys):
        assert phys.free_frames == phys.total_frames
        assert phys.used_bytes == 0

    def test_alloc_reduces_free(self, phys):
        phys.alloc_chunks(100, 16)
        assert phys.free_frames == phys.total_frames - 100
        assert phys.used_bytes == 100 * PAGE_SIZE

    def test_free_restores(self, phys):
        frames = phys.alloc_chunks(64, 16)
        phys.free(frames)
        assert phys.free_frames == phys.total_frames

    def test_double_free_rejected(self, phys):
        frames = phys.alloc_chunks(16, 16)
        phys.free(frames)
        with pytest.raises(ValueError):
            phys.free(frames)

    def test_free_out_of_range_rejected(self, phys):
        with pytest.raises(ValueError):
            phys.free(np.array([phys.total_frames + 1]))

    def test_free_empty_is_noop(self, phys):
        phys.free(np.array([], dtype=np.int64))
        assert phys.free_frames == phys.total_frames


class TestContiguousAllocation:
    def test_chunks_are_contiguous_and_aligned(self, phys):
        frames = phys.alloc_chunks(64, 16)
        for i in range(0, 64, 16):
            chunk = frames[i : i + 16]
            assert (np.diff(chunk) == 1).all()
            assert chunk[0] % 16 == 0

    def test_partial_tail_chunk(self, phys):
        frames = phys.alloc_chunks(20, 16)
        assert len(frames) == 20
        assert len(np.unique(frames)) == 20

    def test_separate_chunks_do_not_merge(self, phys):
        frames = phys.alloc_chunks(64, 16)
        # Gap between consecutive chunks (steady-state fragmentation model).
        for i in range(16, 64, 16):
            assert frames[i] != frames[i - 1] + 1

    def test_chunk_pages_must_be_power_of_two(self, phys):
        with pytest.raises(ValueError):
            phys.alloc_chunks(10, 3)

    def test_oversized_request_rejected(self, phys):
        with pytest.raises(OutOfMemoryError):
            phys.alloc_chunks(phys.total_frames + 1, 16)

    def test_chunked_allocation_covers_all_channels(self, phys):
        hbm = HBMSubsystem(small_config(1 << 30).hbm)
        frames = phys.alloc_chunks(128 * 32, 16)
        hist = hbm.channel_histogram(frames)
        assert channel_balance(hist) > 0.9

    def test_zero_pages_rejected(self, phys):
        with pytest.raises(ValueError):
            phys.alloc_chunks(0, 16)


class TestScatteredAllocation:
    def test_unique_free_frames(self, phys):
        frames = phys.alloc_scattered(5000)
        assert len(np.unique(frames)) == 5000
        assert not phys._free[frames].any()

    def test_low_contiguity(self, phys):
        frames = np.sort(phys.alloc_scattered(4096))
        adjacent = (np.diff(frames) == 1).sum()
        # Mostly pairs at best: never long runs.
        runs = np.split(frames, np.flatnonzero(np.diff(frames) != 1) + 1)
        assert max(len(r) for r in runs) <= 4

    def test_channel_bias(self):
        cfg = small_config(8 << 30)
        phys = PhysicalMemory(cfg)
        hbm = HBMSubsystem(cfg.hbm)
        frames = phys.alloc_scattered(50_000)
        hist = hbm.channel_histogram(frames)
        # Scattered draws follow the skewed free list: clearly unbalanced.
        assert channel_balance(hist) < 0.5

    def test_pair_fraction_controls_adjacency(self):
        def paired_fraction(pf):
            phys = PhysicalMemory(small_config(1 << 30), seed=7)
            frames = np.sort(phys.alloc_scattered(2048, pair_fraction=pf))
            runs = np.split(frames, np.flatnonzero(np.diff(frames) != 1) + 1)
            return sum(len(r) for r in runs if len(r) > 1) / 2048

        # Hot channels make some accidental adjacency unavoidable, but
        # the buddy-pair fraction must clearly dominate it.
        assert paired_fraction(0.0) < paired_fraction(0.88) - 0.2

    def test_deterministic_given_seed(self):
        cfg = small_config(1 << 30)
        a = PhysicalMemory(cfg, seed=42).alloc_scattered(1000)
        b = PhysicalMemory(cfg, seed=42).alloc_scattered(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        cfg = small_config(1 << 30)
        a = PhysicalMemory(cfg, seed=1).alloc_scattered(1000)
        b = PhysicalMemory(cfg, seed=2).alloc_scattered(1000)
        assert not np.array_equal(a, b)

    def test_nearly_full_pool_falls_back_to_sweep(self):
        phys = PhysicalMemory(small_config(1 << 30))
        bulk = phys.alloc_chunks((phys.total_frames // 16 - 2) * 16, 16)
        remaining = phys.free_frames
        frames = phys.alloc_scattered(remaining)
        assert len(frames) == remaining
        assert phys.free_frames == 0

    def test_exhaustion_raises(self, phys):
        with pytest.raises(OutOfMemoryError):
            phys.alloc_scattered(phys.total_frames + 1)

    def test_failed_singles_roll_back_the_pair_claims(self, monkeypatch):
        # 1,100 pages in a 1,024-frame window: the pair batch (968 pages,
        # claimed as 2-frame words) fits, the 132 singles cannot.
        phys = PhysicalMemory(small_config(64 << 20))
        free_before = phys._free.copy()
        batches = []
        draw = phys._draw_scattered

        def recording_draw(ndraws, run, frame_range=None):
            try:
                frames = draw(ndraws, run, frame_range)
            except OutOfMemoryError:
                batches.append((run, "oom"))
                raise
            batches.append((run, len(frames)))
            return frames

        monkeypatch.setattr(phys, "_draw_scattered", recording_draw)
        with pytest.raises(OutOfMemoryError):
            phys.alloc_scattered(1100, frame_range=(0, 1024))
        assert batches == [(2, 968), (1, "oom")]
        np.testing.assert_array_equal(phys._free, free_before)
        assert phys.free_frames == phys.total_frames
        assert phys.audit() == []


def skewed_config(skew):
    cfg = small_config(1 << 30)
    return cfg.replace(
        policy=dataclasses.replace(cfg.policy, free_list_channel_skew=skew)
    )


def scattered_digest(skew, seed):
    """Digest of a sequence of scattered allocations plus the final
    generator state, on the 1 GiB pool with the given free-list skew."""
    phys = PhysicalMemory(skewed_config(skew), seed=seed)
    lo, hi = phys.total_frames // 4, phys.total_frames // 2
    digest = hashlib.sha256()
    for npages, pair_fraction, frame_range in [
        (1, 0.0, None),
        (33, 0.0, None),
        (6000, None, None),
        (5000, 0.5, (lo, hi)),
        (40_000, None, (lo, hi)),  # crowds the window: cap and sweep
    ]:
        frames = phys.alloc_scattered(npages, pair_fraction, frame_range)
        digest.update(frames.tobytes())
    return digest.hexdigest()[:16], phys._rng.bit_generator.state["state"]["state"]


class TestScatteredDrawsPinned:
    """The scattered allocator's frames and random draws, bit for bit.

    Pinned from the ``Generator.choice`` channel draw: any faster draw
    must return the same frames and leave the generator in the same
    state.
    """

    @pytest.mark.parametrize("skew,expected", [
        (0.0, ("383ad2c23d660536", 163291464446290276402092388348307407176)),
        (0.05, ("debde9d6acdf4426", 195200864975779450158605353798801674718)),
        (0.5, ("112b53d3c40514fa", 263455809095644229729897003685994127768)),
        (1.1, ("4acf99103f903017", 10849113576021834781658149915800704206)),
        (2.0, ("34f04968ada8caff", 115385977936246062135911345349665457703)),
    ])
    def test_digest(self, skew, expected):
        assert scattered_digest(skew, seed=3) == expected


class TestChannelDrawMatchesChoice:
    """The guide-table channel draw is ``Generator.choice(p=weights)``."""

    @pytest.mark.parametrize("skew", [0.0, 0.05, 0.5, 1.1, 2.0])
    def test_guide_matches_its_searchsorted_definition(self, skew):
        phys = PhysicalMemory(skewed_config(skew))
        cdf = phys.channel_weights().cumsum()
        cdf /= cdf[-1]
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        lo = cdf.searchsorted(edges[:-1], "right")
        hi = cdf.searchsorted(edges[1:], "left")
        assert np.array_equal(phys._guide, np.where(lo == hi, lo, -1))

    # Skew 0 gives uniform weights, whose CDF values all sit on bucket
    # edges; the larger skews leave some buckets straddling a CDF value.
    @pytest.mark.parametrize("skew", [0.0, 0.05, 0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 33, 5000, 20_000])
    def test_draws_and_generator_state(self, skew, n):
        for seed in range(3):
            phys = PhysicalMemory(skewed_config(skew), seed=seed)
            weights = phys.channel_weights()
            reference = np.random.default_rng()
            reference.bit_generator.state = phys._rng.bit_generator.state
            expected = reference.choice(len(weights), size=n, p=weights)
            got = phys._draw_channels(n)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert phys._rng.bit_generator.state == reference.bit_generator.state


class TestChannelWeights:
    def test_weights_normalised(self, phys):
        weights = phys.channel_weights()
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()

    def test_zero_skew_is_uniform(self):
        cfg = small_config(1 << 30)
        cfg = cfg.replace(
            policy=cfg.policy.__class__(free_list_channel_skew=0.0)
        )
        phys = PhysicalMemory(cfg)
        weights = phys.channel_weights()
        assert np.allclose(weights, weights[0])
