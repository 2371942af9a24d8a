"""Unit tests for HBM channel mapping and balance metrics (repro.hw.hbm)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.config import GiB, HBMGeometry, PAGE_SIZE, default_config, small_config
from repro.hw.hbm import (
    HBMSubsystem,
    channel_balance,
    effective_slice_hit_fraction,
)


@pytest.fixture
def hbm():
    return HBMSubsystem(default_config().hbm)


def reference_channels(hbm, frames):
    """The interleave formula (paper Section 5.4), evaluated per frame.

    A domain's interleave units rotate across its stacks, and within a
    stack consecutive units rotate across that stack's channels.
    """
    geo = hbm.geometry
    arr = np.asarray(frames, dtype=np.int64)
    pages_per_unit = geo.interleave_bytes // PAGE_SIZE
    domains = hbm.numa_domains
    stacks_per_domain = geo.stacks // domains
    fpd = hbm.frames_per_domain
    domain = arr // fpd
    unit = (arr % fpd) // pages_per_unit
    stack = domain + domains * (unit % stacks_per_domain)
    lane = (unit // stacks_per_domain) % geo.channels_per_stack
    return stack * geo.channels_per_stack + lane


def reference_histogram(hbm, frames):
    channels = reference_channels(hbm, frames)
    return np.bincount(channels, minlength=hbm.geometry.channels) * PAGE_SIZE


#: (NUMA domains, pages per interleave unit) of every layout checked.
LAYOUTS = [(d, p) for d in (1, 4) for p in (1, 2, 4)]


def layout_hbm(numa_domains, interleave_pages, capacity=1 * GiB):
    geo = dataclasses.replace(
        small_config(capacity).hbm, interleave_bytes=interleave_pages * PAGE_SIZE
    )
    return HBMSubsystem(geo, numa_domains=numa_domains)


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


class TestChannelMapMatchesFormula:
    """``channels_of_frames``/``channel_histogram`` equal the formula."""

    @pytest.mark.parametrize("numa_domains,interleave_pages", LAYOUTS)
    def test_whole_domains(self, numa_domains, interleave_pages):
        hbm = layout_hbm(numa_domains, interleave_pages)
        for domain in range(numa_domains):
            frames = np.arange(*hbm.domain_frame_range(domain))
            assert_same_array(
                hbm.channels_of_frames(frames), reference_channels(hbm, frames)
            )
            assert_same_array(
                hbm.channel_histogram(frames), reference_histogram(hbm, frames)
            )

    @pytest.mark.parametrize("numa_domains,interleave_pages", LAYOUTS)
    def test_whole_pool_shuffled(self, numa_domains, interleave_pages):
        hbm = layout_hbm(numa_domains, interleave_pages, capacity=64 << 20)
        frames = np.random.default_rng(5).permutation(
            hbm.capacity_bytes // PAGE_SIZE
        )
        assert_same_array(
            hbm.channels_of_frames(frames), reference_channels(hbm, frames)
        )
        assert_same_array(
            hbm.channel_histogram(frames), reference_histogram(hbm, frames)
        )

    @given(
        layout=st.sampled_from(LAYOUTS),
        raw_frames=st.lists(st.integers(0, 1 << 60), max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_lists(self, layout, raw_frames):
        hbm = layout_hbm(*layout)
        frames = [raw % (hbm.capacity_bytes // PAGE_SIZE) for raw in raw_frames]
        expected = reference_channels(hbm, frames)
        assert_same_array(hbm.channels_of_frames(frames), expected)
        assert_same_array(
            hbm.channels_of_frames(np.array(frames, dtype=np.int64)), expected
        )
        assert_same_array(
            hbm.channel_histogram(frames), reference_histogram(hbm, frames)
        )

    @given(raw_frames=st.lists(st.integers(0, 1 << 60), max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_default_config(self, raw_frames):
        hbm = HBMSubsystem(default_config().hbm)
        frames = np.array(raw_frames, dtype=np.int64) % (128 << 18)
        assert_same_array(
            hbm.channels_of_frames(frames), reference_channels(hbm, frames)
        )
        assert_same_array(
            hbm.channel_histogram(frames), reference_histogram(hbm, frames)
        )


class TestChannelMapping:
    def test_stack_interleaves_per_page(self, hbm):
        # One 4 KiB page per stack, round robin.
        frames = np.arange(16)
        stacks = hbm.channels_of_frames(frames) // hbm.geometry.channels_per_stack
        assert list(stacks) == list(frames % 8)

    def test_channel_in_range(self, hbm):
        frames = np.arange(4096)
        channels = hbm.channels_of_frames(frames)
        assert channels.min() >= 0
        assert channels.max() < 128

    def test_contiguous_range_covers_all_channels_evenly(self, hbm):
        frames = np.arange(128 * 4)  # four full rotations
        hist = hbm.channel_histogram(frames)
        assert (hist == 4 * PAGE_SIZE).all()

    def test_channel_is_periodic_in_frame(self, hbm):
        # With one page per interleave unit, channel(frame) has period
        # stacks * lanes = 128.
        frames = np.array([0, 5, 77])
        assert list(hbm.channels_of_frames(frames)) == list(
            hbm.channels_of_frames(frames + 128)
        )

    def test_vectorised_matches_scalar(self, hbm):
        frames = np.array([0, 1, 7, 8, 129, 1000, 65535])
        vec = hbm.channels_of_frames(frames)
        scalar = [int(hbm.channels_of_frames([int(f)])[0]) for f in frames]
        assert list(vec) == scalar

    def test_capacity(self, hbm):
        assert hbm.capacity_bytes == 128 << 30

    def test_domains_must_hold_whole_rotations(self):
        # 16,384 frames cannot hold one rotation of 128 x 256-page units.
        geo = dataclasses.replace(
            small_config(64 << 20).hbm, interleave_bytes=256 * PAGE_SIZE
        )
        with pytest.raises(ValueError, match="whole interleave rotations"):
            HBMSubsystem(geo)
        HBMSubsystem(dataclasses.replace(geo, interleave_bytes=128 * PAGE_SIZE))

    @pytest.mark.parametrize("geo", [
        HBMGeometry(stacks=6),  # a 96-channel rotation
        HBMGeometry(channels_per_stack=12),
        HBMGeometry(interleave_bytes=3 * PAGE_SIZE),
    ])
    def test_unit_and_period_must_be_powers_of_two(self, geo):
        with pytest.raises(ValueError, match="powers of two"):
            HBMSubsystem(geo)

    @pytest.mark.parametrize("numa_domains,interleave_pages", LAYOUTS)
    def test_whole_rotation_covers_each_channel_once(
        self, numa_domains, interleave_pages
    ):
        hbm = layout_hbm(numa_domains, interleave_pages)
        period = hbm.geometry.channels // numa_domains
        firsts = np.concatenate([
            np.arange(period) * interleave_pages + hbm.domain_frame_range(d)[0]
            for d in range(numa_domains)
        ])
        channels = hbm.channels_of_frames(firsts)
        assert sorted(channels) == list(range(hbm.geometry.channels))

    def test_interleave_must_be_page_multiple(self):
        geo = HBMGeometry(interleave_bytes=1000)
        with pytest.raises(ValueError):
            HBMSubsystem(geo)


class TestBalanceMetrics:
    def test_uniform_histogram_is_balanced(self):
        assert channel_balance(np.full(128, 1000)) == pytest.approx(1.0)

    def test_single_channel_is_maximally_unbalanced(self):
        hist = np.zeros(128)
        hist[0] = 1000
        assert channel_balance(hist) == pytest.approx(1 / 128)

    def test_empty_histogram_is_balanced(self):
        assert channel_balance(np.zeros(128)) == 1.0

    def test_slice_hit_fraction_uniform_fits(self):
        hist = np.full(128, 1 << 20)  # 1 MiB per channel, 2 MiB slices
        assert effective_slice_hit_fraction(hist, 2 << 20) == pytest.approx(1.0)

    def test_slice_hit_fraction_uniform_double(self):
        hist = np.full(128, 4 << 20)  # 4 MiB per channel, 2 MiB slices
        assert effective_slice_hit_fraction(hist, 2 << 20) == pytest.approx(0.5)

    def test_slice_hit_fraction_biased_lower_than_uniform(self):
        total = 128 * (4 << 20)
        uniform = np.full(128, total // 128)
        biased = np.zeros(128, dtype=np.int64)
        biased[:8] = total // 8
        cap = 2 << 20
        assert effective_slice_hit_fraction(biased, cap) < \
            effective_slice_hit_fraction(uniform, cap)

    def test_slice_hit_fraction_empty(self):
        assert effective_slice_hit_fraction(np.zeros(128), 2 << 20) == 1.0
