"""Unit tests for the amdgpu fragment scan (repro.core.fragments)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import (
    average_fragment_bytes,
    compute_fragments,
    contiguous_runs,
    distinct_fragments,
    fragment_histogram,
)
from repro.runtime.hip import make_runtime

from tests.oracles import reference_fragments


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs(np.array([], dtype=np.int64)) == []

    def test_single_run(self):
        assert contiguous_runs(np.arange(5)) == [(0, 5)]

    def test_all_isolated(self):
        assert contiguous_runs(np.array([0, 2, 4])) == [(0, 1), (1, 1), (2, 1)]

    def test_mixed(self):
        frames = np.array([10, 11, 12, 20, 30, 31])
        assert contiguous_runs(frames) == [(0, 3), (3, 1), (4, 2)]


class TestComputeFragments:
    def test_scattered_pages_are_exponent_zero(self):
        frames = np.array([5, 99, 17, 1000])
        assert (compute_fragments(frames, base_vpn=0) == 0).all()

    def test_aligned_contiguous_block(self):
        # 16 pages, VA and PA both 16-aligned: one exponent-4 fragment.
        frames = np.arange(64, 80)
        exps = compute_fragments(frames, base_vpn=16)
        assert (exps == 4).all()

    def test_unaligned_physical_run_decomposes(self):
        # Physically contiguous but starting at an odd frame: the first
        # page cannot join a larger block; the aligned middle can.
        frames = np.arange(7, 7 + 8)
        exps = compute_fragments(frames, base_vpn=7)
        assert exps[0] == 0  # pfn 7 has no trailing zeros
        assert exps.max() >= 2  # pfn 8..11 forms an aligned 4-page block

    def test_odd_va_pa_delta_prevents_fragments(self):
        # VA and PA alignments can never coincide when their delta is
        # odd, so a physically contiguous run still yields single pages.
        frames = np.arange(7, 7 + 8)
        exps = compute_fragments(frames, base_vpn=0)
        assert (exps == 0).all()

    def test_virtual_alignment_limits(self):
        # PA aligned, but VA base odd: blocks limited by VPN alignment.
        frames = np.arange(64, 72)
        exps = compute_fragments(frames, base_vpn=1)
        assert exps[0] == 0

    def test_aligned_pair(self):
        frames = np.array([10, 11])  # pfn 10 is 2-aligned
        exps = compute_fragments(frames, base_vpn=2)
        assert (exps == 1).all()

    def test_unaligned_pair_stays_single_pages(self):
        frames = np.array([11, 12])
        exps = compute_fragments(frames, base_vpn=2)
        assert (exps == 0).all()

    def test_max_exponent_cap(self):
        frames = np.arange(0, 64)
        exps = compute_fragments(frames, base_vpn=0, max_exponent=3)
        assert exps.max() == 3

    def test_block_coverage_is_consistent(self):
        # Every aligned block of 2**e pages shares one exponent.
        frames = np.arange(0, 128)
        exps = compute_fragments(frames, base_vpn=0)
        for start in range(0, 128, 1 << int(exps[0])):
            block = exps[start : start + (1 << int(exps[start]))]
            assert (block == block[0]).all()

    def test_empty(self):
        assert len(compute_fragments(np.array([], dtype=np.int64), 0)) == 0


class TestAggregates:
    def test_fragment_histogram(self):
        exps = np.array([0, 0, 1, 1, 4])
        assert fragment_histogram(exps) == {0: 2, 1: 2, 4: 1}

    def test_distinct_fragments_single_pages(self):
        assert distinct_fragments(np.zeros(10, dtype=np.int8)) == 10

    def test_distinct_fragments_blocks(self):
        # 16 pages as one exponent-4 block -> 1 fragment.
        assert distinct_fragments(np.full(16, 4, dtype=np.int8)) == 1

    @pytest.mark.parametrize("pages,expected", [
        (4, 0),    # a quarter of a 16-page fragment: 0.25
        (8, 0),    # a half: 0.5 rounds to even
        (12, 1),   # three quarters: 0.75
        (24, 2),   # one and a half: 1.5 rounds to even
        (40, 2),   # two and a half: 2.5 rounds to even
        (56, 4),   # three and a half: 3.5 rounds to even
    ])
    def test_distinct_fragments_cut_fragment(self, pages, expected):
        exps = np.full(pages, 4, dtype=np.int8)
        assert distinct_fragments(exps) == expected
        assert distinct_fragments(exps) == round(pages / 16)

    @pytest.mark.parametrize("singles,expected", [(0, 0), (1, 2), (2, 2), (3, 4)])
    def test_distinct_fragments_odd_totals(self, singles, expected):
        # Half of a 16-page fragment plus single pages: 0.5 + singles,
        # so round() decides between the two neighbours.
        exps = np.array([4] * 8 + [0] * singles, dtype=np.int8)
        assert distinct_fragments(exps) == expected
        assert distinct_fragments(exps[::-1]) == expected

    def test_distinct_fragments_mixed(self):
        exps = np.concatenate([np.full(16, 4), np.zeros(4)]).astype(np.int8)
        assert distinct_fragments(exps) == 5

    def test_average_fragment_bytes(self):
        exps = np.full(16, 4, dtype=np.int8)
        assert average_fragment_bytes(exps) == pytest.approx(64 * 1024)
        assert average_fragment_bytes(np.zeros(4, dtype=np.int8)) == 4096.0

    def test_average_fragment_empty(self):
        assert average_fragment_bytes(np.array([], dtype=np.int8)) == 0.0


class TestClosedForm:
    """compute_fragments against the page-by-page closed form."""

    @given(
        runs=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(1, 300)),
            min_size=1, max_size=10,
        ),
        base_vpn=st.integers(0, 1 << 20),
        max_exponent=st.sampled_from([3, 9, 31]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_runs(self, runs, base_vpn, max_exponent):
        frames = np.concatenate([np.arange(s, s + n) for s, n in runs])
        assert np.array_equal(
            compute_fragments(frames, base_vpn, max_exponent),
            reference_fragments(frames, base_vpn, max_exponent),
        )

    @pytest.mark.parametrize("allocator", ["malloc", "hipMalloc", "hipHostMalloc"])
    def test_allocator_layouts(self, allocator):
        runtime = make_runtime(2, xnack=True)
        buf = runtime.allocate(4 << 20, allocator)
        runtime.touch(buf, "cpu")
        vma = buf.vma
        assert np.array_equal(
            compute_fragments(vma.frames, vma.base_vpn),
            reference_fragments(vma.frames, vma.base_vpn),
        )
