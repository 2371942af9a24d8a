"""Differential tests for the whole-array core allocation paths.

Each vectorised path in ``repro.core`` is checked against a plain
reference written the obvious way: the per-run greedy fragment scan,
the float-sum fragment count, the full-bitmap aligned-chunk search, ``np.unique``-based dedup of scattered draws, and
the frame-by-frame (bool-index) claims of chunks and scattered runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import (
    compute_fragments,
    contiguous_runs,
    distinct_fragments,
)
from repro.core.physical import (
    OutOfMemoryError,
    PhysicalMemory,
    _distinct,
)
from repro.hw.config import MAX_FRAGMENT_EXPONENT, small_config


# ----------------------------------------------------------------------
# Fragment scan
# ----------------------------------------------------------------------


def _tz(value):
    return 63 if value == 0 else (value & -value).bit_length() - 1


def _assign_run(out, frames, base_vpn, start, length, max_exponent):
    """Greedy aligned power-of-two decomposition of one contiguous run."""
    pos, end = start, start + length
    while pos < end:
        align = min(_tz(base_vpn + pos), _tz(int(frames[pos])))
        size_exp = min(align, (end - pos).bit_length() - 1, max_exponent)
        out[pos : pos + (1 << size_exp)] = size_exp
        pos += 1 << size_exp


def reference_fragments(frames, base_vpn, max_exponent=MAX_FRAGMENT_EXPONENT):
    frames = np.asarray(frames, dtype=np.int64)
    out = np.zeros(len(frames), dtype=np.int8)
    for start, length in contiguous_runs(frames):
        _assign_run(out, frames, base_vpn, start, length, max_exponent)
    return out


@st.composite
def frame_layouts(draw):
    """Runs of consecutive frames with odd, even and huge VA/PA deltas."""
    runs = draw(st.lists(
        st.tuples(
            st.integers(0, 1 << 34),
            st.one_of(st.integers(1, 40), st.integers(1, 5000)),
        ),
        min_size=1, max_size=12,
    ))
    return np.concatenate([np.arange(s, s + n) for s, n in runs])


class TestFragmentsDifferential:
    @given(
        frames=frame_layouts(),
        base_vpn=st.one_of(st.integers(0, 1 << 20), st.integers(0, 1 << 40)),
        max_exponent=st.one_of(
            st.just(MAX_FRAGMENT_EXPONENT), st.integers(0, 12)
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_greedy(self, frames, base_vpn, max_exponent):
        got = compute_fragments(frames, base_vpn, max_exponent)
        want = reference_fragments(frames, base_vpn, max_exponent)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("base_vpn", [0, 1, 511, 512, (1 << 40) - 3])
    @pytest.mark.parametrize("max_exponent", [0, 3, 9, MAX_FRAGMENT_EXPONENT])
    def test_long_runs(self, base_vpn, max_exponent):
        rng = np.random.default_rng(base_vpn + max_exponent)
        delta = int(rng.integers(0, 1 << 30))
        frames = np.arange(100_003) + delta
        frames[50_000:] += 7  # a second run with an odd delta
        np.testing.assert_array_equal(
            compute_fragments(frames, base_vpn, max_exponent),
            reference_fragments(frames, base_vpn, max_exponent),
        )

    def test_mostly_pairs(self):
        rng = np.random.default_rng(3)
        starts = rng.choice(1 << 22, size=4000, replace=False) * 2
        starts[::5] += 1  # some pairs start on an odd frame
        frames = (starts[:, None] + np.arange(2)).ravel()
        np.testing.assert_array_equal(
            compute_fragments(frames, 6), reference_fragments(frames, 6)
        )

    def test_short_inputs(self):
        assert len(compute_fragments(np.array([], dtype=np.int64), 0)) == 0
        assert compute_fragments(np.array([8]), 8).tolist() == [0]
        assert compute_fragments(np.array([8, 9]), 8).tolist() == [1, 1]


def float_distinct_fragments(exponents):
    """The count as round() of the float sum of 2**-exp over the pages."""
    exponents = np.asarray(exponents, dtype=np.int64)
    if len(exponents) == 0:
        return 0
    return int(round(float((1.0 / np.power(2.0, exponents)).sum())))


class TestDistinctFragmentsDifferential:
    @given(st.lists(st.integers(0, MAX_FRAGMENT_EXPONENT), max_size=2000))
    @settings(max_examples=300, deadline=None)
    def test_matches_float_sum(self, exponents):
        exponents = np.array(exponents, dtype=np.int8)
        assert distinct_fragments(exponents) == float_distinct_fragments(exponents)

    @given(
        counts=st.lists(
            st.tuples(st.integers(0, MAX_FRAGMENT_EXPONENT),
                      st.integers(1, 1 << 16)),
            min_size=1, max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_float_sum_on_long_mixes(self, counts, seed):
        exponents = np.concatenate([np.full(n, e, dtype=np.int8)
                                    for e, n in counts])
        np.random.default_rng(seed).shuffle(exponents)
        assert distinct_fragments(exponents) == float_distinct_fragments(exponents)

    @given(frames=frame_layouts(), base_vpn=st.integers(0, 1 << 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_float_sum_on_scanned_ranges(self, frames, base_vpn):
        exponents = compute_fragments(frames, base_vpn)
        for part in (exponents, exponents[: len(exponents) // 3],
                     exponents[len(exponents) // 2 :]):
            assert distinct_fragments(part) == float_distinct_fragments(part)


# ----------------------------------------------------------------------
# Aligned-chunk search
# ----------------------------------------------------------------------


def reference_aligned_runs(free, count, chunk_pages, frame_range=None):
    """The full-bitmap scan: every aligned block, then the stride-3 pick."""
    lo, hi = frame_range if frame_range is not None else (0, len(free))
    first_block = -(-lo // chunk_pages)
    base, usable = first_block * chunk_pages, hi // chunk_pages * chunk_pages
    if base >= usable:
        raise OutOfMemoryError(
            f"frame range too small for {chunk_pages}-page chunks"
        )
    blocks = free[base:usable].reshape(-1, chunk_pages)
    candidates = first_block + np.flatnonzero(blocks.all(axis=1))
    if len(candidates) < count:
        raise OutOfMemoryError(
            f"cannot find {count} contiguous runs of {chunk_pages} pages "
            f"(only {len(candidates)} available)"
        )
    if len(candidates) >= 3 * count:
        candidates = candidates[::3]
    return candidates[:count] * chunk_pages


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except OutOfMemoryError as exc:
        return f"OOM: {exc}"


@pytest.fixture(scope="module")
def pool():
    return PhysicalMemory(small_config(64 << 20))  # 16384 frames


class TestAlignedRunsDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        grain=st.sampled_from([1, 8, 64, 1024]),
        free_fraction=st.floats(0.05, 1.0),
        hole_fraction=st.sampled_from([0.0, 0.001, 0.05]),
        chunk_pages=st.sampled_from([1, 2, 16, 512]),
        count=st.one_of(st.integers(1, 8), st.integers(1, 2000)),
        frame_range=st.one_of(
            st.none(),
            st.sampled_from([(0, 4096), (4096, 8192), (12288, 16384)]),
            st.tuples(st.integers(0, 8000), st.integers(8001, 16384)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, pool, seed, grain, free_fraction,
                               hole_fraction, chunk_pages, count, frame_range):
        rng = np.random.default_rng(seed)
        total = pool.total_frames
        free = np.repeat(rng.random(total // grain) < free_fraction, grain)
        free &= rng.random(total) >= hole_fraction
        pool._free = free
        assert _outcome(
            pool._find_aligned_runs, count, chunk_pages, frame_range
        ) == _outcome(
            reference_aligned_runs, free, count, chunk_pages, frame_range
        )

    @pytest.mark.parametrize("chunk_pages", [1, 2, 16, 512])
    def test_oom_reports_full_candidate_count(self, pool, chunk_pages):
        free = np.zeros(pool.total_frames, dtype=bool)
        free[chunk_pages * 5 : chunk_pages * 8] = True  # three free blocks
        pool._free = free
        with pytest.raises(OutOfMemoryError, match=r"only 3 available"):
            pool._find_aligned_runs(4, chunk_pages)
        with pytest.raises(OutOfMemoryError, match=r"only 0 available"):
            pool._find_aligned_runs(1, chunk_pages, (0, chunk_pages * 5))

    def test_alloc_chunks_frames_and_tail(self):
        phys = PhysicalMemory(small_config(64 << 20))
        frames = phys.alloc_chunks(16 * 3 + 5, 16)
        assert len(frames) == 53
        starts = frames[::16]
        assert (starts % 16 == 0).all()
        for i, start in enumerate(starts):
            np.testing.assert_array_equal(
                frames[16 * i : 16 * (i + 1)],
                np.arange(start, start + min(16, 53 - 16 * i)),
            )
        assert phys.free_frames == phys.total_frames - 53


# ----------------------------------------------------------------------
# Scattered-draw dedup
# ----------------------------------------------------------------------


def reference_disjoint_runs(starts, run):
    starts = np.unique(starts)
    if run > 1 and starts.size > 1:
        keep = np.empty(starts.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(starts) >= run
        starts = starts[keep]
    return starts


class TestScatteredDedup:
    @given(
        starts=st.lists(st.integers(0, 64), max_size=200),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_unique(self, starts, dtype):
        starts = np.array(starts, dtype=dtype)
        got = _distinct(starts)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.unique(starts))

    @pytest.mark.parametrize("run", [1, 2])
    def test_draws_in_a_narrow_window(self, run):
        # 32 frames, at least 32 draws per attempt: every attempt repeats
        # frames, so the dedup decides which draws are kept.
        phys = PhysicalMemory(small_config(64 << 20), seed=5)
        frames = phys._draw_scattered(12 // run, run, frame_range=(64, 96))
        assert len(frames) == 12
        assert len(np.unique(frames)) == 12
        assert ((frames >= 64) & (frames < 96)).all()
        assert not phys._free[frames].any()
        if run == 2:
            assert (frames[::2] % 2 == 0).all()
            assert (np.diff(frames.reshape(-1, 2), axis=1) == 1).all()


# ----------------------------------------------------------------------
# Word-wise claims
# ----------------------------------------------------------------------


def reference_claim(phys, frames):
    """Claim *frames* through a bool index of the bitmap."""
    if not phys._free[frames].all():
        raise OutOfMemoryError("attempted to claim a non-free frame")
    phys._free[frames] = False
    phys._free_count -= int(frames.size)


def reference_alloc_chunks(phys, npages, chunk_pages, frame_range=None):
    """``alloc_chunks`` claiming every frame through a bool index."""
    phys._admit(npages, contiguous=True)
    nchunks = -(-npages // chunk_pages)
    starts = phys._find_aligned_runs(nchunks, chunk_pages, frame_range)
    frames = (starts[:, None] + np.arange(chunk_pages)).ravel()[:npages]
    reference_claim(phys, frames)
    return frames


def reference_draw_scattered(phys, ndraws, run, frame_range=None):
    """``_draw_scattered`` with bool-index checks, a window mask on every
    attempt and int64 dedup of the run starts."""
    mod = phys._residue_modulus
    lo, hi = phys._check_range(frame_range)
    k_lo, k_hi = -(-lo // mod), hi // mod
    total = ndraws * run
    out = np.empty(total, dtype=np.int64)
    filled = attempts = 0
    while filled < total and attempts < 64:
        need_runs = (total - filled + run - 1) // run
        n = max(int(need_runs * 1.6) + 16, 32)
        channels = phys._draw_channels(n)
        ks = phys._rng.integers(k_lo, max(k_hi - 1, k_lo + 1), size=n)
        starts = phys._channel_residue[channels] + ks * mod
        if run > 1:
            starts &= ~np.int64(run - 1)
        starts = starts[(starts >= lo) & (starts + run <= hi)]
        ok = phys._free[starts]
        for extra in range(1, run):
            ok &= phys._free[starts + extra]
        starts = reference_disjoint_runs(starts[ok], run)[:need_runs]
        frames = starts if run == 1 else (starts[:, None] + np.arange(run)).ravel()
        reference_claim(phys, frames)
        out[filled : filled + len(frames)] = frames
        filled += len(frames)
        attempts += 1
    if filled < total:
        free_idx = lo + np.flatnonzero(phys._free[lo:hi])[: total - filled]
        if len(free_idx) < total - filled:
            if filled:
                phys.free(out[:filled])
            raise OutOfMemoryError("physical pool exhausted")
        reference_claim(phys, free_idx)
        out[filled:] = free_idx
    return out


POOL_FRAMES = 16384  # small_config(64 MiB)
QUADRANT = POOL_FRAMES // 4

#: Windows around one 128-frame interleave rotation: holding none of it
#: whole (where the window check decides), exactly one, or one and a part.
NARROW_WINDOWS = [(64, 96), (128, 200), (129, 383), (1, 300), (128, 256),
                  (127, 385), (4095, 4353), (16000, POOL_FRAMES)]

#: Whole pool, NPS4 quadrants, narrow windows and odd bounds.
WINDOWS = st.one_of(
    st.none(),
    st.sampled_from([(d * QUADRANT, (d + 1) * QUADRANT) for d in range(4)]),
    st.sampled_from(NARROW_WINDOWS),
    st.tuples(st.integers(0, 8000), st.integers(8001, POOL_FRAMES)),
)


def twin_pools(seed, grain, free_fraction):
    """Two identical 64 MiB pools with the same random free bitmap."""
    rng = np.random.default_rng(seed)
    free = np.repeat(rng.random(POOL_FRAMES // grain) < free_fraction, grain)
    free &= rng.random(POOL_FRAMES) >= 0.02
    pools = []
    for _ in range(2):
        phys = PhysicalMemory(small_config(64 << 20), seed=seed)
        phys._free = free.copy()
        phys._free_count = int(free.sum())
        pools.append(phys)
    return pools


def assert_same_pool(a, b):
    np.testing.assert_array_equal(a._free, b._free)
    assert a.free_frames == b.free_frames
    assert a.audit() == b.audit() == []
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


class TestWordClaimsDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        grain=st.sampled_from([1, 8, 256]),
        free_fraction=st.floats(0.05, 1.0),
        run=st.sampled_from([1, 2]),
        ndraws=st.one_of(st.integers(1, 40), st.integers(1, 4000)),
        frame_range=WINDOWS,
    )
    @settings(max_examples=250, deadline=None)
    def test_scattered_draw_matches_bool_path(self, seed, grain, free_fraction,
                                              run, ndraws, frame_range):
        phys, ref = twin_pools(seed, grain, free_fraction)
        assert _outcome(phys._draw_scattered, ndraws, run, frame_range) == \
            _outcome(reference_draw_scattered, ref, ndraws, run, frame_range)
        assert_same_pool(phys, ref)

    @pytest.mark.parametrize("frame_range", NARROW_WINDOWS)
    @pytest.mark.parametrize("run", [1, 2])
    def test_scattered_draw_in_narrow_windows(self, frame_range, run):
        for seed, free_fraction, ndraws in [(0, 1.0, 5), (1, 0.5, 20),
                                            (2, 0.9, 200)]:
            phys, ref = twin_pools(seed, 1, free_fraction)
            assert _outcome(phys._draw_scattered, ndraws, run, frame_range) \
                == _outcome(reference_draw_scattered, ref, ndraws, run,
                            frame_range)
            assert_same_pool(phys, ref)

    @given(
        seed=st.integers(0, 2**32 - 1),
        grain=st.sampled_from([1, 8, 256]),
        free_fraction=st.floats(0.05, 1.0),
        chunk_pages=st.sampled_from([1, 2, 4, 8, 16, 512]),
        npages=st.one_of(st.integers(1, 40), st.integers(1, 6000)),
        frame_range=WINDOWS,
    )
    @settings(max_examples=250, deadline=None)
    def test_alloc_chunks_matches_bool_path(self, seed, grain, free_fraction,
                                            chunk_pages, npages, frame_range):
        phys, ref = twin_pools(seed, grain, free_fraction)
        assert _outcome(phys.alloc_chunks, npages, chunk_pages, frame_range) \
            == _outcome(reference_alloc_chunks, ref, npages, chunk_pages,
                        frame_range)
        assert_same_pool(phys, ref)

    @pytest.mark.parametrize("chunk_pages", [2, 4, 16, 512])
    @pytest.mark.parametrize("tail", [0, 1, 3])
    def test_taken_frame_fails_the_whole_claim(self, chunk_pages, tail):
        # A taken frame in any claimed word, or in the partial tail,
        # fails the whole claim and changes nothing.
        width = min(chunk_pages, 8)
        phys = PhysicalMemory(small_config(64 << 20))
        starts = np.array([0, 4 * chunk_pages, 8 * chunk_pages])
        words = (starts[:, None] // width + np.arange(chunk_pages // width)).ravel()
        tail_frames = 12 * chunk_pages + np.arange(tail)
        for taken in [words[-1] * width + width - 1, *tail_frames[-1:]]:
            phys._free[taken] = False
            phys._free_count -= 1
            before = phys._free.copy()
            with pytest.raises(OutOfMemoryError, match="non-free frame"):
                phys._claim(words, width, tail=tail_frames)
            np.testing.assert_array_equal(phys._free, before)
            assert phys.free_frames == int(before.sum())
            phys.free(np.array([taken]))
        phys._claim(words, width, tail=tail_frames)
        assert phys.free_frames == POOL_FRAMES - words.size * width - tail
