"""Property-based tests (hypothesis) on the core data structures.

Invariants checked:

* physical allocator conservation and non-aliasing,
* fragment scan: correct alignment/contiguity of every encoded block,
* streaming-TLB closed form vs the exact LRU simulation,
* address space: page_range arithmetic and find/mmap consistency,
* chase-latency walk: level shares form a distribution, latency monotone,
* fault handler: touching is idempotent and conserves physical frames,
* HBM mapping: frame -> (stack, channel) is bijective per interleave
  unit and respects the granularity, under both NPS1 and NPS4.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_space import AddressSpace
from repro.core.fragments import compute_fragments, distinct_fragments
from repro.core.physical import PhysicalMemory
from repro.core.tlb import streaming_tlb_misses
from repro.hw.config import PAGE_SIZE, TLBGeometry, small_config
from repro.hw.hbm import HBMSubsystem
from repro.perf.latency import _chase_walk_ns
from repro.runtime.apu import make_apu

from tests.oracles import TLB

SMALL_CFG = small_config(1 << 30)


class TestPhysicalAllocatorProperties:
    @given(
        requests=st.lists(
            st.tuples(st.booleans(), st.integers(1, 200)), min_size=1, max_size=12
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_no_frame_allocated_twice(self, requests):
        phys = PhysicalMemory(SMALL_CFG, seed=3)
        live = []
        for contiguous, npages in requests:
            if contiguous:
                frames = phys.alloc_chunks(npages, 16)
            else:
                frames = phys.alloc_scattered(npages)
            live.append(frames)
        combined = np.concatenate(live)
        assert len(np.unique(combined)) == len(combined)
        assert phys.free_frames == phys.total_frames - len(combined)

    @given(
        requests=st.lists(st.integers(1, 300), min_size=1, max_size=10),
        frees=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_alloc_free_conserves_pool(self, requests, frees):
        phys = PhysicalMemory(SMALL_CFG, seed=5)
        live = [phys.alloc_scattered(n) for n in requests]
        order = frees.draw(st.permutations(range(len(live))))
        for idx in order:
            phys.free(live[idx])
        assert phys.free_frames == phys.total_frames
        assert phys.used_bytes == 0

    @given(npages=st.integers(1, 256), chunk_exp=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_chunks_aligned_and_contiguous(self, npages, chunk_exp):
        chunk = 1 << chunk_exp
        phys = PhysicalMemory(SMALL_CFG, seed=9)
        frames = phys.alloc_chunks(npages, chunk)
        assert len(frames) == npages
        for start in range(0, npages - chunk + 1, chunk):
            block = frames[start : start + chunk]
            if len(block) == chunk:
                assert block[0] % chunk == 0
                assert (np.diff(block) == 1).all()


class TestFragmentProperties:
    @given(
        runs=st.lists(
            st.tuples(st.integers(0, 4000), st.integers(1, 40)),
            min_size=1,
            max_size=8,
        ),
        base_vpn=st.integers(0, 1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_block_is_aligned_contiguous(self, runs, base_vpn):
        # Build a frame array from arbitrary (start, length) runs.
        pieces = [np.arange(start, start + length) for start, length in runs]
        frames = np.concatenate(pieces)
        exps = compute_fragments(frames, base_vpn)
        i = 0
        while i < len(frames):
            exp = int(exps[i])
            block = 1 << exp
            # Block must lie within bounds and be uniform.
            assert i + block <= len(frames)
            assert (exps[i : i + block] == exp).all()
            # Aligned in both VA and PA.
            assert (base_vpn + i) % block == 0
            assert frames[i] % block == 0
            # Physically contiguous.
            assert (np.diff(frames[i : i + block]) == 1).all()
            i += block

    @given(n=st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_distinct_fragments_bounded(self, n):
        frames = np.arange(n)
        exps = compute_fragments(frames, base_vpn=0)
        count = distinct_fragments(exps)
        assert 1 <= count <= n


class TestTLBProperties:
    @given(
        accesses=st.lists(st.integers(0, 63), min_size=1, max_size=300),
        entries=st.integers(1, 32),
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses, entries):
        tlb = TLB(TLBGeometry("t", entries, 1.0))
        for vpn in accesses:
            tlb.access(vpn)
        assert tlb.stats.hits + tlb.stats.misses == len(accesses)

    @given(
        npages=st.integers(1, 200),
        entries=st.integers(1, 64),
        passes=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_streaming_closed_form_matches_lru(self, npages, entries, passes):
        exps = np.zeros(npages, dtype=np.int8)
        fast = streaming_tlb_misses(exps, passes, entries)
        tlb = TLB(TLBGeometry("t", entries, 1.0, fragment_aware=True))
        for _ in range(passes):
            for vpn in range(npages):
                tlb.access(vpn)
        assert fast == tlb.stats.misses


class TestAddressSpaceProperties:
    @given(sizes=st.lists(st.integers(1, 1 << 20), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_mmap_ranges_never_overlap(self, sizes):
        aspace = AddressSpace()
        vmas = [aspace.mmap(size) for size in sizes]
        spans = sorted((v.start, v.end) for v in vmas)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(
        npages=st.integers(1, 64),
        offset=st.integers(0, 1 << 18),
        size=st.integers(1, 1 << 18),
    )
    @settings(max_examples=50, deadline=None)
    def test_page_range_covers_byte_range(self, npages, offset, size):
        aspace = AddressSpace()
        vma = aspace.mmap(npages * PAGE_SIZE)
        if offset + size > vma.size_bytes:
            return  # out of range is tested separately
        first, count = vma.page_range(vma.start + offset, size)
        assert first * PAGE_SIZE <= offset
        assert (first + count) * PAGE_SIZE >= offset + size
        assert count <= npages


class TestCacheHierarchyProperties:
    @given(
        caps=st.lists(st.integers(10, 1 << 24), min_size=1, max_size=4, unique=True),
        ws=st.integers(1, 1 << 26),
    )
    @settings(max_examples=50, deadline=None)
    def test_hit_fractions_form_distribution(self, caps, ws):
        # All-1 ns levels average to the fractions' sum; distinct
        # latencies average to a point inside their range.
        caps = sorted(caps)
        ones = _chase_walk_ns([(c, 1.0) for c in caps], 1.0, ws)
        assert ones == pytest.approx(1.0)
        levels = [(c, float(i + 1)) for i, c in enumerate(caps)]
        assert 1.0 - 1e-9 <= _chase_walk_ns(levels, 100.0, ws) <= 100.0 + 1e-9

    @given(ws_pairs=st.tuples(st.integers(1, 1 << 26), st.integers(1, 1 << 26)))
    @settings(max_examples=50, deadline=None)
    def test_latency_monotone(self, ws_pairs):
        levels = [(1 << 14, 1.0), (1 << 20, 10.0)]
        small, big = sorted(ws_pairs)
        assert _chase_walk_ns(levels, 100.0, small) <= \
            _chase_walk_ns(levels, 100.0, big) + 1e-9


class TestHBMProperties:
    @given(frames=st.lists(st.integers(0, 1 << 22), min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_histogram_conserves_bytes(self, frames):
        hbm = HBMSubsystem(SMALL_CFG.hbm)
        hist = hbm.channel_histogram(np.array(frames))
        assert hist.sum() == len(frames) * PAGE_SIZE

    @given(
        numa_domains=st.sampled_from([1, 4]),
        interleave_pages=st.sampled_from([1, 2, 4]),
        raw_frames=st.lists(st.integers(0, 1 << 60), min_size=1, max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_frame_mapping_bijective_and_granular(
        self, numa_domains, interleave_pages, raw_frames
    ):
        # Frame -> (domain, stack, lane, rotation) must be invertible,
        # stay on the domain's stacks, and keep every frame of one
        # interleave unit on one channel — in NPS1 and NPS4 alike.
        geo = dataclasses.replace(
            SMALL_CFG.hbm, interleave_bytes=interleave_pages * PAGE_SIZE
        )
        hbm = HBMSubsystem(geo, numa_domains=numa_domains)
        total = geo.capacity_bytes // PAGE_SIZE
        lanes = geo.channels_per_stack
        spd = geo.stacks // numa_domains
        fpd = hbm.frames_per_domain
        ppu = interleave_pages
        for raw in raw_frames:
            frame = raw % total
            channel = int(hbm.channels_of_frames([frame])[0])
            stack, lane = channel // lanes, channel % lanes
            domain = frame // fpd
            assert stack % numa_domains == domain
            # Invert the mapping: reconstruct the frame from its
            # (domain, stack, lane, rotation, unit offset) coordinates.
            unit = (frame % fpd) // ppu
            rotation = unit // (spd * lanes)
            unit_back = (
                rotation * spd * lanes
                + lane * spd
                + (stack - domain) // numa_domains
            )
            assert unit_back == unit
            frame_back = domain * fpd + unit_back * ppu + (frame % fpd) % ppu
            assert frame_back == frame
            # Interleave granularity: the whole unit shares the channel.
            unit_start = frame - (frame % fpd) % ppu
            unit_frames = unit_start + np.arange(ppu)
            assert (hbm.channels_of_frames(unit_frames) == channel).all()

    @given(numa_domains=st.sampled_from([1, 4]))
    @settings(max_examples=8, deadline=None)
    def test_full_domain_channel_histogram_uniform(self, numa_domains):
        hbm = HBMSubsystem(SMALL_CFG.hbm, numa_domains=numa_domains)
        for domain in range(numa_domains):
            lo, hi = hbm.domain_frame_range(domain)
            hist = hbm.channel_histogram(np.arange(lo, hi))
            lanes = SMALL_CFG.hbm.channels_per_stack
            stacks = np.arange(SMALL_CFG.hbm.channels) // lanes
            visible = stacks % numa_domains == domain
            assert (hist[~visible] == 0).all()
            assert len(np.unique(hist[visible])) == 1  # perfectly even


class TestFaultProperties:
    @given(
        touches=st.lists(
            st.tuples(
                st.sampled_from(["cpu", "gpu"]),
                st.integers(0, 60),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_touching_is_idempotent_and_conserves(self, touches):
        apu = make_apu(1, xnack=True)
        buf = apu.memory.malloc(64 * PAGE_SIZE)
        for device, first, count in touches:
            count = min(count, 64 - first)
            if count <= 0:
                continue
            apu.faults.touch_range(buf.vma, first, count, device)
            # Repeat touch never faults again.
            again = apu.faults.touch_range(buf.vma, first, count, device)
            assert not again.any_faults
        resident = buf.vma.resident_pages()
        assert apu.physical.used_bytes == resident * PAGE_SIZE
        # Every sys-mapped or gpu-mapped page has a frame.
        mapped = buf.vma.sys_valid | buf.vma.gpu_valid
        assert (buf.vma.frames[mapped] >= 0).all()
