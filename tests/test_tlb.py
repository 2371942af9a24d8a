"""Unit tests for the streaming TLB closed form (repro.core.tlb) and
the exact LRU TLB it is held to (tests.oracles)."""

import numpy as np
import pytest

from repro.core.tlb import streaming_tlb_misses
from repro.hw.config import TLBGeometry

from tests.oracles import TLB


def make_tlb(entries=4, fragment_aware=False):
    return TLB(TLBGeometry("test", entries, 100.0, fragment_aware=fragment_aware))


class TestLRUTLB:
    def test_first_access_misses(self):
        tlb = make_tlb()
        assert not tlb.access(0)
        assert tlb.stats.misses == 1

    def test_repeat_access_hits(self):
        tlb = make_tlb()
        tlb.access(0)
        assert tlb.access(0)
        assert tlb.stats.hits == 1

    def test_capacity_eviction_lru(self):
        tlb = make_tlb(entries=2)
        tlb.access(0)
        tlb.access(1)
        tlb.access(2)  # evicts 0
        assert not tlb.access(0)
        assert tlb.access(2)

    def test_access_refreshes_lru_order(self):
        tlb = make_tlb(entries=2)
        tlb.access(0)
        tlb.access(1)
        tlb.access(0)  # 1 is now LRU
        tlb.access(2)  # evicts 1
        assert tlb.access(0)
        assert not tlb.access(1)

    def test_flush(self):
        tlb = make_tlb()
        tlb.access(0)
        tlb.flush()
        assert not tlb.access(0)
        assert tlb.stats.misses == 2

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            make_tlb(entries=0)


class TestFragmentAwareTLB:
    def test_fragment_shares_entry(self):
        tlb = make_tlb(entries=1, fragment_aware=True)
        tlb.access(16, fragment_exponent=4)
        # Any page in the same aligned 16-page block hits.
        assert tlb.access(17, fragment_exponent=4)
        assert tlb.access(31, fragment_exponent=4)

    def test_different_blocks_miss(self):
        tlb = make_tlb(entries=8, fragment_aware=True)
        tlb.access(0, fragment_exponent=4)
        assert not tlb.access(16, fragment_exponent=4)

    def test_exponent_disambiguates_tags(self):
        tlb = make_tlb(entries=8, fragment_aware=True)
        tlb.access(0, fragment_exponent=4)
        # Same block id (0) but different exponent must not alias.
        assert not tlb.access(0, fragment_exponent=2)

    def test_not_fragment_aware_ignores_exponent(self):
        tlb = make_tlb(entries=8, fragment_aware=False)
        tlb.access(16, fragment_exponent=4)
        assert not tlb.access(17, fragment_exponent=4)

    def test_reach(self):
        # 32 entries over 16-page fragments reach 512 pages: a stream of
        # that size fits a fragment-aware TLB and thrashes a plain one.
        exps = np.full(32 * 16, 4, dtype=np.int8)
        assert streaming_tlb_misses(exps, 5, 32) == 32
        assert streaming_tlb_misses(exps, 5, 32, fragment_aware=False) == 512 * 5


class TestStreamingFastPath:
    def test_fits_in_tlb_compulsory_only(self):
        exps = np.full(16, 4, dtype=np.int8)  # one fragment
        assert streaming_tlb_misses(exps, passes=10, tlb_entries=32) == 1

    def test_thrashing_misses_every_pass(self):
        exps = np.zeros(100, dtype=np.int8)
        assert streaming_tlb_misses(exps, passes=10, tlb_entries=32) == 1000

    def test_fragment_aware_reduces_units(self):
        exps = np.full(64, 4, dtype=np.int8)  # 4 fragments of 16 pages
        aware = streaming_tlb_misses(exps, 10, 2, fragment_aware=True)
        plain = streaming_tlb_misses(exps, 10, 2, fragment_aware=False)
        assert aware == 40
        assert plain == 640

    def test_matches_exact_lru_simulation(self):
        # Cross-check the closed form against the exact TLB on a small
        # cyclic stream that thrashes.
        npages, entries, passes = 64, 8, 3
        exps = np.zeros(npages, dtype=np.int8)
        fast = streaming_tlb_misses(exps, passes, entries)
        tlb = make_tlb(entries=entries, fragment_aware=True)
        for _ in range(passes):
            for vpn in range(npages):
                tlb.access(vpn, 0)
        assert fast == tlb.stats.misses

    def test_matches_exact_lru_when_fitting(self):
        npages, entries = 8, 32
        exps = np.zeros(npages, dtype=np.int8)
        fast = streaming_tlb_misses(exps, 5, entries)
        tlb = make_tlb(entries=entries, fragment_aware=True)
        for _ in range(5):
            for vpn in range(npages):
                tlb.access(vpn, 0)
        assert fast == tlb.stats.misses == npages

    def test_empty_range(self):
        assert streaming_tlb_misses(np.array([], dtype=np.int8), 5, 8) == 0

    def test_positive_passes_required(self):
        with pytest.raises(ValueError):
            streaming_tlb_misses(np.zeros(4, dtype=np.int8), 0, 8)
