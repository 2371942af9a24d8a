"""Unit tests for VMAs and the address space (repro.core.address_space)."""

import numpy as np
import pytest

from repro.core.address_space import (
    AddressSpace,
    GPU_ACCESS_ALWAYS,
    VMA,
)
from repro.core.page import NO_FRAME
from repro.hw.config import PAGE_SIZE


class TestVMA:
    def test_requires_page_aligned_start(self):
        with pytest.raises(ValueError):
            VMA(start=100, npages=1)

    def test_requires_positive_pages(self):
        with pytest.raises(ValueError):
            VMA(start=0, npages=0)

    def test_geometry(self):
        vma = VMA(start=0x10000, npages=4)
        assert vma.end == 0x10000 + 4 * PAGE_SIZE
        assert vma.size_bytes == 4 * PAGE_SIZE
        assert vma.base_vpn == 0x10000 // PAGE_SIZE

    def test_contains(self):
        vma = VMA(start=0x10000, npages=2)
        assert vma.contains(0x10000)
        assert vma.contains(vma.end - 1)
        assert not vma.contains(vma.end)
        assert not vma.contains(0x10000 - 1)

    def test_page_index(self):
        vma = VMA(start=0x10000, npages=4)
        assert vma.page_index(0x10000) == 0
        assert vma.page_index(0x10000 + PAGE_SIZE + 1) == 1

    def test_page_index_outside_rejected(self):
        vma = VMA(start=0x10000, npages=1)
        with pytest.raises(ValueError):
            vma.page_index(0)

    def test_page_range(self):
        vma = VMA(start=0, npages=10)
        assert vma.page_range(0, 1) == (0, 1)
        assert vma.page_range(PAGE_SIZE - 1, 2) == (0, 2)
        assert vma.page_range(3 * PAGE_SIZE, 2 * PAGE_SIZE) == (3, 2)

    def test_page_range_escaping_rejected(self):
        vma = VMA(start=0, npages=2)
        with pytest.raises(ValueError):
            vma.page_range(PAGE_SIZE, 2 * PAGE_SIZE)

    def test_initial_backing_state(self):
        vma = VMA(start=0, npages=3)
        assert (vma.frames == NO_FRAME).all()
        assert not vma.sys_valid.any()
        assert not vma.gpu_valid.any()
        assert vma.resident_bytes() == 0
        assert vma.gpu_access == GPU_ACCESS_ALWAYS
        assert not vma.gpu_touched

    def test_resident_accounting(self):
        vma = VMA(start=0, npages=4)
        vma.frames[1] = 100
        vma.frames[3] = 200
        assert vma.resident_pages() == 2
        assert list(vma.resident_frames()) == [100, 200]


class TestAddressSpace:
    def test_mmap_rounds_to_pages(self):
        aspace = AddressSpace()
        vma = aspace.mmap(100)
        assert vma.npages == 1
        assert vma.start % PAGE_SIZE == 0

    def test_mmap_distinct_ranges(self):
        aspace = AddressSpace()
        a = aspace.mmap(PAGE_SIZE)
        b = aspace.mmap(PAGE_SIZE)
        assert a.end <= b.start or b.end <= a.start

    def test_mmap_alignment(self):
        aspace = AddressSpace()
        vma = aspace.mmap(PAGE_SIZE, alignment=1 << 20)
        assert vma.start % (1 << 20) == 0

    def test_mmap_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().mmap(PAGE_SIZE, alignment=3000)

    def test_mmap_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().mmap(0)

    def test_munmap_removes(self):
        aspace = AddressSpace()
        vma = aspace.mmap(PAGE_SIZE)
        aspace.munmap(vma)
        assert list(aspace) == []
        assert len(aspace) == 0

    def test_munmap_foreign_rejected(self):
        aspace = AddressSpace()
        foreign = VMA(start=0x5000_0000_0000, npages=1)
        with pytest.raises(ValueError):
            aspace.munmap(foreign)

    def test_iteration_order_sorted(self):
        aspace = AddressSpace()
        vmas = [aspace.mmap(PAGE_SIZE) for _ in range(5)]
        starts = [v.start for v in aspace]
        assert starts == sorted(starts)
