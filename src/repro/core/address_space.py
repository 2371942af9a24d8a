"""Process virtual address space: VMAs and virtual allocation.

A :class:`VMA` is a virtually contiguous range of pages with per-page
backing state.  Because the MI300A keeps two page tables (system and GPU,
paper Section 2.3), each page tracks *independently* whether it is present
in the CPU table and in the GPU table, over a shared physical frame — this
is the representation that lets hipMalloc memory be GPU-mapped up-front
yet CPU-faulted lazily, and malloc memory the reverse.

Per-page state is held in numpy arrays so multi-GiB buffers (the paper's
benchmarks reach 40 GiB) remain cheap to represent.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..hw.config import PAGE_SIZE
from .fragments import compute_fragments
from .page import NO_FRAME

#: Where the simulated process's mmap region starts.
MMAP_BASE = 0x7000_0000_0000

#: GPU-access policy of a VMA (decided by its allocator, paper Table 1).
GPU_ACCESS_ALWAYS = "always"  # mapped or mappable regardless of XNACK
GPU_ACCESS_XNACK = "xnack"  # reachable only via XNACK fault replay
GPU_ACCESS_NEVER = "never"  # static host memory: invisible to the GPU linker


class VMA:
    """One virtual memory area with per-page backing state."""

    def __init__(
        self,
        start: int,
        npages: int,
        name: str = "",
        pinned: bool = False,
        uncached: bool = False,
        frames: Optional[np.ndarray] = None,
    ) -> None:
        if start % PAGE_SIZE:
            raise ValueError(f"VMA start {start:#x} not page aligned")
        if npages <= 0:
            raise ValueError(f"VMA needs at least one page, got {npages}")
        if frames is None:
            frames = np.full(npages, NO_FRAME, dtype=np.int64)
        elif len(frames) != npages:
            raise ValueError(f"{len(frames)} frames for a VMA of {npages} pages")
        self.start = start
        self.npages = npages
        self.name = name
        self.pinned = pinned
        self.uncached = uncached
        #: One of the GPU_ACCESS_* policies (set by the owning allocator).
        self.gpu_access = GPU_ACCESS_ALWAYS
        #: Whether the GPU has ever touched this VMA (affects the CPU
        #: fault-around granularity, paper Fig. 10's "GPU init" bars).
        self.gpu_touched = False
        #: Whether physical backing is deferred to first touch.
        self.on_demand = False
        #: Physical frame per page; NO_FRAME when no physical backing yet.
        #: An up-front VMA is created with its frames.
        self.frames = np.asarray(frames, dtype=np.int64)
        #: Present in the system (CPU) page table.
        self.sys_valid = np.zeros(npages, dtype=bool)
        #: Present (mirrored) in the GPU page table.
        self.gpu_valid = np.zeros(npages, dtype=bool)
        self._fragment = np.zeros(npages, dtype=np.int8)
        #: Fragment scans owed by GPU maps, in map order: (first mapped
        #: page, the mapping table's stats).  Run on first read.
        self.owed_scans: List[Tuple[int, object]] = []

    @property
    def fragment(self) -> np.ndarray:
        """GPU PTE fragment exponent per page (meaningful where gpu_valid).

        Runs the owed scans first, in map order, once per maximal
        GPU-valid region.  GPU maps only grow those regions until an
        unmap, which reads this first, so each region's scan yields the
        values the map-time scans would have left.
        """
        if self.owed_scans:
            edges = np.diff(self.gpu_valid, prepend=False, append=False)
            bounds = np.flatnonzero(edges)  # region starts and ends, paired
            scanned = set()
            for first, stats in self.owed_scans:
                k = int(np.searchsorted(bounds, first, side="right")) - 1
                if k not in scanned:
                    scanned.add(k)
                    lo, hi = int(bounds[k]), int(bounds[k + 1])
                    self._fragment[lo:hi] = compute_fragments(
                        self.frames[lo:hi], self.base_vpn + lo
                    )
                    stats.fragment_scans += 1
            self.owed_scans.clear()
        return self._fragment

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.start + self.npages * PAGE_SIZE

    @property
    def size_bytes(self) -> int:
        """Size of the virtual range in bytes."""
        return self.npages * PAGE_SIZE

    @property
    def base_vpn(self) -> int:
        """Virtual page number of the first page."""
        return self.start // PAGE_SIZE

    def contains(self, address: int) -> bool:
        """True when *address* falls inside this VMA."""
        return self.start <= address < self.end

    def page_index(self, address: int) -> int:
        """Index (within this VMA) of the page containing *address*."""
        if not self.contains(address):
            raise ValueError(
                f"address {address:#x} outside VMA [{self.start:#x}, {self.end:#x})"
            )
        return (address - self.start) // PAGE_SIZE

    def page_range(self, address: int, size: int) -> Tuple[int, int]:
        """(first page index, page count) covering ``[address, address+size)``."""
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        if not self.contains(address) or address + size > self.end:
            raise ValueError("byte range escapes VMA")
        first = self.page_index(address)
        last = self.page_index(address + size - 1)
        return first, last - first + 1

    def resident_pages(self) -> int:
        """Number of pages with physical backing."""
        return int((self.frames != NO_FRAME).sum())

    def resident_bytes(self) -> int:
        """Bytes of physical memory backing this VMA."""
        return self.resident_pages() * PAGE_SIZE

    def resident_frames(self) -> np.ndarray:
        """Physical frames currently backing this VMA."""
        return self.frames[self.frames != NO_FRAME]

    def __repr__(self) -> str:
        return (
            f"VMA({self.name or 'anon'}, {self.start:#x}+{self.size_bytes}, "
            f"resident={self.resident_pages()}/{self.npages})"
        )


class AddressSpace:
    """Per-process virtual address space (a sorted set of VMAs)."""

    def __init__(self) -> None:
        self._vmas: List[VMA] = []
        self._starts: List[int] = []
        self._next_va = MMAP_BASE

    def mmap(
        self,
        size: int,
        name: str = "",
        pinned: bool = False,
        uncached: bool = False,
        alignment: int = PAGE_SIZE,
        frames: Optional[np.ndarray] = None,
    ) -> VMA:
        """Reserve a fresh virtual range of at least *size* bytes.

        The range is rounded up to whole pages and aligned to *alignment*
        (power of two, >= page size).  Mirrors anonymous ``mmap``: no
        physical memory is allocated here; *frames*, one per page, backs
        the range with frames the caller already holds.
        """
        if size <= 0:
            raise ValueError(f"mmap size must be positive, got {size}")
        if alignment < PAGE_SIZE or alignment & (alignment - 1):
            raise ValueError(f"bad alignment {alignment}")
        npages = -(-size // PAGE_SIZE)
        start = (self._next_va + alignment - 1) & ~(alignment - 1)
        self._next_va = start + npages * PAGE_SIZE
        vma = VMA(start, npages, name=name, pinned=pinned, uncached=uncached,
                  frames=frames)
        idx = bisect.bisect_left(self._starts, start)
        self._vmas.insert(idx, vma)
        self._starts.insert(idx, start)
        return vma

    def munmap(self, vma: VMA) -> None:
        """Remove *vma* from the address space.

        The caller is responsible for returning its physical frames to the
        frame allocator first.
        """
        idx = bisect.bisect_left(self._starts, vma.start)
        if idx >= len(self._vmas) or self._vmas[idx] is not vma:
            raise ValueError("VMA not part of this address space")
        del self._vmas[idx]
        del self._starts[idx]

    def __iter__(self) -> Iterator[VMA]:
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)
