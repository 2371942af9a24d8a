"""System and GPU page tables, synchronised through an HMM mirror.

The MI300A manages address translation with two page tables: the system
page table on the CPU and a separate GPU page table.  The GPU can only
access its own table, so PTEs must be propagated from the system table to
the GPU table before the GPU can touch a page; Linux's heterogeneous
memory management (HMM) subsystem keeps the two copies in sync (paper
Section 2.3).

The authoritative per-page state lives in each :class:`~.address_space.VMA`
(numpy arrays); the classes here provide the table-level operations and
bookkeeping counters the experiments observe:

* :class:`SystemPageTable` — CPU-side mapping, minor/major fault targets.
* :class:`GPUPageTable` — GPU-side mirror with the amdgpu opportunistic
  fragment scan (paper Section 3.2): owed at map, run at first read of
  ``VMA.fragment``; values are those of the map-time scan.
* :class:`HMMMirror` — propagation and invalidation between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .address_space import VMA
from .fragments import contiguous_runs
from .page import NO_FRAME


@dataclass
class PageTableStats:
    """Counters exposed for profiling and tests."""

    mapped_pages: int = 0
    unmapped_pages: int = 0
    propagated_ptes: int = 0
    invalidated_ptes: int = 0
    fragment_scans: int = 0


class SystemPageTable:
    """The CPU-side (authoritative) page table."""

    def __init__(self) -> None:
        self.stats = PageTableStats()

    def map_range(
        self, vma: VMA, first_page: int, frames: np.ndarray
    ) -> None:
        """Install *frames* for ``vma`` pages starting at *first_page*.

        All target pages must currently be unmapped in the system table;
        mapping an already-present page indicates a model bug (real kernels
        would be corrupting a PTE) and raises ``ValueError``.
        """
        count = len(frames)
        self._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        if vma.sys_valid[sl].any():
            raise ValueError("remapping pages already present in system table")
        existing = vma.frames[sl]
        fresh = existing == NO_FRAME
        if not fresh.all():
            # Pages already have physical backing (e.g. GPU faulted first);
            # the provided frames must agree with it.
            backed = ~fresh if fresh.any() else slice(None)
            if not np.array_equal(existing[backed], np.asarray(frames)[backed]):
                raise ValueError("conflicting physical frames for mapped pages")
        vma.frames[sl] = frames
        vma.sys_valid[sl] = True
        self.stats.mapped_pages += count

    def unmap_range(self, vma: VMA, first_page: int, count: int) -> np.ndarray:
        """Remove *count* pages from the system table; returns their frames.

        GPU mirror entries must be invalidated separately (via
        :meth:`HMMMirror.invalidate_range`) before the frames are reused.
        """
        self._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        present = vma.sys_valid[sl].copy()
        vma.sys_valid[sl] = False
        self.stats.unmapped_pages += int(present.sum())
        freed = vma.frames[sl][present].copy()
        return freed

    def is_present(self, vma: VMA, page_index: int) -> bool:
        """True when the page is mapped in the system table."""
        return bool(vma.sys_valid[page_index])

    @staticmethod
    def _check_range(vma: VMA, first_page: int, count: int) -> None:
        if count <= 0:
            raise ValueError(f"page count must be positive, got {count}")
        if first_page < 0 or first_page + count > vma.npages:
            raise ValueError(
                f"page range [{first_page}, {first_page + count}) escapes "
                f"VMA of {vma.npages} pages"
            )


class GPUPageTable:
    """The GPU-side mirror table with fragment-field maintenance."""

    def __init__(self) -> None:
        self.stats = PageTableStats()

    def map_range(self, vma: VMA, first_page: int, count: int) -> None:
        """Mirror *count* already-backed pages into the GPU table.

        Every target page must have a physical frame (the GPU table never
        invents backing).  The amdgpu-style fragment scan over the
        GPU-valid region around the range is owed, not run: the first
        read of ``vma.fragment`` runs it, so neighbouring pages mapped
        earlier or later coalesce into larger fragments.
        """
        SystemPageTable._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        if (vma.frames[sl] == NO_FRAME).any():
            raise ValueError("GPU-mapping pages without physical backing")
        vma.gpu_valid[sl] = True
        self.stats.mapped_pages += count
        vma.owed_scans.append((first_page, self.stats))

    def unmap_range(self, vma: VMA, first_page: int, count: int) -> None:
        """Drop *count* pages from the GPU table (TLB shootdown implied).

        Owed scans run before the valid bits clear, as they would have at
        map time; unmapping the whole VMA drops them instead.
        """
        SystemPageTable._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        removed = int(vma.gpu_valid[sl].sum())
        if count == vma.npages:
            vma.owed_scans.clear()
        vma.fragment[sl] = 0
        vma.gpu_valid[sl] = False
        self.stats.unmapped_pages += removed

    def is_present(self, vma: VMA, page_index: int) -> bool:
        """True when the page is mapped in the GPU table."""
        return bool(vma.gpu_valid[page_index])


class HMMMirror:
    """Keeps the GPU table consistent with the system table.

    Propagation copies present system PTEs into the GPU table (making the
    pages GPU-accessible); invalidation removes GPU entries when the
    system mapping goes away.  Both directions are what the Linux HMM
    subsystem does for the amdgpu driver (paper Section 2.3).
    """

    def __init__(self, system: SystemPageTable, gpu: GPUPageTable) -> None:
        self._system = system
        self._gpu = gpu

    @property
    def system(self) -> SystemPageTable:
        """The CPU-side table."""
        return self._system

    @property
    def gpu(self) -> GPUPageTable:
        """The GPU-side mirror."""
        return self._gpu

    def propagate_range(self, vma: VMA, first_page: int, count: int) -> int:
        """Copy present system PTEs in the range into the GPU table.

        Returns the number of PTEs actually propagated (pages present in
        the system table and not yet in the GPU table).
        """
        SystemPageTable._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        needed = vma.sys_valid[sl] & ~vma.gpu_valid[sl]
        n_needed = int(np.count_nonzero(needed))
        # Map a wholly needed range as one run, otherwise each contiguous
        # needed run, so the fragment scan sees it.
        if n_needed == count:
            self._gpu.map_range(vma, first_page, count)
        elif n_needed:
            idx = np.flatnonzero(needed)
            for s, n in contiguous_runs(idx):
                self._gpu.map_range(vma, first_page + int(idx[s]), n)
        self._gpu.stats.propagated_ptes += n_needed
        return n_needed

    def invalidate_range(self, vma: VMA, first_page: int, count: int) -> int:
        """Remove GPU entries for the range (MMU-notifier path).

        Returns the number of GPU PTEs invalidated.
        """
        SystemPageTable._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        present = int(vma.gpu_valid[sl].sum())
        self._gpu.unmap_range(vma, first_page, count)
        self._gpu.stats.invalidated_ptes += present
        return present
