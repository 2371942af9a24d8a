"""Reference models the tests hold the simulator's fast paths to.

None of these runs in the simulator itself:

* :class:`TLB` — an exact LRU translation cache, optionally
  fragment-aware.  The kernel engine counts GPU TLB misses with the
  closed form :func:`repro.core.tlb.streaming_tlb_misses`; this is the
  simulation that closed form must match.
* :class:`EagerGPUTable` — the GPU page table's fragment field as the
  amdgpu driver keeps it, rescanning at every map.  The simulator owes
  the scan at map time and runs it on the first read of
  ``VMA.fragment``; the values must be the same.
* :func:`reference_fragments` — every page's fragment exponent from a
  closed form, written independently of the level-by-level scan in
  :func:`repro.core.fragments.compute_fragments`.
* :class:`PerPageFaultHandler` and :class:`PerPageHMMMirror` — the fault
  handler and the HMM mirror working every touched range page by page:
  index arrays of the pages to fault, map or mirror, split into
  contiguous runs.  The simulator maps a uniform range (wholly unmapped
  and backed or unbacked, or wholly needed) as one run; the resulting
  state, reports and counters must be the same.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.address_space import GPU_ACCESS_NEVER
from repro.core.faults import FaultHandler, GPUMemoryAccessError
from repro.core.fragments import compute_fragments, contiguous_runs
from repro.core.page import NO_FRAME
from repro.core.page_table import HMMMirror, SystemPageTable
from repro.hw.config import MAX_FRAGMENT_EXPONENT, PAGE_SIZE, TLBGeometry


@dataclass
class TLBStats:
    """Hit/miss counters of one TLB instance."""

    hits: int = 0
    misses: int = 0


class TLB:
    """LRU translation cache, optionally fragment-aware."""

    def __init__(self, geometry: TLBGeometry) -> None:
        if geometry.entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self._geometry = geometry
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.stats = TLBStats()

    def _tag(self, vpn: int, fragment_exponent: int) -> int:
        if self._geometry.fragment_aware and fragment_exponent > 0:
            # One entry covers the whole aligned fragment block.  Tags are
            # disambiguated by folding the exponent in, since blocks of
            # different sizes must not alias.
            return ((vpn >> fragment_exponent) << 6) | fragment_exponent
        return (vpn << 6) | 0

    def access(self, vpn: int, fragment_exponent: int = 0) -> bool:
        """Translate one page access; returns True on hit."""
        tag = self._tag(vpn, fragment_exponent)
        if tag in self._entries:
            self._entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._entries[tag] = None
        if len(self._entries) > self._geometry.entries:
            self._entries.popitem(last=False)
        return False

    def flush(self) -> None:
        """Invalidate all entries (TLB shootdown)."""
        self._entries.clear()


class EagerGPUTable:
    """GPU valid bits and fragment field of one VMA, scanned at every map.

    Shadows a real VMA: call :meth:`map` and :meth:`unmap` with the same
    ranges as the real table, after the real VMA's frames are set.
    """

    def __init__(self, vma) -> None:
        self._vma = vma
        self.gpu_valid = np.zeros(vma.npages, dtype=bool)
        self.fragment = np.zeros(vma.npages, dtype=np.int8)

    def map(self, first_page: int, count: int) -> None:
        """Mirror pages, then rescan the GPU-valid region around them."""
        self.gpu_valid[first_page : first_page + count] = True
        # Extend to the surrounding contiguous valid region so adjacent
        # earlier mappings merge with the new pages.
        lo = first_page
        while lo > 0 and self.gpu_valid[lo - 1]:
            lo -= 1
        hi = first_page + count
        while hi < self._vma.npages and self.gpu_valid[hi]:
            hi += 1
        self.fragment[lo:hi] = compute_fragments(
            self._vma.frames[lo:hi], self._vma.base_vpn + lo
        )

    def unmap(self, first_page: int, count: int) -> None:
        """Drop pages from the table; their exponents reset to 0."""
        self.gpu_valid[first_page : first_page + count] = False
        self.fragment[first_page : first_page + count] = 0


def reference_fragments(
    frames, base_vpn: int, max_exponent: int = MAX_FRAGMENT_EXPONENT
) -> np.ndarray:
    """Fragment exponents from the closed form, page by page.

    Page ``v`` of a physically contiguous run over virtual pages
    ``[a, b)`` lies in the largest naturally aligned block inside the
    run: exponent ``min(cap, floor(log2(v ^ (a - 1))),
    floor(log2(v ^ b)))``, where ``cap`` is the field's maximum lowered
    to the run's ``pfn - vpn`` alignment (a block must be aligned in
    both address spaces).  Pages outside a multi-page run get 0.
    """
    frames = [int(f) for f in frames]
    out = np.zeros(len(frames), dtype=np.int8)
    start = 0
    for i in range(1, len(frames) + 1):
        if i < len(frames) and frames[i] == frames[i - 1] + 1:
            continue
        a, b = base_vpn + start, base_vpn + i
        delta = frames[start] - a
        cap = max_exponent
        if delta:
            cap = min(cap, (delta & -delta).bit_length() - 1)
        for v in range(a, b):
            left = (v ^ (a - 1)).bit_length() - 1 if a else max_exponent
            out[v - base_vpn] = min(cap, left, (v ^ b).bit_length() - 1)
        start = i
    return out


class PerPageFaultHandler(FaultHandler):
    """CPU and GPU touches resolved through per-page index arrays."""

    def _touch_cpu(self, vma, first_page, count, report):
        sl = slice(first_page, first_page + count)
        missing_pte = ~vma.sys_valid[sl]
        if not missing_pte.any():
            return
        have_frame = vma.frames[sl] != NO_FRAME

        need_alloc = missing_pte & ~have_frame
        n_alloc = int(need_alloc.sum())
        if n_alloc:
            frames = self._alloc_with_reclaim(
                lambda: self._physical.alloc_scattered(n_alloc), vma
            )
            idx = first_page + np.flatnonzero(need_alloc)
            self._map_indices(vma, idx, frames)
            report.cpu_fault_events += n_alloc
            report.cpu_faulted_pages += n_alloc

        need_map = missing_pte & have_frame
        n_map = int(need_map.sum())
        if n_map:
            granularity = self._cpu_fault_around_pages(vma)
            idx = first_page + np.flatnonzero(need_map)
            self._map_indices(vma, idx, vma.frames[idx])
            report.cpu_fault_events += 1 + int(
                np.count_nonzero(np.diff(idx // granularity))
            )
            report.cpu_faulted_pages += n_map

        self.counters.cpu_fault_events += report.cpu_fault_events
        self.counters.cpu_faulted_pages += report.cpu_faulted_pages

        if (
            self._config.policy.eager_gpu_maps
            and vma.gpu_access != GPU_ACCESS_NEVER
        ):
            propagated = self._hmm.propagate_range(vma, first_page, count)
            report.eager_mapped_pages += propagated

    def _map_indices(self, vma, indices, frames):
        for s, n in contiguous_runs(indices):
            self._hmm.system.map_range(
                vma, int(indices[s]), np.asarray(frames[s : s + n], dtype=np.int64)
            )

    def _touch_gpu(self, vma, first_page, count, report):
        sl = slice(first_page, first_page + count)
        not_gpu_mapped = ~vma.gpu_valid[sl]
        if not not_gpu_mapped.any():
            vma.gpu_touched = True
            return
        if not self.xnack_enabled:
            self._emit_fatal(vma, "unmapped page touched with XNACK disabled")
            raise GPUMemoryAccessError("XNACK disabled")
        report.xnack_retries = self._xnack_replay_retries(vma, first_page, count)
        have_frame = vma.frames[sl] != NO_FRAME

        need_alloc = not_gpu_mapped & ~have_frame
        n_alloc = int(need_alloc.sum())
        if n_alloc:
            chunk_pages = max(
                1, self._config.policy.up_front_contiguity_bytes // PAGE_SIZE
            )
            frames = self._alloc_with_reclaim(
                lambda: self._physical.alloc_chunks(n_alloc, chunk_pages), vma
            )
            idx = first_page + np.flatnonzero(need_alloc)
            self._map_indices(vma, idx, frames)
            report.gpu_major_pages += n_alloc

        minor = not_gpu_mapped & ~need_alloc
        report.gpu_minor_pages += int(minor.sum())

        # Every faulted page is backed now: map each into the GPU table,
        # whether or not it has a CPU PTE.
        idx = first_page + np.flatnonzero(not_gpu_mapped)
        for s, n in contiguous_runs(idx):
            self._hmm.gpu.map_range(vma, int(idx[s]), n)
        self._hmm.gpu.stats.propagated_ptes += idx.size
        vma.gpu_touched = True

        report.storm_replay_pages = self._retry_storm_pages(vma, report)

        self.counters.gpu_major_pages += report.gpu_major_pages
        self.counters.gpu_minor_pages += report.gpu_minor_pages
        self.counters.xnack_retries += report.xnack_retries
        self.counters.storm_replay_pages += report.storm_replay_pages
        if report.gpu_major_pages:
            self.counters.gpu_major_events += 1
        if report.gpu_minor_pages:
            self.counters.gpu_minor_events += 1


class PerPageHMMMirror(HMMMirror):
    """Propagation that maps each contiguous needed run of an index array."""

    def propagate_range(self, vma, first_page, count):
        SystemPageTable._check_range(vma, first_page, count)
        sl = slice(first_page, first_page + count)
        needed = vma.sys_valid[sl] & ~vma.gpu_valid[sl]
        idx = np.flatnonzero(needed)
        for s, n in contiguous_runs(idx):
            self.gpu.map_range(vma, first_page + int(idx[s]), n)
        self.gpu.stats.propagated_ptes += idx.size
        return int(idx.size)
