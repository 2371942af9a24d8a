"""The MI300A memory allocators (paper Table 1).

Seven allocation paths, differing along the axes the paper studies:

===========================  ==========  ==========  ===============
Allocator                    GPU access  CPU access  Physical alloc
===========================  ==========  ==========  ===============
malloc                       XNACK only  yes         on-demand
malloc + hipHostRegister     yes         yes         up-front
hipMalloc                    yes         yes         up-front
hipHostMalloc                yes         yes         up-front
hipMallocManaged (XNACK=0)   yes         yes         up-front
hipMallocManaged (XNACK=1)   yes         yes         on-demand
``__managed__`` static       yes         yes         up-front
===========================  ==========  ==========  ===============

Each allocator decides

* *when* physical frames are obtained (up-front at the call vs on first
  touch),
* *how* they are obtained (contiguous aligned chunks vs scattered,
  free-list-biased single frames — the lever behind GPU TLB fragments,
  Fig. 9, and Infinity Cache balance, Section 5.4),
* which page tables are pre-populated (GPU table for hipMalloc and
  friends; neither for malloc), and
* what the call itself costs (the Fig. 6 allocation-speed curves,
  reproduced by the cost functions at the bottom of this module).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..hw.clock import SimClock
from ..hw.config import MI300AConfig, PAGE_SIZE
from .address_space import (
    AddressSpace,
    GPU_ACCESS_ALWAYS,
    GPU_ACCESS_NEVER,
    GPU_ACCESS_XNACK,
    VMA,
)
from .faults import FaultHandler
from .page import NO_FRAME
from .page_table import HMMMirror
from .physical import PhysicalMemory


class AllocatorKind(enum.Enum):
    """Identity of the allocation path that produced a buffer."""

    MALLOC = "malloc"
    MALLOC_REGISTERED = "malloc+hipHostRegister"
    HIP_MALLOC = "hipMalloc"
    HIP_HOST_MALLOC = "hipHostMalloc"
    HIP_MALLOC_MANAGED = "hipMallocManaged"
    MANAGED_STATIC = "__managed__"
    STATIC_HOST = "static host"
    STATIC_DEVICE = "__device__ static"


@dataclass
class Allocation:
    """A live buffer: its VMA plus allocator provenance."""

    vma: VMA
    kind: AllocatorKind
    size_bytes: int
    on_demand: bool
    pinned: bool
    xnack_at_alloc: bool
    alloc_cost_ns: float

    @property
    def address(self) -> int:
        """Base virtual address of the buffer."""
        return self.vma.start

    @property
    def npages(self) -> int:
        """Pages spanned by the buffer."""
        return self.vma.npages

    def __repr__(self) -> str:
        return (
            f"Allocation({self.kind.value}, {self.size_bytes} B @ "
            f"{self.address:#x})"
        )


class MemoryManager:
    """All allocator entry points over one process's address space.

    The manager owns the registry of live allocations — the ground truth
    the :mod:`repro.core.meminfo` interfaces selectively reveal.
    """

    def __init__(
        self,
        config: MI300AConfig,
        physical: PhysicalMemory,
        address_space: AddressSpace,
        hmm: HMMMirror,
        faults: FaultHandler,
        clock: SimClock,
    ) -> None:
        self._config = config
        self._physical = physical
        self._as = address_space
        self._hmm = hmm
        self._faults = faults
        self._clock = clock
        self.allocations: List[Allocation] = []
        self.trace = None  # EventLog when the owning APU traces

    @property
    def xnack_enabled(self) -> bool:
        """Whether the process runs with HSA_XNACK=1."""
        return self._faults.xnack_enabled

    # ------------------------------------------------------------------
    # On-demand allocators
    # ------------------------------------------------------------------

    def malloc(self, size: int, name: str = "malloc") -> Allocation:
        """Standard libc allocation: virtual only, physical on first touch.

        GPU access requires XNACK (Table 1); the first GPU touch then
        takes major faults.
        """
        cost = malloc_cost_ns(self._config, size)
        self._clock.advance(cost)
        vma = self._as.mmap(size, name=name)
        vma.gpu_access = GPU_ACCESS_XNACK
        vma.on_demand = True
        return self._register(
            Allocation(vma, AllocatorKind.MALLOC, size, True, False,
                       self.xnack_enabled, cost)
        )

    def hip_malloc_managed(
        self,
        size: int,
        name: str = "managed",
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> Allocation:
        """hipMallocManaged: on-demand with XNACK, up-front without.

        With XNACK=1 this behaves like malloc (on-demand, scattered
        first-touch frames) but is GPU-accessible by construction.  With
        XNACK=0 the runtime allocates and pins everything up-front, like
        hipHostMalloc (Table 1, Fig. 6).  *frame_range* confines up-front
        frames to a NUMA-domain window (NPS4 partition-local placement);
        the XNACK on-demand path ignores it, as first-touch placement
        follows the faulting thread, not the allocating device.
        """
        if self.xnack_enabled:
            cost = self._config.allocator_costs.managed_xnack_alloc_ns
            self._clock.advance(cost)
            vma = self._as.mmap(size, name=name)
            vma.gpu_access = GPU_ACCESS_ALWAYS
            vma.on_demand = True
            return self._register(
                Allocation(vma, AllocatorKind.HIP_MALLOC_MANAGED, size, True,
                           False, True, cost)
            )
        cost = pinned_alloc_cost_ns(self._config, size, managed=True)
        self._clock.advance(cost)
        vma = self._up_front_vma(size, name, "pairs", frame_range)
        return self._register(
            Allocation(vma, AllocatorKind.HIP_MALLOC_MANAGED, size, False,
                       True, False, cost)
        )

    # ------------------------------------------------------------------
    # Up-front allocators
    # ------------------------------------------------------------------

    def hip_malloc(
        self,
        size: int,
        name: str = "hipMalloc",
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> Allocation:
        """The standard GPU allocator: up-front, contiguous, GPU-mapped.

        Physical frames come as large aligned chunks, so the driver's
        fragment scan encodes big fragments (few GPU TLB misses, Fig. 9)
        and the channel interleave is perfectly balanced (full Infinity
        Cache utilisation, Section 5.4).  On UPM the CPU can access the
        buffer too; its PTEs appear lazily via fault-around.  Under NPS4
        the runtime passes *frame_range* to home the buffer in the
        current logical device's local NUMA domain.
        """
        cost = hip_malloc_cost_ns(self._config, size)
        self._clock.advance(cost)
        vma = self._up_front_vma(size, name, "chunks", frame_range)
        return self._register(
            Allocation(vma, AllocatorKind.HIP_MALLOC, size, False, True,
                       self.xnack_enabled, cost)
        )

    def hip_host_malloc(
        self,
        size: int,
        name: str = "hipHostMalloc",
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> Allocation:
        """Page-locked host allocation, GPU-mapped up-front.

        Pages are pinned one by one, so the physical layout is balanced
        across channels but only minimally contiguous — small fragments,
        hence the mid-tier GPU bandwidth (Fig. 3) and ~page-level TLB
        misses (Fig. 9).
        """
        cost = pinned_alloc_cost_ns(self._config, size, managed=False)
        self._clock.advance(cost)
        vma = self._up_front_vma(size, name, "pairs", frame_range)
        return self._register(
            Allocation(vma, AllocatorKind.HIP_HOST_MALLOC, size, False, True,
                       self.xnack_enabled, cost)
        )

    def host_register(self, allocation: Allocation) -> Allocation:
        """hipHostRegister over an existing malloc'd buffer.

        Faults in any untouched pages (keeping whatever scattered frames
        the buffer already has), pins them, and mirrors the range into the
        GPU page table.  The buffer becomes GPU-accessible without XNACK,
        but its physical layout stays malloc-like — which is why
        malloc+register shows hipHostMalloc-class bandwidth, not
        hipMalloc-class (Fig. 3).
        """
        if allocation.kind is not AllocatorKind.MALLOC:
            raise ValueError("hipHostRegister expects a malloc'd buffer")
        vma = allocation.vma
        cost = host_register_cost_ns(self._config, allocation.size_bytes)
        self._clock.advance(cost)
        # Resident pages are required for pinning: fault the rest in now.
        report = self._faults.touch_range(vma, 0, vma.npages, "cpu")
        self._clock.advance(report.service_time_ns)
        vma.pinned = True
        vma.gpu_access = GPU_ACCESS_ALWAYS
        vma.on_demand = False
        self._hmm.propagate_range(vma, 0, vma.npages)
        allocation.kind = AllocatorKind.MALLOC_REGISTERED
        allocation.pinned = True
        allocation.on_demand = False
        if self.trace is not None:
            self.trace.emit(
                "pin", buffer=self.trace.buffer_uid(allocation)
            )
        return allocation

    def managed_static(self, size: int, name: str = "__managed__") -> Allocation:
        """A ``__managed__`` storage-class variable.

        Unified static variables are carved from a nominally uncacheable
        aperture at program load; both CPU and GPU can access them but at
        drastically reduced bandwidth (103 GB/s, Fig. 3).
        """
        vma = self._up_front_vma(size, name, "pairs")
        vma.uncached = True
        return self._register(
            Allocation(vma, AllocatorKind.MANAGED_STATIC, size, False, True,
                       self.xnack_enabled, 0.0)
        )

    def static_host(self, size: int, name: str = "static host") -> Allocation:
        """A static host array: CPU-only, invisible to the GPU linker."""
        vma = self._as.mmap(size, name=name)
        vma.gpu_access = GPU_ACCESS_NEVER
        vma.on_demand = True
        return self._register(
            Allocation(vma, AllocatorKind.STATIC_HOST, size, True, False,
                       self.xnack_enabled, 0.0)
        )

    def static_device(self, size: int, name: str = "__device__") -> Allocation:
        """A ``__device__`` static array: GPU-only from the CPU's view."""
        cost = hip_malloc_cost_ns(self._config, size)
        self._clock.advance(cost)
        vma = self._up_front_vma(size, name, "chunks")
        return self._register(
            Allocation(vma, AllocatorKind.STATIC_DEVICE, size, False, True,
                       self.xnack_enabled, cost)
        )

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free(self, allocation: Allocation) -> float:
        """Release *allocation*; returns the simulated call cost in ns."""
        if self.trace is not None:
            # Emitted before the liveness check so the sanitizer's log
            # captures double frees the strict runtime rejects.
            self.trace.emit(
                "free", buffer=self.trace.buffer_uid(allocation)
            )
        if allocation not in self.allocations:
            raise ValueError(f"double free or foreign allocation: {allocation}")
        cost = free_cost_ns(self._config, allocation)
        self._clock.advance(cost)
        vma = allocation.vma
        self._hmm.invalidate_range(vma, 0, vma.npages)
        self._hmm.system.unmap_range(vma, 0, vma.npages)
        frames = vma.resident_frames()
        if frames.size:
            self._physical.free(frames)
        vma.frames[:] = NO_FRAME
        self._as.munmap(vma)
        self.allocations.remove(allocation)
        return cost

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _up_front_vma(
        self,
        size: int,
        name: str,
        layout: str,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> VMA:
        """Create a pinned VMA with physical frames allocated immediately.

        *layout* ``"chunks"`` takes large aligned chunks (hipMalloc);
        ``"pairs"`` takes balanced but minimally contiguous pages (pinned
        host memory: the normal buddy path in allocation order, landing
        pairs); ``"scattered"`` takes single frames from the biased free
        list (the degraded fallback).  The GPU page table is populated
        right away; CPU PTEs appear lazily via fault-around (Fig. 10's
        low fault counts).  *frame_range* confines the frames to one NUMA
        domain's window.
        """
        # Frames first: mmap touches neither the pool nor its RNG, and an
        # allocation that fails leaves no address range behind.
        npages = _pages(size)
        if layout == "scattered":
            frames = self._physical.alloc_scattered(
                npages, pair_fraction=0.0, frame_range=frame_range
            )
        else:
            chunk_bytes = self._config.policy.up_front_contiguity_bytes
            chunk_pages = chunk_bytes // PAGE_SIZE if layout == "chunks" else 2
            frames = self._physical.alloc_chunks(
                npages, max(1, chunk_pages), frame_range=frame_range
            )
        vma = self._as.mmap(size, name=name, pinned=True, frames=frames)
        vma.gpu_access = GPU_ACCESS_ALWAYS
        vma.on_demand = False
        self._hmm.gpu.map_range(vma, 0, vma.npages)
        return vma

    def up_front_degraded(
        self,
        size: int,
        name: str,
        kind: AllocatorKind,
        frame_range: Optional[Tuple[int, int]] = None,
    ) -> Allocation:
        """Degraded-mode up-front allocation from scattered single frames.

        The recovery fallback for the pinned allocators under memory
        pressure: when the paired/chunked path cannot find aligned runs,
        the runtime retries with pageable-style scattered frames — still
        pinned and GPU-mapped up-front, but with malloc-class contiguity
        (small fragments, biased channels), so the downgrade has the
        observable performance signature the paper associates with
        on-demand layouts.
        """
        managed = kind is AllocatorKind.HIP_MALLOC_MANAGED
        cost = pinned_alloc_cost_ns(self._config, size, managed=managed)
        self._clock.advance(cost)
        vma = self._up_front_vma(size, name, "scattered", frame_range)
        return self._register(
            Allocation(vma, kind, size, False, True, self.xnack_enabled, cost)
        )

    def _register(self, allocation: Allocation) -> Allocation:
        self.allocations.append(allocation)
        if self.trace is not None:
            self.trace.emit(
                "alloc",
                buffer=self.trace.register_buffer(allocation, fresh=True),
                name=allocation.vma.name,
                allocator=allocation.kind.value,
                size=allocation.size_bytes,
                pinned=allocation.pinned,
                on_demand=allocation.on_demand,
            )
        return allocation

    def live_bytes(self, kind: Optional[AllocatorKind] = None) -> int:
        """Total requested bytes of live allocations (optionally by kind)."""
        return sum(
            a.size_bytes
            for a in self.allocations
            if kind is None or a.kind is kind
        )


# ----------------------------------------------------------------------
# Cost functions (Fig. 6 curves) — pure, so benchmarks can sweep them
# ----------------------------------------------------------------------


def _pages(size: int) -> int:
    return -(-size // PAGE_SIZE)


def malloc_cost_ns(config: MI300AConfig, size: int) -> float:
    """Cost of one malloc call: metadata-only until the mmap threshold."""
    costs = config.allocator_costs
    if size < costs.malloc_mmap_threshold_bytes:
        return costs.malloc_base_ns
    return costs.malloc_mmap_base_ns + costs.malloc_mmap_per_mib_ns * (
        size / (1024 * 1024)
    )


def malloc_free_cost_ns(config: MI300AConfig, size: int) -> float:
    """Cost of free: cheap until 16 MiB, then the unmap walk dominates."""
    costs = config.allocator_costs
    if size < costs.free_unmap_threshold_bytes:
        return costs.free_base_ns
    return costs.free_unmap_base_ns + costs.free_unmap_per_mib_ns * (
        size / (1024 * 1024)
    )


def hip_malloc_cost_ns(config: MI300AConfig, size: int) -> float:
    """hipMalloc: 10 us floor, then per-page cost past 16 KiB."""
    costs = config.allocator_costs
    floor_pages = costs.hip_malloc_min_granularity_bytes // PAGE_SIZE
    billable = max(0, _pages(size) - floor_pages)
    return costs.hip_malloc_base_ns + billable * costs.hip_malloc_per_page_ns


def hip_free_cost_ns(config: MI300AConfig, size: int) -> float:
    """hipFree: cheaper than hipMalloc until 2 MiB, then far slower."""
    costs = config.allocator_costs
    if size <= costs.hip_free_threshold_bytes:
        return costs.hip_free_base_ns
    return costs.hip_free_base_ns + _pages(size) * costs.hip_free_per_page_ns


def pinned_alloc_cost_ns(config: MI300AConfig, size: int, managed: bool) -> float:
    """hipHostMalloc / hipMallocManaged(XNACK=0): per-page pinning cost."""
    costs = config.allocator_costs
    base = costs.pinned_managed_base_ns if managed else costs.pinned_base_ns
    per_page = (
        costs.pinned_managed_per_page_ns if managed else costs.pinned_per_page_ns
    )
    floor_pages = costs.pinned_min_granularity_bytes // PAGE_SIZE
    billable = max(0, _pages(size) - floor_pages)
    return base + billable * per_page


def pinned_free_cost_ns(config: MI300AConfig, size: int) -> float:
    """Freeing pinned memory: unpin walk over every page."""
    costs = config.allocator_costs
    return costs.pinned_free_base_ns + _pages(size) * costs.pinned_free_per_page_ns


def host_register_cost_ns(config: MI300AConfig, size: int) -> float:
    """hipHostRegister: pin + GPU-map an existing range."""
    costs = config.allocator_costs
    return costs.host_register_base_ns + _pages(size) * costs.host_register_per_page_ns


def free_cost_ns(config: MI300AConfig, allocation: Allocation) -> float:
    """Dispatch the deallocation cost model by allocator kind."""
    config_size = allocation.size_bytes
    kind = allocation.kind
    if kind in (AllocatorKind.MALLOC, AllocatorKind.STATIC_HOST):
        return malloc_free_cost_ns(config, config_size)
    if kind in (AllocatorKind.HIP_MALLOC, AllocatorKind.STATIC_DEVICE):
        return hip_free_cost_ns(config, config_size)
    if kind is AllocatorKind.HIP_MALLOC_MANAGED and allocation.on_demand:
        return config.allocator_costs.managed_xnack_free_ns
    if kind in (
        AllocatorKind.HIP_HOST_MALLOC,
        AllocatorKind.HIP_MALLOC_MANAGED,
        AllocatorKind.MALLOC_REGISTERED,
        AllocatorKind.MANAGED_STATIC,
    ):
        return pinned_free_cost_ns(config, config_size)
    raise ValueError(f"no free-cost model for {kind}")


def allocator_table(xnack: bool) -> List[dict]:
    """Reproduce the paper's Table 1 capability matrix for an XNACK mode."""
    rows = [
        {
            "allocator": "malloc",
            "gpu_access": xnack,
            "cpu_access": True,
            "physical_allocation": "on-demand",
        },
        {
            "allocator": "malloc + hipHostRegister",
            "gpu_access": True,
            "cpu_access": True,
            "physical_allocation": "up-front",
        },
        {
            "allocator": "hipMalloc",
            "gpu_access": True,
            "cpu_access": True,
            "physical_allocation": "up-front",
        },
        {
            "allocator": "hipHostMalloc",
            "gpu_access": True,
            "cpu_access": True,
            "physical_allocation": "up-front",
        },
        {
            "allocator": "hipMallocManaged",
            "gpu_access": True,
            "cpu_access": True,
            "physical_allocation": "on-demand" if xnack else "up-front",
        },
    ]
    return rows
