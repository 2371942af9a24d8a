"""Core OS/driver memory management for the simulated MI300A.

This package is the subject of the paper's system-software study: the
physical frame allocator, the two page tables and their HMM mirror, the
fragment-aware GPU TLB's miss count, the page-fault handler with XNACK
semantics, the seven memory allocators of Table 1, and the (mutually
inconsistent) memory-usage reporting interfaces.
"""

from .address_space import (
    AddressSpace,
    GPU_ACCESS_ALWAYS,
    GPU_ACCESS_NEVER,
    GPU_ACCESS_XNACK,
    VMA,
)
from .allocators import (
    Allocation,
    AllocatorKind,
    MemoryManager,
    allocator_table,
    free_cost_ns,
    hip_free_cost_ns,
    hip_malloc_cost_ns,
    host_register_cost_ns,
    malloc_cost_ns,
    malloc_free_cost_ns,
    pinned_alloc_cost_ns,
    pinned_free_cost_ns,
)
from .faults import (
    FaultCounters,
    FaultHandler,
    FaultReport,
    GPUMemoryAccessError,
)
from .fragments import (
    average_fragment_bytes,
    compute_fragments,
    contiguous_runs,
    distinct_fragments,
    fragment_histogram,
)
from .meminfo import (
    UsageSnapshot,
    hip_mem_get_info,
    libnuma_free,
    proc_meminfo,
    rocm_smi_used_bytes,
    snapshot,
    vm_rss,
)
from .page import NO_FRAME
from .page_table import GPUPageTable, HMMMirror, PageTableStats, SystemPageTable
from .physical import OutOfMemoryError, PhysicalMemory
from .tlb import streaming_tlb_misses

__all__ = [
    "AddressSpace",
    "Allocation",
    "AllocatorKind",
    "FaultCounters",
    "FaultHandler",
    "FaultReport",
    "GPUMemoryAccessError",
    "GPUPageTable",
    "GPU_ACCESS_ALWAYS",
    "GPU_ACCESS_NEVER",
    "GPU_ACCESS_XNACK",
    "HMMMirror",
    "MemoryManager",
    "NO_FRAME",
    "OutOfMemoryError",
    "PageTableStats",
    "PhysicalMemory",
    "SystemPageTable",
    "UsageSnapshot",
    "VMA",
    "allocator_table",
    "average_fragment_bytes",
    "compute_fragments",
    "contiguous_runs",
    "distinct_fragments",
    "fragment_histogram",
    "free_cost_ns",
    "hip_free_cost_ns",
    "hip_malloc_cost_ns",
    "hip_mem_get_info",
    "host_register_cost_ns",
    "libnuma_free",
    "malloc_cost_ns",
    "malloc_free_cost_ns",
    "pinned_alloc_cost_ns",
    "pinned_free_cost_ns",
    "proc_meminfo",
    "rocm_smi_used_bytes",
    "snapshot",
    "streaming_tlb_misses",
    "vm_rss",
]
