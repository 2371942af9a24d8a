"""Memory-usage reporting interfaces and their blind spots.

No single interface gives a complete picture of memory allocations on
MI300A (paper Section 3.2):

* ``/proc/meminfo`` and libnuma report *physical* usage at the APU level —
  up-front allocations immediately, on-demand ones only after first touch.
* ``hipMemGetInfo`` and ``rocm-smi`` report free memory "on the device"
  but only capture hipMalloc allocations.
* ``VmRSS`` (``/proc/pid/status``) reports process-resident memory but
  does *not* capture hipMalloc allocations.

The paper profiles peak usage by sampling libnuma; applications that size
buffers from ``hipMemGetInfo`` must be ported to a reliable counter
(Section 3.3, "Memory Usage Consideration").  This module reproduces each
interface over the simulated system; the libnuma-based peak sampler is
:class:`repro.profiling.memusage.MemoryUsageProfiler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from .allocators import AllocatorKind, MemoryManager
from .physical import PhysicalMemory

if TYPE_CHECKING:
    from ..hw.hbm import HBMSubsystem
    from ..partition.logical_device import LogicalDevice

#: Allocator kinds whose usage hipMemGetInfo / rocm-smi can see.
_HIP_DEVICE_KINDS = (AllocatorKind.HIP_MALLOC, AllocatorKind.STATIC_DEVICE)


def proc_meminfo(physical: PhysicalMemory) -> Dict[str, int]:
    """System-level ``/proc/meminfo`` view (bytes, not kB, for clarity).

    Reflects true physical allocation: up-front allocators appear
    immediately, on-demand allocators only after first touch.
    """
    total = physical.total_frames * 4096
    free = physical.free_bytes
    return {
        "MemTotal": total,
        "MemFree": free,
        "MemAvailable": free,
        "MemUsed": total - free,
    }


def libnuma_free(physical: PhysicalMemory) -> Tuple[int, int]:
    """libnuma's (free, total) for the APU's single NUMA node.

    Same visibility as meminfo; this is the interface the paper samples
    for peak memory usage because it sees *all* allocation types.
    """
    return physical.free_bytes, physical.total_frames * 4096


def hip_mem_get_info(manager: MemoryManager, physical: PhysicalMemory) -> Tuple[int, int]:
    """``hipMemGetInfo``'s (free, total) — hipMalloc-only visibility.

    The HIP interface reports free memory "on the device" but only
    captures allocations made through hipMalloc, so buffers from malloc,
    hipHostMalloc, or hipMallocManaged are invisible to it.  Sizing
    datasets from this counter is therefore unreliable on UPM.
    """
    total = physical.total_frames * 4096
    hip_used = sum(
        a.vma.resident_bytes()
        for a in manager.allocations
        if a.kind in _HIP_DEVICE_KINDS
    )
    return total - hip_used, total


def hip_mem_get_info_device(
    manager: MemoryManager,
    physical: PhysicalMemory,
    hbm: "HBMSubsystem",
    device: "LogicalDevice",
) -> Tuple[int, int]:
    """``hipMemGetInfo`` as one *logical device* reports it.

    Partitioned modes make the interface's blind spots NUMA-shaped:
    total is the capacity of the device's visible stacks (the whole pool
    in NPS1, one quadrant in NPS4), and the used figure counts only
    hipMalloc-style frames homed in that visible range — a buffer placed
    in another quadrant is invisible here even though the XCDs could
    reach it over the fabric.
    """
    total = device.memory_capacity_bytes
    if hbm.numa_domains == 1:
        return hip_mem_get_info(manager, physical)
    lo, hi = hbm.domain_frame_range(device.numa_domain)
    used = 0
    for a in manager.allocations:
        if a.kind not in _HIP_DEVICE_KINDS:
            continue
        frames = a.vma.resident_frames()
        if frames.size:
            used += int(((frames >= lo) & (frames < hi)).sum()) * 4096
    return total - used, total


def rocm_smi_used_bytes(manager: MemoryManager) -> int:
    """``rocm-smi``'s used-VRAM figure — also hipMalloc-only."""
    return sum(
        a.vma.resident_bytes()
        for a in manager.allocations
        if a.kind in _HIP_DEVICE_KINDS
    )


def vm_rss(manager: MemoryManager) -> int:
    """Process ``VmRSS`` — resident set excluding hipMalloc allocations.

    hipMalloc memory is owned by the driver, not mapped as ordinary
    process pages, so ``top``-style accounting misses it (Section 3.2).
    """
    return sum(
        a.vma.resident_bytes()
        for a in manager.allocations
        if a.kind not in _HIP_DEVICE_KINDS
    )


@dataclass
class UsageSnapshot:
    """One sample of every interface, for side-by-side comparison."""

    meminfo_used: int
    libnuma_used: int
    hip_free: int
    rocm_smi_used: int
    vm_rss: int


def snapshot(manager: MemoryManager, physical: PhysicalMemory) -> UsageSnapshot:
    """Sample all five interfaces at once."""
    free, total = libnuma_free(physical)
    hip_free, _ = hip_mem_get_info(manager, physical)
    return UsageSnapshot(
        meminfo_used=proc_meminfo(physical)["MemUsed"],
        libnuma_used=total - free,
        hip_free=hip_free,
        rocm_smi_used=rocm_smi_used_bytes(manager),
        vm_rss=vm_rss(manager),
    )
