#!/usr/bin/env python3
"""slow_port: a deliberately *slow* unified-memory port, one sin per rule.

The sibling of ``racey_port.py``: every scenario below is **correct**
— it computes the right answer and hipsan finds no race — but each one
carries exactly one of the UPM performance anti-patterns the paper
measures on MI300A.  The static advisor (``repro advise``) flags all
six without running anything:

====================== =========================================
scenario               advisor rule
====================== =========================================
redundant_copy         redundant-copy   (§4.3 / Fig. 3)
first_touch_hazard     first-touch      (Fig. 10)
fault_storm            fault-storm      (Figs. 7-8)
tlb_thrash             tlb-reach        (Fig. 9)
mixed_models           mixed-alloc      (§3.4 / Table 1)
sync_in_loop           sync-in-loop     (§3.3)
====================== =========================================

This file is the advisor's regression fixture, and runnable:

Run:  python examples/slow_port.py
"""

import numpy as np

from repro import BufferAccess, KernelSpec, make_runtime


def _spec(name, alloc, mode):
    return KernelSpec(name, [BufferAccess(alloc, mode)])


def redundant_copy():
    """Explicit staging copies between buffers that share one HBM3 pool."""
    hip = make_runtime(memory_gib=4)
    host = hip.array(1 << 18, np.float32, "malloc", name="h_data")
    host.np[:] = 1.0
    device = hip.array(1 << 18, np.float32, "hipMalloc", name="d_data")
    # SLOW: CPU and GPU address the same physical memory; both copies
    # below are pure SDMA overhead on MI300A.
    hip.hipMemcpy(device, host)
    hip.launchKernel(_spec("scale", device.allocation, "readwrite"))
    hip.hipDeviceSynchronize()
    hip.hipMemcpy(host, device)
    checksum = float(host.np.sum())
    hip.hipFree(host.allocation)
    hip.hipFree(device.allocation)
    return checksum


def first_touch_hazard():
    """CPU first-touches pages a GPU kernel then streams through."""
    hip = make_runtime(memory_gib=4, xnack=True)
    data = hip.array(1 << 18, np.float32, "malloc", name="grid")
    # SLOW: the CPU's first touch places every page via the CPU fault
    # path (Fig. 10); the kernel then faults them over one by one.
    data.np[:] = 0.5
    hip.launchKernel(_spec("stencil", data.allocation, "read"))
    hip.hipDeviceSynchronize()
    checksum = float(data.np[0])
    hip.hipFree(data.allocation)
    return checksum


def fault_storm():
    """First GPU touch of a large cold managed range under XNACK."""
    hip = make_runtime(memory_gib=4, xnack=True)
    data = hip.array(16 << 20, np.uint8, "hipMallocManaged", name="managed")
    # SLOW: no warm-up or prefetch on any path — the first GPU touch
    # replays a fault per page (Fig. 7's ~420k faults/s ceiling).
    hip.launchKernel(_spec("first_touch", data.allocation, "read"))
    hip.hipDeviceSynchronize()
    hip.hipFree(data.allocation)
    return 0.0


def tlb_thrash():
    """One allocation larger than the GPU L2 TLB's reach."""
    hip = make_runtime(memory_gib=4)
    # SLOW: 64 MiB > 512 entries x 64 KiB fragments = 32 MiB of reach
    # (Fig. 9); streaming it misses the L2 TLB continuously.
    big = hip.hipMalloc(64 << 20, name="huge")
    hip.launchKernel(_spec("stream_all", big, "read"))
    hip.hipDeviceSynchronize()
    hip.hipFree(big)
    return 0.0


def mixed_models(frames: int = 4):
    """Explicit and managed allocations reach one kernel argument."""
    hip = make_runtime(memory_gib=4, xnack=True)
    if frames % 2 == 0:
        allocator = "hipMalloc"
    else:
        allocator = "hipMallocManaged"
    # SLOW: the two models have different allocator and paging costs
    # (§3.4 / Table 1); pick one per buffer, on every path.
    data = hip.array(1 << 18, np.float32, allocator, name="ping")
    hip.launchKernel(_spec("consume", data.allocation, "read"))
    hip.hipDeviceSynchronize()
    hip.hipFree(data.allocation)
    return 0.0


def sync_in_loop(iterations: int = 4):
    """Device-wide barrier every iteration of a streamed pipeline."""
    hip = make_runtime(memory_gib=4)
    data = hip.array(1 << 20, np.float32, "hipMalloc", name="frames")
    stream = hip.hipStreamCreate("compute")
    for _ in range(iterations):
        hip.launchKernel(_spec("step", data.allocation, "readwrite"), stream)
        # SLOW: a device-wide barrier stalls every queue each iteration;
        # hipStreamSynchronize(stream) (or an event) is all that's needed.
        hip.hipDeviceSynchronize()
    hip.hipFree(data.allocation)
    return 0.0


SCENARIOS = (
    redundant_copy,
    first_touch_hazard,
    fault_storm,
    tlb_thrash,
    mixed_models,
    sync_in_loop,
)


def main() -> None:
    for scenario in SCENARIOS:
        print(f"--- {scenario.__name__} ---")
        print(f"result: {scenario()}")
        print()


if __name__ == "__main__":
    main()
