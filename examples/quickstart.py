#!/usr/bin/env python3
"""Quickstart: a first tour of the simulated MI300A.

Builds an APU, allocates memory through the allocators of the paper's
Table 1, runs a GPU kernel on each, and prints what the paper's
instruments would show: achieved bandwidth, GPU TLB misses, CPU page
faults, and what the (mutually disagreeing) memory-usage interfaces
report.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BufferAccess, KernelSpec, make_runtime
from repro.core.meminfo import snapshot
from repro.profiling import PerfStat, RocProf


def main() -> None:
    # One APU, 8 GiB pool for speed, XNACK on so malloc is GPU-accessible.
    hip = make_runtime(memory_gib=8, xnack=True)
    apu = hip.apu
    print(f"Simulated system: {apu.config.describe()}")
    print(f"XNACK enabled: {apu.xnack}\n")

    size = 256 << 20  # one 256 MiB buffer per allocator
    allocators = ["hipMalloc", "hipHostMalloc", "malloc", "managed_static"]

    print(f"{'allocator':16s} {'bandwidth':>12s} {'TLB misses':>12s} "
          f"{'CPU faults':>12s} {'kernel ms':>10s}")
    for allocator in allocators:
        arr = hip.array(size // 4, np.float32, allocator)
        # CPU initialises the data (first touch happens here for malloc).
        hip.runCpuKernel(
            KernelSpec("init", [BufferAccess(arr.allocation, "write")]),
            threads=8,
        )

        rocprof, perf = RocProf(apu), PerfStat(apu)
        rocprof.start()
        perf.start()
        result = hip.launchKernel(
            KernelSpec("sweep", [BufferAccess(arr.allocation, "read", passes=10)])
        )
        hip.hipDeviceSynchronize()
        counters = rocprof.stop()
        faults = perf.stop()

        bandwidth = size * 10 / (result.memory_ns / 1e9)
        print(
            f"{allocator:16s} {bandwidth / 1e12:9.2f} TB/s "
            f"{counters.tlb_misses:>12,} {faults.page_faults:>12,} "
            f"{result.duration_ns / 1e6:>10.3f}"
        )

    print("\nWhat the memory-usage interfaces report now:")
    snap = snapshot(apu.memory, apu.physical)
    print(f"  /proc/meminfo used : {snap.meminfo_used >> 20:>6} MiB  (sees everything)")
    print(f"  rocm-smi used      : {snap.rocm_smi_used >> 20:>6} MiB  (hipMalloc only)")
    print(f"  VmRSS              : {snap.vm_rss >> 20:>6} MiB  (everything *except* hipMalloc)")
    print("\nSimulated wall time:", f"{apu.clock.now_s * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
