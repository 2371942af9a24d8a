"""repro — a simulated-MI300A reproduction of
"Dissecting CPU-GPU Unified Physical Memory on AMD MI300A APUs"
(Wahlgren et al., IISWC 2025).

The package models the MI300A's unified physical memory system — the
chiplet/HBM/Infinity Cache hardware, the two page tables with their HMM
mirror, fragment-aware TLBs, the XNACK page-fault machinery, and the
seven memory allocators of the paper's Table 1 — plus a HIP-like runtime,
the paper's microbenchmarks, and its six Rodinia workloads in both the
explicit and unified memory models.

Quick start::

    from repro import make_runtime, KernelSpec, BufferAccess

    hip = make_runtime(memory_gib=8, xnack=True)
    buf = hip.hipMalloc(256 << 20)
    hip.launchKernel(KernelSpec("sweep", [BufferAccess(buf, "read")]))
    hip.hipDeviceSynchronize()

Subpackages:

* :mod:`repro.hw` — hardware substrate (config, clock, HBM, caches).
* :mod:`repro.core` — OS/driver memory management (the paper's subject).
* :mod:`repro.partition` — SPX/TPX/CPX and NPS1/NPS4 partition modes.
* :mod:`repro.runtime` — the HIP-like runtime and kernel engine.
* :mod:`repro.perf` — calibrated performance models.
* :mod:`repro.bench` — the paper's benchmarks; each figure's function
  is the runner :mod:`repro.exp` registers for it.
* :mod:`repro.profiling` — rocprof / perf-stat / libnuma analogues.
* :mod:`repro.porting` — Section 3.3's porting strategies.
* :mod:`repro.apps` — the six Rodinia workloads.
"""

from .hw import MI300AConfig, default_config, small_config
from .partition import ComputePartition, MemoryPartition, PartitionConfig
from .runtime import (
    APU,
    BufferAccess,
    DeviceArray,
    HipRuntime,
    KernelSpec,
    make_apu,
    make_runtime,
)

__version__ = "1.0.0"

__all__ = [
    "APU",
    "BufferAccess",
    "ComputePartition",
    "DeviceArray",
    "HipRuntime",
    "KernelSpec",
    "MI300AConfig",
    "MemoryPartition",
    "PartitionConfig",
    "__version__",
    "default_config",
    "make_apu",
    "make_runtime",
    "small_config",
]
