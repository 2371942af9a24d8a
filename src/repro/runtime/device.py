"""GPU device model: compute organisation and profiler counters.

The MI300A presents its six XCDs as a single GPU device (paper Section
2.2).  This class tracks the device-level execution state the benchmarks
observe: kernel launches, the GPU L1 TLB miss counter that rocprofv3
exposes as ``TCP_UTCL1_TRANSLATION_MISS_sum`` (the paper's proxy for
fragment sizes, Section 3.2), and traffic totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import MI300AConfig


@dataclass
class GPUCounters:
    """Hardware-event counters a profiler can sample."""

    kernels_launched: int = 0
    tlb_misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def snapshot(self) -> "GPUCounters":
        """A copy of the current counter values."""
        return GPUCounters(**self.__dict__)

    def delta(self, earlier: "GPUCounters") -> "GPUCounters":
        """Counters accumulated since *earlier*."""
        return GPUCounters(
            **{k: getattr(self, k) - getattr(earlier, k) for k in self.__dict__}
        )


class GPUDevice:
    """The single logical GPU of one APU."""

    def __init__(self, config: MI300AConfig) -> None:
        self._config = config
        self.counters = GPUCounters()

    @property
    def compute_units(self) -> int:
        """Number of CUs across all XCDs (228 on MI300A)."""
        return self._config.gpu_compute_units

    def __repr__(self) -> str:
        return f"GPUDevice({self.compute_units} CUs)"


class CPUComplex:
    """The CPU side of the APU: 24 Zen 4 cores over three CCDs."""

    def __init__(self, config: MI300AConfig) -> None:
        self._config = config

    @property
    def cores(self) -> int:
        """Number of CPU cores (24 on MI300A)."""
        return self._config.cpu_cores

    def validate_threads(self, threads: int) -> int:
        """Clamp-and-check a benchmark's thread count."""
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        return min(threads, self.cores)

    def __repr__(self) -> str:
        return f"CPUComplex({self.cores} cores)"
