"""perf-stat-style CPU event counting (paper Section 3.2).

On the CPU side the paper infers allocation granularity from the number
of page faults (and TLB misses) observed by ``perf stat`` while running
the CPU STREAM benchmark.  This module samples the simulated fault
handler's counters the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.faults import FaultCounters
from ..runtime.apu import APU


@dataclass
class PerfStatReport:
    """CPU event deltas captured across one measured region."""

    page_faults: int
    faulted_pages: int
    gpu_major_pages: int
    gpu_minor_pages: int

    def __str__(self) -> str:
        return (
            f"{self.page_faults:>12,} page-faults\n"
            f"{self.faulted_pages:>12,} faulted-pages\n"
        )


class PerfStat:
    """``perf stat`` analogue bound to one APU."""

    def __init__(self, apu: APU) -> None:
        self._apu = apu
        self._baseline: FaultCounters | None = None

    def start(self) -> None:
        """Begin a measured region."""
        self._baseline = self._apu.faults.counters.snapshot()

    def stop(self) -> PerfStatReport:
        """End the region and return event deltas."""
        if self._baseline is None:
            raise RuntimeError("PerfStat.stop() called before start()")
        delta = self._apu.faults.counters.delta(self._baseline)
        self._baseline = None
        return PerfStatReport(
            page_faults=delta.cpu_fault_events,
            faulted_pages=delta.cpu_faulted_pages,
            gpu_major_pages=delta.gpu_major_pages,
            gpu_minor_pages=delta.gpu_minor_pages,
        )
