"""rocprofv3-style GPU profiling (paper Section 3.2).

The fragment size in the GPU page table cannot be read from userspace;
the paper uses the GPU L1 TLB miss counter
(``TCP_UTCL1_TRANSLATION_MISS_sum``) as a proxy.  This module exposes the
same counter-sampling workflow over the simulated GPU device: snapshot
counters, run a region, and read the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..runtime.apu import APU
from ..runtime.device import GPUCounters

#: The counter names rocprofv3 reports, mapped to the simulator's fields.
COUNTER_MAP = {
    "TCP_UTCL1_TRANSLATION_MISS_sum": "tlb_misses",
    "GRBM_GUI_ACTIVE_kernels": "kernels_launched",
    "TCC_EA_RDREQ_bytes": "bytes_read",
    "TCC_EA_WRREQ_bytes": "bytes_written",
}


@dataclass
class ProfileRegion:
    """Counter deltas captured across one profiled region."""

    counters: Dict[str, int]

    def __getitem__(self, name: str) -> int:
        return self.counters[name]

    @property
    def tlb_misses(self) -> int:
        """Shorthand for the paper's fragment-size proxy counter."""
        return self.counters["TCP_UTCL1_TRANSLATION_MISS_sum"]


class RocProf:
    """Counter sampler bound to one APU's GPU."""

    def __init__(self, apu: APU) -> None:
        self._apu = apu
        self._baseline: GPUCounters | None = None

    def start(self) -> None:
        """Begin a profiled region (snapshot all counters)."""
        self._baseline = self._apu.gpu.counters.snapshot()

    def stop(self) -> ProfileRegion:
        """End the region and return counter deltas."""
        if self._baseline is None:
            raise RuntimeError("RocProf.stop() called before start()")
        delta = self._apu.gpu.counters.delta(self._baseline)
        self._baseline = None
        return ProfileRegion(
            {name: getattr(delta, attr) for name, attr in COUNTER_MAP.items()}
        )
