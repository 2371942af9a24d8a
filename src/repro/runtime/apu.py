"""The top-level simulated APU: all subsystems wired together.

One :class:`APU` instance corresponds to the paper's experimental unit —
a single MI300A bound with ``numactl`` and ``HIP_VISIBLE_DEVICES``
(Section 3).  It owns the clock, the physical pool, the process address
space, both page tables with their HMM mirror, the fault handler, the
memory manager, the GPU/CPU device models, and the Infinity Cache model,
plus the helpers that derive per-buffer performance traits from that
state.
"""

from __future__ import annotations

from typing import Optional


from ..core.address_space import AddressSpace
from ..core.allocators import Allocation, MemoryManager
from ..core.faults import FaultHandler, FaultReport
from ..core.fragments import average_fragment_bytes
from ..core.page_table import GPUPageTable, HMMMirror, SystemPageTable
from ..hw.clock import SimClock
from ..hw.config import MI300AConfig, default_config
from ..hw.hbm import HBMSubsystem, channel_balance
from ..hw.infinity_cache import InfinityCache
from ..partition import PartitionConfig, PartitionPlacement
from ..perf.bandwidth import BufferTraits
from .device import CPUComplex, GPUDevice
from .stream import StreamRegistry


class APU:
    """A fully wired simulated MI300A APU and one process on it.

    Args:
        config: hardware/policy configuration; defaults to the
            paper-calibrated MI300A.
        xnack: whether the process runs with ``HSA_XNACK=1`` (enables
            GPU page-fault replay; flips the on-demand allocators of
            Table 1).
        seed: seed for the deterministic allocation randomness.
        partition: compute/memory partition mode pair; defaults to
            SPX/NPS1 (the paper's testbed), which leaves every model
            identical to the unpartitioned APU.
        trace: record a structured :class:`~repro.analyze.events.EventLog`
            of every allocation, copy, kernel, fault and synchronisation
            for the hipsan pass (:mod:`repro.analyze.sanitizer`).
        inject: an :class:`~repro.inject.InjectionPlan` to attach to the
            APU's fault-injection sites (physical allocator, fault
            handler, HBM ECC, SDMA transfers).
    """

    def __init__(
        self,
        config: Optional[MI300AConfig] = None,
        xnack: bool = False,
        seed: int = 0x1300A,
        partition: Optional[PartitionConfig] = None,
        trace: bool = False,
        inject=None,
    ) -> None:
        from ..core.physical import PhysicalMemory  # local to keep import light

        self.config = config if config is not None else default_config()
        self.partition = partition if partition is not None else PartitionConfig()
        self.clock = SimClock()
        if trace:
            from ..analyze.events import EventLog  # local: analyze is optional

            self.trace: Optional["EventLog"] = EventLog(self.clock)
        else:
            self.trace = None
        self.physical = PhysicalMemory(self.config, seed=seed)
        self.address_space = AddressSpace()
        self.system_pt = SystemPageTable()
        self.gpu_pt = GPUPageTable()
        self.hmm = HMMMirror(self.system_pt, self.gpu_pt)
        self.faults = FaultHandler(
            self.config, self.physical, self.hmm, xnack_enabled=xnack
        )
        self.faults.trace = self.trace
        self.memory = MemoryManager(
            self.config,
            self.physical,
            self.address_space,
            self.hmm,
            self.faults,
            self.clock,
        )
        self.memory.trace = self.trace
        self.hbm_map = HBMSubsystem(
            self.config.hbm, numa_domains=self.partition.numa_domains
        )
        self.infinity_cache = InfinityCache(self.config.infinity_cache, self.hbm_map)
        self.placement = PartitionPlacement(
            self.config, self.partition, self.hbm_map
        )
        self.logical_devices = self.placement.devices
        self.gpu = GPUDevice(self.config)
        self.cpu = CPUComplex(self.config)
        self.streams = StreamRegistry(self.clock, trace=self.trace)
        self.inject = inject
        if inject is not None:
            inject.attach(self)

    @property
    def xnack(self) -> bool:
        """Whether XNACK (GPU fault replay) is enabled for this process."""
        return self.faults.xnack_enabled

    # ------------------------------------------------------------------
    # State-derived performance traits
    # ------------------------------------------------------------------

    def buffer_traits(self, allocation: Allocation) -> BufferTraits:
        """Derive the bandwidth-model traits of a buffer from live state.

        The fragment average and the channel balance are computed on
        first read, so a model that reads neither pays for neither (no
        GPU-mapped page averages 0.0, no resident frame balances 1.0).
        """
        vma = allocation.vma
        return BufferTraits(
            on_demand=allocation.on_demand,
            uncached=vma.uncached,
            average_fragment_bytes=lambda: average_fragment_bytes(
                vma.fragment[vma.gpu_valid]
            ),
            channel_balance=lambda: channel_balance(
                self.hbm_map.channel_histogram(vma.resident_frames())
            ),
        )

    # ------------------------------------------------------------------
    # Touch (fault) helpers
    # ------------------------------------------------------------------

    def touch(
        self,
        allocation: Allocation,
        device: str,
        offset_bytes: int = 0,
        size_bytes: Optional[int] = None,
        concurrency: int = 1,
        advance_clock: bool = True,
    ) -> FaultReport:
        """Touch a byte range of a buffer from one device.

        Resolves any page faults (or raises
        :class:`~repro.core.faults.GPUMemoryAccessError` for illegal GPU
        access), optionally advancing the simulated clock by the fault
        service time.
        """
        vma = allocation.vma
        if size_bytes is None:
            size_bytes = allocation.size_bytes - offset_bytes
        first, count = vma.page_range(vma.start + offset_bytes, size_bytes)
        report = self.faults.touch_range(
            vma, first, count, device, concurrency=concurrency
        )
        if advance_clock:
            self.clock.advance(report.service_time_ns)
        return report

    def __repr__(self) -> str:
        return (
            f"APU({self.config.name}, xnack={self.xnack}, "
            f"partition={self.partition.describe()}, "
            f"t={self.clock.now_ns / 1e6:.3f} ms)"
        )


def make_apu(
    memory_gib: Optional[int] = None,
    xnack: bool = False,
    seed: int = 0x1300A,
    partition: Optional[PartitionConfig] = None,
    trace: bool = False,
    inject=None,
) -> APU:
    """Convenience constructor.

    *memory_gib* of None builds the full 128 GiB APU; small values build
    a down-scaled pool for fast tests (policies unchanged).
    """
    if memory_gib is None:
        return APU(
            xnack=xnack, seed=seed, partition=partition, trace=trace,
            inject=inject,
        )
    from ..hw.config import small_config

    return APU(
        config=small_config(memory_gib << 30),
        xnack=xnack,
        seed=seed,
        partition=partition,
        trace=trace,
        inject=inject,
    )
