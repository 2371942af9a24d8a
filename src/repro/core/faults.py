"""Page-fault handling for the unified physical memory system.

Fault taxonomy on MI300A (paper Sections 2.3, 3.1 and 5.2):

* **CPU minor fault** — CPU touches a page with no system PTE.  For
  on-demand memory the kernel allocates a (scattered) physical frame; for
  up-front allocations the frame already exists and the kernel merely
  installs PTEs, batching neighbouring pages (fault-around) at a large
  granularity — which is why hipMalloc'd memory shows ~100x fewer CPU
  faults than malloc'd memory in CPU STREAM (Fig. 10).

* **GPU major fault** — GPU touches a page with no physical backing.
  Requires XNACK: the TLB holds the replay until the fault handler
  allocates frames (in larger contiguous chunks than the CPU path) and
  propagates PTEs through HMM.  Without XNACK the access is fatal.

* **GPU minor fault** — the page is backed and present in the system
  table but absent from the GPU table; HMM propagates the PTE.  Faster
  than a major fault (Figs. 7-8) since no allocation happens.

The handler operates on whole touched ranges (the benchmarks touch one
load per page over large arrays); counters record both fault *events*
(what ``perf stat`` shows) and faulted *pages*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from ..hw.config import MI300AConfig, PAGE_SIZE
from ..perf.faultmodel import fault_burst_time_ns
from .address_space import (
    GPU_ACCESS_NEVER,
    GPU_ACCESS_XNACK,
    VMA,
)
from .fragments import contiguous_runs
from .page import NO_FRAME
from .page_table import HMMMirror
from .physical import PhysicalMemory, TransientAllocationError

Device = Literal["cpu", "gpu"]


class GPUMemoryAccessError(RuntimeError):
    """Fatal GPU access: unmapped page and no XNACK replay available."""


@dataclass
class FaultCounters:
    """Cumulative fault statistics (the ``perf stat`` view)."""

    cpu_fault_events: int = 0
    cpu_faulted_pages: int = 0
    gpu_major_events: int = 0
    gpu_major_pages: int = 0
    gpu_minor_events: int = 0
    gpu_minor_pages: int = 0
    xnack_retries: int = 0
    storm_replay_pages: int = 0

    def snapshot(self) -> "FaultCounters":
        """A copy of the current counters."""
        return FaultCounters(**self.__dict__)

    def delta(self, earlier: "FaultCounters") -> "FaultCounters":
        """Counters accumulated since *earlier*."""
        return FaultCounters(
            **{k: getattr(self, k) - getattr(earlier, k) for k in self.__dict__}
        )


@dataclass
class FaultReport:
    """Outcome of touching one range from one device."""

    device: Device
    touched_pages: int
    cpu_fault_events: int = 0
    cpu_faulted_pages: int = 0
    gpu_major_pages: int = 0
    gpu_minor_pages: int = 0
    eager_mapped_pages: int = 0
    xnack_retries: int = 0
    storm_replay_pages: int = 0
    service_time_ns: float = 0.0

    @property
    def any_faults(self) -> bool:
        """True when at least one fault was taken."""
        return bool(
            self.cpu_fault_events or self.gpu_major_pages or self.gpu_minor_pages
        )


class FaultHandler:
    """Resolves CPU and GPU page faults against the unified pool."""

    #: Hardware XNACK replay budget: how many times one access's replay
    #: may be dropped/NACKed before the wave aborts (the fatal path).
    XNACK_RETRY_LIMIT = 8

    #: Direct-reclaim analogue: how many times the fault path retries a
    #: transiently failed frame allocation before giving up.  The kernel
    #: retries inside the fault handler, so userspace never sees these.
    FAULT_ALLOC_RETRY_LIMIT = 4

    def __init__(
        self,
        config: MI300AConfig,
        physical: PhysicalMemory,
        hmm: HMMMirror,
        xnack_enabled: bool = False,
    ) -> None:
        self._config = config
        self._physical = physical
        self._hmm = hmm
        self.xnack_enabled = xnack_enabled
        self.counters = FaultCounters()
        self.trace = None  # EventLog when the owning APU traces
        self.inject = None  # InjectionPlan when fault injection is active

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def touch_range(
        self,
        vma: VMA,
        first_page: int,
        count: int,
        device: Device,
        concurrency: int = 1,
    ) -> FaultReport:
        """Resolve all faults for *device* touching the given page range.

        *concurrency* is the number of threads/waves generating faults in
        parallel; it feeds the batched service-time model.  Returns a
        report including the simulated fault-service time (the caller
        advances the clock).
        """
        if device not in ("cpu", "gpu"):
            raise ValueError(f"unknown device {device!r}")
        report = FaultReport(device=device, touched_pages=count)
        if device == "gpu":
            self._check_gpu_access(vma)
            self._touch_gpu(vma, first_page, count, report)
        else:
            self._touch_cpu(vma, first_page, count, report)
        report.service_time_ns = self._service_time_ns(report, concurrency)
        if self.trace is not None and report.any_faults:
            self.trace.emit(
                "fault",
                device=device,
                buffer=self.trace.buffer_for_vma(vma),
                name=vma.name,
                cpu_pages=report.cpu_faulted_pages,
                gpu_major=report.gpu_major_pages,
                gpu_minor=report.gpu_minor_pages,
            )
        return report

    # ------------------------------------------------------------------
    # CPU path
    # ------------------------------------------------------------------

    def _touch_cpu(
        self, vma: VMA, first_page: int, count: int, report: FaultReport
    ) -> None:
        sl = slice(first_page, first_page + count)
        mapped = vma.sys_valid[sl]
        if mapped.all():
            return
        missing = ~mapped
        have_frame = vma.frames[sl] != NO_FRAME

        # Pages needing physical allocation: on-demand first touch.
        need_alloc = missing & ~have_frame
        n_alloc = int(np.count_nonzero(need_alloc))
        if n_alloc:
            frames = self._alloc_with_reclaim(
                lambda: self._physical.alloc_scattered(n_alloc), vma
            )
            self._map_cpu_pages(vma, first_page, need_alloc, n_alloc, frames)
            # One fault event per page: anonymous memory faults in
            # page-sized increments on the CPU.
            report.cpu_fault_events += n_alloc
            report.cpu_faulted_pages += n_alloc

        # Pages already backed (up-front allocation or GPU first touch):
        # install PTEs with fault-around batching.
        need_map = missing & have_frame
        n_map = int(np.count_nonzero(need_map))
        if n_map:
            granularity = self._cpu_fault_around_pages(vma)
            idx = self._map_cpu_pages(vma, first_page, need_map, n_map)
            # One event per aligned fault-around window touched: a whole
            # range spans its end windows, and sorted indices step to a
            # new window where idx // granularity changes.
            if idx is None:
                last = first_page + count - 1
                events = last // granularity - first_page // granularity + 1
            else:
                events = 1 + int(np.count_nonzero(np.diff(idx // granularity)))
            report.cpu_fault_events += events
            report.cpu_faulted_pages += n_map

        self.counters.cpu_fault_events += report.cpu_fault_events
        self.counters.cpu_faulted_pages += report.cpu_faulted_pages

        # Eager GPU maps (Bertolli et al.): propagate the fresh PTEs into
        # the GPU table right away, so the GPU never takes minor faults
        # on this range.  The extra time is charged via eager_map_pages.
        if (
            self._config.policy.eager_gpu_maps
            and vma.gpu_access != GPU_ACCESS_NEVER
        ):
            propagated = self._hmm.propagate_range(vma, first_page, count)
            report.eager_mapped_pages += propagated

    def _map_cpu_pages(
        self,
        vma: VMA,
        first_page: int,
        pages: np.ndarray,
        npages: int,
        frames: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Install system PTEs for the *npages* pages set in mask *pages*.

        *frames* (default: the pages' own) back them in page order.  A
        mask set over the whole range is mapped as one run and returns
        None; otherwise each contiguous run is mapped and the VMA page
        indices are returned.
        """
        if npages == len(pages):
            sl = slice(first_page, first_page + npages)
            self._hmm.system.map_range(
                vma, first_page, vma.frames[sl] if frames is None else frames
            )
            return None
        idx = first_page + np.flatnonzero(pages)
        if frames is None:
            frames = vma.frames[idx]
        for s, n in contiguous_runs(idx):
            self._hmm.system.map_range(vma, int(idx[s]), frames[s : s + n])
        return idx

    def _cpu_fault_around_pages(self, vma: VMA) -> int:
        """Fault-around batch size for mapping already-backed pages."""
        policy = self._config.policy
        if vma.gpu_touched:
            gran = policy.up_front_cpu_fault_granularity_gpu_init_bytes
        else:
            gran = policy.up_front_cpu_fault_granularity_bytes
        return max(1, gran // PAGE_SIZE)

    # ------------------------------------------------------------------
    # GPU path
    # ------------------------------------------------------------------

    def _check_gpu_access(self, vma: VMA) -> None:
        mode = vma.gpu_access
        if mode == GPU_ACCESS_NEVER:
            self._emit_fatal(vma, "static host symbols are invisible to the GPU")
            raise GPUMemoryAccessError(
                f"GPU cannot access {vma.name or 'static host memory'}: "
                "static host symbols are invisible to the GPU linker"
            )
        if mode == GPU_ACCESS_XNACK and not self.xnack_enabled:
            self._emit_fatal(
                vma, "pageable memory needs XNACK for GPU fault replay"
            )
            raise GPUMemoryAccessError(
                f"GPU access to {vma.name or 'pageable memory'} requires "
                "XNACK (HSA_XNACK=1): the GPU cannot resolve page faults"
            )

    def _emit_fatal(self, vma: VMA, reason: str) -> None:
        if self.trace is not None:
            self.trace.emit(
                "fatal_gpu_access",
                name=vma.name,
                buffer=self.trace.buffer_for_vma(vma),
                reason=reason,
            )

    def _touch_gpu(
        self, vma: VMA, first_page: int, count: int, report: FaultReport
    ) -> None:
        sl = slice(first_page, first_page + count)
        gpu_mapped = vma.gpu_valid[sl]
        if gpu_mapped.all():
            vma.gpu_touched = True
            return
        if not self.xnack_enabled:
            self._emit_fatal(
                vma, "unmapped page touched with XNACK disabled"
            )
            raise GPUMemoryAccessError(
                f"GPU page fault on {vma.name or 'memory'} with XNACK "
                "disabled: on-demand mapped pages are inaccessible"
            )
        report.xnack_retries = self._xnack_replay_retries(
            vma, first_page, count
        )
        not_gpu_mapped = ~gpu_mapped
        n_faulted = int(np.count_nonzero(not_gpu_mapped))

        # Major faults: allocate physical frames in contiguous chunks (the
        # driver batches GPU faults and grabs larger blocks than the CPU
        # anon path — the reason GPU-first-touched malloc memory ends up
        # channel-balanced, Section 5.4).
        need_alloc = not_gpu_mapped & (vma.frames[sl] == NO_FRAME)
        n_alloc = int(np.count_nonzero(need_alloc))
        if n_alloc:
            chunk_pages = max(
                1, self._config.policy.up_front_contiguity_bytes // PAGE_SIZE
            )
            frames = self._alloc_with_reclaim(
                lambda: self._physical.alloc_chunks(n_alloc, chunk_pages), vma
            )
            self._map_cpu_pages(vma, first_page, need_alloc, n_alloc, frames)
            report.gpu_major_pages += n_alloc

        # Minor faults: backed and CPU-mapped, just propagate PTEs.
        report.gpu_minor_pages += n_faulted - n_alloc

        # Both flavours end with HMM propagation into the GPU table.
        self._hmm.propagate_range(vma, first_page, count)
        vma.gpu_touched = True

        report.storm_replay_pages = self._retry_storm_pages(vma, report)

        self.counters.gpu_major_pages += report.gpu_major_pages
        self.counters.gpu_minor_pages += report.gpu_minor_pages
        self.counters.xnack_retries += report.xnack_retries
        self.counters.storm_replay_pages += report.storm_replay_pages
        if report.gpu_major_pages:
            self.counters.gpu_major_events += 1
        if report.gpu_minor_pages:
            self.counters.gpu_minor_events += 1

    def _alloc_with_reclaim(self, alloc, vma: VMA) -> np.ndarray:
        """Frame allocation with the kernel's direct-reclaim retry.

        The fault path must not surface transient allocation failures
        to userspace: the kernel retries (direct reclaim) up to
        :attr:`FAULT_ALLOC_RETRY_LIMIT` times before letting the
        failure propagate.  Genuine exhaustion propagates immediately.
        """
        retries = 0
        while True:
            try:
                return alloc()
            except TransientAllocationError:
                if retries >= self.FAULT_ALLOC_RETRY_LIMIT:
                    raise
                retries += 1
                if self.inject is not None:
                    self.inject.note(
                        "recover.fault.reclaim-retry",
                        name=vma.name,
                        attempt=retries,
                    )

    # ------------------------------------------------------------------
    # Injected XNACK pathologies
    # ------------------------------------------------------------------

    def _xnack_replay_retries(
        self, vma: VMA, first_page: int, count: int
    ) -> int:
        """Bounded XNACK retry loop under injected replay drops.

        Each ``xnack.retry``/``drop`` fire models the fault handler's
        acknowledgement getting lost: the wave replays, faults again,
        and the handler re-runs.  The loop is bounded by
        :attr:`XNACK_RETRY_LIMIT`; exhausting it escalates to the same
        fatal path a disabled XNACK takes (aborted wavefront).
        """
        if self.inject is None:
            return 0
        retries = 0
        while retries <= self.XNACK_RETRY_LIMIT:
            fault = self.inject.fire(
                "xnack.retry",
                name=vma.name,
                address=vma.start + first_page * PAGE_SIZE,
                pages=count,
            )
            if fault is None or fault.kind != "drop":
                return retries
            retries += 1
        self._emit_fatal(
            vma, f"XNACK retry limit ({self.XNACK_RETRY_LIMIT}) exceeded"
        )
        raise GPUMemoryAccessError(
            f"GPU access to {vma.name or 'memory'} aborted: XNACK replay "
            f"dropped more than {self.XNACK_RETRY_LIMIT} times"
        )

    def _retry_storm_pages(self, vma: VMA, report: FaultReport) -> int:
        """Extra replayed pages under an injected XNACK retry storm."""
        if self.inject is None:
            return 0
        faulted = report.gpu_major_pages + report.gpu_minor_pages
        if not faulted:
            return 0
        fault = self.inject.fire(
            "xnack.storm", name=vma.name, pages=faulted
        )
        if fault is None or fault.kind != "storm":
            return 0
        factor = float(fault.params.get("factor", 4.0))
        return int(faulted * max(0.0, factor - 1.0))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _service_time_ns(self, report: FaultReport, concurrency: int) -> float:
        """Total fault-service time for the touched range.

        Each kind's burst is priced by the one fault model,
        :func:`repro.perf.faultmodel.fault_burst_time_ns`, with
        *concurrency* as the CPU core count; so are the injected XNACK
        pathologies.  Eager maps add their own per-page term.
        """
        config = self._config
        total = 0.0
        if report.cpu_faulted_pages:
            total += fault_burst_time_ns(
                config, "cpu", report.cpu_fault_events, concurrency
            )
        if report.gpu_major_pages:
            total += fault_burst_time_ns(
                config, "gpu_major", report.gpu_major_pages
            )
        if report.gpu_minor_pages:
            total += fault_burst_time_ns(
                config, "gpu_minor", report.gpu_minor_pages
            )
        total += report.eager_mapped_pages * config.policy.eager_map_page_ns
        # Injected XNACK pathologies: every dropped replay re-runs a full
        # one-page handler pass.  The frames exist after the first pass,
        # so a storm's replays are one burst of PTE re-propagations.
        if report.xnack_retries:
            total += report.xnack_retries * fault_burst_time_ns(
                config, "gpu_major", 1
            )
        total += fault_burst_time_ns(
            config, "gpu_minor", report.storm_replay_pages
        )
        return total
