"""hipsan — the dynamic happens-before sanitizer.

Replays the :class:`~repro.analyze.events.EventLog` a traced runtime
produced, maintaining one :class:`~repro.analyze.hb.VectorClock` per
timeline (host + each stream) and a per-buffer access history, and
reports the paper's porting hazards as :class:`Finding` records:

* ``hipsan.cpu-gpu-race`` — host and GPU touch the same unified bytes
  with no happens-before edge (Section 3.3, Concurrent CPU-GPU Access);
* ``hipsan.unsync-d2h-read`` — the host reads bytes a still-pending GPU
  kernel writes (the classic missing ``hipDeviceSynchronize``);
* ``hipsan.stream-race`` — two streams touch the same bytes unordered;
* ``hipsan.memcpy-race`` — an access races an in-flight
  ``hipMemcpyAsync``;
* ``hipsan.use-after-free`` / ``hipsan.free-in-flight`` /
  ``hipsan.double-free`` — lifetime violations through ``hipFree``;
* ``hipsan.xnack-fatal`` — a GPU access that faulted on an unmapped
  page with XNACK disabled (fatal on real hardware);
* ``hipsan.fault-storm`` (info) — a buffer that served a large number
  of GPU page faults; the paper's fix is CPU pre-faulting
  (Section 5.2);
* the porting rules (info), what a unified port (Section 3.3, Listing
  1 -> 2) removes: ``hipsan.duplicated-pair`` — a copy joins equal-size
  host and device allocations; ``hipsan.copy-dominated`` — copies take
  over :data:`COPY_DOMINATED_FRACTION` of copy plus GPU-kernel time;
  ``hipsan.dead-alloc`` — no copy, kernel or page fault touches a buffer.

Pageable-copy semantics: ``hipMemcpyAsync`` to or from *pageable*
(unpinned) memory behaves synchronously on the host side — the runtime
stages the pageable range before returning, so that side's access is
attributed to the host timeline at issue.  Only pinned-side accesses
ride the stream, which is what makes the classic overlapped
``h_frame``-prep / async-H2D pipeline legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.allocators import AllocatorKind
from .events import EventLog, RuntimeEvent
from .findings import Finding, make_finding
from .hb import VectorClock, ordered_before

#: GPU-faulted pages on one buffer that qualify as a fault storm (info).
GPU_FAULT_STORM_PAGES = 1024

#: Copy share of copy plus GPU-kernel time that is copy-dominated (info).
COPY_DOMINATED_FRACTION = 0.2

#: Allocator kinds on either end of a duplicated host/device pair.
_HOST_KINDS = {AllocatorKind.MALLOC.value, AllocatorKind.HIP_HOST_MALLOC.value,
               AllocatorKind.MALLOC_REGISTERED.value}
_DEVICE_KINDS = {AllocatorKind.HIP_MALLOC.value,
                 AllocatorKind.STATIC_DEVICE.value}

HOST = "host"


@dataclass
class Access:
    """One recorded access to a buffer on one timeline."""

    timeline: str
    clock: VectorClock
    is_write: bool
    is_read: bool
    lo: int
    hi: int
    op: str  # gpu_kernel | cpu_kernel | memcpy | memcpy_async
    label: str

    def overlaps(self, other: "Access") -> bool:
        return self.lo < other.hi and other.lo < self.hi


@dataclass
class BufferState:
    """Replay-time state of one allocation."""

    uid: str
    name: str
    kind: str
    size: int
    pinned: bool
    on_demand: bool
    alive: bool = True
    #: keyed (timeline, is_write, lo, hi); replacement is sound because
    #: same-timeline clocks are monotone, so any edge ordering the newer
    #: access also orders the older one.
    accesses: Dict[Tuple[str, bool, int, int], Access] = field(
        default_factory=dict
    )
    gpu_fault_pages: int = 0
    #: any memcpy side, kernel access or page fault reached the buffer
    touched: bool = False

    def describe(self) -> str:
        return f"{self.uid} ({self.name!r}, {self.kind}, {self.size} B)"


class Sanitizer:
    """Replays one event log and accumulates findings."""

    def __init__(self) -> None:
        self._clocks: Dict[str, VectorClock] = {HOST: VectorClock()}
        self._event_clocks: Dict[str, VectorClock] = {}
        self._buffers: Dict[str, BufferState] = {}
        self._findings: List[Finding] = []
        self._seen: Set[Tuple] = set()
        self._copy_ns = 0.0
        self._gpu_kernel_ns = 0.0
        #: (host uid, device uid) -> [copies, copy time ns]
        self._pairs: Dict[Tuple[str, str], List[float]] = {}

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, events: Iterable[RuntimeEvent]) -> List[Finding]:
        """Replay *events* and return the finding list."""
        for event in events:
            handler = getattr(self, f"_on_{event.kind}", None)
            if handler is not None:
                handler(event)
        self._flush_fault_storms()
        self._flush_porting()
        return self._findings

    def _stream(self, uid: str) -> VectorClock:
        if uid not in self._clocks:
            self._clocks[uid] = VectorClock()
        return self._clocks[uid]

    @property
    def _host(self) -> VectorClock:
        return self._clocks[HOST]

    def _report(self, key: Tuple, finding: Finding) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self._findings.append(finding)

    # ------------------------------------------------------------------
    # Lifetime events
    # ------------------------------------------------------------------

    def _on_alloc(self, event: RuntimeEvent) -> None:
        d = event.data
        self._host.tick(HOST)
        self._buffers[d["buffer"]] = BufferState(
            uid=d["buffer"],
            name=d.get("name", ""),
            kind=d.get("allocator", "?"),
            size=d.get("size", 0),
            pinned=bool(d.get("pinned", False)),
            on_demand=bool(d.get("on_demand", False)),
        )

    def _on_pin(self, event: RuntimeEvent) -> None:
        self._host.tick(HOST)
        state = self._buffers.get(event.data["buffer"])
        if state is not None:
            state.pinned = True
            state.on_demand = False

    def _on_free(self, event: RuntimeEvent) -> None:
        self._host.tick(HOST)
        state = self._buffers.get(event.data["buffer"])
        if state is None:
            return
        if not state.alive:
            self._report(
                ("hipsan.double-free", state.uid),
                make_finding(
                    "hipsan.double-free",
                    f"buffer {state.describe()} freed twice through hipFree",
                    hint="free each allocation exactly once; clear the "
                    "handle after the first hipFree",
                ),
            )
            return
        for access in state.accesses.values():
            if access.timeline == HOST:
                continue
            if ordered_before(access.clock, access.timeline, self._host):
                continue
            self._report(
                ("hipsan.free-in-flight", state.uid, access.label),
                make_finding(
                    "hipsan.free-in-flight",
                    f"buffer {state.describe()} freed while {access.label} "
                    "may still be executing",
                    hint="synchronize the stream (hipStreamSynchronize / "
                    "hipDeviceSynchronize) before hipFree",
                ),
            )
        state.alive = False

    # ------------------------------------------------------------------
    # Work events
    # ------------------------------------------------------------------

    def _on_kernel(self, event: RuntimeEvent) -> None:
        d = event.data
        name = d.get("name", "?")
        if d.get("device") == "gpu":
            stream = d.get("stream") or "s0"
            clock = self._stream(stream)
            self._host.tick(HOST)
            clock.join(self._host)  # submission edge
            clock.tick(stream)
            stamp = clock.copy()
            self._gpu_kernel_ns += d.get("end_ns", 0) - d.get("start_ns", 0)
            timeline, op = stream, "gpu_kernel"
            label = f"GPU kernel {name!r} on {stream}"
        else:
            self._host.tick(HOST)
            stamp = self._host.copy()
            timeline, op = HOST, "cpu_kernel"
            label = f"CPU kernel {name!r}"
        for access in d.get("accesses", ()):
            mode = access.get("mode", "read")
            lo = access.get("offset", 0)
            self._record(
                access["buffer"],
                Access(
                    timeline=timeline,
                    clock=stamp,
                    is_write=mode in ("write", "readwrite"),
                    is_read=mode in ("read", "readwrite"),
                    lo=lo,
                    hi=lo + access.get("size", 0),
                    op=op,
                    label=label,
                ),
            )

    def _on_memcpy(self, event: RuntimeEvent) -> None:
        d = event.data
        nbytes = d.get("nbytes", 0)
        duration = d.get("duration_ns", 0.0)
        self._copy_ns += duration
        pair = self._host_device_pair(d.get("src"), d.get("dst"))
        if pair is not None:
            tally = self._pairs.setdefault(pair, [0, 0.0])
            tally[0] += 1
            tally[1] += duration
        self._host.tick(HOST)
        if d.get("is_async"):
            stream = d.get("stream") or "s0"
            clock = self._stream(stream)
            clock.join(self._host)  # submission edge
            clock.tick(stream)
            stream_stamp = clock.copy()
        else:
            stream = None
            stream_stamp = None
        host_stamp = self._host.copy()
        for side, mode in (("src", "read"), ("dst", "write")):
            uid = d.get(side)
            if uid is None:
                continue
            lo = d.get(f"{side}_offset", 0)
            state = self._buffers.get(uid)
            pinned = state.pinned if state is not None else True
            if stream_stamp is not None and pinned:
                timeline, stamp, op = stream, stream_stamp, "memcpy_async"
                label = f"hipMemcpyAsync on {stream} ({mode} {uid})"
            elif stream_stamp is not None:
                # Pageable side of an async copy: staged synchronously.
                timeline, stamp, op = HOST, host_stamp, "memcpy"
                label = f"hipMemcpyAsync pageable staging ({mode} {uid})"
            else:
                timeline, stamp, op = HOST, host_stamp, "memcpy"
                label = f"hipMemcpy ({mode} {uid})"
            self._record(
                uid,
                Access(
                    timeline=timeline,
                    clock=stamp,
                    is_write=(mode == "write"),
                    is_read=(mode == "read"),
                    lo=lo,
                    hi=lo + nbytes,
                    op=op,
                    label=label,
                ),
            )

    # ------------------------------------------------------------------
    # Ordering events
    # ------------------------------------------------------------------

    def _on_event_record(self, event: RuntimeEvent) -> None:
        d = event.data
        self._host.tick(HOST)
        clock = self._stream(d["stream"])
        clock.join(self._host)  # the record marker is submitted by the host
        self._event_clocks[d["event"]] = clock.copy()

    def _on_event_wait(self, event: RuntimeEvent) -> None:
        d = event.data
        self._host.tick(HOST)
        clock = self._stream(d["stream"])
        clock.join(self._host)
        recorded = self._event_clocks.get(d["event"])
        if recorded is not None:
            clock.join(recorded)

    def _on_event_host_sync(self, event: RuntimeEvent) -> None:
        self._host.tick(HOST)
        recorded = self._event_clocks.get(event.data["event"])
        if recorded is not None:
            self._host.join(recorded)

    def _on_stream_sync(self, event: RuntimeEvent) -> None:
        self._host.tick(HOST)
        self._host.join(self._stream(event.data["stream"]))

    def _on_device_sync(self, event: RuntimeEvent) -> None:
        self._host.tick(HOST)
        for uid, clock in self._clocks.items():
            if uid != HOST:
                self._host.join(clock)

    # ------------------------------------------------------------------
    # Fault events
    # ------------------------------------------------------------------

    def _on_fault(self, event: RuntimeEvent) -> None:
        d = event.data
        state = self._buffers.get(d.get("buffer"))
        if state is None:
            return
        state.touched = True
        if d.get("device") == "gpu":
            state.gpu_fault_pages += d.get("gpu_major", 0) + d.get(
                "gpu_minor", 0
            )

    def _on_fatal_gpu_access(self, event: RuntimeEvent) -> None:
        d = event.data
        name = d.get("name") or d.get("buffer") or "memory"
        self._report(
            ("hipsan.xnack-fatal", name, d.get("reason")),
            make_finding(
                "hipsan.xnack-fatal",
                f"GPU access to {name!r} is fatal: {d.get('reason', '?')}",
                hint="run with HSA_XNACK=1 or allocate the buffer with a "
                "GPU-mapped allocator (hipMalloc / hipHostMalloc / "
                "hipMallocManaged)",
            ),
        )

    def _flush_fault_storms(self) -> None:
        for state in self._buffers.values():
            if state.gpu_fault_pages >= GPU_FAULT_STORM_PAGES:
                self._report(
                    ("hipsan.fault-storm", state.uid),
                    make_finding(
                        "hipsan.fault-storm",
                        f"buffer {state.describe()} served "
                        f"{state.gpu_fault_pages} GPU page faults",
                        hint="pre-fault from the CPU before the first GPU "
                        "touch (Section 5.2), or allocate up-front",
                    ),
                )

    # ------------------------------------------------------------------
    # Porting inefficiencies
    # ------------------------------------------------------------------

    def _host_device_pair(
        self, src: Optional[str], dst: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """``(host uid, device uid)`` when a copy joins a same-size
        host/device allocation pair, else None."""
        a, b = self._buffers.get(src), self._buffers.get(dst)
        if a is None or b is None or a.size != b.size:
            return None
        if a.kind in _DEVICE_KINDS:
            a, b = b, a
        if a.kind in _HOST_KINDS and b.kind in _DEVICE_KINDS:
            return a.uid, b.uid
        return None

    def _flush_porting(self) -> None:
        # Reported once per replay, so no _report dedup key is needed.
        for (host, device), (copies, copy_ns) in self._pairs.items():
            host, device = self._buffers[host], self._buffers[device]
            self._findings.append(make_finding(
                "hipsan.duplicated-pair",
                f"host buffer {host.describe()} and device buffer "
                f"{device.describe()} are joined by {copies} cop"
                f"{'y' if copies == 1 else 'ies'}; one unified allocation "
                f"saves {host.size} B",
                hint="allocate one unified buffer and drop the copies "
                "(Section 3.3, Listing 1 -> Listing 2)",
                cost_ns=copy_ns,
            ))
        total = self._copy_ns + self._gpu_kernel_ns
        if total > 0 and self._copy_ns / total > COPY_DOMINATED_FRACTION:
            self._findings.append(make_finding(
                "hipsan.copy-dominated",
                f"copies are {self._copy_ns / total:.0%} of GPU-path time "
                "(copies plus GPU kernels)",
                hint="a unified-memory port removes the copies (Listing 2)",
                cost_ns=self._copy_ns,
            ))
        for state in self._buffers.values():
            if not state.touched:
                self._findings.append(make_finding(
                    "hipsan.dead-alloc",
                    f"buffer {state.describe()} is never accessed: no "
                    "copy, kernel or page fault touches it",
                    hint="remove the allocation",
                ))

    # ------------------------------------------------------------------
    # Race detection
    # ------------------------------------------------------------------

    def _record(self, uid: str, access: Access) -> None:
        state = self._buffers.get(uid)
        if state is None:
            return
        state.touched = True
        if not state.alive:
            self._report(
                ("hipsan.use-after-free", uid, access.label),
                make_finding(
                    "hipsan.use-after-free",
                    f"{access.label} touches buffer {state.describe()} "
                    "after hipFree",
                    hint="move the hipFree after the last use, or extend "
                    "the buffer's lifetime",
                ),
            )
        for prev in state.accesses.values():
            if not (prev.is_write or access.is_write):
                continue
            if not prev.overlaps(access):
                continue
            if prev.timeline == access.timeline:
                continue  # program order
            if ordered_before(prev.clock, prev.timeline, access.clock):
                continue
            self._report_race(state, prev, access)
        key = (access.timeline, access.is_write, access.lo, access.hi)
        state.accesses[key] = access

    def _report_race(
        self, state: BufferState, prev: Access, access: Access
    ) -> None:
        if "memcpy_async" in (prev.op, access.op):
            rule = "hipsan.memcpy-race"
            hint = (
                "order the access against the copy with "
                "hipStreamSynchronize or a stream event"
            )
        elif HOST in (prev.timeline, access.timeline):
            host_acc = prev if prev.timeline == HOST else access
            gpu_acc = access if host_acc is prev else prev
            if not host_acc.is_write and gpu_acc.is_write:
                rule = "hipsan.unsync-d2h-read"
                hint = (
                    "synchronize (hipDeviceSynchronize / "
                    "hipStreamSynchronize) before reading GPU results on "
                    "the host"
                )
            else:
                rule = "hipsan.cpu-gpu-race"
                hint = (
                    "separate CPU and GPU phases with synchronization, or "
                    "double-buffer with stream events (Section 3.3)"
                )
        else:
            rule = "hipsan.stream-race"
            hint = (
                "order the streams with hipEventRecord / "
                "hipStreamWaitEvent"
            )
        overlap_lo = max(prev.lo, access.lo)
        overlap_hi = min(prev.hi, access.hi)
        self._report(
            (rule, state.uid, prev.label, access.label),
            make_finding(
                rule,
                f"buffer {state.describe()}: {access.label} is unordered "
                f"with {prev.label} over bytes "
                f"[{overlap_lo}, {overlap_hi})",
                hint=hint,
            ),
        )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def analyze_log(log: EventLog | Iterable[RuntimeEvent]) -> List[Finding]:
    """Run the sanitizer over one event log."""
    return Sanitizer().run(iter(log))


def analyze_runtime(runtime) -> List[Finding]:
    """Run the sanitizer over a traced :class:`HipRuntime`."""
    trace = runtime.apu.trace
    if trace is None:
        raise ValueError(
            "runtime was not built with trace=True; use "
            "make_runtime(..., trace=True)"
        )
    return analyze_log(trace)


#: Reduced problem sizes for the app regression sweep (same scale as the
#: tier-1 app tests, so `repro analyze` stays interactive).
SMALL_PARAMS: Dict[str, Dict[str, int]] = {
    "backprop": {"input_units": 1 << 16},
    "dwt2d": {"dim": 1024, "levels": 2},
    "heartwall": {"frame_dim": 256, "frames": 6, "points": 16},
    "hotspot": {"grid": 256, "iterations": 10},
    "nn": {"records": 1 << 18, "k": 4},
    "srad_v1": {"dim": 256, "iterations": 6},
}


def analyze_app(
    name: str,
    variant: str,
    params: Optional[Dict[str, int]] = None,
    memory_gib: Optional[int] = 8,
) -> List[Finding]:
    """Run one Rodinia port under tracing and sanitize its log."""
    from ..apps import ALL_APPS  # lazy: apps import the runtime

    app = ALL_APPS[name]()
    if params is None:
        params = SMALL_PARAMS.get(name)
    app.run(variant, memory_gib=memory_gib, params=params, trace=True)
    trace = app.last_apu.trace
    if trace is None:
        raise RuntimeError(f"{name} did not record a trace")
    return analyze_log(trace)
