"""Trace-driven porting advisor.

The paper's related work surveys GPU memory profilers (DrGPUM [25],
Lotus [9]) that detect inefficient memory usage patterns without
modifying the application.  This module brings that style of analysis
to the simulator: the :class:`PortingAdvisor` reads the runtime's own
event stream — the :class:`~repro.analyze.events.EventLog` that
``make_runtime(..., trace=True)`` fills, with no hand instrumentation —
and mines it for exactly the inefficiencies the paper's porting
strategies (Section 3.3) eliminate:

* **duplicated buffer pairs** — a host and a device allocation of equal
  size connected by copies: the explicit-model signature, mergeable
  into one unified allocation (the Fig. 11 memory saving);
* **copy overhead** — time spent in hipMemcpy relative to kernels,
  i.e. what merging would recover;
* **dead allocations** — buffers never accessed after allocation;
* **fault-dominated kernels** — GPU time dominated by page faults (the
  nn outlier), fixable with hipMalloc-backed containers or pre-faulting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.allocators import AllocatorKind


@dataclass(frozen=True)
class DuplicationFinding:
    """A host/device buffer pair that could be one unified allocation."""

    host_buffer: str
    device_buffer: str
    nbytes: int
    copies: int
    copy_time_ns: float

    @property
    def memory_saving_bytes(self) -> int:
        """Bytes saved by merging the pair (one copy disappears)."""
        return self.nbytes


@dataclass
class AdvisorReport:
    """The advisor's findings over one trace."""

    duplicated_pairs: List[DuplicationFinding] = field(default_factory=list)
    dead_allocations: List[str] = field(default_factory=list)
    copy_time_ns: float = 0.0
    kernel_time_ns: float = 0.0
    fault_dominated_kernels: List[str] = field(default_factory=list)

    @property
    def potential_memory_saving_bytes(self) -> int:
        """Total bytes recoverable by unifying all duplicated pairs."""
        return sum(f.memory_saving_bytes for f in self.duplicated_pairs)

    @property
    def copy_fraction(self) -> float:
        """Share of traced GPU-path time spent copying."""
        total = self.copy_time_ns + self.kernel_time_ns
        if total == 0:
            return 0.0
        return self.copy_time_ns / total


#: Allocator kinds considered "host-side" for pairing purposes.
_HOST_KINDS = {
    AllocatorKind.MALLOC.value,
    AllocatorKind.MALLOC_REGISTERED.value,
    AllocatorKind.HIP_HOST_MALLOC.value,
}
_DEVICE_KINDS = {
    AllocatorKind.HIP_MALLOC.value,
    AllocatorKind.STATIC_DEVICE.value,
}


class PortingAdvisor:
    """Mines a runtime event log for explicit-model inefficiencies.

    *events* is an :class:`~repro.analyze.events.EventLog` or any
    iterable of its ``RuntimeEvent`` records.  Buffer names, sizes and
    allocator kinds come from ``alloc`` events; a buffer is accessed
    when a ``memcpy`` reads or writes it or a ``kernel`` lists it.
    Buffers are keyed by their log uid and reported by name.
    """

    def __init__(self, events: Optional[Iterable[Any]]) -> None:
        if events is None:
            raise ValueError(
                "no event log: build the runtime with "
                "make_runtime(..., trace=True)"
            )
        self._events = list(events)

    def analyse(self, fault_threshold: float = 0.5) -> AdvisorReport:
        """Produce the full advisor report.

        *fault_threshold*: a GPU kernel whose fault time exceeds this
        share of its duration is flagged fault-dominated.
        """
        report = AdvisorReport()
        allocs: Dict[str, Dict[str, Any]] = {}
        accessed: set = set()
        pairs: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for event in self._events:
            data = event.data
            if event.kind == "alloc":
                allocs[data["buffer"]] = data
            elif event.kind == "memcpy":
                accessed.update((data["src"], data["dst"]))
                report.copy_time_ns += data["duration_ns"]
                key = _host_device_pair(
                    allocs.get(data["src"]), allocs.get(data["dst"])
                )
                if key is not None:
                    count, time_ns = pairs.get(key, (0, 0.0))
                    pairs[key] = (count + 1, time_ns + data["duration_ns"])
            elif event.kind == "kernel":
                accessed.update(a["buffer"] for a in data["accesses"])
                if data["device"] != "gpu":
                    continue
                duration = data["end_ns"] - data["start_ns"]
                report.kernel_time_ns += duration
                if duration > 0 and (
                    data["fault_ns"] / duration > fault_threshold
                ):
                    report.fault_dominated_kernels.append(data["name"])

        def name(uid: str) -> str:
            return allocs[uid]["name"] or uid

        report.duplicated_pairs = sorted(
            (
                DuplicationFinding(
                    host_buffer=name(host),
                    device_buffer=name(device),
                    nbytes=allocs[host]["size"],
                    copies=count,
                    copy_time_ns=time_ns,
                )
                for (host, device), (count, time_ns) in pairs.items()
            ),
            key=lambda f: (f.host_buffer, f.device_buffer),
        )
        report.dead_allocations = [
            name(uid) for uid in allocs if uid not in accessed
        ]
        return report

    def summarise(self, report: Optional[AdvisorReport] = None) -> str:
        """Human-readable advisor output (the DrGPUM-style report)."""
        report = report if report is not None else self.analyse()
        lines = ["Porting advisor findings:"]
        if report.duplicated_pairs:
            lines.append(
                f"  {len(report.duplicated_pairs)} duplicated host/device "
                f"pair(s); merging saves "
                f"{report.potential_memory_saving_bytes >> 20} MiB and removes "
                f"{report.copy_time_ns / 1e6:.2f} ms of copies"
            )
            for f in report.duplicated_pairs:
                lines.append(
                    f"    {f.host_buffer} <-> {f.device_buffer}: "
                    f"{f.nbytes >> 20} MiB, {f.copies} copies"
                )
        else:
            lines.append("  no duplicated buffer pairs (already unified?)")
        if report.copy_fraction > 0.2:
            lines.append(
                f"  copies are {report.copy_fraction:.0%} of GPU-path time — "
                "a unified-memory port removes them (Listing 2)"
            )
        for name in report.fault_dominated_kernels:
            lines.append(
                f"  kernel {name!r} is fault-dominated — use a hipMalloc-"
                "backed container or CPU pre-faulting (Sections 5.2, 6)"
            )
        for name in report.dead_allocations:
            lines.append(f"  allocation {name!r} is never accessed")
        return "\n".join(lines)


def _host_device_pair(
    src: Optional[Dict[str, Any]], dst: Optional[Dict[str, Any]]
) -> Optional[Tuple[str, str]]:
    """``(host uid, device uid)`` when a copy joins a same-size
    host/device allocation pair, else None."""
    if src is None or dst is None or src["size"] != dst["size"]:
        return None
    if src["allocator"] in _HOST_KINDS and dst["allocator"] in _DEVICE_KINDS:
        return src["buffer"], dst["buffer"]
    if src["allocator"] in _DEVICE_KINDS and dst["allocator"] in _HOST_KINDS:
        return dst["buffer"], src["buffer"]
    return None
