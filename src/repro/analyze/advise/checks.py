"""The six paper-grounded advisor checks over dataflow events.

Each check encodes one performance lesson from the paper, prices the
anti-pattern with the calibrated constants in :mod:`repro.hw.config`
(fault bursts through :mod:`repro.perf.faultmodel`), and cites the
figure it derives from via the rule registry
(:mod:`repro.analyze.findings`):

==================== ===================== ==========================
rule                 paper anchor          what it costs
==================== ===================== ==========================
advise.redundant-copy §4.3 / Fig. 3        bytes / SDMA bandwidth
advise.first-touch    Fig. 10              GPU minor fault burst
advise.fault-storm    Figs. 7-8 / §5.2     GPU major fault burst
advise.tlb-reach      Fig. 9 / §5.3        fragments x L2-TLB miss
advise.mixed-alloc    §3.4 / Table 1       (structural)
advise.sync-in-loop   §3.3                 (structural)
==================== ===================== ==========================

Finding messages deliberately carry **no line numbers** — the line
lives in :attr:`Finding.line` only — so baseline fingerprints (rule,
file, function, message) survive unrelated edits that shift code.

The same program point is often seen twice: once in its function's own
summary pass (allocator families still symbolic) and once replayed at a
call site (families resolved).  Duplicates collide on (rule, file,
line) and the occurrence that resolved *more* origins wins.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...hw.config import PAGE_SIZE, MI300AConfig, default_config
from ...perf.faultmodel import fault_burst_time_ns
from ..findings import Finding, make_finding
from ..sanitizer import GPU_FAULT_STORM_PAGES
from .dataflow import Event, FunctionResult
from .summaries import ModuleAnalysis
from .values import (
    EXPLICIT_FAMILIES,
    MANAGED_FAMILIES,
    Origin,
    origins_of,
    resolved_origins,
)

#: dedup key -> (resolution score, finding); higher score wins.
_FindingMap = Dict[Tuple[str, str, int], Tuple[int, Finding]]


def _origin_label(origin: Origin) -> str:
    """A line-free human label for one allocation site."""
    if origin.name:
        return f"'{origin.name}' ({origin.family})"
    return origin.family


def _burst_cost(
    cfg: MI300AConfig, kind: str, origins: Iterable[Origin]
) -> Optional[float]:
    """The fault model's price of faulting in the known bytes of *origins*."""
    size = sum(o.size_bytes for o in origins if o.size_bytes)
    return fault_burst_time_ns(cfg, kind, -(-size // PAGE_SIZE)) or None


def _buf_label(origins: Iterable[Origin]) -> str:
    labels = sorted({_origin_label(o) for o in origins})
    return ", ".join(labels) if labels else "an unresolved buffer"


def _known_size(origins: Iterable[Origin]) -> Optional[int]:
    sizes = {o.size_bytes for o in origins if o.size_bytes is not None}
    if len(sizes) == 1:
        return next(iter(sizes))
    return None


def _add(
    out: _FindingMap, score: int, finding: Finding
) -> None:
    key = (finding.rule, finding.file or "", finding.line or 0)
    existing = out.get(key)
    if existing is None or score > existing[0]:
        out[key] = (score, finding)


# ----------------------------------------------------------------------
# Per-event checks.
# ----------------------------------------------------------------------


def _check_redundant_copy(
    ev: Event, file: str, cfg: MI300AConfig, out: _FindingMap
) -> None:
    """§4.3 / Fig. 3: every pool is the same coherent HBM3 — an
    explicit hipMemcpy between UPM buffers is pure overhead."""
    dst, src = resolved_origins(ev.dst), resolved_origins(ev.src)
    if not dst and not src:
        return
    size = ev.size_bytes
    if size is None:
        size = _known_size(origins_of(ev.dst) | origins_of(ev.src))
    cost = None
    if size:
        cost = size / cfg.bandwidth.memcpy_sdma_bytes_per_s * 1e9
    verb = "hipMemcpyAsync" if ev.is_async else "hipMemcpy"
    message = (
        f"{verb} from {_buf_label(origins_of(ev.src))} to "
        f"{_buf_label(origins_of(ev.dst))}: both endpoints live in the "
        "same coherent HBM3 pool on MI300A, so the copy is pure overhead"
    )
    _add(
        out,
        len(dst | src),
        make_finding(
            "advise.redundant-copy",
            message,
            file=file,
            line=ev.line,
            function=ev.function,
            cost_ns=cost,
            hint="pass the source buffer to the kernel directly; CPU and "
                 "GPU share one physical memory, no staging copy is needed",
        ),
    )


def _check_launch(
    ev: Event,
    file: str,
    cfg: MI300AConfig,
    xnack_off: bool,
    out: _FindingMap,
) -> None:
    """Fig. 10 (first-touch), Figs. 7-8 (fault storm), §3.4
    (mixed-alloc) — all keyed on one kernel launch's accesses."""
    first_touch: Set[Origin] = set()
    storm: Set[Origin] = set()
    mixed: Set[Origin] = set()
    for access in ev.accesses:
        origins = resolved_origins(access.value)
        if not origins:
            continue
        families = {o.family for o in origins}
        if families & EXPLICIT_FAMILIES and families & MANAGED_FAMILIES:
            mixed |= origins
        if access.warm:
            continue
        on_demand = {o for o in origins if o.on_demand}
        if on_demand and access.cpu_written and all(
            o.on_demand for o in origins
        ):
            first_touch |= origins
        if on_demand and not xnack_off:
            big = {
                o for o in on_demand
                if o.size_bytes is None
                or o.size_bytes >= GPU_FAULT_STORM_PAGES * PAGE_SIZE
            }
            storm |= big

    kernel = f"kernel '{ev.kernel}'" if ev.kernel not in ("", "?") else (
        "a kernel"
    )
    if first_touch:
        _add(
            out,
            len(first_touch),
            make_finding(
                "advise.first-touch",
                f"{kernel} streams {_buf_label(first_touch)} whose pages "
                "the CPU first-touched: on-demand placement routes them "
                "through the CPU fault path before the GPU can stream them",
                file=file,
                line=ev.line,
                function=ev.function,
                cost_ns=_burst_cost(cfg, "gpu_minor", first_touch),
                hint="allocate up-front (hipMalloc) or prefetch with "
                     "hipMemPrefetchAsync before the launch",
            ),
        )
    if storm:
        _add(
            out,
            len(storm),
            make_finding(
                "advise.fault-storm",
                f"{kernel} may first-touch on-demand allocation "
                f"{_buf_label(storm)} under XNACK with no warm-up or "
                "prefetch on some path: predicted GPU page-fault storm",
                file=file,
                line=ev.line,
                function=ev.function,
                cost_ns=_burst_cost(cfg, "gpu_major", storm),
                hint="warm the buffer with a GPU touch/prefetch, or "
                     "allocate it up-front",
            ),
        )
    if mixed:
        _add(
            out,
            len(mixed),
            make_finding(
                "advise.mixed-alloc",
                f"{kernel} receives {_buf_label(mixed)}, which mixes "
                "explicit-model and managed-model allocations on "
                "different paths; the two models have different paging "
                "and allocator costs",
                file=file,
                line=ev.line,
                function=ev.function,
                hint="pick one allocation model for the buffer on every "
                     "path reaching this launch",
            ),
        )


def _check_tlb_reach(
    ev: Event, file: str, cfg: MI300AConfig, out: _FindingMap
) -> None:
    """Fig. 9 / §5.3: an allocation larger than the L2 TLB's reach for
    its allocator's fragment size thrashes the TLB when streamed.

    Origins are visited in source order, so which of several oversized
    allocation sites the finding names never depends on set hashing."""
    origins = sorted(
        resolved_origins(ev.buf),
        key=lambda o: (o.line, o.family, o.name, o.size_bytes or 0),
    )
    for origin in origins:
        if origin.size_bytes is None:
            return
        if origin.up_front:
            contiguity = cfg.policy.up_front_contiguity_bytes
        elif origin.on_demand:
            contiguity = cfg.policy.on_demand_contiguity_bytes
        else:
            continue
        reach = cfg.gpu_l2_tlb.entries * contiguity
        if origin.size_bytes <= reach:
            continue
        fragments = origin.size_bytes / contiguity
        _add(
            out,
            1,
            make_finding(
                "advise.tlb-reach",
                f"allocation {_buf_label([origin])} of "
                f"{origin.size_bytes} bytes exceeds the GPU L2 TLB reach "
                f"of {reach} bytes at this allocator's "
                f"{contiguity}-byte fragment size",
                file=file,
                line=ev.line,
                function=ev.function,
                cost_ns=fragments * cfg.gpu_l2_tlb.miss_penalty_ns,
                hint="use an up-front allocator for large streamed "
                     "buffers (64 KiB fragments) or split the working set",
            ),
        )


def _check_sync_in_loop(
    fn: FunctionResult, file: str, out: _FindingMap
) -> None:
    """§3.3: hipDeviceSynchronize inside a loop that launches on a
    non-default stream — a stream/event wait would not stall the whole
    device every iteration."""
    launches = [
        ev
        for ev in fn.events
        if ev.kind == "launch"
        and not ev.via_summary
        and ev.loops
        and ev.stream_default is False
    ]
    for ev in fn.events:
        if ev.kind != "sync" or ev.sync_kind != "device":
            continue
        if ev.via_summary or not ev.loops:
            continue
        innermost = ev.loops[-1]
        if not any(innermost in launch.loops for launch in launches):
            continue
        _add(
            out,
            1,
            make_finding(
                "advise.sync-in-loop",
                "hipDeviceSynchronize inside a loop that launches work "
                "on a non-default stream: the device-wide barrier stalls "
                "every queue each iteration",
                file=file,
                line=ev.line,
                function=ev.function,
                hint="wait on a hipEvent or hipStreamSynchronize for the "
                     "stream that carries the dependency",
            ),
        )


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def run_checks(
    analysis: ModuleAnalysis, config: Optional[MI300AConfig] = None
) -> List[Finding]:
    """All six checks over one module's dataflow results."""
    cfg = config or default_config()
    file = analysis.file
    if analysis.syntax_error is not None:
        line, msg = analysis.syntax_error
        return [
            make_finding(
                "advise.syntax-error", msg, file=file, line=line
            )
        ]
    out: _FindingMap = {}
    for fn in analysis.functions.values():
        for ev in fn.events:
            if ev.kind == "copy":
                _check_redundant_copy(ev, file, cfg, out)
            elif ev.kind == "launch":
                callee = analysis.functions.get(ev.function, fn)
                xnack_off = fn.xnack_off or callee.xnack_off
                _check_launch(ev, file, cfg, xnack_off, out)
            elif ev.kind == "alloc":
                _check_tlb_reach(ev, file, cfg, out)
        _check_sync_in_loop(fn, file, out)
    findings = [f for _, f in out.values()]
    findings.sort(key=lambda f: (f.file or "", f.line or 0, f.rule))
    return findings
