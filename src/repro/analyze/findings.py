"""Shared finding model, rule registry, and reporters for the analyzers.

Both analyzers — the dynamic sanitizer
(:mod:`repro.analyze.sanitizer`) and the static engine
(:mod:`repro.analyze.advise`) with its lint and advise rule selections
— report through the same :class:`Finding` record, so the CLI, the CI
gates, and the tests can treat their output uniformly: a rule id, a
severity, a message, an optional source location, and an optional fix
hint.

Every rule id any pass may emit is declared up front in one
:data:`RULES` registry entry carrying the rule's severity, the paper
section it derives from, and a one-line doc.  A code names one hazard,
whichever analyzer detects it: ``double-free``, ``use-after-free``,
``free-in-flight`` and ``fault-storm`` each have a static and a dynamic
detector behind one entry.  The registry is the single source of truth
for severities (``make_finding`` refuses unknown codes) and feeds the
SARIF writer's ``tool.driver.rules`` table.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


class Severity(enum.IntEnum):
    """How bad a finding is; the CI gate fails on ERROR only."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` string for this severity."""
        return {"INFO": "note", "WARNING": "warning", "ERROR": "error"}[
            self.name
        ]


@dataclass(frozen=True)
class RuleSpec:
    """Registry entry for one rule a pass may emit."""

    code: str  #: the hazard's id, e.g. ``redundant-copy``
    severity: Severity
    paper: str  #: paper anchor the rule encodes, e.g. ``Fig. 9``
    doc: str  #: one-line description (SARIF shortDescription)


#: Every rule any pass may emit, keyed by code.
RULES: Dict[str, RuleSpec] = {}


def register_rule(code: str, severity: Severity, paper: str, doc: str) -> None:
    """Declare one rule; a code is registered once."""
    if code in RULES:
        raise ValueError(f"duplicate rule code {code!r}")
    RULES[code] = RuleSpec(code, severity, paper, doc)


def rule_spec(code: str) -> RuleSpec:
    """Look up one rule; unknown codes are a programming error."""
    try:
        return RULES[code]
    except KeyError:
        raise KeyError(
            f"rule {code!r} is not registered in repro.analyze.findings"
        ) from None


def all_rules() -> List[RuleSpec]:
    """Every registered rule, sorted by code (for SARIF rule tables)."""
    return sorted(RULES.values(), key=lambda r: r.code)


# ----------------------------------------------------------------------
# The registry: one entry per hazard.
# ----------------------------------------------------------------------

_E, _W, _I = Severity.ERROR, Severity.WARNING, Severity.INFO

# Both analyzers: the static engine's lint selection reads the source,
# hipsan watches a traced run.
register_rule("double-free", _E, "Section 5.1",
              "the same handle freed twice through hipFree")
register_rule("use-after-free", _E, "Section 5.1",
              "a buffer used after hipFree")
register_rule("free-in-flight", _E, "Section 3.3 / Section 5.1",
              "hipFree while asynchronous work on the buffer may still "
              "be executing")
register_rule("fault-storm", _I, "Figs. 7-8 / Section 5.2",
              "a GPU first touch of on-demand memory faults a large "
              "number of pages under XNACK (predicted statically, "
              "counted dynamically)")

# Static engine (repro.analyze.advise): lint selection.
register_rule("syntax-error", _E, "-", "source file does not parse")
register_rule("unknown-api", _E, "Table 1",
              "hipXxx name the simulated runtime does not provide")
register_rule("deprecated-api", _E, "Table 1",
              "CUDA-era spelling with a modern replacement")
register_rule("missing-sync", _W, "Section 3.3",
              "host access while asynchronous work is pending")
register_rule("leaked-alloc", _W, "Section 5.1",
              "allocation neither freed nor returned by its owner")
register_rule("mixed-model", _W, "Section 3.4",
              "one buffer name rebound across explicit and managed "
              "allocators")

# Static engine: advise selection (repro.analyze.advise.checks).
register_rule("redundant-copy", _W, "Section 4.3 / Fig. 3",
              "hipMemcpy between coherent UPM buffers is pure overhead "
              "on MI300A")
register_rule("first-touch", _W, "Fig. 10",
              "CPU first-touch places pages the GPU later streams "
              "through the CPU fault path")
register_rule("tlb-reach", _W, "Fig. 9 / Section 5.3",
              "allocation exceeds the modeled GPU TLB reach for its "
              "allocator's fragment size")
register_rule("mixed-alloc", _W, "Section 3.4 / Table 1",
              "explicit and managed allocations flow into one kernel "
              "argument on different paths")
register_rule("sync-in-loop", _W, "Section 3.3",
              "device-wide synchronization inside a loop where a "
              "stream event suffices")

# Dynamic sanitizer (repro.analyze.sanitizer).
register_rule("cpu-gpu-race", _E, "Section 3.3",
              "host and GPU touch the same unified bytes unordered")
register_rule("unsync-d2h-read", _E, "Section 3.3",
              "host reads bytes a still-pending GPU kernel writes")
register_rule("stream-race", _E, "Section 3.3",
              "two streams touch the same bytes unordered")
register_rule("memcpy-race", _E, "Section 3.3",
              "an access races an in-flight hipMemcpyAsync")
register_rule("xnack-fatal", _E, "Table 1",
              "GPU access that faults with XNACK disabled")
register_rule("duplicated-pair", _I, "Section 3.3 / Fig. 11",
              "a copy joins a host and a device allocation of equal "
              "size that one unified allocation replaces")
register_rule("copy-dominated", _I, "Section 3.3 / Listing 2",
              "copies take more than a fifth of copy plus GPU-kernel "
              "time")
register_rule("dead-alloc", _I, "Fig. 11",
              "a buffer no copy, kernel or page fault ever touches")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from any analysis pass."""

    rule: str
    severity: Severity
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    hint: Optional[str] = None
    #: Enclosing function (``Class.method``) for static findings; used
    #: by the per-port bucketing of ``repro advise --apps`` and by the
    #: baseline fingerprints, which must survive line-number drift.
    function: Optional[str] = None
    #: Estimated simulated cost of the anti-pattern (ns), when the
    #: advisor could price it from the calibrated ``repro.hw`` model.
    cost_ns: Optional[float] = None

    @property
    def location(self) -> str:
        """``file:line`` when known, else an empty string."""
        if self.file is None:
            return ""
        if self.line is None:
            return self.file
        return f"{self.file}:{self.line}"


def make_finding(
    code: str,
    message: str,
    *,
    file: Optional[str] = None,
    line: Optional[int] = None,
    hint: Optional[str] = None,
    function: Optional[str] = None,
    cost_ns: Optional[float] = None,
) -> Finding:
    """Build a finding whose severity comes from the rule registry."""
    spec = rule_spec(code)
    return Finding(
        rule=code,
        severity=spec.severity,
        message=message,
        file=file,
        line=line,
        hint=hint,
        function=function,
        cost_ns=cost_ns,
    )


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report, one finding per paragraph."""
    lines: List[str] = []
    count = 0
    for f in sorted(findings, key=lambda f: (-int(f.severity), f.rule)):
        count += 1
        loc = f" [{f.location}]" if f.location else ""
        lines.append(f"{f.severity}: {f.rule}{loc}: {f.message}")
        if f.cost_ns:
            lines.append(f"    estimated cost: {f.cost_ns / 1e6:.3g} ms "
                         "(simulated)")
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    lines.append(f"{count} finding(s)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (a JSON array)."""
    return json.dumps(
        [
            {
                "rule": f.rule,
                "severity": str(f.severity),
                "message": f.message,
                "file": f.file,
                "line": f.line,
                "hint": f.hint,
                "function": f.function,
                "cost_ns": f.cost_ns,
            }
            for f in findings
        ],
        indent=2,
    )


def has_errors(findings: Iterable[Finding]) -> bool:
    """True when at least one finding is ERROR severity (the CI gate)."""
    return any(f.severity >= Severity.ERROR for f in findings)
