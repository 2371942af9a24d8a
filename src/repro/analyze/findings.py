"""Shared finding model, rule registry, and reporters for the analyzers.

Both analyzers — the dynamic sanitizer
(:mod:`repro.analyze.sanitizer`) and the static engine
(:mod:`repro.analyze.advise`) with its ``lint.*`` and ``advise.*`` rule
selections — report through the same :class:`Finding` record, so the
CLI, the CI gates, and the tests can treat their output uniformly: a
rule id, a severity, a message, an optional source location, and an
optional fix hint.

Every rule id any pass may emit is declared up front in one
:data:`RULES` registry entry carrying the rule's severity, the paper
section it derives from, and a one-line doc.  The registry is the
single source of truth for severities (``make_finding`` refuses unknown
codes), keeps codes collision-free across the rule families, and feeds
the SARIF writer's ``tool.driver.rules`` table.
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

    code: str  #: full id, e.g. ``advise.redundant-copy``
    severity: Severity
    paper: str  #: paper anchor the rule encodes, e.g. ``Fig. 9``
    doc: str  #: one-line description (SARIF shortDescription)

    @property
    def tool(self) -> str:
        """The emitting pass (``lint`` / ``hipsan`` / ``advise``)."""
        return self.code.split(".", 1)[0]

    @property
    def base(self) -> str:
        """The code without the tool prefix (``redundant-copy``)."""
        return self.code.split(".", 1)[1]


#: Every rule any pass may emit, keyed by full code.
RULES: Dict[str, RuleSpec] = {}


def register_rule(
    code: str, severity: Severity, paper: str, doc: str
) -> RuleSpec:
    """Declare one rule.  Duplicate codes are rejected, and a base code
    shared between tools (``lint.double-free`` / ``hipsan.double-free``)
    must carry one severity everywhere — the collisions the ad-hoc
    per-tool tables used to allow."""
    if code in RULES:
        raise ValueError(f"duplicate rule code {code!r}")
    spec = RuleSpec(code, severity, paper, doc)
    for other in RULES.values():
        if other.base == spec.base and other.severity != severity:
            raise ValueError(
                f"severity collision on base code {spec.base!r}: "
                f"{other.code}={other.severity} vs {code}={severity}"
            )
    RULES[code] = spec
    return spec


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
# The registry: lint, sanitizer, and advise rules in one place.
# ----------------------------------------------------------------------

_E, _W, _I = Severity.ERROR, Severity.WARNING, Severity.INFO

# Static engine, lint selection (repro.analyze.advise.lint).
register_rule("lint.syntax-error", _E, "-", "source file does not parse")
register_rule("lint.unknown-api", _E, "Table 1",
              "hipXxx name the simulated runtime does not provide")
register_rule("lint.deprecated-api", _E, "Table 1",
              "CUDA-era spelling with a modern replacement")
register_rule("lint.double-free", _E, "Section 5.1",
              "the same handle passed to hipFree twice")
register_rule("lint.use-after-free", _E, "Section 5.1",
              "a freed handle used afterwards")
register_rule("lint.free-before-sync", _E, "Section 3.3",
              "hipFree while asynchronous work may still be in flight")
register_rule("lint.missing-sync", _W, "Section 3.3",
              "host access while asynchronous work is pending")
register_rule("lint.leaked-alloc", _W, "Section 5.1",
              "allocation neither freed nor returned by its owner")
register_rule("lint.mixed-model", _W, "Section 3.4",
              "one buffer name rebound across explicit and managed "
              "allocators")

# Dynamic sanitizer (repro.analyze.sanitizer).
register_rule("hipsan.cpu-gpu-race", _E, "Section 3.3",
              "host and GPU touch the same unified bytes unordered")
register_rule("hipsan.unsync-d2h-read", _E, "Section 3.3",
              "host reads bytes a still-pending GPU kernel writes")
register_rule("hipsan.stream-race", _E, "Section 3.3",
              "two streams touch the same bytes unordered")
register_rule("hipsan.memcpy-race", _E, "Section 3.3",
              "an access races an in-flight hipMemcpyAsync")
register_rule("hipsan.use-after-free", _E, "Section 5.1",
              "a buffer touched after hipFree")
register_rule("hipsan.free-in-flight", _E, "Section 5.1",
              "hipFree while work on the buffer may still be executing")
register_rule("hipsan.double-free", _E, "Section 5.1",
              "the same buffer freed twice through hipFree")
register_rule("hipsan.xnack-fatal", _E, "Table 1",
              "GPU access that faults with XNACK disabled")
register_rule("hipsan.fault-storm", _I, "Figs. 7-8 / Section 5.2",
              "a buffer served a large number of GPU page faults")
register_rule("hipsan.duplicated-pair", _I, "Section 3.3 / Fig. 11",
              "a copy joins a host and a device allocation of equal "
              "size that one unified allocation replaces")
register_rule("hipsan.copy-dominated", _I, "Section 3.3 / Listing 2",
              "copies take more than a fifth of copy plus GPU-kernel "
              "time")
register_rule("hipsan.dead-alloc", _I, "Fig. 11",
              "a buffer no copy, kernel or page fault ever touches")

# Static engine, advise selection (repro.analyze.advise.checks).
register_rule("advise.syntax-error", _E, "-",
              "source file does not parse")
register_rule("advise.redundant-copy", _W, "Section 4.3 / Fig. 3",
              "hipMemcpy between coherent UPM buffers is pure overhead "
              "on MI300A")
register_rule("advise.first-touch", _W, "Fig. 10",
              "CPU first-touch places pages the GPU later streams "
              "through the CPU fault path")
register_rule("advise.fault-storm", _I, "Figs. 7-8 / Section 5.2",
              "a kernel's first touch of an on-demand allocation "
              "predicts a GPU page-fault storm under XNACK")
register_rule("advise.tlb-reach", _W, "Fig. 9 / Section 5.3",
              "allocation exceeds the modeled GPU TLB reach for its "
              "allocator's fragment size")
register_rule("advise.mixed-alloc", _W, "Section 3.4 / Table 1",
              "explicit and managed allocations flow into one kernel "
              "argument on different paths")
register_rule("advise.sync-in-loop", _W, "Section 3.3",
              "device-wide synchronization inside a loop where a "
              "stream event suffices")


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
