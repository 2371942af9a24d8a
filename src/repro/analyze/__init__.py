"""Correctness and performance tooling for the simulated HIP runtime.

Two analyzers over programs written against :mod:`repro.runtime`:

* **hipsan**, a dynamic happens-before sanitizer
  (:mod:`repro.analyze.sanitizer`): build the runtime with
  ``make_runtime(..., trace=True)``, run the program, then call
  :func:`analyze_runtime` (or ``python -m repro analyze``) to check the
  event log for CPU↔GPU races on unified pages, unsynchronized D2H
  reads, races with in-flight ``hipMemcpyAsync``, lifetime violations
  through ``hipFree``, and XNACK-off fatal accesses; at info severity
  it also reports GPU fault storms and what a unified port removes —
  duplicated host/device pairs, copy-dominated runs, dead allocations.

* one **static analysis engine** (:mod:`repro.analyze.advise`): a
  per-function CFG + dataflow fixpoint with two rule selections over
  the same analysis of each file.

  - ``python -m repro lint <paths>`` (the ``lint.*`` rules) flags
    missing synchronization, use-after-free, double and unsynchronized
    frees, leaked allocations, mixed explicit/managed usage and
    deprecated/unknown API names without running anything.
  - ``python -m repro advise <paths|--apps>`` (the ``advise.*`` rules)
    prices the paper's UPM anti-patterns — redundant copies,
    first-touch placement, predicted fault storms, TLB reach, mixed
    allocation models, device syncs in loops — with SARIF 2.1.0 output
    and a CI baseline.

Both report :class:`~repro.analyze.findings.Finding` records
whose severities come from the shared rule registry
(:data:`~repro.analyze.findings.RULES`), rendered by the common
text/JSON/SARIF reporters.
"""

from .advise import (
    advise_apps,
    advise_file,
    advise_paths,
    advise_source,
    fingerprint,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    new_findings,
    port_is_clean,
    render_sarif,
    save_baseline,
    to_sarif,
    validate_sarif,
)
from .events import EventLog, RuntimeEvent
from .findings import (
    RULES,
    Finding,
    RuleSpec,
    Severity,
    all_rules,
    has_errors,
    make_finding,
    render_json,
    render_text,
    rule_spec,
)
from .hb import VectorClock, ordered_before
from .sanitizer import (
    GPU_FAULT_STORM_PAGES,
    SMALL_PARAMS,
    Sanitizer,
    analyze_app,
    analyze_log,
    analyze_runtime,
)

__all__ = [
    "EventLog",
    "Finding",
    "GPU_FAULT_STORM_PAGES",
    "RULES",
    "RuleSpec",
    "RuntimeEvent",
    "SMALL_PARAMS",
    "Sanitizer",
    "Severity",
    "VectorClock",
    "advise_apps",
    "advise_file",
    "advise_paths",
    "advise_source",
    "all_rules",
    "analyze_app",
    "analyze_log",
    "analyze_runtime",
    "fingerprint",
    "has_errors",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "make_finding",
    "new_findings",
    "ordered_before",
    "port_is_clean",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_spec",
    "save_baseline",
    "to_sarif",
    "validate_sarif",
]
