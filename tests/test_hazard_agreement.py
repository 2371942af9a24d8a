"""Static and dynamic verdicts agree on every hazard both analysers see.

Six hazards have a detector in the static engine (``repro lint`` /
``repro advise``, which read the source) and one in hipsan (which
replays a traced run).  For every subject — the 14 Rodinia app
variants and the eight ``examples/racey_port.py`` scenarios — each
paired hazard's static verdict must equal its dynamic verdict, except
where :data:`EXCEPTIONS` says why not.  A listed exception that stops
disagreeing fails too, so the list stays exact.

Four of the six share one rule code.  ``missing-sync`` (a warning)
covers three error-severity dynamic races, and ``redundant-copy`` (a
warning per copy) is ``duplicated-pair`` (info, per buffer pair) seen
from the source, so those two keep their own codes.

Static findings are attributed to the innermost function enclosing
their line.  An app variant reads its port's ``advise_ports`` methods
plus any helper outside every port (as ``repro advise --apps``
buckets); a racey_port scenario reads its own function.
"""

import ast
import importlib.util
import inspect
import pathlib
from typing import Dict, Set

import pytest

from repro.analyze import (
    SMALL_PARAMS,
    advise_file,
    analyze_app,
    lint_paths,
)
from repro.apps import ALL_APPS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RACEY_PORT = ROOT / "examples" / "racey_port.py"

#: Static hazard -> the dynamic codes that report the same hazard.
PAIRS: Dict[str, Set[str]] = {
    "double-free": {"double-free"},
    "use-after-free": {"use-after-free"},
    "free-in-flight": {"free-in-flight"},
    # The host-side races: a host access unordered with GPU work.
    "missing-sync": {"unsync-d2h-read", "cpu-gpu-race", "memcpy-race"},
    "fault-storm": {"fault-storm"},
    "redundant-copy": {"duplicated-pair"},
}

#: (subject, static hazard) -> why the two verdicts differ there.
EXCEPTIONS: Dict[tuple, str] = {
    ("nn/unified", "fault-storm"):
        "the static rule flags an on-demand buffer of unknown size; the "
        "run storms only from 1024 GPU-faulted pages, which the vector "
        "reaches at records=1<<20 but not at SMALL_PARAMS (1<<18)",
    ("nn/unified-hipalloc", "fault-storm"):
        "one _compute_unified serves both managed variants and the "
        "vector's allocator is a parameter there; a hipMalloc vector is "
        "GPU-mapped at allocation and never storms, at any size (both "
        "checked at records=1<<20 in test_advise_golden.py)",
    ("racey_port/use_after_free", "fault-storm"):
        "the stale kernel reads the freed 4 MiB buffer, whose pages "
        "fault again on the GPU (1024 of them); the static engine "
        "reports the use after free and predicts no storm for hipMalloc",
}

#: Dynamic codes with no static detector -> why the static engine
#: cannot see that hazard.
DYNAMIC_ONLY: Dict[str, str] = {
    "stream-race":
        "the static engine does not model stream ordering "
        "(racey_port/stream_race)",
    "xnack-fatal":
        "whether a GPU access faults fatally depends on the pages' "
        "mapping state at run time",
    "copy-dominated": "a share of the whole run's copy and kernel time",
    "dead-alloc": "needs every touch of the run, faults included",
}


def _static_by_function(path: pathlib.Path) -> Dict[str, Set[str]]:
    """Hazards the static engine reports, keyed by enclosing function."""
    defs = [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    out: Dict[str, Set[str]] = {}
    for finding in lint_paths([path]) + advise_file(path):
        enclosing = max(
            (d for d in defs if d.lineno <= finding.line <= d.end_lineno),
            key=lambda d: d.lineno,
        )
        out.setdefault(enclosing.name, set()).add(finding.rule)
    return out


def _load_racey_port():
    spec = importlib.util.spec_from_file_location("racey_port", RACEY_PORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _app_subjects():
    for name in sorted(ALL_APPS):
        for variant in ALL_APPS[name]().variants:
            yield f"{name}/{variant}"


def _racey_subjects():
    for scenario in _load_racey_port().SCENARIOS:
        yield f"racey_port/{scenario.__name__}"


SUBJECTS = list(_app_subjects()) + list(_racey_subjects())


def _verdicts(subject: str):
    """(static hazards, dynamic hazards) of one subject."""
    where, what = subject.split("/")
    if where == "racey_port":
        static = _static_by_function(RACEY_PORT).get(what, set())
        scenario = getattr(_load_racey_port(), what)
        return static, {f.rule for f in scenario()}
    app = ALL_APPS[where]
    ports = dict(app.advise_ports)
    methods = ports["explicit" if what == "explicit" else "managed"]
    shared = set().union(*ports.values())
    by_function = _static_by_function(pathlib.Path(inspect.getfile(app)))
    static = set().union(*(
        hazards for function, hazards in by_function.items()
        if function in methods or function not in shared
    ))
    dynamic = analyze_app(where, what, params=SMALL_PARAMS[where])
    return static, {f.rule for f in dynamic}


@pytest.mark.parametrize("subject", SUBJECTS)
def test_paired_verdicts_agree(subject):
    static, dynamic = _verdicts(subject)
    disagree = {
        hazard for hazard, codes in PAIRS.items()
        if (hazard in static) != bool(codes & dynamic)
    }
    expected = {h for s, h in EXCEPTIONS if s == subject}
    assert disagree == expected, (static, dynamic)
    unpaired = dynamic - set().union(*PAIRS.values())
    assert unpaired <= set(DYNAMIC_ONLY), unpaired


def test_subjects_cover_every_app_variant_and_scenario():
    assert len(SUBJECTS) == 14 + 8
    assert {s for s, _ in EXCEPTIONS} <= set(SUBJECTS)
    assert {h for _, h in EXCEPTIONS} <= set(PAIRS)
