"""The ``lint.*`` rule selection: HIP API misuse over the advise engine.

The lifetime and synchronization rules read the facts the dataflow
engine (:mod:`repro.analyze.advise.dataflow`) records from its
converged per-node states, so they follow the function's CFG: a free
on an early-returning branch spares the fall-through path, a sync on
one branch does not excuse the other, and freed names cross loop back
edges.  Only each function's own facts count; none are replayed from
callee summaries.

* ``lint.double-free`` / ``lint.use-after-free`` (errors) — a name
  freed, or passed to a call or dereferenced, while it may already
  have been freed;
* ``lint.free-before-sync`` (error) — a free while asynchronous work
  (``launchKernel`` / ``hipMemcpyAsync``) may still be in flight;
* ``lint.missing-sync`` (warning) — host access (``runCpuKernel``, or
  ``.np`` of an owned buffer) while asynchronous work may be pending;
* ``lint.leaked-alloc`` (warning) — a name bound to a literal allocator
  call that reaches the exit neither freed nor returned on any path,
  in a function that creates its own runtime (``make_runtime`` /
  ``make_apu``); a function handed a runtime borrows its arena and is
  exempt.  Ownership is by name: freeing an alias or an
  ``.allocation`` view does not release the owning name;
* ``lint.mixed-model`` (warning) — one name bound to allocations from
  both the explicit and the managed families.

The name rules — ``lint.unknown-api`` / ``lint.deprecated-api`` (both
errors) — are a small pass over the expressions of the same CFG nodes,
reachable or not; ``lint.syntax-error`` comes from the module parse.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding, make_finding
from .dataflow import Event, _Interp
from .summaries import ModuleAnalysis

#: CUDA-era / removed spellings and their modern replacements.
DEPRECATED_APIS: Dict[str, str] = {
    "hipMallocHost": "hipHostMalloc",
    "hipHostAlloc": "hipHostMalloc",
    "hipFreeHost": "hipFree",
    "hipMemcpyDtoH": "hipMemcpy",
    "hipMemcpyHtoD": "hipMemcpy",
    "hipMemcpyDtoD": "hipMemcpy",
    "hipStreamWaitEvent_spin": "hipStreamWaitEvent",
}

_HIP_NAME = re.compile(r"^hip[A-Z]\w*$")

#: One finding before rendering: (rule, message, hint, line).
_Rule = Tuple[str, str, Optional[str], Optional[int]]

#: Statement fields whose expressions the name rules inspect (header
#: nodes carry their expression directly).
_STMT_FIELDS = ("value", "test", "exc", "msg")


@functools.lru_cache(maxsize=1)
def known_hip_api() -> frozenset:
    """Every ``hipXxx`` name the simulated runtime exposes.

    Computed lazily so this module never imports the runtime at import
    time (the runtime imports :mod:`repro.analyze.events` for tracing).
    """
    from ...runtime import hip as hip_module
    from ...runtime.hip import HipRuntime

    names = {n for n in dir(HipRuntime) if n.startswith("hip")}
    names |= {n for n in dir(hip_module) if n.startswith("hip")}
    return frozenset(names)


# ----------------------------------------------------------------------
# Lifetime and synchronization rules over the engine's facts.
# ----------------------------------------------------------------------


def _lifetime_rule(ev: Event, owns_runtime: bool) -> Optional[_Rule]:
    """(rule, message, hint, line) for one lifetime fact, if it is a
    finding."""
    pending = f"asynchronous work from line {ev.pending_at} may still be " \
        "in flight"
    if ev.kind == "free" and ev.freed_at is not None:
        return ("lint.double-free",
                f"{ev.name!r} is freed twice (first at line {ev.freed_at})",
                "remove the second hipFree or rebind the name first", ev.line)
    if ev.kind == "free" and ev.pending_at is not None:
        return ("lint.free-before-sync", f"hipFree while {pending}",
                "synchronize before freeing buffers kernels or async "
                "copies may still touch", ev.line)
    if ev.kind == "use":
        return ("lint.use-after-free",
                f"{ev.name!r} is used after hipFree (freed at line "
                f"{ev.freed_at})",
                "free after the last use, or reallocate", ev.line)
    if ev.kind == "host" and ev.pending_at is not None and ev.name:
        return ("lint.missing-sync",
                f"host access to {ev.name!r}.np while {pending}",
                "synchronize before reading or writing the buffer on the "
                "host", ev.line)
    if ev.kind == "host" and ev.pending_at is not None:
        return ("lint.missing-sync", f"host compute while {pending}",
                "call hipDeviceSynchronize / hipStreamSynchronize before "
                "touching shared buffers on the host", ev.line)
    if ev.kind == "unfreed" and owns_runtime:
        return ("lint.leaked-alloc",
                f"allocation {ev.name!r} is never freed in this scope",
                f"add hipFree({ev.name}) (or return the buffer to the "
                "caller)", ev.line)
    clash = ev.prior_models & ({"explicit", "managed"} - {ev.model})
    if ev.kind == "bind" and ev.model in ("explicit", "managed") and clash:
        return ("lint.mixed-model",
                f"buffer {ev.name!r} is allocated through both the "
                f"{min(clash)} and {ev.model} memory models",
                "pick one model per logical buffer; mixing them hides "
                "copies and defeats the unified-memory port", ev.line)
    return None


# ----------------------------------------------------------------------
# Name rules.
# ----------------------------------------------------------------------


def _defined_names(tree: ast.Module) -> Set[str]:
    """Names the file itself defines, imports, or binds."""
    defined: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.alias):
            defined.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
    return defined


def _api_rules(expr: ast.expr, defined: Set[str]) -> Iterator[_Rule]:
    """(rule, message, hint, line) for unknown and deprecated HIP names
    in one expression."""
    def unknown(name: str) -> bool:
        return bool(_HIP_NAME.match(name)) and (
            name not in known_hip_api() and name not in defined
        )

    # Call targets are judged as calls; skip them as plain names so one
    # misuse yields one finding.
    targets = {
        id(node.func) for node in ast.walk(expr) if isinstance(node, ast.Call)
    }
    for node in ast.walk(expr):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Call):
            name = _Interp._call_name(node) or ""
            if name in DEPRECATED_APIS:
                yield ("lint.deprecated-api",
                       f"{name} is a deprecated API name",
                       f"use {DEPRECATED_APIS[name]} instead", line)
            elif unknown(name):
                yield ("lint.unknown-api",
                       f"{name} is not a HIP API this runtime provides",
                       "see dir(repro.runtime.HipRuntime) for the supported "
                       "surface", line)
        elif id(node) not in targets:
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load) else ""
            )
            if name not in DEPRECATED_APIS and unknown(name):
                yield ("lint.unknown-api",
                       f"{name} is not a HIP name this runtime provides",
                       None, line)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def lint_checks(analysis: ModuleAnalysis) -> List[Finding]:
    """Every ``lint.*`` rule over one module's analysis."""
    file = analysis.file
    if analysis.syntax_error is not None:
        line, msg = analysis.syntax_error
        return [
            make_finding("lint.syntax-error", f"cannot parse: {msg}",
                         file=file, line=line)
        ]
    assert analysis.tree is not None
    defined = _defined_names(analysis.tree)
    rules: List[_Rule] = []
    for fn in analysis.functions.values():
        assert fn.cfg is not None
        for node in fn.cfg.statement_nodes():
            exprs = [node.expr] if node.kind == "header" else [
                getattr(node.stmt, f, None) for f in _STMT_FIELDS
            ]
            for expr in exprs:
                if isinstance(expr, ast.expr):
                    rules.extend(_api_rules(expr, defined))
        rules.extend(filter(None, (
            _lifetime_rule(ev, fn.owns_runtime) for ev in fn.events
        )))
    unique = sorted(set(rules), key=lambda r: (r[3] or 0, r[0], r[1]))
    return [
        make_finding(rule, message, file=file, line=line, hint=hint)
        for rule, message, hint, line in unique
    ]
