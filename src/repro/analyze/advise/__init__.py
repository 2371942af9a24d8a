"""``repro.advise`` — the static analysis engine, with two rule selections.

A CFG + dataflow analysis over the simulator's Python/HIP-API surface.
One :class:`ModuleAnalysis` per file feeds both selections: the
advise checks find the *performance* anti-patterns the paper
measures, and the lint checks find HIP API misuse (lifetime,
synchronization, unknown or deprecated names).  Both depend on what
reaches a program point, on which path, and in what allocation state:

* :mod:`.cfg` — per-function control-flow graphs (branches, loops,
  try/finally, with) with dominators and loop regions;
* :mod:`.values` — the points-to lattice for buffer handles
  (allocator-family origins, symbolic sizes, symbolic parameters);
* :mod:`.dataflow` — the worklist fixpoint and event emission;
* :mod:`.summaries` — bottom-up interprocedural summaries, so a
  finding survives ``apps/common.py``-style helper refactors;
* :mod:`.checks` — the six paper-grounded advise checks;
* :mod:`.lint` — the lint rules (``repro lint``);
* :mod:`.sarif` / :mod:`.baseline` — SARIF 2.1.0 output and the CI
  suppression baseline.

``advise_apps`` analyzes the six Rodinia ports and buckets findings by
port model (explicit vs managed) using each app class's
``advise_ports`` map, which is how the golden tests assert "explicit
ports flag their copies, managed ports advise clean".
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ...hw.config import MI300AConfig
from ..findings import Finding, Severity
from .baseline import (
    fingerprint,
    load_baseline,
    new_findings,
    save_baseline,
)
from .checks import run_checks
from .lint import lint_checks
from .sarif import render_sarif, to_sarif, validate_sarif
from .summaries import ModuleAnalysis, analyze_module

__all__ = [
    "ModuleAnalysis",
    "advise_apps",
    "advise_file",
    "advise_paths",
    "advise_source",
    "analyze_module",
    "fingerprint",
    "lint_checks",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "new_findings",
    "port_is_clean",
    "render_sarif",
    "run_checks",
    "save_baseline",
    "to_sarif",
    "validate_sarif",
]


def _source_files(
    paths: Iterable[Union[Path, str]], exclude: Iterable[str] = ()
) -> List[Path]:
    """Every ``.py`` file under *paths* (files or directories), once.

    An *exclude* entry is a path suffix (``examples/racey_port.py``,
    optionally ``./``-prefixed) or a bare file name.
    """
    suffixes = [e.strip().removeprefix("./") for e in exclude]
    suffixes = [e for e in suffixes if e]
    files: List[Path] = []
    seen = set()
    for root in map(Path, paths):
        for file in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            resolved = file.resolve()
            if resolved in seen or any(
                resolved.as_posix().endswith("/" + e) or file.name == e
                for e in suffixes
            ):
                continue
            seen.add(resolved)
            files.append(file)
    return files


def _analyze_file(path: Union[Path, str]) -> ModuleAnalysis:
    path = Path(path)
    return analyze_module(path.read_text(encoding="utf-8"), str(path))


def advise_source(
    source: str,
    file: str = "<string>",
    config: Optional[MI300AConfig] = None,
) -> List[Finding]:
    """Advise one source string."""
    return run_checks(analyze_module(source, file), config)


def advise_file(
    path: Union[Path, str], config: Optional[MI300AConfig] = None
) -> List[Finding]:
    """Advise one file."""
    return run_checks(_analyze_file(path), config)


def advise_paths(
    paths: Sequence[Union[Path, str]],
    exclude: Iterable[str] = (),
    config: Optional[MI300AConfig] = None,
) -> List[Finding]:
    """Advise every ``.py`` file under the given files/directories."""
    return [
        finding
        for file in _source_files(paths, exclude)
        for finding in advise_file(file, config)
    ]


def lint_source(source: str, file: str = "<string>") -> List[Finding]:
    """Lint one source string."""
    return lint_checks(analyze_module(source, file))


def lint_file(path: Union[Path, str]) -> List[Finding]:
    """Lint one Python file."""
    return lint_checks(_analyze_file(path))


def lint_paths(
    paths: Iterable[Union[Path, str]], exclude: Iterable[str] = ()
) -> List[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    return [
        finding
        for file in _source_files(paths, exclude)
        for finding in lint_file(file)
    ]


def advise_apps(
    config: Optional[MI300AConfig] = None,
) -> Dict[str, Dict[str, List[Finding]]]:
    """Advise the six Rodinia ports, bucketed by port model.

    Returns ``{app_name: {"explicit": [...], "managed": [...]}}``.
    A finding lands in a bucket when its enclosing function is one of
    the bucket's ``advise_ports`` methods; findings in shared helpers
    land in every bucket.
    """
    from ...apps import ALL_APPS

    out: Dict[str, Dict[str, List[Finding]]] = {}
    for name, app_cls in sorted(ALL_APPS.items()):
        file = Path(inspect.getfile(app_cls))
        try:
            file = file.resolve().relative_to(Path.cwd().resolve())
        except ValueError:
            pass  # running from outside the repo: keep the absolute path
        findings = advise_file(file, config)
        ports: Dict[str, tuple] = dict(app_cls.advise_ports)
        buckets: Dict[str, List[Finding]] = {p: [] for p in ports}
        for finding in findings:
            method = (finding.function or "").rsplit(".", 1)[-1]
            matched = [p for p, ms in ports.items() if method in ms]
            for port in matched or list(ports):
                buckets[port].append(finding)
        out[name] = buckets
    return out


def port_is_clean(findings: Iterable[Finding]) -> bool:
    """The paper's porting bar: nothing above INFO."""
    return all(f.severity <= Severity.INFO for f in findings)
