"""Experiment execution engine.

The engine owns the loop every per-figure driver used to hand-roll:
expand a spec's grid into points, execute every point — in-process for
``workers <= 1``, through a ``ProcessPoolExecutor`` otherwise (every
point builds its own simulated node, so sweeps parallelise trivially) —
and assemble per-experiment results plus the top-level
``BENCH_results.json`` perf trajectory.

Failures never abort a sweep: a raising point is captured with its
parameters and traceback in :attr:`PointResult.error`, surfaced through
:attr:`ExperimentResult.failures`, and turned into a non-zero exit
status by the CLI.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import signal
import subprocess
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .registry import get_spec
from .spec import ExperimentSpec, Point, canonical_json

#: Version of the artifact schema (per-experiment JSON and
#: BENCH_results.json).  Bump on any incompatible layout change.
SCHEMA_VERSION = "2"

#: Name of the top-level perf-trajectory artifact.
BENCH_FILENAME = "BENCH_results.json"

#: Golden row digests (repository root) and the numpy series they need.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "golden_rows.json"
NUMPY_SERIES = ".".join(np.__version__.split(".")[:2])


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """Artifact provenance: the git commit SHA when running from a
    checkout, else the package version."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        from importlib.metadata import version

        return f"repro-{version('repro')}"
    except Exception:
        return "repro-unknown"


def utc_timestamp() -> str:
    """Provenance timestamp (ISO 8601, UTC)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _normalize_payload(raw: Any) -> Dict[str, Any]:
    """Coerce a runner's return value into the canonical payload.

    The payload is round-tripped through JSON immediately, so numpy
    scalars and tuples become plain JSON values: serial and pool rows
    compare equal, and their golden digests are stable.
    """
    if isinstance(raw, Mapping):
        rows = raw.get("rows", [])
        sim_time_ns = float(raw.get("sim_time_ns", 0.0))
    else:
        rows, sim_time_ns = raw, 0.0
    payload = {"rows": rows, "sim_time_ns": sim_time_ns}
    return json.loads(json.dumps(payload))


class PointTimeoutError(RuntimeError):
    """A point exceeded its per-point wall-clock budget."""


@contextlib.contextmanager
def _point_alarm(timeout_s: Optional[float]):
    """Bound one point's wall time with ``SIGALRM`` where possible.

    A no-op when no budget is set, off the main thread, or on platforms
    without ``SIGALRM`` — the timeout is best-effort hardening, never a
    portability constraint.
    """
    usable = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise PointTimeoutError(
            f"point exceeded the {timeout_s:g}s per-point budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_point(
    name: str,
    params: Dict[str, Any],
    timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, Any], float]:
    """Run one point in the current process (also the pool entry point).

    Returns ``(payload, wall_seconds)``; a raising runner yields an
    ``{"error": traceback, "params": ...}`` payload so failures survive
    the trip back from a worker process with the point that caused them.
    ``KeyboardInterrupt`` and ``SystemExit`` propagate — an operator's
    Ctrl-C must stop the sweep, not become one more failed point.
    """
    start = time.perf_counter()
    try:
        with _point_alarm(timeout_s):
            spec = get_spec(name)
            payload = _normalize_payload(spec.runner(**params))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:  # noqa: BLE001 — the traceback is the product
        payload = {"error": traceback.format_exc(), "params": dict(params)}
    return payload, time.perf_counter() - start


@dataclass
class PointResult:
    """Outcome of one executed point."""

    point: Point
    rows: List[List[Any]] = field(default_factory=list)
    sim_time_ns: float = 0.0
    wall_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExperimentResult:
    """One experiment's assembled sweep result."""

    spec: ExperimentSpec
    quick: bool
    points: List[PointResult] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def columns(self) -> List[str]:
        return list(self.spec.columns)

    @property
    def rows(self) -> List[List[Any]]:
        """All result rows, in point order (failed points contribute none)."""
        out: List[List[Any]] = []
        for p in self.points:
            out.extend(p.rows)
        return out

    def dicts(self) -> List[Dict[str, Any]]:
        """Rows as column-keyed dicts (the benchmark-fixture view)."""
        columns = self.spec.columns
        return [dict(zip(columns, row)) for row in self.rows]

    @property
    def failures(self) -> List[PointResult]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def sim_time_ns(self) -> float:
        return sum(p.sim_time_ns for p in self.points)

    def to_payload(self) -> Dict[str, Any]:
        """The per-experiment JSON artifact."""
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.spec.name,
            "title": self.spec.title,
            "source": self.spec.source,
            "git_sha": code_version(),
            "timestamp": utc_timestamp(),
            "quick": self.quick,
            "spec_hash": self.spec.spec_hash(),
            "columns": self.columns,
            "rows": self.rows,
            "points": len(self.points),
            "failed_points": len(self.failures),
            "failures": [
                {"params": p.point.params, "traceback": p.error}
                for p in self.failures
            ],
            "wall_s": round(self.wall_s, 6),
            "sim_time_s": self.sim_time_ns / 1e9,
        }


class Engine:
    """Runs registered experiments: grid -> points -> results.

    Parameters
    ----------
    workers:
        ``<= 1`` runs points in-process (deterministic, debuggable);
        ``N > 1`` fans points out over N worker processes.
    point_timeout_s:
        Optional wall-clock budget per point; an overrunning point is
        recorded as a failure (``PointTimeoutError`` traceback) instead
        of hanging the sweep.
    max_point_retries:
        How many times a point lost to a worker-process crash is
        requeued onto a fresh pool before it is recorded as failed.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        point_timeout_s: Optional[float] = None,
        max_point_retries: int = 2,
        # Ignored: only perfbench/run.py still passes cache= and version=.
        cache: Any = None,
        version: Any = None,
    ):
        self.workers = max(1, int(workers))
        self.point_timeout_s = point_timeout_s
        self.max_point_retries = max(0, int(max_point_retries))

    # -- public API -----------------------------------------------------

    def run(
        self,
        name: str,
        quick: bool = False,
        only: Optional[Mapping[str, Any]] = None,
    ) -> ExperimentResult:
        """Run one experiment; *only* filters points by parameter values."""
        return self.run_many([name], quick=quick, only=only)[name]

    def run_many(
        self,
        names: Sequence[str],
        quick: bool = False,
        only: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, ExperimentResult]:
        """Run several experiments as one load-balanced point pool."""
        specs = [get_spec(name) for name in dict.fromkeys(names)]
        plan: List[Tuple[ExperimentSpec, Point]] = []
        for spec in specs:
            for point in spec.points(quick):
                if only and any(
                    axis in point.params and point.params[axis] != value
                    for axis, value in only.items()
                ):
                    continue
                plan.append((spec, point))

        by_name: Dict[str, List[PointResult]] = {s.name: [] for s in specs}
        for (spec, point), (payload, wall_s) in zip(plan, self._execute(plan)):
            by_name[spec.name].append(
                self._to_point_result(point, payload, wall_s)
            )
        return {
            spec.name: ExperimentResult(
                spec=spec, quick=quick, points=by_name[spec.name],
                wall_s=sum(p.wall_s for p in by_name[spec.name]),
            )
            for spec in specs
        }

    # -- internals ------------------------------------------------------

    @staticmethod
    def _to_point_result(
        point: Point, payload: Dict[str, Any], wall_s: float
    ) -> PointResult:
        if "error" in payload:
            return PointResult(point=point, wall_s=wall_s, error=payload["error"])
        return PointResult(
            point=point,
            rows=payload.get("rows", []),
            sim_time_ns=float(payload.get("sim_time_ns", 0.0)),
            wall_s=wall_s,
        )

    def _execute(
        self, pending: Sequence[Tuple[ExperimentSpec, Point]]
    ) -> Iterable[Tuple[Dict[str, Any], float]]:
        if self.workers <= 1 or len(pending) <= 1:
            return [
                execute_point(spec.name, point.params, self.point_timeout_s)
                for spec, point in pending
            ]
        return self._execute_pool(pending)

    def _execute_pool(
        self, pending: Sequence[Tuple[ExperimentSpec, Point]]
    ) -> List[Tuple[Dict[str, Any], float]]:
        """Pool execution with crash containment.

        A worker that dies (OOM-killed, segfaulting extension, ...)
        breaks the whole ``ProcessPoolExecutor``: every outstanding
        future raises ``BrokenProcessPool``, and so does every later
        ``submit``.  Those points, sent or not, are requeued onto a
        fresh pool — innocent points complete on the next round, while
        a point that keeps killing its worker exhausts
        ``max_point_retries`` and is recorded as a failure with its
        parameters, never aborting the sweep.
        """
        context = _pool_context()
        results: List[Optional[Tuple[Dict[str, Any], float]]] = (
            [None] * len(pending)
        )
        crashes = [0] * len(pending)
        queue = list(range(len(pending)))
        requeue: List[int] = []

        def lost(idx: int, crash: BaseException) -> None:
            crashes[idx] += 1
            if crashes[idx] <= self.max_point_retries:
                requeue.append(idx)
                return
            results[idx] = (
                {
                    "error": (
                        "worker process crashed "
                        f"({crash or 'pool broken'}); gave "
                        f"up after {crashes[idx]} attempts"
                    ),
                    "params": dict(pending[idx][1].params),
                },
                0.0,
            )

        while queue:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(queue)), mp_context=context
            ) as pool:
                futures = {}
                for pos, idx in enumerate(queue):
                    try:
                        futures[idx] = pool.submit(
                            execute_point,
                            pending[idx][0].name,
                            pending[idx][1].params,
                            self.point_timeout_s,
                        )
                    except BrokenProcessPool as crash:
                        # A worker died while points were still being
                        # submitted: the rest never reached the pool.
                        for unsent in queue[pos:]:
                            lost(unsent, crash)
                        break
                for idx, future in futures.items():
                    try:
                        results[idx] = future.result()
                    except BrokenProcessPool as crash:
                        lost(idx, crash)
            queue = requeue[:]
            requeue.clear()
        return [result for result in results if result is not None]


def _pool_context():
    """Prefer fork on POSIX: workers inherit the loaded registry and the
    imported simulator for free; fall back to the platform default."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def bench_payload(
    results: Mapping[str, ExperimentResult],
    workers: int,
    wall_s: float,
    quick: bool,
) -> Dict[str, Any]:
    """Assemble the ``BENCH_results.json`` perf-trajectory payload."""
    experiments = {}
    for name, result in results.items():
        experiments[name] = {
            "title": result.spec.title,
            "source": result.spec.source,
            "points": len(result.points),
            "failed_points": len(result.failures),
            "rows": len(result.rows),
            "wall_s": round(result.wall_s, 6),
            "sim_time_s": result.sim_time_ns / 1e9,
            "ok": result.ok,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-bench",
        "git_sha": code_version(),
        "timestamp": utc_timestamp(),
        "quick": quick,
        "workers": workers,
        "wall_s": round(wall_s, 6),
        "experiments": experiments,
    }


def write_artifacts(
    results: Mapping[str, ExperimentResult],
    out_dir: Path | str,
    workers: int = 1,
    wall_s: float = 0.0,
    quick: bool = False,
) -> Path:
    """Write per-experiment JSON and CSV files plus ``BENCH_results.json``.

    Each ``<name>.csv`` holds the experiment's columns as its header row,
    then its rows: the plotting view of the same data as the JSON.
    Returns the path of the top-level BENCH artifact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        (out / f"{name}.json").write_text(
            json.dumps(result.to_payload(), indent=2)
        )
        with (out / f"{name}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(result.columns)
            writer.writerows(result.rows)
    bench = out / BENCH_FILENAME
    bench.write_text(
        json.dumps(bench_payload(results, workers, wall_s, quick), indent=2)
    )
    return bench


def verify_bench(
    payload: Mapping[str, Any] | Path | str,
    expected: Optional[Iterable[str]] = None,
) -> List[str]:
    """Validate a BENCH payload (or file); returns a list of problems.

    Checks the schema version, provenance fields, that every expected
    experiment (default: the full registry) is present, and that none
    failed.  An empty return value means the artifact is sound.
    """
    from .registry import experiment_names

    if not isinstance(payload, Mapping):
        try:
            payload = json.loads(Path(payload).read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable BENCH file: {exc}"]
    problems = []
    if payload.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version {payload.get('schema_version')!r} != "
            f"{SCHEMA_VERSION!r}"
        )
    for fld in ("git_sha", "timestamp"):
        if not payload.get(fld):
            problems.append(f"missing provenance field {fld!r}")
    experiments = payload.get("experiments")
    if not isinstance(experiments, Mapping):
        problems.append("missing experiments section")
        return problems
    names = list(expected) if expected is not None else experiment_names()
    for name in names:
        if name not in experiments:
            problems.append(f"experiment {name!r} missing from BENCH output")
        elif not experiments[name].get("ok", False):
            problems.append(f"experiment {name!r} recorded a failure")
    return problems


def golden_digests(results: Mapping[str, ExperimentResult]) -> Dict[str, Any]:
    """SHA-256 of each experiment's canonical JSON rows, and of each point's."""
    def digest(rows: Any) -> str:
        return hashlib.sha256(canonical_json(rows).encode()).hexdigest()

    return {
        name: {"rows": digest(r.rows), "points": [digest(p.rows) for p in r.points]}
        for name, r in results.items()
    }


def verify_golden(
    results: Mapping[str, ExperimentResult], golden: Mapping[str, Any]
) -> List[str]:
    """Compare *results* with golden digests; names every drifted point."""
    problems = []
    for name, digests in golden_digests(results).items():
        want = golden.get(name)
        if want is None:
            problems.append(f"{name}: no golden digest")
        elif digests["rows"] != want["rows"]:
            points = results[name].points
            drifted = [
                p.point.describe()
                for p, got, expect in zip(points, digests["points"], want["points"])
                if got != expect
            ]
            if len(points) != len(want["points"]):
                drifted.append(
                    f"{len(points)} points, golden has {len(want['points'])}"
                )
            problems.append(f"{name}: rows drifted at " + "; ".join(drifted))
    return problems


def check_golden(quick: bool = False) -> List[str]:
    """Rerun every experiment's grid and compare its rows with GOLDEN_PATH."""
    from .registry import experiment_names

    golden = json.loads(GOLDEN_PATH.read_text())
    results = Engine().run_many(experiment_names(), quick=quick)
    problems = verify_golden(results, golden["quick" if quick else "full"])
    if problems and golden["numpy"] != NUMPY_SERIES:
        problems.insert(0, f"numpy version mismatch: digests made with numpy "
                        f"{golden['numpy']}, this is numpy {NUMPY_SERIES}")
    return problems


def update_golden() -> None:
    """Recompute the quick and full golden digests of every experiment."""
    from .registry import experiment_names

    engine = Engine()
    golden: Dict[str, Any] = {"numpy": NUMPY_SERIES}
    for grid, quick in (("quick", True), ("full", False)):
        golden[grid] = golden_digests(engine.run_many(experiment_names(), quick=quick))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
