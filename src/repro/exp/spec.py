"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one experiment of the reproduction
— a paper figure, the application study, the UVM extension, or the
partition sweep — as data instead of code:

* a **parameter grid** (named axes, each a sequence of values) whose
  cross product defines the experiment's *points*;
* **fixed** keyword arguments merged into every point (problem sizes,
  pool capacity — the "runtime factory" knobs);
* a **runner**: a picklable module-level callable invoked once per point
  with the merged parameters, returning the point's result rows;
* the **columns** of the produced rows, and provenance (paper source).

Both the grid and the fixed kwargs have a ``--quick`` variant so one
spec serves the full paper-scale sweep and the fast smoke sweep.

Specs hash to a stable :meth:`ExperimentSpec.spec_hash`, recorded in
every per-experiment artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: A runner returns either a plain list of rows, or a mapping with
#: ``rows`` and an optional ``sim_time_ns`` (total simulated time the
#: point accounts for, used in the BENCH trajectory).
RunnerResult = Any
Runner = Callable[..., RunnerResult]


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for hashing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _freeze_grid(grid: Optional[Mapping[str, Sequence[Any]]]) -> Optional[
    Tuple[Tuple[str, Tuple[Any, ...]], ...]
]:
    if grid is None:
        return None
    return tuple((axis, tuple(values)) for axis, values in grid.items())


@dataclass(frozen=True)
class Point:
    """One executable point of an experiment's grid."""

    experiment: str
    index: int
    params: Dict[str, Any]

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}[{inner}]"


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment."""

    name: str
    title: str
    columns: Tuple[str, ...]
    runner: Runner
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    quick_grid: Optional[Tuple[Tuple[str, Tuple[Any, ...]], ...]] = None
    fixed: Tuple[Tuple[str, Any], ...] = ()
    quick_fixed: Optional[Tuple[Tuple[str, Any], ...]] = None
    source: str = ""
    description: str = ""

    @classmethod
    def define(
        cls,
        name: str,
        title: str,
        columns: Sequence[str],
        runner: Runner,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        quick_grid: Optional[Mapping[str, Sequence[Any]]] = None,
        fixed: Optional[Mapping[str, Any]] = None,
        quick_fixed: Optional[Mapping[str, Any]] = None,
        source: str = "",
        description: str = "",
    ) -> "ExperimentSpec":
        """Build a spec from plain mappings (the ergonomic constructor)."""
        return cls(
            name=name,
            title=title,
            columns=tuple(columns),
            runner=runner,
            grid=_freeze_grid(grid) or (),
            quick_grid=_freeze_grid(quick_grid),
            fixed=tuple((fixed or {}).items()),
            quick_fixed=(
                tuple(quick_fixed.items()) if quick_fixed is not None else None
            ),
            source=source,
            description=description,
        )

    # -- grid expansion -------------------------------------------------

    def active_grid(self, quick: bool = False) -> Tuple[
        Tuple[str, Tuple[Any, ...]], ...
    ]:
        if quick and self.quick_grid is not None:
            return self.quick_grid
        return self.grid

    def active_fixed(self, quick: bool = False) -> Dict[str, Any]:
        base = dict(self.fixed)
        if quick and self.quick_fixed is not None:
            base.update(dict(self.quick_fixed))
        return base

    def points(self, quick: bool = False) -> List[Point]:
        """Expand the grid's cross product into executable points."""
        grid = self.active_grid(quick)
        fixed = self.active_fixed(quick)
        axes = [axis for axis, _ in grid]
        value_lists = [values for _, values in grid]
        points: List[Point] = []
        for index, combo in enumerate(itertools.product(*value_lists)):
            params = dict(fixed)
            params.update(dict(zip(axes, combo)))
            points.append(Point(self.name, index, params))
        return points

    def point_count(self, quick: bool = False) -> int:
        count = 1
        for _, values in self.active_grid(quick):
            count *= len(values)
        return count

    def axes(self, quick: bool = False) -> List[str]:
        return [axis for axis, _ in self.active_grid(quick)]

    # -- identity -------------------------------------------------------

    def spec_hash(self) -> str:
        """Stable digest of every declarative field of the spec.

        Any change to the grid, fixed kwargs, columns, or runner identity
        produces a new hash, so an artifact names the spec it came from.
        """
        payload = {
            "name": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "grid": [[axis, list(values)] for axis, values in self.grid],
            "quick_grid": (
                None
                if self.quick_grid is None
                else [[axis, list(values)] for axis, values in self.quick_grid]
            ),
            "fixed": sorted((k, repr(v)) for k, v in self.fixed),
            "quick_fixed": (
                None
                if self.quick_fixed is None
                else sorted((k, repr(v)) for k, v in self.quick_fixed)
            ),
            "runner": f"{self.runner.__module__}.{self.runner.__qualname__}",
            "source": self.source,
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
