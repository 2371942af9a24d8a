"""Machine-readable experiment reports (CSV / JSON export).

The benchmark harness prints the paper's rows for humans; this module
renders the same results as structured records so downstream tooling
(plotting scripts, regression dashboards) can consume them:

    from repro.report import collect

    report = collect("fig9", quick=True)
    report.to_csv("fig9.csv")
    report.to_json("fig9.json")

Collection is a thin veneer over the :mod:`repro.exp` registry — every
collector resolves its experiment there and runs it through the engine,
so the CSV export, the CLI tables, and the benchmark assertions all see
the same rows.  Exported JSON carries provenance (schema version, git
SHA, ISO timestamp) so result files are comparable across revisions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Schema version stamped into exported JSON (mirrors repro.exp).
SCHEMA_VERSION = "1"


@dataclass
class ExperimentReport:
    """One experiment's results as a column/row table."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    source: str = ""

    def add(self, *values: object) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, expected {len(self.columns)}"
            )
        self.rows.append(list(values))

    def to_csv(self, path: str | Path) -> Path:
        """Write the report as CSV; returns the path."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return path

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise to JSON (optionally writing to *path*).

        The payload includes provenance — ``schema_version``, ``git_sha``
        and an ISO ``timestamp`` — so exported results from different
        revisions can be compared honestly.
        """
        from .exp import code_version, utc_timestamp

        payload = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "git_sha": code_version(),
                "timestamp": utc_timestamp(),
                "experiment": self.experiment,
                "title": self.title,
                "source": self.source,
                "columns": self.columns,
                "rows": self.rows,
            },
            indent=2,
        )
        if path is not None:
            Path(path).write_text(payload)
        return payload

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


# ----------------------------------------------------------------------
# Registry-backed collection
# ----------------------------------------------------------------------


def collect(name: str, quick: bool = False, engine=None) -> ExperimentReport:
    """Run one registered experiment and wrap its rows as a report.

    A caller-supplied *engine* (e.g. one holding a shared cache) is
    reused; otherwise a serial, uncached engine is built on the spot.
    A failed point raises, carrying its parameters and traceback —
    collectors never return partial tables silently.
    """
    from .exp import Engine

    engine = engine or Engine(workers=1, cache=None)
    result = engine.run(name, quick=quick)
    if not result.ok:
        failure = result.failures[0]
        raise RuntimeError(
            f"experiment {name!r} failed at point "
            f"{failure.point.describe()}:\n{failure.error}"
        )
    report = ExperimentReport(
        experiment=result.spec.name,
        title=result.spec.title,
        columns=result.columns,
        source=result.spec.source,
    )
    report.rows.extend(result.rows)
    return report


def collect_table1(quick: bool = False) -> ExperimentReport:
    """Table 1: allocator capability matrix."""
    return collect("table1", quick)


def collect_fig4(quick: bool = False) -> ExperimentReport:
    """Fig. 4: isolated atomics."""
    return collect("fig4", quick)


def collect_fig6(quick: bool = False) -> ExperimentReport:
    """Fig. 6: allocation speed."""
    return collect("fig6", quick)


def collect_fig7(quick: bool = False) -> ExperimentReport:
    """Fig. 7: page-fault throughput."""
    return collect("fig7", quick)


def collect_fig8(quick: bool = False) -> ExperimentReport:
    """Fig. 8: single-fault latency."""
    return collect("fig8", quick)


def collect_uvm(quick: bool = True) -> ExperimentReport:
    """Extension: UPM vs UVM vs explicit."""
    return collect("uvm", quick)


#: The cheap model-backed collectors exported by default, keyed by
#: experiment id (a subset of the full repro.exp registry — the heavier
#: sweeps are reachable via `collect(name)` or `repro run`).
COLLECTORS = {
    "table1": collect_table1,
    "fig4": collect_fig4,
    "fig6": collect_fig6,
    "fig7": collect_fig7,
    "fig8": collect_fig8,
    "uvm": collect_uvm,
}


def collect_all(
    quick: bool = True, experiments: Optional[List[str]] = None
) -> Dict[str, ExperimentReport]:
    """Collect several experiments (default: the cheap set) in one call.

    A shared serial engine runs them all, so a caller-wide cache (when
    the engine default grows one) would be reused across experiments.
    """
    from .exp import Engine

    engine = Engine(workers=1, cache=None)
    names = experiments if experiments is not None else list(COLLECTORS)
    return {name: collect(name, quick, engine=engine) for name in names}


def export_all(
    directory: str | Path,
    quick: bool = True,
    experiments: Optional[List[str]] = None,
) -> List[Path]:
    """Export experiments (default: the cheap set) as CSV files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, report in collect_all(quick, experiments).items():
        paths.append(report.to_csv(directory / f"{name}.csv"))
    return paths
