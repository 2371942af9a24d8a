"""Unified experiment engine (Section "one engine, many figures").

``repro.exp`` owns experiment definition, execution, and artifacts:

* :mod:`repro.exp.spec` — declarative :class:`ExperimentSpec` (name,
  parameter grid, runtime kwargs, runner, output schema);
* :mod:`repro.exp.registry` — the central registry every consumer
  (CLI, benchmark fixtures, CI) resolves against;
* :mod:`repro.exp.cache` — on-disk point-result cache keyed by
  code version + spec hash + point parameters;
* :mod:`repro.exp.engine` — process-parallel execution and the
  artifacts: per-experiment JSON and CSV plus the
  ``BENCH_results.json`` perf trajectory;
* :mod:`repro.exp.experiments` — the registered experiments (every
  paper figure, the app study, the UVM extension, partitioning).

Typical use::

    from repro.exp import Engine

    engine = Engine(workers=4)
    result = engine.run("fig2", quick=True)
    for row in result.dicts():
        print(row)
"""

from .cache import ResultCache, code_version, default_cache_dir
from .engine import (
    BENCH_FILENAME,
    GOLDEN_PATH,
    SCHEMA_VERSION,
    Engine,
    ExperimentResult,
    PointResult,
    PointTimeoutError,
    bench_payload,
    check_golden,
    execute_point,
    update_golden,
    utc_timestamp,
    verify_bench,
    write_artifacts,
)
from .registry import (
    REGISTRY,
    UnknownExperimentError,
    all_specs,
    experiment_names,
    get_spec,
    register,
    temporarily_registered,
)
from .spec import ExperimentSpec, Point

# Importing the definitions module populates the registry.
from . import experiments as _experiments  # noqa: E402,F401

__all__ = [
    "BENCH_FILENAME",
    "Engine",
    "GOLDEN_PATH",
    "ExperimentResult",
    "ExperimentSpec",
    "Point",
    "PointResult",
    "PointTimeoutError",
    "REGISTRY",
    "ResultCache",
    "SCHEMA_VERSION",
    "UnknownExperimentError",
    "all_specs",
    "bench_payload",
    "check_golden",
    "code_version",
    "default_cache_dir",
    "execute_point",
    "experiment_names",
    "get_spec",
    "register",
    "temporarily_registered",
    "update_golden",
    "utc_timestamp",
    "verify_bench",
    "write_artifacts",
]
