"""Table 2 — overview of the experimental method.

Regenerates the methodology inventory: every benchmark, profiling tool,
and HPC workload of the paper, mapped to the module in this repository
that implements it.  The assertions verify the inventory is *live* —
each benchmark module imports and is the runner of its registered
experiments, and each tool and workload exposes its expected entry
point.
"""

import importlib

import pytest

from conftest import print_table
from repro.exp import get_spec

BENCHMARKS = [
    ("Memory latency", "multichase", "repro.bench.multichase", ("fig2",)),
    ("Memory bandwidth", "STREAM", "repro.bench.stream",
     ("fig3", "fig9", "fig10")),
    ("Legacy transfer", "hip-bandwidth", "repro.bench.hipbandwidth",
     ("memcpy",)),
    ("Coherence overhead", "custom", "repro.bench.histogram",
     ("fig4", "fig5")),
    ("Allocation speed", "custom", "repro.bench.allocspeed", ("fig6",)),
    ("Page fault overhead", "custom", "repro.bench.pagefault",
     ("fig7", "fig8")),
]

PROFILING = [
    ("Memory usage", "libnuma", "repro.profiling.memusage",
     "MemoryUsageProfiler"),
    ("GPU fragment size", "rocprofv3", "repro.profiling.rocprof", "RocProf"),
    ("CPU allocation size", "perf", "repro.profiling.perfstat", "PerfStat"),
]

WORKLOADS = [
    ("backprop", "repro.apps.backprop", "Backprop"),
    ("dwt2d", "repro.apps.dwt2d", "Dwt2d"),
    ("heartwall", "repro.apps.heartwall", "Heartwall"),
    ("hotspot", "repro.apps.hotspot", "Hotspot"),
    ("nn", "repro.apps.nn", "NearestNeighbor"),
    ("srad_v1", "repro.apps.srad", "SradV1"),
]


def build_inventory():
    rows = []
    for purpose, tool, module_name, experiments in BENCHMARKS:
        importlib.import_module(module_name)
        for experiment in experiments:
            spec = get_spec(experiment)
            assert spec.runner.__module__ == module_name, (module_name, experiment)
            assert spec.point_count() > 0, (module_name, experiment)
        rows.append(("benchmark", purpose, tool, module_name))
    for purpose, tool, module_name, attr in PROFILING:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), (module_name, attr)
        rows.append(("profiling", purpose, tool, module_name))
    for name, module_name, attr in WORKLOADS:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), (module_name, attr)
        rows.append(("workload", name, "Rodinia", module_name))
    return rows


def test_table2_inventory(benchmark):
    rows = benchmark.pedantic(build_inventory, rounds=1, iterations=1)
    print_table(
        "Table 2: experimental method inventory",
        ["kind", "purpose", "tool", "module"],
        rows,
    )
    assert len(rows) == len(BENCHMARKS) + len(PROFILING) + len(WORKLOADS)


def test_all_six_rodinia_workloads_present():
    from repro.apps import ALL_APPS

    assert len(ALL_APPS) == 6
    for name, _, attr in WORKLOADS:
        assert name in ALL_APPS


def test_workloads_runnable():
    from repro.apps import ALL_APPS

    for cls in ALL_APPS.values():
        app = cls()
        assert app.name
        assert "explicit" in app.variants
        assert app.default_params()
