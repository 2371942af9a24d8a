"""Fig. 10 — total CPU page faults in the CPU STREAM benchmark.

Regenerates the perf-stat fault counts via the ``fig10`` registry
experiment: allocation + initialisation + 10 TRIAD iterations on
3 x 610 MiB arrays, for the paper's three configurations — baseline
(XNACK=0), XNACK=1, and GPU first-touch.

Paper anchors: malloc and hipMallocManaged(XNACK=1) take ~472 K faults
(one per page); hipMalloc/hipHostMalloc take 3.7-4.6 K when CPU
initialised and 8.0-8.9 K when GPU initialised — the allocation
granularity signature of Section 5.4.
"""

import pytest

from conftest import experiment_rows, print_table
from repro.bench.stream import FIG10_CONFIGS
from repro.hw.config import MiB

ARRAY_BYTES = 610 * MiB
TOTAL_PAGES = 3 * (ARRAY_BYTES // 4096)


@pytest.fixture(scope="module")
def faults(experiment):
    return {r["config"]: r["page_faults"] for r in experiment("fig10")}


def test_fig10_table(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_rows("fig10", fresh=True), rounds=1, iterations=1
    )
    print_table(
        "Fig. 10: CPU page faults in CPU STREAM (3 x 610 MiB, 10 iters)",
        ["configuration", "page_faults"],
        [(r["config"], f"{r['page_faults']:,}") for r in rows],
    )
    assert len(rows) == len(FIG10_CONFIGS)


def test_on_demand_allocators_one_fault_per_page(faults):
    for label in ("malloc / baseline", "malloc / xnack", "managed / xnack"):
        assert faults[label] == TOTAL_PAGES, label  # ~468 K (paper: ~472 K)


def test_up_front_cpu_init_in_paper_band(faults):
    for label in ("hipMalloc / baseline", "hipHostMalloc / baseline"):
        assert 3_000 <= faults[label] <= 5_000, label  # paper: 3.7-4.6 K


def test_up_front_gpu_init_in_paper_band(faults):
    for label in ("hipMalloc / gpu-init", "hipHostMalloc / gpu-init"):
        assert 7_000 <= faults[label] <= 9_500, label  # paper: 8.0-8.9 K


def test_gpu_init_doubles_up_front_fault_count(faults):
    ratio = faults["hipMalloc / gpu-init"] / faults["hipMalloc / baseline"]
    assert 1.8 <= ratio <= 2.4


def test_two_orders_of_magnitude_gap(faults):
    """The paper's granularity conclusion: ~100x fewer faults with
    up-front allocation."""
    assert faults["malloc / baseline"] / faults["hipMalloc / baseline"] > 90


def test_malloc_gpu_init_reduces_cpu_faults(faults):
    """After GPU first touch, the CPU only takes mapping faults at the
    fault-around granularity instead of one allocation fault per page."""
    assert faults["malloc / gpu-init"] < faults["malloc / baseline"] / 20
