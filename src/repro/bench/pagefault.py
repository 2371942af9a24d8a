"""Page-fault overhead benchmark (paper Figs. 7-8 and Section 5.2).

Four scenarios, as in the paper:

* **GPU Major** — on-demand memory first-touched by the GPU;
* **GPU Minor** — memory pre-touched by the CPU, then faulted on the GPU
  (PTE propagation only);
* **1CPU / 12CPU** — on-demand memory touched from 1 or 12 CPU cores.

Throughput is evaluated with the one fault-cost model
(:mod:`repro.perf.faultmodel`).  :func:`measured_throughput` runs the
same burst on a live simulated APU by actually mmapping a buffer,
issuing one access per page, and reading the simulated clock; the fault
handler prices it with the same model, so the two agree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..hw.config import PAGE_SIZE, default_config
from ..perf.faultmodel import (
    SCENARIOS,
    Scenario,
    fault_throughput_pages_per_s,
    sample_latency_distribution,
)
from ..runtime.apu import APU, make_apu
from ..runtime.hip import HipRuntime


def throughput_curve(scenario: Scenario, page_counts: Sequence[int]) -> List[list]:
    """Fig. 7: one scenario's model curve.

    One row ``[scenario, pages, pages_per_s]`` per page count.
    """
    config = default_config()
    return [
        [scenario, n, fault_throughput_pages_per_s(config, scenario, n)]
        for n in page_counts
    ]


def measured_throughput(
    scenario: Scenario,
    pages: int,
    apu: Optional[APU] = None,
) -> float:
    """Measure fault throughput on a live APU.

    Uses ``mmap`` semantics (a fresh on-demand VMA per run) so every test
    is independent, as the paper's methodology specifies.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if apu is None:
        apu = make_apu(max(2, (pages * PAGE_SIZE >> 30) * 2 + 1), xnack=True)
    runtime = HipRuntime(apu)
    kind, cores = SCENARIOS[scenario]
    if kind == "cpu":
        device, concurrency = "cpu", cores
    else:
        device, concurrency = "gpu", apu.gpu.compute_units
    buffer = runtime.malloc(pages * PAGE_SIZE, name=f"faultbench-{scenario}")
    if kind == "gpu_minor":
        apu.touch(buffer, "cpu", concurrency=12)  # pre-fault, untimed

    start = apu.clock.now_ns
    apu.touch(buffer, device, concurrency=concurrency)
    elapsed_s = (apu.clock.now_ns - start) / 1e9
    runtime.hipFree(buffer)
    if elapsed_s <= 0:
        raise RuntimeError("fault burst took no simulated time")
    return pages / elapsed_s


def latency_distributions(samples: int) -> List[list]:
    """Fig. 8: single-fault latency distributions for CPU/GPU faults.

    One row ``[fault_type, mean_us, p50_us, p95_us]`` per fault type,
    each summarising *samples* draws.
    """
    config = default_config()
    rows = []
    for scenario in ("cpu", "gpu_minor", "gpu_major"):
        draws = sample_latency_distribution(config, scenario, samples)
        rows.append([
            scenario,
            float(draws.mean() / 1e3),
            float(np.percentile(draws, 50) / 1e3),
            float(np.percentile(draws, 95) / 1e3),
        ])
    return rows
