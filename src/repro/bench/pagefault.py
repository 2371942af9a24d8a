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

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..hw.config import MI300AConfig, PAGE_SIZE, default_config
from ..perf.faultmodel import (
    SCENARIOS,
    Scenario,
    fault_throughput_pages_per_s,
    sample_latency_distribution,
)
from ..runtime.apu import APU, make_apu

#: Page counts swept in Fig. 7 (1 to 10 M pages; 10 M pages = 40 GiB).
DEFAULT_PAGE_COUNTS = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]


@dataclass(frozen=True)
class ThroughputSample:
    """One point on a Fig. 7 curve."""

    scenario: Scenario
    pages: int
    pages_per_s: float


def throughput_curve(
    scenario: Scenario,
    page_counts: Optional[Sequence[int]] = None,
    config: Optional[MI300AConfig] = None,
) -> List[ThroughputSample]:
    """Model-based Fig. 7 curve for one scenario."""
    config = config or default_config()
    counts = list(page_counts) if page_counts is not None else DEFAULT_PAGE_COUNTS
    return [
        ThroughputSample(
            scenario, n, fault_throughput_pages_per_s(config, scenario, n)
        )
        for n in counts
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
        needed_gib = max(2, (pages * PAGE_SIZE >> 30) * 2 + 1)
        apu = make_apu(needed_gib, xnack=True)
    kind, cores = SCENARIOS[scenario]
    if kind == "cpu":
        device, concurrency = "cpu", cores
    else:
        device, concurrency = "gpu", apu.gpu.compute_units
    buffer = apu.memory.malloc(
        pages * PAGE_SIZE, name=f"faultbench-{scenario}"
    )
    if kind == "gpu_minor":
        apu.touch(buffer, "cpu", concurrency=12)  # pre-fault, untimed

    start = apu.clock.now_ns
    apu.touch(buffer, device, concurrency=concurrency)
    elapsed_s = (apu.clock.now_ns - start) / 1e9
    apu.memory.free(buffer)
    if elapsed_s <= 0:
        raise RuntimeError("fault burst took no simulated time")
    return pages / elapsed_s


@dataclass(frozen=True)
class LatencyStats:
    """Fig. 8 summary statistics for one fault type."""

    scenario: str
    mean_us: float
    p50_us: float
    p95_us: float

    @classmethod
    def from_samples(cls, scenario: str, samples_ns: np.ndarray) -> "LatencyStats":
        """Summarise raw latency draws."""
        return cls(
            scenario,
            float(samples_ns.mean() / 1e3),
            float(np.percentile(samples_ns, 50) / 1e3),
            float(np.percentile(samples_ns, 95) / 1e3),
        )


def latency_distributions(
    samples: int = 10_000,
    config: Optional[MI300AConfig] = None,
) -> List[LatencyStats]:
    """Fig. 8: single-fault latency distributions for CPU/GPU faults."""
    config = config or default_config()
    out = []
    for scenario in ("cpu", "gpu_minor", "gpu_major"):
        draws = sample_latency_distribution(config, scenario, samples)
        out.append(LatencyStats.from_samples(scenario, draws))
    return out
