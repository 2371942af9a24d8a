"""Page-fault cost model (paper Figs. 7-8 and Section 5.2).

One function, :func:`fault_burst_time_ns`, prices every fault burst in
the simulator: the kernel engine's fault handler, Fig. 7's throughput
curves, the prefault speedup, Fig. 8's latency draws and the static
advisor's cost estimates.  A burst of n faults of one kind costs

    t(n) = L + (n - 1) * s(cores) / eta(n)

with L the single-fault latency (Fig. 8's mean), s the saturated
per-page service time and eta the batch-efficiency ramp, which reaches
1 at the kind's saturation page count.  CPU faults handled by c cores
at once are served sub-linearly faster, s(c) = s * c**-cpu_core_scaling,
and saturate at ``cpu12_saturation_pages`` instead of
``cpu_saturation_pages`` when c > 1.  GPU faults ignore *cores*.

Throughput n / t(n) ramps from 1 / L to the measured plateaus:

=========  =============  ==========  =====================
scenario   (kind, cores)  plateau     saturation page count
=========  =============  ==========  =====================
GPU major  gpu_major, 1   1.1 M/s     ~10 K pages
GPU minor  gpu_minor, 1   9.0 M/s     ~10 M pages
1 CPU      cpu, 1         872 K/s     ~1 K pages
12 CPU     cpu, 12        3.7 M/s     ~10 K pages
=========  =============  ==========  =====================
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from ..hw.config import MI300AConfig

FaultKind = Literal["cpu", "gpu_major", "gpu_minor"]
Scenario = Literal["gpu_major", "gpu_minor", "cpu", "cpu12"]

#: Fig. 7's four scenarios as (fault kind, concurrent CPU cores).
SCENARIOS = {
    "gpu_major": ("gpu_major", 1),
    "gpu_minor": ("gpu_minor", 1),
    "cpu": ("cpu", 1),
    "cpu12": ("cpu", 12),
}

#: CPU cores that pre-fault in the paper's Section 5.2 strategy.
PREFAULT_CPU_CORES = 12


def _kind_costs(config: MI300AConfig, kind: FaultKind):
    """The scenario table: (L, s, saturation pages, sigma) of one kind."""
    c = config.fault_costs
    if kind == "cpu":
        return (c.cpu_single_latency_ns, c.cpu_batched_page_ns,
                c.cpu_saturation_pages, c.cpu_latency_sigma)
    if kind == "gpu_major":
        return (c.gpu_major_single_latency_ns, c.gpu_major_batched_page_ns,
                c.gpu_major_saturation_pages, c.gpu_latency_sigma)
    if kind == "gpu_minor":
        return (c.gpu_minor_single_latency_ns, c.gpu_minor_batched_page_ns,
                c.gpu_minor_saturation_pages, c.gpu_latency_sigma)
    raise ValueError(f"unknown fault kind {kind!r}")


def fault_burst_time_ns(
    config: MI300AConfig, kind: FaultKind, pages: int, cores: int = 1
) -> float:
    """Time to resolve a burst of *pages* faults of one kind.

    A one-page burst costs exactly the single-fault latency L.
    """
    if pages <= 0:
        return 0.0
    latency, page_ns, saturation, _ = _kind_costs(config, kind)
    if kind == "cpu" and cores > 1:
        page_ns *= cores**-config.fault_costs.cpu_core_scaling
        saturation = config.fault_costs.cpu12_saturation_pages
    eta = _batch_efficiency(pages, saturation)
    return latency + (pages - 1) * page_ns / eta


def fault_throughput_pages_per_s(
    config: MI300AConfig, scenario: Scenario, pages: int
) -> float:
    """Fault-resolution throughput when *pages* pages fault together."""
    if pages <= 0:
        raise ValueError(f"pages must be positive, got {pages}")
    try:
        kind, cores = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown fault scenario {scenario!r}") from None
    return pages / fault_burst_time_ns(config, kind, pages, cores) * 1e9


def _batch_efficiency(pages: int, saturation_pages: int) -> float:
    """How much of the saturated batching the handler achieves.

    Reaches 1.0 at the scenario's saturation page count; below it the
    driver's fault batches are smaller and the per-page service time is
    proportionally worse.  The log-shaped ramp matches the measured
    gradual climb of the GPU-minor curve up to 10 M pages.
    """
    if pages >= saturation_pages:
        return 1.0
    # Between 1 page and saturation, efficiency climbs log-linearly from
    # ~0.5 to 1.0 — mild enough to keep the early curve latency-bound.
    frac = math.log(pages + 1) / math.log(saturation_pages + 1)
    return 0.5 + 0.5 * frac


def prefault_speedup(config: MI300AConfig, pages: int) -> float:
    """Speedup of CPU pre-faulting + GPU minor faults over GPU major.

    The paper's recommended strategy (Section 5.2): touch pages with
    :data:`PREFAULT_CPU_CORES` CPU cores first, turning the GPU's major
    faults into minor faults.  At 10 M pages (40 GiB) the combined
    pipeline achieves ~2.2x the GPU-major throughput.
    """
    major_t = fault_burst_time_ns(config, "gpu_major", pages)
    staged_t = fault_burst_time_ns(
        config, "cpu", pages, PREFAULT_CPU_CORES
    ) + fault_burst_time_ns(config, "gpu_minor", pages)
    return major_t / staged_t


def sample_latency_distribution(
    config: MI300AConfig,
    kind: FaultKind,
    samples: int,
    seed: int = 0xD157,
) -> np.ndarray:
    """Draw single-fault latencies (ns) for Fig. 8's distributions.

    Lognormal with mean the one-page burst cost L.
    """
    sigma = _kind_costs(config, kind)[3]
    mean = fault_burst_time_ns(config, kind, 1)
    rng = np.random.default_rng(seed)
    mu = math.log(mean) - sigma * sigma / 2.0
    return rng.lognormal(mu, sigma, size=samples)
