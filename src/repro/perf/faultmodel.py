"""Page-fault throughput and latency model (paper Figs. 7-8).

The paper measures, for four scenarios (GPU major, GPU minor, one CPU
core, twelve CPU cores), how many page faults per second the system can
resolve as a function of how many pages are touched, and the latency
distribution of a single isolated fault.

Throughput follows a classic ramp-and-plateau: for small page counts the
fixed handler latency dominates (throughput grows ~linearly with the
number of in-flight faults); past the saturation point the handler
pipeline is full and throughput settles at ``1 / per_page_service_time``.
We model the curve as

    T(n) = n / (L + n * s)

with L the single-fault latency and s the saturated per-page service
time, which reproduces both the initial slope and the measured plateaus:

=========  ==========  =====================
scenario   plateau     saturation page count
=========  ==========  =====================
GPU major  1.1 M/s     ~10 K pages
GPU minor  9.0 M/s     ~10 M pages
1 CPU      872 K/s     ~1 K pages
12 CPU     3.7 M/s     ~10 K pages
=========  ==========  =====================

GPU minor additionally ramps slowly (driver batches grow with fault
pressure), modelled by a batch-efficiency term that reaches 1 at the
saturation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..hw.config import MI300AConfig

Scenario = Literal["gpu_major", "gpu_minor", "cpu", "cpu12"]


@dataclass(frozen=True)
class ScenarioParams:
    """Latency/service parameters of one fault scenario."""

    single_latency_ns: float
    saturated_page_ns: float
    saturation_pages: int


def scenario_params(config: MI300AConfig, scenario: Scenario) -> ScenarioParams:
    """Look up the calibrated parameters for a scenario."""
    c = config.fault_costs
    if scenario == "gpu_major":
        return ScenarioParams(
            c.gpu_major_single_latency_ns,
            c.gpu_major_batched_page_ns,
            c.gpu_major_saturation_pages,
        )
    if scenario == "gpu_minor":
        return ScenarioParams(
            c.gpu_minor_single_latency_ns,
            c.gpu_minor_batched_page_ns,
            c.gpu_minor_saturation_pages,
        )
    if scenario == "cpu":
        return ScenarioParams(
            c.cpu_single_latency_ns,
            c.cpu_batched_page_ns,
            c.cpu_saturation_pages,
        )
    if scenario == "cpu12":
        factor = 12.0**-c.cpu_core_scaling
        return ScenarioParams(
            c.cpu_single_latency_ns,
            c.cpu_batched_page_ns * factor,
            c.cpu12_saturation_pages,
        )
    raise ValueError(f"unknown fault scenario {scenario!r}")


def fault_throughput_pages_per_s(
    config: MI300AConfig, scenario: Scenario, pages: int
) -> float:
    """Fault-resolution throughput when *pages* pages fault together."""
    if pages <= 0:
        raise ValueError(f"pages must be positive, got {pages}")
    p = scenario_params(config, scenario)
    service_ns = p.saturated_page_ns / _batch_efficiency(
        pages, p.saturation_pages
    )
    total_ns = p.single_latency_ns + pages * service_ns
    return pages / total_ns * 1e9


def fault_burst_time_ns(
    config: MI300AConfig, scenario: Scenario, pages: int
) -> float:
    """Time to resolve a burst of *pages* faults in one scenario."""
    if pages <= 0:
        return 0.0
    return pages / fault_throughput_pages_per_s(config, scenario, pages) * 1e9


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


def prefault_speedup(
    config: MI300AConfig, pages: int, cpu_cores: int = 12
) -> float:
    """Speedup of CPU pre-faulting + GPU minor faults over GPU major.

    The paper's recommended strategy (Section 5.2): touch pages with 12
    CPU cores first, turning the GPU's major faults into minor faults.
    At 10 M pages (40 GiB) the combined pipeline achieves ~2.2x the
    GPU-major throughput.
    """
    if cpu_cores != 12:
        raise ValueError("calibrated for the paper's 12-core scenario")
    major_t = fault_burst_time_ns(config, "gpu_major", pages)
    staged_t = fault_burst_time_ns(config, "cpu12", pages) + fault_burst_time_ns(
        config, "gpu_minor", pages
    )
    return major_t / staged_t


def sample_latency_distribution(
    config: MI300AConfig,
    scenario: Literal["cpu", "gpu_minor", "gpu_major"],
    samples: int,
    seed: int = 0xD157,
) -> np.ndarray:
    """Draw single-fault latencies (ns) for Fig. 8's distributions."""
    c = config.fault_costs
    if scenario == "cpu":
        mean, sigma = c.cpu_single_latency_ns, c.cpu_latency_sigma
    elif scenario == "gpu_minor":
        mean, sigma = c.gpu_minor_single_latency_ns, c.gpu_latency_sigma
    elif scenario == "gpu_major":
        mean, sigma = c.gpu_major_single_latency_ns, c.gpu_latency_sigma
    else:
        raise ValueError(f"unknown fault scenario {scenario!r}")
    rng = np.random.default_rng(seed)
    mu = math.log(mean) - sigma * sigma / 2.0
    return rng.lognormal(mu, sigma, size=samples)
