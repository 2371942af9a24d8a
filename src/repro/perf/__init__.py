"""Calibrated performance models for the simulated MI300A.

Each module turns simulated memory-system *state* (fragment sizes,
channel balance, allocation mode, contention level) into time:

* :mod:`~repro.perf.latency` — pointer-chase latency (Fig. 2),
* :mod:`~repro.perf.bandwidth` — STREAM bandwidth (Fig. 3),
* :mod:`~repro.perf.atomics` — atomics/coherence throughput (Figs. 4-5),
* :mod:`~repro.perf.faultmodel` — fault-burst cost (Figs. 7-8).
"""

from .atomics import (
    HybridThroughput,
    cpu_atomic_throughput,
    cpu_atomic_update_cost_ns,
    gpu_atomic_throughput,
    hybrid_atomic_throughput,
)
from .bandwidth import (
    BufferTraits,
    cpu_stream_bandwidth,
    gpu_stream_bandwidth,
    stream_time_ns,
)
from .faultmodel import (
    fault_burst_time_ns,
    fault_throughput_pages_per_s,
    prefault_speedup,
    sample_latency_distribution,
)
from .latency import (
    chase_latency_ns,
    cpu_chase_latency_ns,
    gpu_chase_latency_ns,
    ic_hit_fraction_for_frames,
)

__all__ = [
    "BufferTraits",
    "HybridThroughput",
    "chase_latency_ns",
    "cpu_atomic_throughput",
    "cpu_atomic_update_cost_ns",
    "cpu_chase_latency_ns",
    "cpu_stream_bandwidth",
    "fault_burst_time_ns",
    "fault_throughput_pages_per_s",
    "gpu_atomic_throughput",
    "gpu_chase_latency_ns",
    "gpu_stream_bandwidth",
    "hybrid_atomic_throughput",
    "ic_hit_fraction_for_frames",
    "prefault_speedup",
    "sample_latency_distribution",
    "stream_time_ns",
]
