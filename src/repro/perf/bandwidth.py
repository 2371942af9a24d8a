"""Achievable-bandwidth model (paper Fig. 3 and Section 4.3).

GPU STREAM bandwidth on MI300A separates into four tiers, and each tier
has a *mechanism* this model reads off the simulated buffer state:

1. ``hipMalloc`` (3.5-3.6 TB/s) — large fragments keep the GPU L1 TLB's
   reach ahead of the stream (Fig. 9), so translation never throttles the
   memory pipeline.
2. Pinned small-fragment allocators (2.1-2.2 TB/s) — page-granularity
   fragments make the stream TLB-miss-bound.
3. On-demand allocators (1.8-1.9 TB/s) — additionally run with
   XNACK-replayable translations, which cost the TLB pipeline its
   fire-and-forget behaviour.
4. ``__managed__`` statics (103 GB/s) — served from a nominally
   uncacheable aperture.

CPU STREAM splits into the paper's case A (208 GB/s, balanced physical
mapping, peak at 24 threads) and case B (~181 GB/s, biased mapping, peak
at 9 threads and degrading with more cores).
"""

from __future__ import annotations

from typing import Callable, Union

from ..hw.config import KiB, MI300AConfig

#: Average fragment size above which the GPU TLB stops being the STREAM
#: bottleneck (one L1 TLB entry then covers >= 8 cache lines in flight).
LARGE_FRAGMENT_BYTES = 32 * KiB

#: Channel-balance score below which a buffer behaves as the paper's
#: "case B" for CPU streaming (biased Infinity Cache slice usage).
BALANCED_THRESHOLD = 0.8

#: A trait's value, or a function of no arguments that computes it.
Trait = Union[float, Callable[[], float]]


class BufferTraits:
    """The allocator-determined properties the bandwidth model reads.

    ``average_fragment_bytes`` and ``channel_balance`` are computed on
    first read when given as functions: only the GPU model reads the
    one, only the CPU model the other.
    """

    def __init__(self, on_demand: bool, uncached: bool,
                 average_fragment_bytes: Trait, channel_balance: Trait) -> None:
        self.on_demand = on_demand
        self.uncached = uncached
        self._fragment = average_fragment_bytes
        self._balance = channel_balance

    @property
    def average_fragment_bytes(self) -> float:
        """Average GPU fragment size in bytes over the mapped pages."""
        if callable(self._fragment):
            self._fragment = self._fragment()
        return self._fragment

    @property
    def channel_balance(self) -> float:
        """Channel-histogram balance score of the resident frames."""
        if callable(self._balance):
            self._balance = self._balance()
        return self._balance

    @property
    def balanced(self) -> bool:
        """True when the physical mapping spreads evenly over channels."""
        return self.channel_balance >= BALANCED_THRESHOLD


def gpu_stream_bandwidth(config: MI300AConfig, traits: BufferTraits) -> float:
    """Achievable GPU TRIAD bandwidth (bytes/s) for a buffer."""
    model = config.bandwidth
    if traits.uncached:
        return model.gpu_managed_static_bytes_per_s
    if traits.on_demand:
        return model.gpu_peak_stream_bytes_per_s * model.gpu_on_demand_factor
    if traits.average_fragment_bytes >= LARGE_FRAGMENT_BYTES:
        return model.gpu_peak_stream_bytes_per_s
    return model.gpu_peak_stream_bytes_per_s * model.gpu_small_fragment_factor


def cpu_stream_bandwidth(
    config: MI300AConfig, traits: BufferTraits, threads: int
) -> float:
    """Achievable CPU TRIAD bandwidth (bytes/s) at a thread count.

    Case A (balanced mapping): bandwidth ramps roughly linearly and peaks
    with all 24 cores at 208 GB/s.  Case B (biased mapping): the hot
    Infinity Cache slices saturate at 9 threads (~181 GB/s) and adding
    cores *degrades* slightly to ~174 GB/s (Section 4.2).
    """
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    model = config.bandwidth
    threads = min(threads, config.cpu_cores)
    knee = model.cpu_case_b_best_threads
    if threads <= knee:
        # Below the knee both cases ramp at the single-thread rate.
        bandwidth = threads * model.cpu_single_thread_bytes_per_s
    elif traits.balanced and not traits.uncached:
        # Case A: slow climb from the knee to the 24-core peak — the
        # Infinity Cache slices keep absorbing traffic as cores join.
        span = config.cpu_cores - knee
        frac = (threads - knee) / span
        low = knee * model.cpu_single_thread_bytes_per_s
        bandwidth = low + frac * (model.cpu_peak_stream_bytes_per_s - low)
    else:
        # Case B: the hot slices are saturated at the knee; extra cores
        # only add contention and bandwidth degrades slightly.
        span = config.cpu_cores - knee
        frac = (threads - knee) / span
        bandwidth = model.cpu_biased_stream_bytes_per_s - frac * (
            model.cpu_biased_stream_bytes_per_s
            - model.cpu_case_b_allcore_bytes_per_s
        )
    if traits.uncached:
        # Managed statics: no cache reuse on the CPU side either.
        bandwidth = min(bandwidth, model.cpu_uncached_bytes_per_s)
    return bandwidth


def stream_time_ns(bytes_moved: int, bandwidth_bytes_per_s: float) -> float:
    """Simulated nanoseconds to stream *bytes_moved* at a bandwidth."""
    if bytes_moved < 0:
        raise ValueError(f"negative byte count {bytes_moved}")
    if bandwidth_bytes_per_s <= 0:
        raise ValueError(f"non-positive bandwidth {bandwidth_bytes_per_s}")
    return bytes_moved / bandwidth_bytes_per_s * 1e9
