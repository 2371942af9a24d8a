"""Hardware configuration for the simulated MI300A APU.

Every latency, bandwidth, capacity, and policy constant used by the
simulator lives here, in one frozen dataclass, so that model code contains
no magic numbers and alternate hardware points (for ablations or future
parts) can be constructed by replacing fields.

Constants are calibrated against the measurements reported in:

    Wahlgren et al., "Dissecting CPU-GPU Unified Physical Memory on AMD
    MI300A APUs", IISWC 2025.

and, where the paper is silent, the AMD CDNA 3 whitepaper.  Each field's
docstring names the paper section/figure it was calibrated to.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

#: Base page size used by both the system and GPU page tables (bytes).
PAGE_SIZE = 4 * KiB

#: Number of bits in the PTE fragment field (paper Section 3.2: "Each PTE
#: has a 5-bit fragment field, theoretically supporting sizes from a single
#: page (4 KiB) to 2^31 pages (8 TiB)").
FRAGMENT_FIELD_BITS = 5

#: Largest encodable fragment exponent: fragment value f covers 2**f pages.
MAX_FRAGMENT_EXPONENT = (1 << FRAGMENT_FIELD_BITS) - 1


@dataclass(frozen=True)
class CacheGeometry:
    """Capacity and load-to-use latency of one cache level."""

    name: str
    capacity_bytes: int
    latency_ns: float


@dataclass(frozen=True)
class TLBGeometry:
    """Entry count and miss penalty of one TLB level.

    The GPU L1 TLB stores one entry per *fragment* (a contiguous aligned
    power-of-two run of pages), so its reach scales with fragment size
    (paper Section 3.2, "GPU Adaptive Fragment Size").
    """

    name: str
    entries: int
    miss_penalty_ns: float
    fragment_aware: bool = False


@dataclass(frozen=True)
class HBMGeometry:
    """HBM3 stack/channel organisation (paper Section 2.2).

    Eight 16 GiB stacks, 16 channels each; physical pages are interleaved
    among the stacks at 4 KiB granularity (paper Section 5.4, citing the
    CDNA 3 whitepaper).
    """

    stacks: int = 8
    channels_per_stack: int = 16
    stack_capacity_bytes: int = 16 * GiB
    interleave_bytes: int = PAGE_SIZE
    peak_bandwidth_bytes_per_s: float = 5.3e12

    @property
    def channels(self) -> int:
        """Total number of memory channels on the APU."""
        return self.stacks * self.channels_per_stack

    @property
    def capacity_bytes(self) -> int:
        """Total HBM capacity (128 GiB on MI300A)."""
        return self.stacks * self.stack_capacity_bytes


@dataclass(frozen=True)
class InfinityCacheGeometry:
    """Memory-side Infinity Cache (paper Section 2.2 and 5.4).

    256 MiB shared between CPU and GPU, partitioned into slices mapped to
    individual memory channels; it does not participate in coherency.
    """

    capacity_bytes: int = 256 * MiB
    peak_bandwidth_bytes_per_s: float = 17.2e12
    slices: int = 128

    @property
    def slice_capacity_bytes(self) -> int:
        """Capacity of the slice serving one memory channel."""
        return self.capacity_bytes // self.slices


@dataclass(frozen=True)
class AllocatorCostModel:
    """Cost constants for the allocation-speed model (paper Fig. 6).

    The paper measures the time of calling each allocator for sizes from
    2 B to 1 GiB.  We decompose each allocator's cost into a fixed call
    overhead, a minimum physical-allocation granularity below which cost is
    flat, and a per-page cost above it; deallocation has its own constants
    (paper Section 5.1 reports free/hipFree asymmetries).
    """

    # malloc: 14 ns at 32 B; ~6 us at 1 GiB (mmap path, no physical pages).
    malloc_base_ns: float = 14.0
    malloc_mmap_threshold_bytes: int = 128 * KiB
    malloc_mmap_base_ns: float = 1_500.0
    malloc_mmap_per_mib_ns: float = 4.4
    # free is faster than malloc until 16 MiB, then 4-9x slower (unmap walk).
    free_base_ns: float = 10.0
    free_unmap_threshold_bytes: int = 16 * MiB
    free_unmap_base_ns: float = 6_400.0
    free_unmap_per_mib_ns: float = 40.0

    # hipMalloc: 10 us flat up to 16 KiB, then scaling to 37 ms at 1 GiB.
    hip_malloc_base_ns: float = 10_000.0
    hip_malloc_min_granularity_bytes: int = 16 * KiB
    hip_malloc_per_page_ns: float = 141.0
    # hipFree: faster than hipMalloc until 2 MiB, then up to 22x slower
    # (TLB shootdown + fragment teardown).
    hip_free_base_ns: float = 6_000.0
    hip_free_threshold_bytes: int = 2 * MiB
    hip_free_per_page_ns: float = 3_100.0

    # hipHostMalloc / hipMallocManaged(no XNACK): 15-34 us up to 16 KiB,
    # scaling to 200-400 ms at 1 GiB (page-locking each page).
    pinned_base_ns: float = 15_000.0
    pinned_managed_base_ns: float = 34_000.0
    pinned_min_granularity_bytes: int = 16 * KiB
    pinned_per_page_ns: float = 800.0
    pinned_managed_per_page_ns: float = 1_500.0
    # freeing pinned memory: 220 us .. 67 ms at 1 GiB.
    pinned_free_base_ns: float = 220_000.0
    pinned_free_per_page_ns: float = 255.0

    # hipMallocManaged with XNACK: constant-time regardless of size (paper:
    # "its execution time is constant ... overhead in the HIP implementation
    # optimized for discrete GPUs").
    managed_xnack_alloc_ns: float = 25_000.0
    managed_xnack_free_ns: float = 12_000.0

    # hipHostRegister: pins pre-existing pages, similar slope to pinned.
    host_register_base_ns: float = 20_000.0
    host_register_per_page_ns: float = 900.0


@dataclass(frozen=True)
class FaultCostModel:
    """Service-time constants for the page-fault model (paper Figs. 7-8).

    Calibration points from the paper:

    * CPU single-fault latency 9 us mean, 11 us p95.
    * GPU minor fault 16 us mean / 20 us p95; major 18 us / 22 us p95.
    * Saturated throughput: 1CPU 872 K pages/s, 12CPU 3.7 M pages/s,
      GPU Major 1.1 M pages/s, GPU Minor up to 9.0 M pages/s.
    """

    cpu_single_latency_ns: float = 9_000.0
    cpu_latency_sigma: float = 0.11  # lognormal shape -> ~11 us p95
    gpu_minor_single_latency_ns: float = 16_000.0
    gpu_major_single_latency_ns: float = 18_000.0
    gpu_latency_sigma: float = 0.13  # -> ~20/22 us p95

    # Batched (amortised) per-page service times at saturation.
    cpu_batched_page_ns: float = 1_147.0  # 1 core -> 872 K pages/s
    # Sub-linear scaling exponent of concurrent CPU fault handling:
    # throughput ~ cores**s, s = ln(4.24)/ln(12) (12 cores -> 3.7 M pages/s).
    cpu_core_scaling: float = 0.581
    gpu_major_batched_page_ns: float = 909.0  # -> 1.1 M pages/s
    gpu_minor_batched_page_ns: float = 111.0  # -> 9.0 M pages/s

    # Number of concurrent pages at which each curve reaches its plateau.
    cpu_saturation_pages: int = 1_000
    cpu12_saturation_pages: int = 10_000
    gpu_major_saturation_pages: int = 10_000
    gpu_minor_saturation_pages: int = 10_000_000


@dataclass(frozen=True)
class AtomicsCostModel:
    """Constants for the atomics contention model (paper Figs. 4-5).

    The CPU implements integer atomics with ``lock incq`` and FP64 atomics
    with a CAS loop (``lock cmpxchgq``); the GPU has native atomic-add
    units in the shared L2 for both types (paper Section 4.4).
    """

    # Un-contended per-update cost for a single CPU thread, by residency.
    cpu_l1_update_ns: float = 6.5
    cpu_l2_update_ns: float = 9.0
    cpu_mem_update_ns: float = 100.0
    # Cache-line ping-pong penalty when another core owns the line
    # (exclusive-ownership transfer across CCDs via the IOD).
    cpu_pingpong_ns: float = 300.0
    # Extra CAS-loop iteration cost on collision (FP64 only).
    cpu_cas_retry_ns: float = 55.0
    # FP64 un-contended overhead multiplier (load + cmpxchg vs single incq).
    cpu_fp64_overhead: float = 3.0

    # GPU: atomic units live in L2; per-update service time per L2 bank.
    gpu_l2_update_ns: float = 2.0
    gpu_mem_update_ns: float = 9.0
    gpu_l2_banks: int = 64
    gpu_serialization_ns: float = 14.0  # same-address serialisation cost
    gpu_threads_per_cu: int = 64
    # Hybrid interference: probability-weighted cross-device line transfers.
    hybrid_transfer_ns: float = 450.0
    # Small shared-footprint co-run bonus (paper: 1M UINT64 sees ~1.01-1.14x).
    hybrid_warm_cache_bonus: float = 0.14


@dataclass(frozen=True)
class BandwidthModel:
    """Constants composing achievable STREAM bandwidth (paper Fig. 3).

    Calibration points:

    * GPU TRIAD: hipMalloc 3.5-3.6 TB/s; pinned allocators 2.1-2.2 TB/s;
      on-demand allocators 1.8-1.9 TB/s; ``__managed__`` statics 103 GB/s.
    * CPU TRIAD: 208 GB/s (case A) vs ~180 GB/s (case B).
    * hipMemcpy: 58 GB/s (SDMA), 850 GB/s (SDMA disabled), 1.9 TB/s D2D.
    """

    gpu_peak_stream_bytes_per_s: float = 3.6e12
    # Penalty multipliers relative to the hipMalloc large-fragment path.
    gpu_small_fragment_factor: float = 0.60  # 4-16 KiB fragments -> 2.1 TB/s
    gpu_on_demand_factor: float = 0.52  # + fault-path mapping -> 1.87 TB/s
    gpu_managed_static_bytes_per_s: float = 103e9  # uncached carve-out

    cpu_peak_stream_bytes_per_s: float = 208e9  # case A
    cpu_biased_stream_bytes_per_s: float = 181e9  # case B (IC imbalance)
    cpu_case_b_best_threads: int = 9
    cpu_case_b_allcore_bytes_per_s: float = 174e9
    # Single-thread STREAM rate, identical in both cases (the cases only
    # diverge in how they saturate): 9 threads x 20.1 GB/s = the case-B
    # peak, after which case A keeps climbing slowly to 208 GB/s at 24.
    cpu_single_thread_bytes_per_s: float = 20.1e9
    # CPU access to the nominally uncacheable __managed__ aperture is
    # capped (write-combined streaming, no cache reuse).
    cpu_uncached_bytes_per_s: float = 20.0e9

    memcpy_sdma_bytes_per_s: float = 58e9
    memcpy_no_sdma_bytes_per_s: float = 850e9
    memcpy_d2d_bytes_per_s: float = 1_900e9


@dataclass(frozen=True)
class PolicyModel:
    """System-software policy knobs (paper Sections 5.3-5.4).

    These encode *policies* whose consequences the paper observes through
    counters, rather than raw costs:

    * the driver's opportunistic fragment scan yields large fragments for
      contiguous up-front allocations and small ones for on-demand pages;
    * up-front allocators fault into the CPU page table at a large
      granularity (3.7-4.6 K faults for 3x610 MiB arrays vs 472 K for
      malloc, Fig. 10);
    * the physical allocator's free-list bias degrades Infinity Cache
      slice balance for scattered on-demand allocations (Section 5.4).
    """

    # Typical contiguity (bytes) achieved by the kernel buddy allocator for
    # scattered on-demand faults after steady-state fragmentation.
    on_demand_contiguity_bytes: int = PAGE_SIZE
    # Fraction of on-demand faults served from an aligned free buddy pair
    # (order-1 block).  Calibrated so the STREAM TRIAD GPU TLB miss count
    # for on-demand memory lands in the paper's 1.0-1.2 M band (Fig. 9).
    on_demand_pair_fraction: float = 0.88
    # Contiguity achieved by up-front GPU allocations (drives Fig. 9's
    # 158 K vs 1.0-1.2 M TLB miss split: 64 KiB fragments cut misses ~7x...
    # calibrated so STREAM sees ~16x fewer misses with hipMalloc).
    up_front_contiguity_bytes: int = 64 * KiB
    # CPU first-touch mapping granularity for up-front allocations
    # (fault-around): 512 KiB when CPU-initialised, 256 KiB after GPU init.
    up_front_cpu_fault_granularity_bytes: int = 512 * KiB
    up_front_cpu_fault_granularity_gpu_init_bytes: int = 256 * KiB
    # Lognormal skew of the free list across channels seen by scattered
    # allocations; 0 = perfectly balanced.  Calibrated (with a >= 16 GiB
    # pool) so CPU pointer-chase latency on malloc'd memory reaches
    # ~230 ns at 512 MiB (Fig. 2) while HIP allocators stay balanced.
    free_list_channel_skew: float = 1.1
    # Eager GPU maps (Bertolli et al. [11], cited in Section 7): when
    # enabled, CPU first-touch immediately propagates PTEs into the GPU
    # page table, trading extra CPU-fault time for zero GPU minor faults
    # later.  Off by default, as on the paper's testbed.
    eager_gpu_maps: bool = False
    # Per-page cost of the eager propagation during the CPU fault.
    eager_map_page_ns: float = 150.0


@dataclass(frozen=True)
class PartitionCostModel:
    """Constants for the compute/memory partitioning model.

    Calibrated against AMD's Instinct partitioning guide (see
    SNIPPETS.md §1): NPS4 localisation buys 5-10% stream bandwidth in
    partition-local streaming, remote (cross-domain) accesses pay an
    extra IOD-to-IOD Infinity Fabric hop, and CPX mode shaves a little
    off kernel-launch overhead because each launch targets one XCD.
    """

    #: Fractional STREAM bandwidth gain for partition-local accesses in
    #: NPS4 (the guide's headline: "5-10% higher bandwidths in stream
    #: benchmarks" from localisation; no inter-IOD traffic).
    nps4_local_bandwidth_uplift: float = 0.07
    #: Bandwidth factor for cross-domain accesses in NPS4: the data is
    #: interleaved over only 2 remote stacks and every request crosses
    #: the IOD-to-IOD fabric, so remote streams run well below local.
    nps4_remote_bandwidth_factor: float = 0.55
    #: Kernel-launch overhead factor in CPX mode (the guide notes
    #: "additional small savings for kernel launch in CPX mode").
    cpx_launch_overhead_factor: float = 0.9


@dataclass(frozen=True)
class MI300AConfig:
    """Full configuration of one simulated MI300A APU.

    The defaults describe the paper's testbed: 228 GPU compute units,
    24 CPU cores, 128 GiB HBM3 at 5.3 TB/s, 256 MiB Infinity Cache.
    """

    name: str = "MI300A"
    xcd_count: int = 6
    ccd_count: int = 3
    iod_count: int = 4
    gpu_compute_units: int = 228
    cpu_cores: int = 24

    hbm: HBMGeometry = field(default_factory=HBMGeometry)
    infinity_cache: InfinityCacheGeometry = field(
        default_factory=InfinityCacheGeometry
    )

    # Cache hierarchy; latencies calibrated to Fig. 2 of the paper.
    gpu_l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("gpu_l1", 32 * KiB, 57.0)
    )
    gpu_l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("gpu_l2", 4 * MiB, 104.0)
    )
    cpu_l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("cpu_l1", 32 * KiB, 1.0)
    )
    cpu_l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("cpu_l2", 1 * MiB, 3.2)
    )
    cpu_l3: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("cpu_l3", 96 * MiB, 13.0)
    )
    # Memory-side latencies seen past the last private level (Fig. 2).
    gpu_ic_latency_ns: float = 212.0
    gpu_hbm_latency_ns: float = 342.0
    cpu_ic_latency_ns: float = 150.0
    # Raw CPU->HBM load-to-use; set so the capacity-weighted 4 GiB chase
    # (which still gets small L3/IC contributions) lands on the paper's
    # measured 236-241 ns plateau.
    cpu_hbm_latency_ns: float = 250.0

    gpu_l1_tlb: TLBGeometry = field(
        default_factory=lambda: TLBGeometry(
            "gpu_l1_tlb", 32, 450.0, fragment_aware=True
        )
    )
    gpu_l2_tlb: TLBGeometry = field(
        default_factory=lambda: TLBGeometry("gpu_l2_tlb", 512, 900.0)
    )

    allocator_costs: AllocatorCostModel = field(default_factory=AllocatorCostModel)
    fault_costs: FaultCostModel = field(default_factory=FaultCostModel)
    atomics: AtomicsCostModel = field(default_factory=AtomicsCostModel)
    bandwidth: BandwidthModel = field(default_factory=BandwidthModel)
    policy: PolicyModel = field(default_factory=PolicyModel)
    partition_costs: PartitionCostModel = field(default_factory=PartitionCostModel)

    def replace(self, **changes: object) -> "MI300AConfig":
        """Return a copy of this config with *changes* applied."""
        return dataclasses.replace(self, **changes)

    @property
    def memory_capacity_bytes(self) -> int:
        """Total unified physical memory on the APU."""
        return self.hbm.capacity_bytes

    @property
    def total_pages(self) -> int:
        """Number of base (4 KiB) pages in physical memory."""
        return self.memory_capacity_bytes // PAGE_SIZE

    def describe(self) -> str:
        """Human-readable one-line summary of the package."""
        return (
            f"{self.name}: {self.xcd_count} XCD ({self.gpu_compute_units} CUs), "
            f"{self.ccd_count} CCD ({self.cpu_cores} cores), "
            f"{self.iod_count} IOD, {self.hbm.stacks}x"
            f"{self.hbm.stack_capacity_bytes // GiB} GiB HBM3"
        )


def default_config() -> MI300AConfig:
    """Return the paper-calibrated MI300A configuration."""
    return MI300AConfig()


@functools.lru_cache(maxsize=32)
def small_config(memory_bytes: int = 2 * GiB) -> MI300AConfig:
    """Return a down-scaled config for fast tests.

    The chiplet counts and policies are identical to :func:`default_config`;
    only the HBM capacity is reduced so the physical allocator's frame
    bookkeeping stays small.  The config is frozen, so one instance per
    size is shared.
    """
    per_stack = memory_bytes // 8
    return MI300AConfig(hbm=HBMGeometry(stack_capacity_bytes=per_stack))
