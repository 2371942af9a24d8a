"""The registered experiments: every paper figure, the application
study, the UVM extension, and the partition sweep.

Each experiment is one :class:`~repro.exp.spec.ExperimentSpec` — a
parameter grid plus a module-level runner called once per grid point.
The figure benchmarks' runners are the :mod:`repro.bench` functions
themselves, each returning rows in its spec's ``columns`` order; the
runners defined here (Table 1, the application study, the UVM
extension, the partition sweep) call ``repro.core`` / ``repro.apps`` /
``repro.uvm`` / ``repro.partition`` on a freshly built simulated node.

All runners are deterministic (the simulator seeds every RNG), so a
point's rows are a pure function of its parameters and the code — the
property the golden row digests check.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..bench import (
    allocspeed,
    hipbandwidth,
    histogram,
    multichase,
    pagefault,
    stream,
)
from ..hw.config import GiB, KiB, MiB
from .registry import register
from .spec import ExperimentSpec

# ----------------------------------------------------------------------
# Table 1 — allocator capability matrix
# ----------------------------------------------------------------------


def run_table1(xnack: bool) -> List[List[Any]]:
    from ..core.allocators import allocator_table

    return [
        [r["allocator"], xnack, r["gpu_access"], r["cpu_access"],
         r["physical_allocation"]]
        for r in allocator_table(xnack)
    ]


register(ExperimentSpec.define(
    name="table1",
    title="Memory allocators on MI300A",
    source="Table 1",
    columns=["allocator", "xnack", "gpu_access", "cpu_access", "physical"],
    runner=run_table1,
    grid={"xnack": [False, True]},
    description="Allocator capability matrix (GPU/CPU access, physical "
                "allocation policy) per XNACK mode.",
))


# ----------------------------------------------------------------------
# Fig. 2 — pointer-chase latency
# ----------------------------------------------------------------------

FIG2_SIZES = (
    1 * KiB, 32 * KiB, 1 * MiB, 32 * MiB, 128 * MiB,
    256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB, 4 * GiB,
)
FIG2_QUICK_SIZES = (1 * KiB, 1 * MiB, 128 * MiB, 512 * MiB)


register(ExperimentSpec.define(
    name="fig2",
    title="Pointer-chase latency",
    source="Fig. 2",
    columns=["allocator", "device", "size_bytes", "latency_ns"],
    runner=multichase.chase_curve,
    grid={
        "allocator": [
            "malloc", "malloc+register", "hipMalloc", "hipHostMalloc",
            "hipMallocManaged(xnack=0)", "hipMallocManaged(xnack=1)",
        ],
        "device": ["cpu", "gpu"],
    },
    quick_grid={
        "allocator": ["malloc", "hipMalloc"],
        "device": ["cpu", "gpu"],
    },
    fixed={"sizes": FIG2_SIZES, "memory_gib": 16},
    quick_fixed={"sizes": FIG2_QUICK_SIZES, "memory_gib": 16},
    description="Latency-vs-size curves per allocator and device "
                "(one fresh APU per allocator per run).",
))


# ----------------------------------------------------------------------
# Fig. 3 — STREAM TRIAD bandwidth
# ----------------------------------------------------------------------

FIG3_GPU_ALLOCATORS = (
    "hipMalloc", "hipHostMalloc", "malloc+register",
    "hipMallocManaged(xnack=0)", "hipMallocManaged(xnack=1)",
    "malloc", "__managed__",
)
FIG3_CPU_ALLOCATORS = (
    "hipMalloc", "hipHostMalloc", "malloc", "hipMallocManaged(xnack=1)",
)


def _fig3_cases() -> List[str]:
    cases = []
    for allocator in FIG3_GPU_ALLOCATORS:
        inits = ("cpu",) if allocator == "__managed__" else ("cpu", "gpu")
        cases.extend(f"gpu|{allocator}|{init}" for init in inits)
    for allocator in FIG3_CPU_ALLOCATORS:
        inits = ("cpu", "gpu") if allocator == "malloc" else ("cpu",)
        cases.extend(f"cpu|{allocator}|{init}" for init in inits)
    return cases


register(ExperimentSpec.define(
    name="fig3",
    title="STREAM TRIAD bandwidth",
    source="Fig. 3",
    columns=["device", "allocator", "init_device", "bandwidth_bytes_per_s",
             "best_threads"],
    runner=stream.triad,
    grid={"case": _fig3_cases()},
    quick_grid={"case": [
        "gpu|hipMalloc|cpu", "gpu|malloc|cpu",
        "cpu|hipMalloc|cpu", "cpu|malloc|cpu",
    ]},
    fixed={"memory_gib": 16},
    description="Best TRIAD bandwidth per device/allocator/first-touch "
                "combination (CPU side sweeps thread counts).",
))


# ----------------------------------------------------------------------
# Section 4.3 — legacy hipMemcpy bandwidth
# ----------------------------------------------------------------------


register(ExperimentSpec.define(
    name="memcpy",
    title="hipMemcpy bandwidth",
    source="Section 4.3",
    columns=["transfer", "sdma", "copy_bytes", "bandwidth_bytes_per_s"],
    runner=hipbandwidth.measure_memcpy,
    grid={"transfer": list(hipbandwidth.TRANSFERS), "sdma": [True, False]},
    fixed={"copy_bytes": 256 * MiB, "memory_gib": 4},
    quick_fixed={"copy_bytes": 64 * MiB, "memory_gib": 4},
    description="Legacy copy-path bandwidth with the SDMA engine on/off.",
))


# ----------------------------------------------------------------------
# Fig. 4 — isolated atomics throughput
# ----------------------------------------------------------------------


register(ExperimentSpec.define(
    name="fig4",
    title="Atomics throughput (isolated)",
    source="Fig. 4",
    columns=["device", "dtype", "elements", "threads", "updates_per_s"],
    runner=histogram.isolated_sweep,
    grid={
        "device": ["cpu", "gpu"],
        "dtype": ["uint64", "fp64"],
        "elements": histogram.ARRAY_SIZES,
    },
    quick_grid={
        "device": ["cpu", "gpu"],
        "dtype": ["uint64", "fp64"],
        "elements": [1 << 10, 1 << 20],
    },
    description="Parallel-histogram atomic-update throughput across "
                "thread counts, per device, dtype and array size.",
))


# ----------------------------------------------------------------------
# Fig. 5 — co-running CPU+GPU atomics
# ----------------------------------------------------------------------

FIG5_CPU_THREADS = (1, 3, 6, 12, 24)
FIG5_GPU_THREADS = histogram.GPU_THREADS


register(ExperimentSpec.define(
    name="fig5",
    title="Atomics throughput (co-running)",
    source="Fig. 5",
    columns=["dtype", "elements", "cpu_threads", "gpu_threads",
             "cpu_updates_per_s", "gpu_updates_per_s",
             "cpu_relative", "gpu_relative"],
    runner=histogram.hybrid_grid,
    grid={"dtype": ["uint64", "fp64"], "elements": [1 << 10, 1 << 20]},
    quick_grid={"dtype": ["uint64"], "elements": [1 << 10, 1 << 20]},
    fixed={"cpu_threads": FIG5_CPU_THREADS, "gpu_threads": FIG5_GPU_THREADS},
    description="CPU x GPU co-run heatmaps of relative atomics "
                "throughput, normalised to the Fig. 4 baselines.",
))


# ----------------------------------------------------------------------
# Fig. 6 — allocation / deallocation speed
# ----------------------------------------------------------------------

FIG6_SIZES = (2, 32, 1 * KiB, 16 * KiB, 256 * KiB, 2 * MiB, 16 * MiB,
              128 * MiB, 1 * GiB)


register(ExperimentSpec.define(
    name="fig6",
    title="Allocation / deallocation time",
    source="Fig. 6",
    columns=["allocator", "size_bytes", "alloc_ns", "free_ns"],
    runner=allocspeed.cost_sweep,
    grid={"allocator": [
        "malloc", "hipMalloc", "hipHostMalloc",
        "hipMallocManaged(xnack=0)", "hipMallocManaged(xnack=1)",
    ]},
    fixed={"sizes": FIG6_SIZES},
    quick_fixed={"sizes": (2, 1 * KiB, 1 * MiB, 1 * GiB)},
    description="Cost-model alloc/free curves per allocator across sizes.",
))


# ----------------------------------------------------------------------
# Fig. 7 — page-fault throughput
# ----------------------------------------------------------------------

FIG7_PAGE_COUNTS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
                    10_000_000)


register(ExperimentSpec.define(
    name="fig7",
    title="Page-fault throughput",
    source="Fig. 7",
    columns=["scenario", "pages", "pages_per_s"],
    runner=pagefault.throughput_curve,
    grid={"scenario": ["gpu_major", "gpu_minor", "cpu", "cpu12"]},
    fixed={"page_counts": FIG7_PAGE_COUNTS},
    description="Throughput-vs-page-count curves for the four fault "
                "scenarios of the calibrated fault model.",
))


# ----------------------------------------------------------------------
# Fig. 8 — single-fault latency distribution
# ----------------------------------------------------------------------


register(ExperimentSpec.define(
    name="fig8",
    title="Single-fault latency",
    source="Fig. 8",
    columns=["fault_type", "mean_us", "p50_us", "p95_us"],
    runner=pagefault.latency_distributions,
    fixed={"samples": 50_000},
    quick_fixed={"samples": 10_000},
    description="Latency distribution (mean/p50/p95) of resolving one "
                "CPU minor, GPU minor, or GPU major fault.",
))


# ----------------------------------------------------------------------
# Fig. 9 — GPU TLB misses in TRIAD
# ----------------------------------------------------------------------


register(ExperimentSpec.define(
    name="fig9",
    title="GPU TLB misses in TRIAD",
    source="Fig. 9",
    columns=["allocator", "gpu_tlb_misses", "bandwidth_bytes_per_s"],
    runner=stream.tlb_misses,
    grid={"allocator": [
        "malloc", "malloc+register", "hipMalloc", "hipHostMalloc",
        "hipMallocManaged(xnack=0)",
    ]},
    fixed={"array_bytes": stream.GPU_ARRAY_BYTES, "memory_gib": 16},
    quick_fixed={"array_bytes": 64 * MiB, "memory_gib": 16},
    description="rocprof translation-miss counter per allocator — the "
                "adaptive-fragment signature behind hipMalloc's edge.",
))


# ----------------------------------------------------------------------
# Fig. 10 — CPU page faults in CPU STREAM
# ----------------------------------------------------------------------


register(ExperimentSpec.define(
    name="fig10",
    title="CPU page faults in CPU STREAM",
    source="Fig. 10",
    columns=["config", "allocator", "xnack", "init_device", "page_faults"],
    runner=stream.cpu_fault_count,
    grid={"config": list(stream.FIG10_CONFIGS)},
    quick_grid={"config": [
        "malloc / baseline", "malloc / xnack", "hipMalloc / baseline",
        "hipMalloc / gpu-init", "hipHostMalloc / baseline",
        "managed / xnack",
    ]},
    fixed={"array_bytes": stream.CPU_ARRAY_BYTES, "memory_gib": 16},
    quick_fixed={"array_bytes": 64 * MiB, "memory_gib": 16},
    description="perf-stat fault totals across allocation + init + "
                "TRIAD, per allocator/XNACK/first-touch configuration.",
))


# ----------------------------------------------------------------------
# Fig. 11 — application study (the six Rodinia ports)
# ----------------------------------------------------------------------

APP_QUICK_PARAMS: Dict[str, Dict[str, int]] = {
    "backprop": {"input_units": 1 << 17},
    "dwt2d": {"dim": 2048},
    "heartwall": {"frame_dim": 512, "frames": 10},
    "hotspot": {"grid": 512, "iterations": 20},
    "nn": {"records": 1 << 20},
    "srad_v1": {"dim": 512, "iterations": 10},
}


def run_app(app: str, profile: str):
    from ..apps import ALL_APPS, compare

    instance = ALL_APPS[app]()
    params = APP_QUICK_PARAMS[app] if profile == "quick" else None
    baseline = instance.run("explicit", params=params)
    rows, sim_time_ns = [], baseline.total_time_s * 1e9
    for variant in instance.variants:
        if variant == "explicit":
            continue
        result = instance.run(variant, params=params)
        sim_time_ns += result.total_time_s * 1e9
        c = compare(baseline, result)
        rows.append([app, variant, c.total_time_ratio, c.compute_time_ratio,
                     c.memory_ratio])
    return {"rows": rows, "sim_time_ns": sim_time_ns}


register(ExperimentSpec.define(
    name="apps",
    title="Application study: unified vs explicit",
    source="Fig. 11",
    columns=["app", "variant", "total_time_ratio", "compute_time_ratio",
             "memory_ratio"],
    runner=run_app,
    grid={"app": ["backprop", "dwt2d", "heartwall", "hotspot", "nn",
                  "srad_v1"]},
    fixed={"profile": "full"},
    quick_fixed={"profile": "quick"},
    description="Unified-variant time and memory ratios versus the "
                "explicit baseline for the six Rodinia ports.",
))


# ----------------------------------------------------------------------
# Extension — UPM vs UVM vs explicit
# ----------------------------------------------------------------------


def run_uvm(working_set_bytes: int, iterations: int):
    from ..uvm import three_way_comparison

    results = three_way_comparison(
        working_set_bytes=working_set_bytes, iterations=iterations
    )
    baseline = results["explicit/discrete"]
    rows = [
        [name, r.time_ms, r.relative_to(baseline), r.moved_bytes]
        for name, r in results.items()
    ]
    sim_time_ns = sum(r.time_ms for r in results.values()) * 1e6
    return {"rows": rows, "sim_time_ns": sim_time_ns}


register(ExperimentSpec.define(
    name="uvm",
    title="UPM vs UVM vs explicit",
    source="Section 6 (extension)",
    columns=["model", "time_ms", "vs_explicit", "moved_bytes"],
    runner=run_uvm,
    fixed={"working_set_bytes": 1 * GiB, "iterations": 10},
    quick_fixed={"working_set_bytes": 256 * MiB, "iterations": 10},
    description="The same alternating CPU/GPU pipeline under explicit, "
                "UVM, UVM+prefetch, and UPM memory models.",
))


# ----------------------------------------------------------------------
# Partitioning — SPX/TPX/CPX x NPS1/NPS4 sweep
# ----------------------------------------------------------------------


def _partition_modes() -> List[str]:
    from ..partition import all_valid_modes

    return [mode.describe() for mode in all_valid_modes()]


def run_partition(mode: str, memory_gib: int, array_bytes: int):
    from ..partition import (
        all_valid_modes,
        device_stream_bandwidth,
        kernel_launch_factor,
    )
    from ..runtime.hip import make_runtime

    config = {m.describe(): m for m in all_valid_modes()}[mode]
    hip = make_runtime(memory_gib, partition=config)
    apu = hip.apu
    aggregate, local_fractions = 0.0, []
    for device in apu.logical_devices:
        hip.hipSetDevice(device.index)
        buf = hip.hipMalloc(array_bytes)
        frames = buf.vma.resident_frames()
        local = apu.placement.local_fraction(frames, device.index)
        local_fractions.append(local)
        aggregate += device_stream_bandwidth(
            apu.config, device, apu.buffer_traits(buf), local
        )
        hip.hipFree(buf)
    first = apu.logical_devices[0]
    return [[
        mode,
        len(apu.logical_devices),
        first.compute_units,
        first.memory_capacity_bytes / GiB,
        first.ic_reach_bytes / MiB,
        min(local_fractions),
        aggregate,
        kernel_launch_factor(apu.config, config),
    ]]


register(ExperimentSpec.define(
    name="partition",
    title="Compute/memory partition modes",
    source="Partitioning guide",
    columns=["mode", "devices", "compute_units_per_device",
             "memory_gib_per_device", "ic_reach_mib_per_device",
             "min_local_fraction", "aggregate_bw_bytes_per_s",
             "launch_factor"],
    runner=run_partition,
    grid={"mode": _partition_modes()},
    fixed={"memory_gib": 4, "array_bytes": 64 * MiB},
    quick_fixed={"memory_gib": 2, "array_bytes": 16 * MiB},
    description="Logical-device shapes and aggregate per-device STREAM "
                "bandwidth for every valid partition mode.",
))
