"""Parallel-histogram atomics benchmark (paper Figs. 4-5).

An array of 2^0, 2^10, 2^20, or 2^30 UINT64/FP64 elements is updated at
random indices with atomic adds, from CPU threads, GPU threads, or both
at once.  Throughput comes from the contention model in
:mod:`repro.perf.atomics`; the *functional* side (random increments and
the conservation invariant that total count equals total updates) is
executed with numpy so correctness is testable.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..hw.config import default_config
from ..perf.atomics import (
    DType,
    cpu_atomic_throughput,
    gpu_atomic_throughput,
    hybrid_atomic_throughput,
)

#: The paper's four array sizes (elements).
ARRAY_SIZES = (1, 1 << 10, 1 << 20, 1 << 30)

#: CPU thread counts swept in Fig. 4's first row.
CPU_THREADS = (1, 2, 3, 6, 12, 24)

#: GPU thread counts swept in Fig. 4's second row (64-thread blocks),
#: also Fig. 5's GPU axis.
GPU_THREADS = (64, 640, 1280, 2304, 3328, 6400, 10496, 14592)


def isolated_sweep(device: str, dtype: DType, elements: int) -> List[list]:
    """Fig. 4: isolated throughput of one device across its thread counts.

    One row ``[device, dtype, elements, threads, updates_per_s]`` per
    :data:`CPU_THREADS` entry on the CPU, per :data:`GPU_THREADS` entry
    on the GPU.
    """
    config = default_config()
    if device == "cpu":
        threads, throughput = CPU_THREADS, cpu_atomic_throughput
    else:
        threads, throughput = GPU_THREADS, gpu_atomic_throughput
    return [
        [device, dtype, elements, t, throughput(config, elements, t, dtype)]
        for t in threads
    ]


def hybrid_grid(
    dtype: DType,
    elements: int,
    cpu_threads: Sequence[int],
    gpu_threads: Sequence[int],
) -> List[list]:
    """Fig. 5: the co-running CPU x GPU grid of relative performance.

    One row ``[dtype, elements, cpu_threads, gpu_threads,
    cpu_updates_per_s, gpu_updates_per_s, cpu_relative, gpu_relative]``
    per cell, CPU-major.
    """
    config = default_config()
    rows = []
    for ct in cpu_threads:
        for gt in gpu_threads:
            r = hybrid_atomic_throughput(config, elements, ct, gt, dtype)
            rows.append([dtype, elements, ct, gt, r.cpu_updates_per_s,
                         r.gpu_updates_per_s, r.cpu_relative, r.gpu_relative])
    return rows


def run_histogram_kernel(
    elements: int,
    updates: int,
    workers: int = 4,
    dtype: DType = "uint64",
    seed: int = 0xA70,
) -> np.ndarray:
    """Functionally execute the histogram update loop.

    Splits *updates* across *workers* pseudo-threads, each with its own
    deterministic RNG stream (the paper's CPU kernel uses per-thread
    ``std::minstd_rand``; the GPU kernel uses XORWOW).  Returns the final
    histogram; atomicity in the simulator is trivially exact, so the
    conservation law ``histogram.sum() == updates`` is the correctness
    oracle.
    """
    if elements <= 0 or updates < 0 or workers <= 0:
        raise ValueError("elements/updates/workers must be positive")
    np_dtype = np.uint64 if dtype == "uint64" else np.float64
    histogram = np.zeros(elements, dtype=np_dtype)
    base, extra = divmod(updates, workers)
    for worker in range(workers):
        n = base + (1 if worker < extra else 0)
        if n == 0:
            continue
        rng = np.random.default_rng(seed + worker)
        indices = rng.integers(0, elements, size=n)
        np.add.at(histogram, indices, np_dtype(1))
    return histogram
