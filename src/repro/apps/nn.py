"""nn — k-nearest-neighbours over hurricane records (Rodinia).

Builds a large record set (latitude/longitude pairs) on the CPU — in the
original via ``std::vector`` reading from data files — then computes the
Euclidean distance of every record to a query point on the GPU and picks
the k smallest on the CPU.

Porting hazards exercised (paper Sections 3.3 and 6):

* **Memory usage consideration** — the original sizes the dataset from
  ``hipGetMemInfo``; the unified port drops the check (the paper's
  "pragmatic solution") since the counter is unreliable on UPM.
* **Hidden allocator** — the unified port keeps the default
  ``std::vector``; its pageable, CPU-touched pages make the GPU take a
  major/minor fault per page inside the kernel, the Fig. 11 compute-time
  outlier.  The ``std::allocator`` fix (a hipMalloc-backed vector) is
  provided as the third variant, ``unified-hipalloc``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..porting.containers import UnifiedVector
from ..porting.strategies import naive_free_memory
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io

#: Query point (the paper's runs search around a fixed coordinate).
QUERY_LAT, QUERY_LNG = 30.0, 90.0

#: Fitted per-record kernel cost (one distance evaluation).
RECORD_NS = 0.02

#: File-read chunking of the record loader (elements per read).
CHUNK_ELEMENTS = 1 << 20


@memoised
def _records(records: int) -> np.ndarray:
    """The seeded interleaved lat/lng values of the record files, drawn
    one read chunk at a time."""
    rng = np.random.default_rng(41)
    values = np.empty(records * 2, np.float32)
    for start in range(0, values.size, CHUNK_ELEMENTS):
        chunk = values[start : start + CHUNK_ELEMENTS]
        chunk[:] = rng.random(chunk.size, dtype=np.float32) * 180.0
    return values


@memoised
def _nearest(records: int, k: int) -> float:
    """Sum of the *k* smallest distances from the query point over the
    seeded records."""
    coords = _records(records)
    lat = coords[0::2]
    lng = coords[1::2]
    dist = np.sqrt((lat - QUERY_LAT) ** 2 + (lng - QUERY_LNG) ** 2)
    nearest = np.partition(dist, k)[:k]
    return float(np.sort(nearest).sum())


class NearestNeighbor(RodiniaApp):
    """The nn workload: explicit, unified (default vector), and the
    std::allocator-style fixed unified variant."""

    name = "nn"
    variants = ("explicit", "unified", "unified-hipalloc")
    advise_ports = {
        "explicit": ("_compute_explicit",),
        "managed": ("_compute_unified",),
    }

    def default_params(self) -> Dict[str, int]:
        return {"records": 1 << 25, "k": 8}

    def _run(self, variant, runtime, profiler, params):
        records, k = params["records"], params["k"]
        vector_allocator = "hipMalloc" if variant == "unified-hipalloc" else "malloc"
        vector = self._build_records(runtime, records, vector_allocator)
        profiler.sample()

        if variant == "explicit":
            checksum = self._compute_explicit(runtime, profiler, vector, k)
        else:
            checksum = self._compute_unified(runtime, profiler, vector, k)
        return checksum

    # ------------------------------------------------------------------

    def _build_records(
        self, runtime: HipRuntime, records: int, allocator: str
    ) -> UnifiedVector:
        """I/O phase: stream the record files into a growing vector."""
        apu = runtime.apu
        vector = UnifiedVector(runtime, np.float32, allocator=allocator)
        values = _records(records)
        for start in range(0, values.size, CHUNK_ELEMENTS):
            chunk = values[start : start + CHUNK_ELEMENTS]
            vector.extend(chunk)
            simulate_io(apu, chunk.nbytes)
        return vector

    def _kernel(self, records_alloc, dist_alloc, nbytes: int, count: int):
        return KernelSpec(
            "euclid",
            [
                BufferAccess(records_alloc, "read", size_bytes=nbytes),
                BufferAccess(dist_alloc, "write"),
            ],
            compute_ns=count * RECORD_NS,
        )

    # ------------------------------------------------------------------

    def _compute_explicit(self, runtime, profiler, vector, k):
        apu = runtime.apu
        count = vector.size // 2
        nbytes = vector.size * 4

        # The original sizes its dataset from the GPU free-memory query —
        # fine on a discrete GPU, misleading on UPM (Section 3.3).
        if nbytes > naive_free_memory(runtime):
            raise MemoryError("dataset exceeds reported device memory")

        # Staging: duplicate the records on the "device" and pre-allocate
        # the host-side result array (outside the timed compute phase,
        # where the original's timers sit).
        d_records = runtime.hipMalloc(nbytes, name="d_records")
        d_dist = runtime.array(count, np.float32, "hipMalloc", name="dist")
        h_dist = runtime.array(count, np.float32, "malloc", name="h_dist")
        apu.touch(h_dist.allocation, "cpu")
        runtime.hipMemcpy(d_records, vector.allocation, nbytes)
        profiler.sample()

        with apu.clock.region("compute"):
            runtime.launchKernel(
                self._kernel(d_records, d_dist.allocation, nbytes, count)
            )
            runtime.hipDeviceSynchronize()
            runtime.hipMemcpy(h_dist, d_dist)
            checksum = _nearest(count, k)
            profiler.sample()
        simulate_io(apu, 4096)  # print the k nearest records
        return checksum

    def _compute_unified(self, runtime, profiler, vector, k):
        apu = runtime.apu
        count = vector.size // 2
        nbytes = vector.size * 4

        dist = runtime.array(count, np.float32, "hipMalloc", name="dist")
        profiler.sample()
        with apu.clock.region("compute"):
            # The GPU reads the vector's memory directly.  With the
            # default allocator those are pageable CPU-touched pages:
            # the kernel eats one GPU fault per page (the outlier).
            runtime.launchKernel(
                self._kernel(vector.allocation, dist.allocation, nbytes, count)
            )
            runtime.hipDeviceSynchronize()
            checksum = _nearest(count, k)
            profiler.sample()
        simulate_io(apu, 4096)
        return checksum
