"""Shared harness for the six ported Rodinia workloads (paper Section 3.4).

Every application is implemented twice:

* an **explicit** variant, the hipify-style baseline: separate host and
  device allocations, hipMemcpy at the phase boundaries (Listing 1);
* a **unified** variant: one allocation per logical buffer, no copies
  (Listing 2), using the Section 3.3 porting strategies where a
  challenge arises.

Both variants do the numerically identical computation with numpy, so
equality of their outputs is an invariant the test suite checks.  Total
time is what ``/usr/bin/time`` would report on the simulated clock; the
compute phase is bracketed with the inserted-timer analogue (clock
regions).  Peak memory is sampled libnuma-style.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..profiling.memusage import MemoryUsageProfiler
from ..runtime.apu import APU
from ..runtime.hip import HipRuntime, make_runtime

#: Simulated filesystem streaming bandwidth for I/O phases (bytes/s).
IO_BANDWIDTH = 2.0e9

#: Bytes per row strip of the blocked stencil kernels: a strip and its
#: few scratch buffers fit a typical per-core L2 cache.
STRIP_BYTES = 256 << 10


@dataclass(frozen=True)
class AppResult:
    """One application run's headline numbers (one bar group of Fig. 11)."""

    app: str
    variant: str
    total_time_s: float
    compute_time_s: float
    peak_memory_bytes: int
    checksum: float

    @property
    def io_time_s(self) -> float:
        """Non-compute portion of the run."""
        return self.total_time_s - self.compute_time_s


@dataclass(frozen=True)
class Comparison:
    """Unified-vs-explicit ratios, normalised to the explicit baseline."""

    app: str
    variant: str
    total_time_ratio: float
    compute_time_ratio: float
    memory_ratio: float


def compare(baseline: AppResult, candidate: AppResult) -> Comparison:
    """Normalise *candidate* to *baseline* (the Fig. 11 presentation)."""
    if baseline.app != candidate.app:
        raise ValueError("comparing different applications")
    return Comparison(
        app=candidate.app,
        variant=candidate.variant,
        total_time_ratio=candidate.total_time_s / baseline.total_time_s,
        compute_time_ratio=candidate.compute_time_s / baseline.compute_time_s,
        memory_ratio=candidate.peak_memory_bytes
        / max(1, baseline.peak_memory_bytes),
    )


def simulate_io(apu: APU, nbytes: int) -> None:
    """Advance the clock by a file-read/write of *nbytes*."""
    if nbytes < 0:
        raise ValueError(f"negative I/O size {nbytes}")
    apu.clock.advance(nbytes / IO_BANDWIDTH * 1e9)


def edge_padded(grid: np.ndarray) -> np.ndarray:
    """*grid* with one edge-replicated cell on every side, (h+2, w+2)."""
    pad = np.empty((grid.shape[0] + 2, grid.shape[1] + 2), grid.dtype)
    pad[1:-1, 1:-1] = grid
    pad[0, 1:-1] = grid[0]
    pad[-1, 1:-1] = grid[-1]
    pad[:, 0] = pad[:, 1]
    pad[:, -1] = pad[:, -2]
    return pad


def stencil_strips(grid: np.ndarray, buffers: int):
    """Walk 2-D *grid* in row strips of about :data:`STRIP_BYTES`, so a
    stencil's element-wise passes work on data still in cache.  Yields
    per strip: its row slice; the centre cells and their north, south,
    east and west neighbours (views of one :func:`edge_padded` copy);
    and *buffers* strip-sized scratch arrays reused across strips."""
    pad = edge_padded(grid)
    rows = min(len(grid), max(1, STRIP_BYTES // grid[0].nbytes))
    scratch = np.empty((buffers, rows, grid.shape[1]), grid.dtype)
    for start in range(0, len(grid), rows):
        stop = min(start + rows, len(grid))
        mid = pad[start + 1 : stop + 1]
        yield (
            slice(start, stop), mid[:, 1:-1], pad[start:stop, 1:-1],
            pad[start + 2 : stop + 2, 1:-1], mid[:, 2:], mid[:, :-2],
            *scratch[:, : stop - start],
        )


class RodiniaApp(abc.ABC):
    """Base class for the six ported workloads."""

    #: Application name (matches the Rodinia binary name).
    name: str = ""
    #: Variant labels this app supports.
    variants: Tuple[str, ...] = ("explicit", "unified")

    #: APU of the most recent run, kept so the chaos harness can check
    #: post-run invariants (leaked frames, page-table consistency) and
    #: hipsan can read a traced run's event log (``last_apu.trace``).
    last_apu = None

    #: Map from port model to the method names implementing it, used by
    #: ``repro advise --apps`` to bucket static findings per port.
    #: Apps whose entry points differ (nn, heartwall) override this.
    advise_ports: Dict[str, Tuple[str, ...]] = {
        "explicit": ("_run_explicit",),
        "managed": ("_run_unified",),
    }

    def default_params(self) -> Dict[str, int]:
        """Problem-size parameters (overridable per run)."""
        return {}

    @abc.abstractmethod
    def _run(
        self,
        variant: str,
        runtime: HipRuntime,
        profiler: MemoryUsageProfiler,
        params: Dict[str, int],
    ) -> float:
        """Execute one variant; returns the output checksum.

        Implementations bracket the main compute phase with
        ``runtime.apu.clock.region("compute")``.
        """

    def needs_xnack(self, variant: str) -> bool:
        """Whether the variant relies on GPU fault replay.

        Unified variants touch pageable memory from the GPU (nn's
        std::vector is the paper's example) and therefore run with
        HSA_XNACK=1, as the paper's unified configurations do.
        """
        return variant != "explicit"

    def run(
        self,
        variant: str = "explicit",
        memory_gib: Optional[int] = 16,
        params: Optional[Dict[str, int]] = None,
        seed: int = 0x1300A,
        trace: bool = False,
        inject=None,
    ) -> AppResult:
        """Run one variant on a fresh APU and collect the Fig. 11 metrics.

        With ``trace=True`` the runtime records a hipsan event log,
        available afterwards as ``last_apu.trace``.  *inject* attaches
        an :class:`~repro.inject.InjectionPlan` to the run's APU (the
        chaos harness's entry point); the APU itself stays reachable as
        :attr:`last_apu` for post-run invariant checks.
        """
        if variant not in self.variants:
            raise ValueError(
                f"{self.name} supports variants {self.variants}, "
                f"got {variant!r}"
            )
        merged = dict(self.default_params())
        if params:
            unknown = set(params) - set(merged)
            if unknown:
                raise ValueError(f"unknown params for {self.name}: {unknown}")
            merged.update(params)
        runtime = make_runtime(
            memory_gib, xnack=self.needs_xnack(variant), seed=seed,
            trace=trace, inject=inject,
        )
        self.last_apu = runtime.apu
        apu = runtime.apu
        profiler = MemoryUsageProfiler(apu)
        start = apu.clock.now_ns
        try:
            with apu.clock.region("total"):
                checksum = self._run(variant, runtime, profiler, merged)
                runtime.hipDeviceSynchronize()
            profiler.sample()
        finally:
            # Teardown: the apps borrow the runtime's memory arena and
            # leave their buffers live; the harness releases everything
            # here, after the measured window, the way process exit does
            # for the real Rodinia binaries.  hipFree is expensive at
            # these sizes (Fig. 6), so freeing inside the window would
            # distort the Fig. 11 ratios.  Running in a finally block
            # means a faulted run (injected fatal error) still returns
            # its frames — the no-leak invariant the chaos harness
            # checks.
            end_ns = apu.clock.now_ns
            for allocation in list(apu.memory.allocations):
                runtime.hipFree(allocation)
        total_s = (end_ns - start) / 1e9
        compute_s = apu.clock.region_ns("compute") / 1e9
        return AppResult(
            app=self.name,
            variant=variant,
            total_time_s=total_s,
            compute_time_s=compute_s,
            peak_memory_bytes=profiler.peak_bytes,
            checksum=float(checksum),
        )
