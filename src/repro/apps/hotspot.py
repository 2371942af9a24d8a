"""hotspot — thermal simulation stencil (Rodinia).

Iteratively estimates processor temperature from power dissipation on a
2D grid: each step updates every cell from its four neighbours, its own
temperature, and the local power draw.  The explicit variant copies the
temperature and power grids to the device before the iteration loop and
the result back after it; the unified variant runs the same kernels on
single shared buffers.  Hotspot has no porting hazards (no concurrent
access, statics, or hidden allocators), making it the plain-sailing case
of Fig. 11: competitive time, duplicated grids merged.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io, stencil_strips

#: Physical constants of the Rodinia implementation (scaled).
CAP, RX, RY, RZ = 0.5, 1.0, 1.0, 4.75
AMB_TEMP = 80.0

#: Fitted per-cell kernel cost (stencil ALU work per grid point).
CELL_NS = 0.02


def _stencil_step(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One numerically real hotspot update (edge cells clamp outward),
    strip by strip in exactly this order of operations: ``t + CAP * (power
    + ((s+n) - 2t)/RY + ((e+w) - 2t)/RX + (AMB_TEMP - t)/RZ) * 0.001``."""
    out = np.empty_like(temp)
    for rows, t, n, s, e, w, a, b, acc in stencil_strips(temp, 3):
        np.multiply(t, 2.0, out=acc)
        np.subtract(np.add(s, n, out=a), acc, out=a)
        a /= RY
        np.subtract(np.add(e, w, out=b), acc, out=b)
        b /= RX
        np.add(power[rows], a, out=acc)
        acc += b
        acc += np.divide(np.subtract(AMB_TEMP, t, out=a), RZ, out=a)
        acc *= CAP
        acc *= 0.001
        np.add(t, acc, out=out[rows])
    return out


@memoised
def _inputs(grid: int):
    """The seeded temperature and power grids of the input files."""
    rng = np.random.default_rng(11)
    temp = 320.0 + 10.0 * rng.random((grid, grid), dtype=np.float32)
    return temp, rng.random((grid, grid), dtype=np.float32)


@memoised
def _simulate(grid: int, iterations: int):
    """The temperature of the seeded grids after *iterations* stencil
    steps."""
    temp, power = _inputs(grid)
    for _ in range(iterations):
        temp = _stencil_step(temp, power)
    return temp


class Hotspot(RodiniaApp):
    """The hotspot workload in both memory models."""

    name = "hotspot"

    def default_params(self) -> Dict[str, int]:
        return {"grid": 2048, "iterations": 60}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _load_inputs(self, runtime: HipRuntime, grid: int, allocator: str):
        """Read the temperature and power grids from disk (I/O phase)."""
        temp = runtime.array((grid, grid), np.float32, allocator, name="temp")
        power = runtime.array((grid, grid), np.float32, allocator, name="power")
        temp.np[:], power.np[:] = _inputs(grid)
        simulate_io(runtime.apu, temp.nbytes + power.nbytes)
        init = KernelSpec(
            "read_input",
            [
                BufferAccess(temp.allocation, "write"),
                BufferAccess(power.allocation, "write"),
            ],
        )
        runtime.runCpuKernel(init, threads=1)
        return temp, power

    def _kernel(self, temp_alloc, power_alloc, out_alloc, grid: int) -> KernelSpec:
        return KernelSpec(
            "hotspot_kernel",
            [
                BufferAccess(temp_alloc, "read"),
                BufferAccess(power_alloc, "read"),
                BufferAccess(out_alloc, "write"),
            ],
            compute_ns=grid * grid * CELL_NS,
        )

    def _iterate(self, runtime, grid: int, iterations: int,
                 spec_ab: KernelSpec, spec_ba: KernelSpec) -> np.ndarray:
        for i in range(iterations):
            runtime.launchKernel(spec_ab if i % 2 == 0 else spec_ba)
        runtime.hipDeviceSynchronize()
        return _simulate(grid, iterations)

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        grid, iterations = params["grid"], params["iterations"]
        apu = runtime.apu
        h_temp, h_power = self._load_inputs(runtime, grid, "malloc")
        profiler.sample()

        with apu.clock.region("compute"):
            d_temp = runtime.array((grid, grid), np.float32, "hipMalloc")
            d_power = runtime.array((grid, grid), np.float32, "hipMalloc")
            d_out = runtime.array((grid, grid), np.float32, "hipMalloc")
            profiler.sample()
            runtime.hipMemcpy(d_temp, h_temp)
            runtime.hipMemcpy(d_power, h_power)
            spec_ab = self._kernel(
                d_temp.allocation, d_power.allocation, d_out.allocation, grid
            )
            spec_ba = self._kernel(
                d_out.allocation, d_power.allocation, d_temp.allocation, grid
            )
            result = self._iterate(runtime, grid, iterations, spec_ab, spec_ba)
            d_final = d_out if iterations % 2 else d_temp
            d_final.np[:] = result
            runtime.hipMemcpy(h_temp, d_final)
            profiler.sample()
        simulate_io(apu, h_temp.nbytes)  # write output.out
        return float(h_temp.np.mean())

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        grid, iterations = params["grid"], params["iterations"]
        apu = runtime.apu
        temp, power = self._load_inputs(runtime, grid, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            out = runtime.array((grid, grid), np.float32, "hipMalloc")
            profiler.sample()
            spec_ab = self._kernel(
                temp.allocation, power.allocation, out.allocation, grid
            )
            spec_ba = self._kernel(
                out.allocation, power.allocation, temp.allocation, grid
            )
            result = self._iterate(runtime, grid, iterations, spec_ab, spec_ba)
            final = out if iterations % 2 else temp
            final.np[:] = result
            profiler.sample()
        simulate_io(apu, temp.nbytes)
        return float(final.np.mean())
