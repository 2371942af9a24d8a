"""backprop — feed-forward neural network training (Rodinia).

One training pass of a two-layer perceptron: forward propagation of an
input layer through a 16-unit hidden layer, error backpropagation, and a
weight-adjustment pass.  The explicit variant copies the input and
weight matrices to the device, runs the two kernels, and copies the
adjusted weights back — several transfers inside the main compute phase.
The unified variant allocates the buffers once with hipMalloc and
eliminates every copy, which is where the paper's 35 % compute-time and
19 % total-time reductions come from (Fig. 11).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..runtime.arrays import DeviceArray
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io

#: Hidden-layer width (fixed at 16 in the Rodinia code).
HIDDEN = 16

#: Fitted per-connection kernel cost: the layerforward/adjust kernels are
#: reduction-heavy and run far below peak FLOPs.  Calibrated so the
#: explicit variant's copy share reproduces Fig. 11's backprop deltas
#: (compute -35 %, total -19 % when the copies are removed).
CONNECTION_NS = 0.30

#: Learning rate / momentum of the Rodinia implementation.
ETA, MOMENTUM = 0.3, 0.3


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@memoised
def _dataset(n: int):
    """The seeded input layer and initial weights ``(x, w1, w2)``."""
    rng = np.random.default_rng(7)
    x = rng.random(n, dtype=np.float32)
    w1 = rng.random((n, HIDDEN), dtype=np.float32) - 0.5
    return x, w1, rng.random(HIDDEN, dtype=np.float32) - 0.5


@memoised
def _train(n: int):
    """The numerically real training step on the seeded dataset:
    ``(new_w1, new_w2, output)``."""
    x, w1, w2 = _dataset(n)
    w1, w2 = w1.copy(), w2.copy()
    hidden = _sigmoid(x @ w1 / n)
    output = _sigmoid(hidden @ w2)
    target = 0.1
    delta_out = output * (1.0 - output) * (target - output)
    delta_hidden = hidden * (1.0 - hidden) * (w2 * delta_out)
    w2 += ETA * delta_out * hidden
    step = np.outer(x, delta_hidden)
    step *= ETA
    w1 += step
    return w1, w2, float(output)


class Backprop(RodiniaApp):
    """The backprop workload in both memory models."""

    name = "backprop"

    def default_params(self) -> Dict[str, int]:
        return {"input_units": 1 << 21}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _generate(self, runtime: HipRuntime, n: int, allocator: str):
        """Setup phase: read the face dataset, allocate and initialise."""
        x = runtime.array(n, np.float32, allocator, name="input")
        w1 = runtime.array((n, HIDDEN), np.float32, allocator, name="w1")
        w2 = runtime.array(HIDDEN, np.float32, allocator, name="w2")
        simulate_io(runtime.apu, x.nbytes + w1.nbytes)  # dataset + net file
        x.np[:], w1.np[:], w2.np[:] = _dataset(n)
        # The init loops stream-write the buffers from one CPU thread.
        init = KernelSpec(
            "init",
            [
                BufferAccess(x.allocation, "write"),
                BufferAccess(w1.allocation, "write"),
                BufferAccess(w2.allocation, "write"),
            ],
        )
        runtime.runCpuKernel(init, threads=1)
        return x, w1, w2

    def _kernels(self, x_buf, w1_buf, h_buf) -> tuple[KernelSpec, KernelSpec]:
        n = x_buf.allocation.size_bytes // 4
        connections = n * HIDDEN
        forward = KernelSpec(
            "bpnn_layerforward",
            [
                BufferAccess(x_buf.allocation, "read"),
                BufferAccess(w1_buf.allocation, "read"),
                BufferAccess(h_buf.allocation, "write"),
            ],
            compute_ns=connections * CONNECTION_NS,
        )
        adjust = KernelSpec(
            "bpnn_adjust_weights",
            [
                BufferAccess(x_buf.allocation, "read"),
                BufferAccess(w1_buf.allocation, "readwrite"),
            ],
            compute_ns=connections * CONNECTION_NS,
        )
        return forward, adjust

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        n = params["input_units"]
        apu = runtime.apu
        h_x, h_w1, h_w2 = self._generate(runtime, n, "malloc")
        profiler.sample()

        with apu.clock.region("compute"):
            d_x = runtime.array(n, np.float32, "hipMalloc", name="d_input")
            d_w1 = runtime.array((n, HIDDEN), np.float32, "hipMalloc", name="d_w1")
            d_h = runtime.array(HIDDEN, np.float32, "hipMalloc", name="d_hidden")
            h_hidden = runtime.array(HIDDEN, np.float32, "malloc", name="hidden")
            profiler.sample()
            runtime.hipMemcpy(d_x, h_x)
            runtime.hipMemcpy(d_w1, h_w1)
            forward, adjust = self._kernels(d_x, d_w1, d_h)
            runtime.launchKernel(forward)
            runtime.hipDeviceSynchronize()
            runtime.hipMemcpy(h_hidden, d_h)  # hidden partial sums back
            new_w1, new_w2, out = _train(n)
            runtime.launchKernel(adjust)
            runtime.hipDeviceSynchronize()
            runtime.hipMemcpy(h_w1, d_w1)  # adjusted weights back
            profiler.sample()
        h_w1.np[:] = new_w1
        h_w2.np[:] = new_w2
        self._write_output(runtime, h_w1)
        return float(np.abs(h_w1.np).sum() + np.abs(h_w2.np).sum() + out)

    @staticmethod
    def _write_output(runtime: HipRuntime, weights: DeviceArray) -> None:
        """facetrain's output phase: dump the trained network to disk."""
        simulate_io(runtime.apu, weights.nbytes)

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        n = params["input_units"]
        apu = runtime.apu
        x, w1, w2 = self._generate(runtime, n, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            hidden = runtime.array(HIDDEN, np.float32, "hipMalloc", name="hidden")
            forward, adjust = self._kernels(x, w1, hidden)
            runtime.launchKernel(forward)
            runtime.hipDeviceSynchronize()
            new_w1, new_w2, out = _train(n)
            runtime.launchKernel(adjust)
            runtime.hipDeviceSynchronize()
            profiler.sample()
        w1.np[:] = new_w1
        w2.np[:] = new_w2
        self._write_output(runtime, w1)
        return float(np.abs(w1.np).sum() + np.abs(w2.np).sum() + out)
