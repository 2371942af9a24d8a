"""srad_v1 — speckle-reducing anisotropic diffusion (Rodinia).

An iterative image-denoising stencil: each iteration computes diffusion
coefficients from local gradients and then updates the image.  The
explicit variant performs only a small transfer per iteration (the
statistics needed for the diffusion coefficient), so runtime is
dominated by kernel execution and the unified variant's compute time is
essentially unchanged (Fig. 11).  The port exercises two Section 3.3
strategies: merged buffers for the partial per-iteration transfers, and
a *stack variable* — the loop-stop flag written by a GPU kernel — which
is safe to share because the host synchronises before reading it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..porting.strategies import StackFlag
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io, stencil_strips

#: Diffusion coefficient scale of the Rodinia code.
LAMBDA = 0.5

#: Fitted per-pixel cost of one iteration's two kernels combined
#: (kernel execution dominates srad_v1's runtime, Fig. 11).
PIXEL_NS = 0.15


def _srad_iteration(image: np.ndarray) -> np.ndarray:
    """One numerically real SRAD update (reflecting boundaries): image
    statistics over the whole image, the rest strip by strip in the
    whole-array expressions' exact order, ``(0.5*num)/denom`` included."""
    mean = image.mean()
    var = image.var()
    q0_sq = var / (mean * mean + 1e-12)
    scale = q0_sq * (1.0 + q0_sq) + 1e-12
    out = np.empty_like(image)
    for rows, c, n, s, e, w, grad, num, t, u in stencil_strips(image, 4):
        np.add(n, s, out=grad)  # grad = n + s + e + w - 4c
        grad += e
        grad += w
        grad -= np.multiply(c, 4.0, out=t)
        for acc, p, q in ((num, n, s), (t, e, w)):  # squared differences
            np.square(np.subtract(p, c, out=acc), out=acc)
            acc += np.square(np.subtract(q, c, out=u), out=u)
        num += t
        num *= 0.5
        num /= np.add(np.multiply(c, c, out=t), 1e-12, out=t)
        np.square(np.divide(grad, c, out=t), out=t)
        t *= 0.0625
        num -= t  # numerator of q_sq
        np.divide(np.multiply(grad, 0.25, out=t), c, out=t)
        t += 1.0
        num /= np.add(np.square(t, out=t), 1e-12, out=t)  # q_sq
        num -= q0_sq
        num /= scale
        num += 1.0
        np.clip(np.divide(1.0, num, out=num), 0.0, 1.0, out=num)  # coeff
        num *= LAMBDA / 4.0
        num *= grad
        np.add(c, num, out=out[rows])
    return out


@memoised
def _image(dim: int) -> np.ndarray:
    """The seeded speckled input image."""
    rng = np.random.default_rng(31)
    return np.exp(rng.random((dim, dim), dtype=np.float32))


@memoised
def _denoise(dim: int, iterations: int) -> np.ndarray:
    """The seeded image after *iterations* SRAD updates, computed in
    float64."""
    result = _image(dim).astype(np.float64)
    for _ in range(iterations):
        result = _srad_iteration(result)
    return result.astype(np.float32)


class SradV1(RodiniaApp):
    """The srad_v1 workload in both memory models."""

    name = "srad_v1"

    def default_params(self) -> Dict[str, int]:
        return {"dim": 1024, "iterations": 40}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _load(self, runtime: HipRuntime, dim: int, allocator: str):
        image = runtime.array((dim, dim), np.float32, allocator, name="image")
        image.np[:] = _image(dim)
        simulate_io(runtime.apu, image.nbytes)
        init = KernelSpec("read_pgm", [BufferAccess(image.allocation, "write")])
        runtime.runCpuKernel(init, threads=1)
        return image

    def _iteration_kernels(self, image_alloc, coeff_alloc, dim: int):
        prepare = KernelSpec(
            "srad_kernel1",  # gradients + diffusion coefficient
            [
                BufferAccess(image_alloc, "read"),
                BufferAccess(coeff_alloc, "write"),
            ],
            compute_ns=dim * dim * PIXEL_NS * 0.5,
        )
        update = KernelSpec(
            "srad_kernel2",  # divergence + image update
            [
                BufferAccess(coeff_alloc, "read"),
                BufferAccess(image_alloc, "readwrite"),
            ],
            compute_ns=dim * dim * PIXEL_NS * 0.5,
        )
        return prepare, update

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        dim, iterations = params["dim"], params["iterations"]
        apu = runtime.apu
        h_image = self._load(runtime, dim, "malloc")
        h_stats = runtime.array(2, np.float32, "malloc", name="stats")
        d_image = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_coeff = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_stats = runtime.array(2, np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            runtime.hipMemcpy(d_image, h_image)
            prepare, update = self._iteration_kernels(
                d_image.allocation, d_coeff.allocation, dim
            )
            for _ in range(iterations):
                # Per-iteration partial transfer: image statistics for q0.
                runtime.hipMemcpy(h_stats, d_stats)
                runtime.launchKernel(prepare)
                runtime.launchKernel(update)
            runtime.hipDeviceSynchronize()
            d_image.np[:] = _denoise(dim, iterations)
            runtime.hipMemcpy(h_image, d_image)
            profiler.sample()
        simulate_io(apu, h_image.nbytes)
        return float(h_image.np.mean())

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        dim, iterations = params["dim"], params["iterations"]
        apu = runtime.apu
        image = self._load(runtime, dim, "hipMalloc")
        coeff = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            prepare, update = self._iteration_kernels(
                image.allocation, coeff.allocation, dim
            )
            # The loop-stop flag lives on the host stack and is written
            # by the GPU kernel; safe under the synchronise-before-read
            # discipline (Section 3.3, Stack Variables).
            with StackFlag(runtime, initial=1.0) as continue_flag:
                i = 0
                while continue_flag.read() and i < iterations:
                    runtime.launchKernel(prepare)
                    runtime.launchKernel(update)
                    i += 1
                    continue_flag.gpu_write(
                        1.0 if i < iterations else 0.0
                    )
                runtime.hipDeviceSynchronize()
            image.np[:] = _denoise(dim, i)
            profiler.sample()
        simulate_io(apu, image.nbytes)
        return float(image.np.mean())
