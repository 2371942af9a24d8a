"""dwt2d — 2D discrete wavelet transform (Rodinia).

Transforms an input image through several levels of a 2D Haar-style
wavelet decomposition.  The explicit variant stages the image to the
device through a *partial-transfer pipeline* — chunks are copied and
consumed in a loop to overlap movement with compute (the Section 3.3
"Partial Memory Transfer" pattern) — and copies the coefficients back.
In the unified variant the merged buffer obviates the transfers
entirely: the paper measures an 86 % compute-time reduction, while total
time barely moves because image I/O dominates it (Fig. 11).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..porting.strategies import ChunkSchedule, merged_pipeline
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io

#: Fitted per-pixel kernel cost of one DWT level (lifting steps),
#: calibrated so removing the transfers cuts compute time by ~86 %
#: (Fig. 11's dwt2d bar).
PIXEL_NS = 0.018

#: Pipeline chunk size of the explicit variant (rows worth of bytes).
CHUNK_BYTES = 16 << 20


def _haar_level(quad: np.ndarray, scratch: np.ndarray) -> None:
    """One 2D Haar level of *quad*, in place (numerically real): the row
    pass writes [low | high] into *scratch* (same shape), the column pass
    writes [low; high] back into *quad*."""
    half_h, half_w = quad.shape[0] // 2, quad.shape[1] // 2
    for src, lo, hi in (
        (quad, scratch[:, :half_w], scratch[:, half_w:]),
        (scratch.T, quad[:half_h].T, quad[half_h:].T),  # columns as rows
    ):
        np.add(src[:, 0::2], src[:, 1::2], out=lo)
        lo /= 2.0
        np.subtract(src[:, 0::2], src[:, 1::2], out=hi)
        hi /= 2.0


def dwt_forward(image: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level forward DWT: each level transforms the LL quadrant."""
    out = image.astype(np.float32)
    scratch = np.empty(out.size, out.dtype)
    h, w = out.shape
    for _ in range(levels):
        _haar_level(out[:h, :w], scratch[: h * w].reshape(h, w))
        h, w = h // 2, w // 2
        if h < 2 or w < 2:
            break
    return out


@memoised
def _bitmap(dim: int) -> np.ndarray:
    """The seeded input bitmap's pixel values, drawn as int32."""
    rng = np.random.default_rng(23)
    image = np.empty((dim, dim), np.float32)
    image[:] = rng.integers(0, 256, size=(dim, dim), dtype=np.int32)
    return image


@memoised
def _transform(dim: int, levels: int) -> np.ndarray:
    """The seeded bitmap's *levels*-level forward DWT."""
    return dwt_forward(_bitmap(dim), levels)


class Dwt2d(RodiniaApp):
    """The dwt2d workload in both memory models."""

    name = "dwt2d"

    def default_params(self) -> Dict[str, int]:
        return {"dim": 8192, "levels": 3}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        return self._run_unified(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _load_image(self, runtime: HipRuntime, profiler, dim: int, allocator: str):
        """The dominant I/O phase: decode the input bitmap.

        The decoder stages the raw RGB file and two component planes in
        temporary CPU buffers — this is where dwt2d's peak memory occurs,
        which is why unifying the GPU buffers does not reduce the
        application's peak usage (Fig. 11, lower plot).
        """
        apu = runtime.apu
        image = runtime.array((dim, dim), np.float32, allocator, name="image")
        # Temporary decode buffers: raw 3-byte pixels + two float planes.
        raw = runtime.malloc(dim * dim * 3, name="bmp_raw")
        planes = [
            runtime.malloc(dim * dim * 4, name=f"plane{i}") for i in range(2)
        ]
        apu.touch(raw, "cpu")
        for plane in planes:
            apu.touch(plane, "cpu")
        image.np[:] = _bitmap(dim)
        simulate_io(apu, raw.size_bytes)  # read the bitmap file
        init = KernelSpec(
            "bmp_decode", [BufferAccess(image.allocation, "write")]
        )
        runtime.runCpuKernel(init, threads=1)
        profiler.sample()  # the application's peak footprint is here
        for plane in planes:
            runtime.hipFree(plane)
        runtime.hipFree(raw)
        return image

    def _dwt_kernels(self, src_alloc, dst_alloc, dim: int, levels: int):
        """One KernelSpec per decomposition level (shrinking quadrant)."""
        specs = []
        h = dim
        for level in range(levels):
            nbytes = h * h * 4
            specs.append(
                KernelSpec(
                    f"fdwt53_level{level}",
                    [
                        BufferAccess(src_alloc, "read", size_bytes=nbytes),
                        BufferAccess(dst_alloc, "write", size_bytes=nbytes),
                    ],
                    compute_ns=h * h * PIXEL_NS,
                )
            )
            h //= 2
            if h < 2:
                break
        return specs

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        dim, levels = params["dim"], params["levels"]
        apu = runtime.apu
        h_image = self._load_image(runtime, profiler, dim, "malloc")
        d_image = runtime.array((dim, dim), np.float32, "hipMalloc")
        d_out = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            # Partial-transfer pipeline: copy chunk i while chunk i-1 is
            # being pre-processed, then run the level kernels.
            schedule = ChunkSchedule(h_image.nbytes, min(CHUNK_BYTES, h_image.nbytes))
            for offset, size in schedule.chunks():
                runtime.hipMemcpy(
                    d_image, h_image, size, dst_offset=offset, src_offset=offset
                )
            for spec in self._dwt_kernels(
                d_image.allocation, d_out.allocation, dim, levels
            ):
                runtime.launchKernel(spec)
            runtime.hipDeviceSynchronize()
            d_out.np[:] = _transform(dim, levels)
            runtime.hipMemcpy(h_image, d_out)
            profiler.sample()
        simulate_io(apu, h_image.nbytes)  # write coefficient planes
        # d_image is dead: it takes |coefficients| instead of a temporary.
        return float(np.abs(h_image.np, out=d_image.np).sum())

    def _run_unified(self, runtime: HipRuntime, profiler, params):
        dim, levels = params["dim"], params["levels"]
        apu = runtime.apu
        image = self._load_image(runtime, profiler, dim, "hipMalloc")
        out = runtime.array((dim, dim), np.float32, "hipMalloc")
        profiler.sample()

        with apu.clock.region("compute"):
            # Merged buffers: same chunk coverage, zero transfers.
            schedule = ChunkSchedule(image.nbytes, min(CHUNK_BYTES, image.nbytes))
            merged_pipeline(schedule)  # the kernels consume chunks in place
            for spec in self._dwt_kernels(
                image.allocation, out.allocation, dim, levels
            ):
                runtime.launchKernel(spec)
            runtime.hipDeviceSynchronize()
            out.np[:] = _transform(dim, levels)
            profiler.sample()
        simulate_io(apu, out.nbytes)
        # image is dead: it takes |coefficients| instead of a temporary.
        return float(np.abs(out.np, out=image.np).sum())
