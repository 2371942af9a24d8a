"""heartwall — ultrasound heart-wall tracking (Rodinia).

Tracks sample points on heart-wall boundaries through a sequence of
ultrasound frames.  Each frame is pre-processed on the CPU and consumed
by a GPU tracking kernel; the original pipelines the next frame's
pre-processing with the current frame's GPU work, and keeps both host
and device data in *static* arrays.

Three variants, as in the paper (Section 6):

* **explicit** — the hipified baseline: static-sized host/device frame
  buffers, async H2D copy overlapping the kernel.
* **unified-v1** — the minimal port: the static frame buffers become
  ``__managed__`` variables.  Managed statics live in an uncacheable
  aperture with ~103 GB/s bandwidth (Fig. 3), costing ~18 % total time.
* **unified-v2** — the restructured port: dynamic hipMalloc allocations
  with :class:`~repro.porting.strategies.DoubleBuffer` and stream-event
  synchronisation, reaching parity with the explicit version.  Peak
  memory is unchanged: two unified buffers replace host+device pairs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..memo import memoised
from ..porting.strategies import DoubleBuffer, event_synchronised_swap
from ..runtime.hip import HipRuntime
from ..runtime.kernels import BufferAccess, KernelSpec
from .common import RodiniaApp, simulate_io

#: Tracking template radius (the kernel correlates a patch per point).
TEMPLATE = 8

#: Fitted per-pixel cost of the tracking kernel's correlation sweeps.
PIXEL_NS = 0.03

#: Fitted per-pixel cost of the CPU pre-processing (SRAD-like filter).
#: Pre-processing is heartwall's pipeline bottleneck: when it overlaps
#: the GPU work (explicit async copies, unified-v2 double buffering) the
#: per-frame time is prep-bound, which is why v2 matches the explicit
#: version while the non-overlapped v1 pays the managed-static kernel
#: penalty on top (Fig. 11).
PREP_NS = 0.25


def _preprocess_frame(rng: np.random.Generator, shape) -> np.ndarray:
    """Generate + filter one ultrasound frame (numerically real)."""
    frame = rng.random(shape, dtype=np.float32)
    # Cheap separable smoothing, standing in for the SRAD pre-filter:
    # (frame + roll(frame, 1, axis=0) + roll(frame, 1, axis=1)) / 3.
    out = np.empty_like(frame)
    np.add(frame[1:], frame[:-1], out=out[1:])
    np.add(frame[0], frame[-1], out=out[0])
    out[:, 1:] += frame[:, :-1]
    out[:, 0] += frame[:, -1]
    out /= 3.0
    return out


def _track(frame: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Move each tracked point toward its patch's brightest pixel."""
    h, w = frame.shape
    out = []
    for y, x in points.tolist():
        y0, y1 = max(0, y - TEMPLATE), min(h, y + TEMPLATE + 1)
        x0, x1 = max(0, x - TEMPLATE), min(w, x + TEMPLATE + 1)
        dy, dx = divmod(int(frame[y0:y1, x0:x1].argmax()), x1 - x0)
        out.append((min(max(y0 + dy, TEMPLATE), h - TEMPLATE - 1),
                    min(max(x0 + dx, TEMPLATE), w - TEMPLATE - 1)))
    return np.array(out, dtype=points.dtype).reshape(points.shape)


@memoised
def _next_frame(rng: np.random.Generator, shape, points: np.ndarray):
    """The next pre-processed frame and the points tracked on it."""
    frame = _preprocess_frame(rng, shape)
    return frame, _track(frame, points)


class Heartwall(RodiniaApp):
    """The heartwall workload: explicit, managed-static, restructured."""

    name = "heartwall"
    variants = ("explicit", "unified-v1", "unified-v2")
    advise_ports = {
        "explicit": ("_run_explicit",),
        "managed": ("_run_managed_static", "_run_double_buffered"),
    }

    def default_params(self) -> Dict[str, int]:
        return {"frame_dim": 1024, "frames": 40, "points": 64}

    def _run(self, variant, runtime, profiler, params):
        if variant == "explicit":
            return self._run_explicit(runtime, profiler, params)
        if variant == "unified-v1":
            return self._run_managed_static(runtime, profiler, params)
        return self._run_double_buffered(runtime, profiler, params)

    # ------------------------------------------------------------------

    def _setup(self, runtime: HipRuntime, params):
        """Read the AVI header and seed the tracked points."""
        dim = params["frame_dim"]
        simulate_io(runtime.apu, dim * dim * 4)  # first frame decode
        rng = np.random.default_rng(53)
        points = rng.integers(
            TEMPLATE, dim - TEMPLATE, size=(params["points"], 2)
        ).astype(np.int64)
        return rng, points

    def _prep_spec(self, target_alloc, dim: int) -> KernelSpec:
        return KernelSpec(
            "frame_preprocess",
            [BufferAccess(target_alloc, "write")],
            compute_ns=dim * dim * PREP_NS,
        )

    def _track_spec(self, frame_alloc, dim: int, passes: int = 2) -> KernelSpec:
        return KernelSpec(
            "heartwall_kernel",
            [BufferAccess(frame_alloc, "read", passes=passes)],
            compute_ns=dim * dim * PIXEL_NS,
        )

    # ------------------------------------------------------------------

    def _run_explicit(self, runtime: HipRuntime, profiler, params):
        dim, frames = params["frame_dim"], params["frames"]
        apu = runtime.apu
        rng, points = self._setup(runtime, params)
        # Static-sized frame buffers: host staging + device copy.
        h_frame = runtime.array((dim, dim), np.float32, "malloc", name="h_frame")
        d_frame = runtime.array((dim, dim), np.float32, "hipMalloc", name="d_frame")
        apu.touch(h_frame.allocation, "cpu")
        copy_stream = runtime.hipStreamCreate("copy")
        profiler.sample()

        with apu.clock.region("compute"):
            for _ in range(frames):
                # CPU pre-processing of the next frame overlaps the GPU
                # kernel still running on the previous one.
                frame, points = _next_frame(rng, (dim, dim), points)
                h_frame.np[:] = frame
                runtime.runCpuKernel(self._prep_spec(h_frame.allocation, dim))
                runtime.hipMemcpyAsync(d_frame, h_frame, stream=copy_stream)
                # The kernel (default stream) waits for the copy via an
                # event; the host moves straight to the next frame's prep.
                copied = runtime.hipEventCreate("copied")
                runtime.hipEventRecord(copied, copy_stream)
                runtime.hipStreamWaitEvent(None, copied)
                runtime.launchKernel(self._track_spec(d_frame.allocation, dim))
                # The next iteration's copy must not overwrite d_frame
                # while this kernel still reads it: the copy stream waits
                # on an event recorded after the launch.  Pre-processing
                # dominates the per-frame time, so the wait is free.
                tracked = runtime.hipEventCreate("tracked")
                runtime.hipEventRecord(tracked)
                runtime.hipStreamWaitEvent(copy_stream, tracked)
            runtime.hipDeviceSynchronize()
            profiler.sample()
        return float(points.sum())

    def _run_managed_static(self, runtime: HipRuntime, profiler, params):
        dim, frames = params["frame_dim"], params["frames"]
        apu = runtime.apu
        rng, points = self._setup(runtime, params)
        # The minimal port: the static arrays become __managed__ — one
        # buffer, no copies, but every access goes through the uncached
        # aperture (Fig. 3's 103 GB/s tier).
        frame_buf = runtime.array(
            (dim, dim), np.float32, "managed_static", name="managed_frame"
        )
        profiler.sample()

        with apu.clock.region("compute"):
            for _ in range(frames):
                frame, points = _next_frame(rng, (dim, dim), points)
                frame_buf.np[:] = frame
                runtime.runCpuKernel(self._prep_spec(frame_buf.allocation, dim))
                runtime.launchKernel(self._track_spec(frame_buf.allocation, dim))
                runtime.hipDeviceSynchronize()
            runtime.hipDeviceSynchronize()
            profiler.sample()
        return float(points.sum())

    def _run_double_buffered(self, runtime: HipRuntime, profiler, params):
        dim, frames = params["frame_dim"], params["frames"]
        apu = runtime.apu
        rng, points = self._setup(runtime, params)
        # The restructured port: two dynamic unified buffers swapped per
        # frame, with stream events ordering producer and consumer.
        front = runtime.array((dim, dim), np.float32, "hipMalloc", name="front")
        back = runtime.array((dim, dim), np.float32, "hipMalloc", name="back")
        buffers = DoubleBuffer(front, back)
        compute_stream = runtime.hipStreamCreate("compute")
        # Per-buffer producer guards: the event recorded after the last
        # kernel that read a buffer; the CPU waits on it before
        # overwriting that buffer again (two iterations later).
        guards: Dict[int, object] = {}
        profiler.sample()

        with apu.clock.region("compute"):
            for _ in range(frames):
                frame, points = _next_frame(rng, (dim, dim), points)
                target = buffers.back
                guard = guards.get(id(target.allocation))
                if guard is not None:
                    # In steady state the consumer finished long ago, so
                    # this wait costs nothing — it only orders the reuse.
                    runtime.hipEventSynchronize(guard)
                target.np[:] = frame
                runtime.runCpuKernel(self._prep_spec(target.allocation, dim))
                event = event_synchronised_swap(runtime, buffers, compute_stream)
                runtime.hipStreamWaitEvent(compute_stream, event)
                runtime.launchKernel(
                    self._track_spec(buffers.front.allocation, dim),
                    compute_stream,
                )
                done = runtime.hipEventCreate("tracked")
                runtime.hipEventRecord(done, compute_stream)
                guards[id(buffers.front.allocation)] = done
            runtime.hipStreamSynchronize(compute_stream)
            profiler.sample()
        return float(points.sum())
