"""Pointer-chase latency benchmark (paper Fig. 2, adapted multichase).

The paper's methodology: a chase over buffers from 1 KiB to 4 GiB, per
allocator, on both the CPU and the GPU, with a 256 MiB cache flush
between samples.  Here a single maximal buffer is allocated per
allocator per run and first-touched by the CPU; latency is then
evaluated at each working-set size over the buffer's physical frame
prefix — exactly the state the latency model consumes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..memo import memoised
from ..perf.latency import chase_latency_ns
from ..runtime.hip import make_runtime
from .allocators import resolve

#: The devices a curve is measured on, in :func:`_curves`' result order.
DEVICES = ("cpu", "gpu")


@memoised
def _curves(
    allocator: str, sizes: Tuple[int, ...], memory_gib: int
) -> Tuple[Tuple[float, ...], ...]:
    """Each device's latencies over *sizes*, in :data:`DEVICES` order.

    One fresh *memory_gib* APU, one buffer of the largest size, first
    touched by the CPU.  Only floats leave: the APU and its frames are
    dropped on return.
    """
    name, xnack = resolve(allocator)
    runtime = make_runtime(memory_gib, xnack=xnack)
    apu = runtime.apu
    allocation = runtime.allocate(max(sizes), name)
    runtime.touch(allocation, "cpu")

    frames = allocation.vma.resident_frames()
    uncached = allocation.vma.uncached
    return tuple(
        tuple(float(chase_latency_ns(apu.config, device, size,
                                     ic=apu.infinity_cache, frames=frames,
                                     uncached=uncached))
              for size in sizes)
        for device in DEVICES
    )


def chase_curve(
    allocator: str, device: str, sizes: Sequence[int], memory_gib: int
) -> List[list]:
    """Fig. 2: the latency-vs-size curve of one allocator on one device.

    The set-up is per allocator per run: within one engine run (a
    :mod:`repro.memo` scope) both devices' curves come from one fresh
    *memory_gib* APU, and outside a run every call builds its own.  One
    row ``[allocator, device, size_bytes, latency_ns]`` per size.
    """
    if device not in DEVICES:
        raise ValueError(f"unknown device {device!r}")
    sizes = tuple(sizes)
    curve = _curves(allocator, sizes, memory_gib)[DEVICES.index(device)]
    return [[allocator, device, size, latency]
            for size, latency in zip(sizes, curve)]
