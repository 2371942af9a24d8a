"""Pointer-chase latency benchmark (paper Fig. 2, adapted multichase).

The paper's methodology: a chase over buffers from 1 KiB to 4 GiB, per
allocator, on both the CPU and the GPU, with a 256 MiB cache flush
between samples.  Here a single maximal buffer is allocated per
allocator and first-touched by the CPU; latency is then evaluated at
each working-set size over the buffer's physical frame prefix — exactly
the state the latency model consumes.
"""

from __future__ import annotations

from typing import List, Sequence

from ..perf.latency import chase_latency_ns
from ..runtime.hip import make_runtime
from .allocators import resolve


def chase_curve(
    allocator: str, device: str, sizes: Sequence[int], memory_gib: int
) -> List[list]:
    """Fig. 2: the latency-vs-size curve of one allocator on one device.

    A fresh *memory_gib* APU is built per curve (the paper similarly
    isolates runs on one APU).  One row
    ``[allocator, device, size_bytes, latency_ns]`` per size.
    """
    name, xnack = resolve(allocator)
    runtime = make_runtime(memory_gib, xnack=xnack)
    apu = runtime.apu
    allocation = runtime.allocate(max(sizes), name)
    apu.touch(allocation, "cpu")

    frames = allocation.vma.resident_frames()
    uncached = allocation.vma.uncached
    return [
        [allocator, device, size,
         chase_latency_ns(apu.config, device, size, ic=apu.infinity_cache,
                          frames=frames, uncached=uncached)]
        for size in sizes
    ]
