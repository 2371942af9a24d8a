"""Pointer-chase latency benchmark (paper Fig. 2, adapted multichase).

The paper's methodology: a chase over buffers from 1 KiB to 4 GiB, per
allocator, on both the CPU and the GPU, with a 256 MiB cache flush
between samples.  Here a single maximal buffer is allocated per
allocator and initialised (first-touched) on the chosen device; latency
is then evaluated at each working-set size over the buffer's physical
frame prefix — exactly the state the latency model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hw.config import GiB, KiB, MiB
from ..perf.latency import chase_latency_ns
from ..runtime.apu import make_apu
from .allocators import allocate, wants_xnack

#: The buffer sizes of the paper's sweep (1 KiB to 4 GiB, semi-log).
DEFAULT_SIZES = [
    1 * KiB, 4 * KiB, 32 * KiB, 256 * KiB,
    1 * MiB, 8 * MiB, 32 * MiB, 96 * MiB, 128 * MiB,
    256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB, 4 * GiB,
]


@dataclass(frozen=True)
class LatencySample:
    """One point on a Fig. 2 curve."""

    allocator: str
    device: str
    size_bytes: int
    latency_ns: float


def chase_curve(
    allocator: str,
    device: str,
    sizes: Optional[Sequence[int]] = None,
    init_device: str = "cpu",
    memory_gib: Optional[int] = None,
) -> List[LatencySample]:
    """Latency-vs-size curve for one allocator on one device.

    A fresh APU is built per curve (the paper similarly isolates runs on
    one APU); *init_device* selects which side first-touches the buffer.
    """
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    max_size = max(sizes)
    if memory_gib is None:
        # Pool must comfortably exceed the buffer so scattered draws
        # retain the free-list skew (see PolicyModel calibration note).
        memory_gib = max(16, (max_size >> 30) * 4)
    apu = make_apu(memory_gib, xnack=wants_xnack(allocator))
    allocation = allocate(apu, allocator, max_size)
    apu.touch(allocation, init_device)

    frames = allocation.vma.resident_frames()
    uncached = allocation.vma.uncached
    samples = []
    for size in sizes:
        latency = chase_latency_ns(
            apu.config,
            device,
            size,
            ic=apu.infinity_cache,
            frames=frames,
            uncached=uncached,
        )
        samples.append(LatencySample(allocator, device, size, latency))
    return samples
