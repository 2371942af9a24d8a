"""Porting strategies for the unified memory model (paper Section 3.3).

Each helper encodes one of the paper's identified challenges when moving
code from the explicit model (Listing 1) to the unified model
(Listing 2):

* **Concurrent CPU-GPU access** → :class:`DoubleBuffer` (swap instead of
  copy, synchronised with stream events);
* **Memory usage consideration** → :func:`reliable_free_memory` (libnuma
  instead of hipMemGetInfo);
* **Partial memory transfer** → merged buffers; :func:`merged_pipeline`
  documents the transformation and validates chunk schedules;
* **Stack variables** → :class:`StackFlag` (GPU-writable host scalar with
  a lifetime guard);
* **Static variables** → managed statics via the runtime's
  ``managed_static`` allocator (performance caveat applies) or
  restructuring to dynamic allocation;
* **Hidden allocator** → :class:`~repro.porting.containers.UnifiedVector`
  with a pluggable allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.meminfo import libnuma_free
from ..runtime.apu import APU
from ..runtime.arrays import DeviceArray
from ..runtime.hip import HipRuntime
from ..runtime.stream import Event, Stream


class DoubleBuffer:
    """Two buffers swapped each iteration instead of copied.

    The unified-model answer to concurrent CPU-GPU access: while the GPU
    consumes the *front* buffer, the CPU fills the *back* buffer; at the
    iteration boundary the roles swap.  Synchronisation uses stream
    events, as in the paper's heartwall port.
    """

    def __init__(self, front: DeviceArray, back: DeviceArray) -> None:
        if front.shape != back.shape or front.dtype != back.dtype:
            raise ValueError("double buffer halves must match")
        self._buffers = [front, back]
        self._front = 0
        self.swaps = 0

    @property
    def front(self) -> DeviceArray:
        """The buffer currently owned by the consumer (GPU)."""
        return self._buffers[self._front]

    @property
    def back(self) -> DeviceArray:
        """The buffer currently owned by the producer (CPU)."""
        return self._buffers[1 - self._front]

    def swap(self) -> None:
        """Exchange producer/consumer roles (no data movement)."""
        self._front = 1 - self._front
        self.swaps += 1

    @property
    def memory_bytes(self) -> int:
        """Total footprint — equal to the explicit model's host+device
        pair, which is why heartwall's peak memory is unchanged (Fig. 11)."""
        return sum(b.allocation.size_bytes for b in self._buffers)


def reliable_free_memory(apu: APU) -> int:
    """Free memory from an interface that sees *all* allocation types.

    Ported applications must not size datasets from ``hipMemGetInfo``:
    on UPM it only reflects hipMalloc usage (Section 3.2).  The reliable
    counter is libnuma's per-node free memory.
    """
    free, _total = libnuma_free(apu.physical)
    return free


def naive_free_memory(runtime: HipRuntime) -> int:
    """The *unreliable* legacy counter (hipMemGetInfo), kept for
    demonstrating the porting pitfall in examples and tests."""
    free, _total = runtime.hipMemGetInfo()
    return free


@dataclass(frozen=True)
class ChunkSchedule:
    """A partial-transfer pipeline schedule over one buffer."""

    total_bytes: int
    chunk_bytes: int

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0 or self.total_bytes <= 0:
            raise ValueError("sizes must be positive")
        if self.chunk_bytes > self.total_bytes:
            raise ValueError("chunk larger than buffer")

    def chunks(self) -> Iterator[Tuple[int, int]]:
        """Yield (offset, size) pairs covering the buffer."""
        offset = 0
        while offset < self.total_bytes:
            size = min(self.chunk_bytes, self.total_bytes - offset)
            yield offset, size
            offset += size


def merged_pipeline(schedule: ChunkSchedule) -> List[Tuple[int, int]]:
    """The unified-model version of a partial-transfer pipeline.

    Merging the host and device buffers obviates the copies entirely:
    the compute kernel consumes each chunk in place.  Returns the chunk
    list the kernel iterates over — identical coverage, zero transfers.
    """
    return list(schedule.chunks())


class StackFlag:
    """A host stack variable written by GPU kernels (srad_v1's stop flag).

    UPM lets the GPU access the host stack, but the asynchronous
    execution model makes the variable's lifetime hazardous: the host
    frame must not be torn down while a kernel may still write it.  The
    guard enforces the paper's rule — the owner must synchronise before
    the scope exits.
    """

    def __init__(self, runtime: HipRuntime, initial: float = 0.0) -> None:
        self._runtime = runtime
        self.value = initial
        self._pending: List[Stream] = []

    def gpu_write(self, value: float, stream: Optional[Stream] = None) -> None:
        """Record a kernel-side write (takes effect on the stream)."""
        resolved = self._runtime.resolve_stream(stream)
        self._pending.append(resolved)
        self.value = value

    def read(self) -> float:
        """Host-side read: must synchronise outstanding GPU writes."""
        for stream in self._pending:
            stream.synchronize()
        self._pending.clear()
        return self.value

    def close(self) -> None:
        """Lifetime guard: error if the scope exits with pending writes."""
        if self._pending:
            raise RuntimeError(
                "stack variable going out of scope with unsynchronised GPU "
                "writes — the host function must not return before the "
                "kernel completes (Section 3.3, Stack Variables)"
            )

    def __enter__(self) -> "StackFlag":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.read()
        self.close()


def event_synchronised_swap(
    runtime: HipRuntime,
    buffer: DoubleBuffer,
    compute_stream: Stream,
) -> Event:
    """One double-buffering handover, synchronised with a stream event.

    Records an event after the GPU's current work on the front buffer,
    swaps the buffers, and returns the event the producer must wait on
    before overwriting the new back buffer.
    """
    event = runtime.hipEventCreate("swap")
    runtime.hipEventRecord(event, compute_stream)
    buffer.swap()
    return event
