"""Kernel execution engine.

Kernels in this simulator are *declared*: a :class:`KernelSpec` lists the
buffers a kernel touches, how (streaming vs latency-bound, read vs
write, how many passes), plus any pure-compute time.  Launching a kernel

1. resolves page faults for every accessed range (GPU faults obey XNACK
   semantics and may be fatal),
2. charges GPU L1 TLB misses to the rocprof counter using the
   fragment-aware streaming model (the Fig. 9 observable),
3. computes the kernel duration from the bandwidth/latency models, and
4. schedules the duration on a stream (asynchronous, like real HIP) or
   advances the host clock (CPU execution).

Actual data transformation is done by the caller with numpy — the engine
only accounts for time and hardware events, so applications stay
numerically real while their performance comes from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Optional

from ..core.allocators import Allocation
from ..core.tlb import streaming_tlb_misses
from ..perf.bandwidth import (
    cpu_stream_bandwidth,
    gpu_stream_bandwidth,
    stream_time_ns,
)
from ..perf.latency import cpu_chase_latency_ns, gpu_chase_latency_ns
from .apu import APU
from .stream import Stream

AccessMode = Literal["read", "write", "readwrite"]
AccessPattern = Literal["stream", "latency", "touch"]

#: Fixed kernel-launch overhead (driver submit + dispatch), ns.
KERNEL_LAUNCH_OVERHEAD_NS = 2_000.0
#: Memory-level parallelism of latency-bound GPU access streams: how many
#: independent chases the scheduler keeps in flight per kernel.
GPU_LATENCY_MLP = 64.0


@dataclass
class BufferAccess:
    """One buffer's access descriptor within a kernel.

    Attributes:
        allocation: the buffer being accessed.
        mode: read, write, or readwrite (readwrite counts bytes twice).
        pattern: ``stream`` for sequential bulk access (bandwidth-bound),
            ``latency`` for dependent/random access (latency-bound),
            ``touch`` for one access per page (fault cost only — used by
            the page-fault benchmark).
        offset_bytes / size_bytes: sub-range accessed (whole buffer by
            default).
        passes: how many times the range is swept.
        accesses: for ``latency`` patterns, the number of dependent
            accesses (defaults to one per 64 B line).
    """

    allocation: Allocation
    mode: AccessMode = "read"
    pattern: AccessPattern = "stream"
    offset_bytes: int = 0
    size_bytes: Optional[int] = None
    passes: int = 1
    accesses: Optional[int] = None

    @property
    def resolved_size(self) -> int:
        """Bytes covered by this access."""
        if self.size_bytes is not None:
            return self.size_bytes
        return self.allocation.size_bytes - self.offset_bytes

    @property
    def bytes_moved(self) -> int:
        """Total bytes transferred by this access across all passes."""
        factor = 2 if self.mode == "readwrite" else 1
        return self.resolved_size * self.passes * factor


@dataclass
class KernelSpec:
    """A declared kernel: accesses plus pure compute time."""

    name: str
    accesses: List[BufferAccess] = field(default_factory=list)
    compute_ns: float = 0.0
    threads: int = 0  # 0 = fill the device / use all requested cores


@dataclass
class KernelResult:
    """Timing breakdown of one kernel execution."""

    name: str
    start_ns: float
    end_ns: float
    fault_ns: float
    memory_ns: float
    compute_ns: float
    tlb_misses: int

    @property
    def duration_ns(self) -> float:
        """Wall duration on the executing timeline."""
        return self.end_ns - self.start_ns


class KernelEngine:
    """Executes :class:`KernelSpec` objects against one APU."""

    def __init__(self, apu: APU) -> None:
        self._apu = apu

    # ------------------------------------------------------------------
    # GPU execution
    # ------------------------------------------------------------------

    def run_gpu(
        self, spec: KernelSpec, stream: Optional[Stream] = None
    ) -> KernelResult:
        """Launch a kernel on the GPU (asynchronous on a stream).

        The host clock advances only by the launch overhead; the kernel
        occupies the stream timeline.  Call ``synchronize`` on the stream
        (or the device) to advance the host to completion.
        """
        apu = self._apu
        stream = apu.streams.resolve(stream)
        apu.clock.advance(KERNEL_LAUNCH_OVERHEAD_NS)

        fault_ns = 0.0
        memory_ns = 0.0
        misses = 0
        concurrency = spec.threads if spec.threads else apu.gpu.compute_units
        for access in spec.accesses:
            report = apu.touch(
                access.allocation,
                "gpu",
                offset_bytes=access.offset_bytes,
                size_bytes=access.resolved_size,
                concurrency=concurrency,
                advance_clock=False,
            )
            fault_ns += report.service_time_ns
            misses += self._gpu_tlb_misses(access)
            memory_ns += self._gpu_memory_time(access)
            # RAS: injected HBM frame errors cost scrub latency here; an
            # uncorrectable error aborts the launch (hipErrorECCNotCorrectable).
            memory_ns += apu.hbm_map.ecc_check(access.resolved_size)

        apu.gpu.counters.kernels_launched += 1
        apu.gpu.counters.tlb_misses += misses
        self._account_gpu_traffic(spec)

        duration = fault_ns + max(memory_ns, spec.compute_ns)
        start, end = stream.enqueue(duration)
        self._emit_kernel(spec, "gpu", stream.uid, start, end, fault_ns)
        return KernelResult(
            spec.name, start, end, fault_ns, memory_ns, spec.compute_ns, misses
        )

    def _emit_kernel(
        self, spec: KernelSpec, device: str, stream_uid, start: float,
        end: float, fault_ns: float,
    ) -> None:
        trace = self._apu.trace
        if trace is None:
            return
        trace.emit(
            "kernel",
            name=spec.name,
            device=device,
            stream=stream_uid,
            start_ns=start,
            end_ns=end,
            fault_ns=fault_ns,
            accesses=[
                {
                    "buffer": trace.buffer_uid(access.allocation),
                    "mode": access.mode,
                    "offset": access.offset_bytes,
                    "size": access.resolved_size,
                }
                for access in spec.accesses
            ],
        )

    def _gpu_tlb_misses(self, access: BufferAccess) -> int:
        if access.pattern == "touch":
            return 0
        vma = access.allocation.vma
        first, count = vma.page_range(
            vma.start + access.offset_bytes, access.resolved_size
        )
        exponents = vma.fragment[first : first + count]
        return streaming_tlb_misses(
            exponents,
            passes=access.passes,
            tlb_entries=self._apu.config.gpu_l1_tlb.entries,
            fragment_aware=self._apu.config.gpu_l1_tlb.fragment_aware,
        )

    def _gpu_memory_time(self, access: BufferAccess) -> float:
        apu = self._apu
        if access.pattern == "touch":
            return 0.0
        traits = apu.buffer_traits(access.allocation)
        if access.pattern == "stream":
            bandwidth = gpu_stream_bandwidth(apu.config, traits)
            return stream_time_ns(access.bytes_moved, bandwidth)
        # Latency-bound: dependent accesses, amortised by in-flight chases.
        count = (
            access.accesses
            if access.accesses is not None
            else max(1, access.resolved_size // 64)
        )
        latency = gpu_chase_latency_ns(
            apu.config, access.resolved_size, uncached=traits.uncached
        )
        return count * access.passes * latency / GPU_LATENCY_MLP

    def _account_gpu_traffic(self, spec: KernelSpec) -> None:
        counters = self._apu.gpu.counters
        for access in spec.accesses:
            if access.mode in ("read", "readwrite"):
                counters.bytes_read += access.resolved_size * access.passes
            if access.mode in ("write", "readwrite"):
                counters.bytes_written += access.resolved_size * access.passes

    # ------------------------------------------------------------------
    # CPU execution
    # ------------------------------------------------------------------

    def run_cpu(self, spec: KernelSpec, threads: int = 1) -> KernelResult:
        """Run a kernel on CPU threads (synchronous: advances the clock)."""
        apu = self._apu
        threads = apu.cpu.validate_threads(threads)
        start = apu.clock.now_ns

        fault_ns = 0.0
        memory_ns = 0.0
        for access in spec.accesses:
            report = apu.touch(
                access.allocation,
                "cpu",
                offset_bytes=access.offset_bytes,
                size_bytes=access.resolved_size,
                concurrency=threads,
                advance_clock=False,
            )
            fault_ns += report.service_time_ns
            memory_ns += self._cpu_memory_time(access, threads)

        duration = fault_ns + max(memory_ns, spec.compute_ns)
        apu.clock.advance(duration)
        self._emit_kernel(spec, "cpu", None, start, start + duration, fault_ns)
        return KernelResult(
            spec.name, start, start + duration, fault_ns, memory_ns,
            spec.compute_ns, 0,
        )

    def _cpu_memory_time(self, access: BufferAccess, threads: int) -> float:
        apu = self._apu
        if access.pattern == "touch":
            return 0.0
        traits = apu.buffer_traits(access.allocation)
        if access.pattern == "stream":
            bandwidth = cpu_stream_bandwidth(apu.config, traits, threads)
            return stream_time_ns(access.bytes_moved, bandwidth)
        count = (
            access.accesses
            if access.accesses is not None
            else max(1, access.resolved_size // 64)
        )
        frames = access.allocation.vma.resident_frames()
        latency = cpu_chase_latency_ns(
            apu.config,
            access.resolved_size,
            ic=apu.infinity_cache,
            frames=frames,
            uncached=traits.uncached,
        )
        return count * access.passes * latency / max(1, threads)
