"""HIP-like runtime API over the simulated APU.

This facade mirrors the subset of HIP the paper's benchmarks and Rodinia
ports use: memory management (Table 1's allocators), synchronous and
asynchronous copies, kernel launch, streams/events, and device queries.
Function names follow HIP (camelCase) so ported code reads like the
original; everything operates on one :class:`~repro.runtime.apu.APU`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..core.allocators import Allocation, AllocatorKind, MemoryManager
from ..core.physical import OutOfMemoryError, TransientAllocationError
from ..hw.hbm import UncorrectableECCError
from ..partition import LogicalDevice, PartitionConfig
from .apu import APU
from .arrays import DeviceArray, Shape
from .kernels import KernelEngine, KernelResult, KernelSpec
from .sdma import (
    SdmaTransferError,
    apply_transfer_faults,
    copy_path,
    memcpy_time_ns,
)
from .stream import Event, Stream, UnrecordedEventError

#: hipMemcpy kind constants (accepted and ignored: UPM has one memory).
hipMemcpyHostToDevice = "H2D"
hipMemcpyDeviceToHost = "D2H"
hipMemcpyDeviceToDevice = "D2D"
hipMemcpyDefault = "default"

#: hipError_t codes the simulator surfaces (string-valued, like the
#: hipGetErrorName view of the enum).
hipSuccess = "hipSuccess"
hipErrorOutOfMemory = "hipErrorOutOfMemory"
hipErrorInvalidValue = "hipErrorInvalidValue"
hipErrorInvalidDevice = "hipErrorInvalidDevice"
hipErrorInvalidResourceHandle = "hipErrorInvalidResourceHandle"
hipErrorECCNotCorrectable = "hipErrorECCNotCorrectable"
hipErrorUnknown = "hipErrorUnknown"

#: Bounded retry-with-backoff for transient allocation failures: how
#: many retries, and the first backoff step (doubles per attempt).
ALLOC_RETRY_LIMIT = 4
ALLOC_BACKOFF_NS = 50_000.0

BufferLike = Union[Allocation, DeviceArray]

#: Table 1's allocators by name, the runtime's one name -> path table:
#: the memory-manager path, whether it homes frames on the current
#: device (NPS4), and whether it may degrade to scattered frames.
#: ``malloc+register`` then takes :meth:`HipRuntime.hipHostRegister`.
ALLOCATORS = {
    "malloc": (MemoryManager.malloc, False, False),
    "malloc+register": (MemoryManager.malloc, False, False),
    "hipMalloc": (MemoryManager.hip_malloc, True, False),
    "hipHostMalloc": (MemoryManager.hip_host_malloc, True, True),
    "hipMallocManaged": (MemoryManager.hip_malloc_managed, True, True),
    "managed_static": (MemoryManager.managed_static, False, False),
}


class HipError(RuntimeError):
    """A HIP API call failed.

    The simulator raises instead of returning error codes, but every
    raise carries the ``hipError_t`` name: machine-readable in
    :attr:`code`, and as the message prefix for humans.  The owning
    runtime also latches the code for the
    :meth:`HipRuntime.hipGetLastError` /
    :meth:`HipRuntime.hipPeekAtLastError` surface.
    """

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        if code is None:
            head = message.split(":", 1)[0].strip()
            code = head if head.startswith("hipError") else hipErrorUnknown
        self.code = code


def _allocation(buffer: BufferLike) -> Allocation:
    if isinstance(buffer, DeviceArray):
        return buffer.allocation
    return buffer


class HipRuntime:
    """The process-level HIP runtime bound to one APU."""

    def __init__(self, apu: APU, sdma_enabled: bool = True) -> None:
        self.apu = apu
        self.sdma_enabled = sdma_enabled
        self._engine = KernelEngine(apu)
        self._current_device = 0
        self._last_error = hipSuccess
        #: Recorded degradation events (allocator downgrade, SDMA→blit
        #: failover).  The chaos harness and tests assert on these.
        self.degradations: list = []

    # ------------------------------------------------------------------
    # Error surface
    # ------------------------------------------------------------------

    def _error(self, code: str, message: str) -> HipError:
        """Build a typed :class:`HipError` and latch it as the last error."""
        self._last_error = code
        return HipError(f"{code}: {message}", code)

    def hipGetLastError(self) -> str:
        """Return and clear the last error code (``hipSuccess`` if clean)."""
        code = self._last_error
        self._last_error = hipSuccess
        return code

    def hipPeekAtLastError(self) -> str:
        """Return the last error code without clearing it."""
        return self._last_error

    def _record_degradation(self, event: str, **data) -> None:
        record = {"event": event, "t_ns": self.apu.clock.now_ns}
        record.update(data)
        self.degradations.append(record)
        plan = self.apu.physical.inject
        if plan is not None:
            plan.note(f"degrade.{event}", **data)

    # ------------------------------------------------------------------
    # Device management (partition-aware enumeration)
    # ------------------------------------------------------------------

    def hipGetDeviceCount(self) -> int:
        """Logical GPU devices visible to this process.

        One in the default SPX mode; the APU's partition mode can raise
        this to three (TPX) or six (CPX), each logical device being a
        subset of the package's XCDs.
        """
        return len(self.apu.logical_devices)

    def hipSetDevice(self, device: int) -> None:
        """Select the logical device subsequent calls operate on."""
        if not 0 <= device < len(self.apu.logical_devices):
            raise self._error(
                hipErrorInvalidDevice,
                f"device {device} out of range "
                f"[0, {len(self.apu.logical_devices)})",
            )
        self._current_device = device

    def hipGetDevice(self) -> int:
        """The currently selected logical device ordinal."""
        return self._current_device

    def hipDeviceGet(self, ordinal: int) -> LogicalDevice:
        """The logical-device handle for *ordinal*."""
        if not 0 <= ordinal < len(self.apu.logical_devices):
            raise self._error(
                hipErrorInvalidDevice,
                f"device {ordinal} out of range "
                f"[0, {len(self.apu.logical_devices)})",
            )
        return self.apu.logical_devices[ordinal]

    def hipGetDeviceProperties(self, device: Optional[int] = None) -> Dict[str, object]:
        """hipDeviceProp_t-style summary of a logical device."""
        handle = self.hipDeviceGet(
            self._current_device if device is None else device
        )
        return {
            "name": handle.name,
            "multiProcessorCount": handle.compute_units,
            "totalGlobalMem": handle.memory_capacity_bytes,
            "l2CacheSize": handle.l2_slices * 4 * 1024 * 1024,
            "isApu": True,
        }

    def _frame_range(self) -> Optional[Tuple[int, int]]:
        # NPS4 placement: home up-front allocations in the current
        # device's local quadrant (None in NPS1 = whole-pool path).
        return self.apu.placement.frame_range(self._current_device)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def _alloc_with_recovery(
        self,
        attempt,
        *,
        size: int,
        name: str,
        degraded=None,
    ) -> Allocation:
        """Run an allocation attempt through the recovery ladder.

        Transient failures retry up to :data:`ALLOC_RETRY_LIMIT` times
        with exponential backoff (each retry advances the simulated
        clock); a hard or persistent failure gets one
        defragment-then-retry; pinned allocators may then fall back to a
        *degraded* scattered-frame layout, recording the downgrade.
        Only when the ladder is exhausted does the call surface
        ``hipErrorOutOfMemory``.
        """
        plan = self.apu.physical.inject
        retries = 0
        defragged = False
        while True:
            try:
                return attempt()
            except TransientAllocationError as failure:
                if retries < ALLOC_RETRY_LIMIT:
                    retries += 1
                    backoff = ALLOC_BACKOFF_NS * 2 ** (retries - 1)
                    self.apu.clock.advance(backoff)
                    if plan is not None:
                        plan.note(
                            "recover.alloc.retry",
                            name=name,
                            attempt=retries,
                            backoff_ns=backoff,
                        )
                    continue
                last = failure
            except OutOfMemoryError as failure:
                last = failure
            if not defragged:
                defragged = True
                reclaimed = self.apu.physical.defragment()
                if plan is not None:
                    plan.note(
                        "recover.alloc.defrag",
                        name=name,
                        reclaimed_frames=reclaimed,
                    )
                if reclaimed:
                    continue
            if degraded is not None:
                fallback, degraded = degraded, None
                try:
                    allocation = fallback()
                except OutOfMemoryError:
                    pass
                else:
                    self._record_degradation(
                        "alloc.scattered-fallback", name=name, size_bytes=size
                    )
                    return allocation
            raise self._error(hipErrorOutOfMemory, f"{name}: {last}") from last

    def allocate(
        self, nbytes: int, allocator: str = "hipMalloc", name: str = ""
    ) -> Allocation:
        """Allocate *nbytes* through a named allocator (a key of
        :data:`ALLOCATORS`), labelled *name* (default: the allocator's
        name).  Every attempt takes the recovery ladder; a failed one
        leaves nothing allocated."""
        if allocator not in ALLOCATORS:
            raise self._error(
                hipErrorInvalidValue, f"unknown allocator {allocator!r}"
            )
        name = name or allocator
        path, placed, degrades = ALLOCATORS[allocator]
        mem = self.apu.memory
        placement = {"frame_range": self._frame_range()} if placed else {}
        degraded = None
        if degrades:  # the same kind, from scattered frames
            degraded = lambda: mem.up_front_degraded(  # noqa: E731
                nbytes, name, AllocatorKind(allocator), **placement
            )
        allocation = self._alloc_with_recovery(
            lambda: path(mem, nbytes, name=name, **placement),
            size=nbytes, name=name, degraded=degraded,
        )
        if allocator != "malloc+register":
            return allocation
        try:
            return self.hipHostRegister(allocation)
        except HipError:
            self.hipFree(allocation)  # leave nothing allocated
            raise

    def hipMalloc(self, nbytes: int, name: str = "hipMalloc") -> Allocation:
        """Allocate device-style memory (up-front, contiguous).

        hipMalloc never downgrades to a scattered layout — device code
        depends on its large fragments — so persistent shortage
        surfaces as ``hipErrorOutOfMemory``.
        """
        return self.allocate(nbytes, "hipMalloc", name)

    def hipHostMalloc(self, nbytes: int, name: str = "hipHostMalloc") -> Allocation:
        """Allocate page-locked host-style memory (up-front, pinned).

        Under unrecoverable pressure the runtime downgrades to pinned
        scattered frames (pageable-style layout) and records the
        degradation rather than failing the call.
        """
        return self.allocate(nbytes, "hipHostMalloc", name)

    def hipMallocManaged(self, nbytes: int, name: str = "managed") -> Allocation:
        """Allocate managed memory (mode depends on XNACK, Table 1).

        The XNACK=0 up-front path can downgrade like
        :meth:`hipHostMalloc`; the XNACK=1 path is on-demand and
        allocates nothing up-front.
        """
        return self.allocate(nbytes, "hipMallocManaged", name)

    def malloc(self, nbytes: int, name: str = "malloc") -> Allocation:
        """libc malloc (exposed here for side-by-side benchmarks)."""
        return self.allocate(nbytes, "malloc", name)

    def hipHostRegister(self, buffer: BufferLike) -> Allocation:
        """Pin an existing malloc'd range and map it for the GPU, through
        the recovery ladder (a buffer malloc did not make is
        ``hipErrorInvalidValue``)."""
        allocation = _allocation(buffer)
        try:
            return self._alloc_with_recovery(
                lambda: self.apu.memory.host_register(allocation),
                size=allocation.size_bytes, name=allocation.vma.name,
            )
        except ValueError as failure:
            raise self._error(hipErrorInvalidValue, str(failure)) from failure

    def hipFree(self, buffer: BufferLike) -> None:
        """Free any allocation (dispatches the right deallocator).

        Double frees and foreign buffers surface as
        ``hipErrorInvalidValue`` instead of corrupting the pool.
        """
        try:
            self.apu.memory.free(_allocation(buffer))
        except ValueError as failure:
            raise self._error(hipErrorInvalidValue, str(failure)) from failure

    def hipMemGetInfo(self, device: Optional[int] = None) -> Tuple[int, int]:
        """(free, total) as HIP reports it — hipMalloc visibility only.

        With a partitioned APU the figures are per logical device:
        *total* is the device's visible stack capacity and *used* counts
        only hipMalloc frames homed there (see
        :func:`repro.core.meminfo.hip_mem_get_info_device`).  *device*
        defaults to the current one.
        """
        from ..core.meminfo import hip_mem_get_info, hip_mem_get_info_device

        if device is None:
            device = self._current_device
        if device == 0 and self.apu.partition.numa_domains == 1:
            return hip_mem_get_info(self.apu.memory, self.apu.physical)
        return hip_mem_get_info_device(
            self.apu.memory,
            self.apu.physical,
            self.apu.hbm_map,
            self.hipDeviceGet(device),
        )

    # Array conveniences -------------------------------------------------

    def array(
        self,
        shape: Shape,
        dtype: np.dtype | str = np.float32,
        allocator: str = "hipMalloc",
        name: str = "",
    ) -> DeviceArray:
        """Allocate a typed array through a named allocator (see
        :meth:`allocate`)."""
        shape_tuple = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = int(np.prod(shape_tuple)) * np.dtype(dtype).itemsize
        return DeviceArray(
            self.allocate(max(nbytes, 1), allocator, name), shape, dtype
        )

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------

    def hipMemcpy(
        self,
        dst: BufferLike,
        src: BufferLike,
        nbytes: Optional[int] = None,
        kind: str = hipMemcpyDefault,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> None:
        """Synchronous copy: blocks the host until the copy completes.

        On UPM this is *legacy* data movement (Section 4.3) — the data
        does not need to move, but ported code still pays for it.  The
        offsets support the partial-transfer pipelines of Section 3.3.
        """
        del kind  # one physical memory: the kind flag is advisory
        dst_alloc, src_alloc = _allocation(dst), _allocation(src)
        if nbytes is None:
            nbytes = min(dst_alloc.size_bytes, src_alloc.size_bytes)
            if isinstance(dst, DeviceArray) and isinstance(src, DeviceArray):
                nbytes = min(dst.nbytes, src.nbytes)
        if (
            dst_offset + nbytes > dst_alloc.size_bytes
            or src_offset + nbytes > src_alloc.size_bytes
        ):
            raise self._error(hipErrorInvalidValue, "copy exceeds buffer size")
        # Synchronous semantics: drain the default stream first.
        self.apu.streams.default.synchronize()
        self._resolve_copy_faults(dst_alloc, src_alloc, nbytes, dst_offset, src_offset)
        duration = self._copy_duration(dst_alloc, src_alloc, nbytes)
        self._emit_memcpy(
            dst_alloc, src_alloc, nbytes, dst_offset, src_offset,
            is_async=False, stream=None, duration_ns=duration,
        )
        self.apu.clock.advance(duration)
        self._move_payload(dst, src, nbytes, dst_offset, src_offset)

    def hipMemcpyAsync(
        self,
        dst: BufferLike,
        src: BufferLike,
        nbytes: Optional[int] = None,
        stream: Optional[Stream] = None,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> None:
        """Asynchronous copy on a stream."""
        resolved = self.resolve_stream(stream)
        dst_alloc, src_alloc = _allocation(dst), _allocation(src)
        if nbytes is None:
            nbytes = min(dst_alloc.size_bytes, src_alloc.size_bytes)
        self._resolve_copy_faults(dst_alloc, src_alloc, nbytes, dst_offset, src_offset)
        duration = self._copy_duration(dst_alloc, src_alloc, nbytes)
        resolved.enqueue(duration)
        self._emit_memcpy(
            dst_alloc, src_alloc, nbytes, dst_offset, src_offset,
            is_async=True, stream=resolved, duration_ns=duration,
        )
        self._move_payload(dst, src, nbytes, dst_offset, src_offset)

    def _emit_memcpy(
        self,
        dst: Allocation,
        src: Allocation,
        nbytes: int,
        dst_offset: int,
        src_offset: int,
        is_async: bool,
        stream: Optional[Stream],
        duration_ns: float,
    ) -> None:
        trace = self.apu.trace
        if trace is None:
            return
        trace.emit(
            "memcpy",
            dst=trace.buffer_uid(dst),
            src=trace.buffer_uid(src),
            nbytes=nbytes,
            dst_offset=dst_offset,
            src_offset=src_offset,
            path=copy_path(dst, src, self.sdma_enabled),
            is_async=is_async,
            stream=stream.uid if stream is not None else None,
            duration_ns=duration_ns,
        )

    def _resolve_copy_faults(
        self,
        dst: Allocation,
        src: Allocation,
        nbytes: int,
        dst_offset: int,
        src_offset: int,
    ) -> None:
        # The copy engine needs both ranges resident; the runtime touches
        # pageable memory from the CPU side before programming the DMA.
        if nbytes <= 0:
            return
        self.touch(src, "cpu", offset_bytes=src_offset, size_bytes=nbytes)
        self.touch(dst, "cpu", offset_bytes=dst_offset, size_bytes=nbytes)

    def touch(
        self,
        buffer: Allocation,
        device: str,
        offset_bytes: int = 0,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Touch a byte range of *buffer* from *device* (host-side code
        such as a container's element writes).  A first-touch frame
        shortage surfaces as ``hipErrorOutOfMemory``."""
        try:
            self.apu.touch(buffer, device, offset_bytes=offset_bytes,
                           size_bytes=size_bytes)
        except OutOfMemoryError as failure:
            raise self._first_touch_error(failure) from failure

    def _first_touch_error(self, failure: OutOfMemoryError) -> HipError:
        # The fault handler's reclaim retries ran out: a first-touch
        # frame shortage surfaces as a typed out-of-memory error.
        return self._error(hipErrorOutOfMemory, f"first touch: {failure}")

    def _copy_duration(
        self, dst: Allocation, src: Allocation, nbytes: int
    ) -> float:
        """Simulated copy duration, with injected SDMA faults applied.

        A retryable SDMA engine failure re-issues the copy on the blit
        path (the ``HSA_ENABLE_SDMA=0`` shader-kernel fallback) and
        records the degradation; an engine abort surfaces as
        ``hipErrorUnknown``.
        """
        duration = memcpy_time_ns(
            self.apu.config, dst, src, nbytes, self.sdma_enabled
        )
        path = copy_path(dst, src, self.sdma_enabled)
        plan = self.apu.physical.inject
        try:
            return apply_transfer_faults(plan, nbytes, path, duration)
        except SdmaTransferError as failure:
            if not failure.retryable:
                raise self._error(hipErrorUnknown, str(failure)) from failure
            fallback = memcpy_time_ns(
                self.apu.config, dst, src, nbytes, sdma_enabled=False
            )
            self._record_degradation(
                "memcpy.blit-fallback", nbytes=nbytes, cause=str(failure)
            )
            # The failed SDMA attempt consumed engine time before erroring.
            return duration + fallback

    def _move_payload(
        self,
        dst: BufferLike,
        src: BufferLike,
        nbytes: int,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> None:
        if not (isinstance(dst, DeviceArray) and isinstance(src, DeviceArray)):
            return
        if dst_offset == 0 and src_offset == 0:
            full = nbytes == dst.nbytes == src.nbytes
            dst.copy_from(src, None if full else nbytes)
            return
        item = dst.dtype.itemsize
        if dst_offset % item or src_offset % item or nbytes % item:
            raise self._error(hipErrorInvalidValue, "unaligned partial copy")
        count = nbytes // item
        dst.np.reshape(-1)[dst_offset // item : dst_offset // item + count] = (
            src.np.reshape(-1)[src_offset // item : src_offset // item + count]
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def launchKernel(
        self, spec: KernelSpec, stream: Optional[Stream] = None
    ) -> KernelResult:
        """Launch a declared kernel on the GPU (asynchronous).

        An injected uncorrectable HBM frame error during the kernel's
        accesses surfaces as ``hipErrorECCNotCorrectable``, a first-touch
        frame shortage as ``hipErrorOutOfMemory``.
        """
        try:
            return self._engine.run_gpu(spec, self.resolve_stream(stream))
        except UncorrectableECCError as failure:
            raise self._error(
                hipErrorECCNotCorrectable, str(failure)
            ) from failure
        except OutOfMemoryError as failure:
            raise self._first_touch_error(failure) from failure

    def runCpuKernel(self, spec: KernelSpec, threads: int = 1) -> KernelResult:
        """Run a declared kernel on CPU threads (synchronous)."""
        try:
            return self._engine.run_cpu(spec, threads)
        except OutOfMemoryError as failure:
            raise self._first_touch_error(failure) from failure

    # ------------------------------------------------------------------
    # Streams, events, synchronisation
    # ------------------------------------------------------------------

    def resolve_stream(self, stream: Optional[Stream]) -> Stream:
        """Resolve *stream* (None is the default stream); a stream another
        runtime created is ``hipErrorInvalidResourceHandle``."""
        if stream is not None and stream not in self.apu.streams:
            raise self._error(
                hipErrorInvalidResourceHandle,
                f"stream {stream.name!r} belongs to another runtime",
            )
        return self.apu.streams.resolve(stream)

    def hipStreamCreate(self, name: str = "") -> Stream:
        """Create a new stream."""
        return self.apu.streams.create(name)

    def hipEventCreate(self, name: str = "") -> Event:
        """Create an event."""
        return Event(name)

    def hipEventRecord(self, event: Event, stream: Optional[Stream] = None) -> None:
        """Record an event on a stream."""
        self.resolve_stream(stream).record_event(event)

    def hipStreamWaitEvent(self, stream: Optional[Stream], event: Event) -> None:
        """Make a stream wait for an event; an event never recorded is
        ``hipErrorInvalidResourceHandle``."""
        stream = self.resolve_stream(stream)
        try:
            stream.wait_event(event)
        except UnrecordedEventError as failure:
            raise self._error(
                hipErrorInvalidResourceHandle, str(failure)
            ) from failure

    def hipEventSynchronize(self, event: Event) -> None:
        """Block the host until the event's point on its stream passes.

        An event that was never recorded is
        ``hipErrorInvalidResourceHandle`` (real HIP would spin forever or
        return that code).
        """
        if event.timestamp_ns is None:
            raise self._error(
                hipErrorInvalidResourceHandle,
                f"hipEventSynchronize on unrecorded event {event.name!r}: "
                "record the event before blocking on it",
            )
        self.apu.clock.advance_to(event.timestamp_ns)
        if self.apu.trace is not None:
            self.apu.trace.emit(
                "event_host_sync", event=self.apu.trace.event_uid(event)
            )

    def hipStreamSynchronize(self, stream: Optional[Stream] = None) -> None:
        """Block the host until a stream drains."""
        self.resolve_stream(stream).synchronize()

    def hipDeviceSynchronize(self) -> None:
        """Block the host until all streams drain."""
        self.apu.streams.device_synchronize()


def make_runtime(
    memory_gib: Optional[int] = None,
    xnack: bool = False,
    sdma_enabled: bool = True,
    seed: int = 0x1300A,
    partition: Optional[PartitionConfig] = None,
    trace: bool = False,
    inject=None,
) -> HipRuntime:
    """Build an APU and its HIP runtime in one call.

    With ``trace=True`` the APU records an event log for the hipsan
    sanitizer (:func:`repro.analyze.analyze_runtime`), whose rules cover
    races, lifetimes and porting leftovers.  *inject* attaches
    an :class:`~repro.inject.InjectionPlan` to the APU's fault sites.
    """
    from .apu import make_apu

    return HipRuntime(
        make_apu(
            memory_gib, xnack=xnack, seed=seed, partition=partition,
            trace=trace, inject=inject,
        ),
        sdma_enabled,
    )
