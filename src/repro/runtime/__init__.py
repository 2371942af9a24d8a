"""HIP-like runtime over the simulated MI300A APU.

:class:`~repro.runtime.apu.APU` wires all subsystems together;
:class:`~repro.runtime.hip.HipRuntime` exposes the HIP API surface the
paper's benchmarks and ported applications use.
"""

from .apu import APU, make_apu
from .arrays import DeviceArray
from .device import CPUComplex, GPUCounters, GPUDevice
from .hip import (
    ALLOC_BACKOFF_NS,
    ALLOC_RETRY_LIMIT,
    HipError,
    HipRuntime,
    hipErrorECCNotCorrectable,
    hipErrorInvalidDevice,
    hipErrorInvalidResourceHandle,
    hipErrorInvalidValue,
    hipErrorOutOfMemory,
    hipErrorUnknown,
    hipMemcpyDefault,
    hipMemcpyDeviceToDevice,
    hipMemcpyDeviceToHost,
    hipMemcpyHostToDevice,
    hipSuccess,
    make_runtime,
)
from .kernels import (
    BufferAccess,
    KERNEL_LAUNCH_OVERHEAD_NS,
    KernelEngine,
    KernelResult,
    KernelSpec,
)
from .sdma import (
    SdmaTransferError,
    copy_path,
    memcpy_bandwidth_bytes_per_s,
    memcpy_time_ns,
)
from .stream import Event, Stream, StreamRegistry, UnrecordedEventError

__all__ = [
    "ALLOC_BACKOFF_NS",
    "ALLOC_RETRY_LIMIT",
    "APU",
    "BufferAccess",
    "CPUComplex",
    "DeviceArray",
    "Event",
    "GPUCounters",
    "GPUDevice",
    "HipError",
    "HipRuntime",
    "KERNEL_LAUNCH_OVERHEAD_NS",
    "KernelEngine",
    "KernelResult",
    "KernelSpec",
    "SdmaTransferError",
    "Stream",
    "StreamRegistry",
    "UnrecordedEventError",
    "copy_path",
    "hipErrorECCNotCorrectable",
    "hipErrorInvalidDevice",
    "hipErrorInvalidResourceHandle",
    "hipErrorInvalidValue",
    "hipErrorOutOfMemory",
    "hipErrorUnknown",
    "hipMemcpyDefault",
    "hipMemcpyDeviceToDevice",
    "hipMemcpyDeviceToHost",
    "hipMemcpyHostToDevice",
    "hipSuccess",
    "make_apu",
    "make_runtime",
    "memcpy_bandwidth_bytes_per_s",
    "memcpy_time_ns",
]
