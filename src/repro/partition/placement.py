"""NPS-aware physical placement and the local/remote cost split.

NPS4 turns the single interleaved pool into four NUMA domains, each a
contiguous physical quadrant interleaved over one IOD's two stacks
(:class:`repro.hw.hbm.HBMSubsystem`).  Placement then matters the same
way it does across sockets: an allocation serviced from the local
quadrant avoids crossing IODs, which is where the partitioning guide's
5-10% stream-bandwidth uplift comes from, while remote-quadrant traffic
pays an Infinity Fabric hop (lower bandwidth).

:class:`PartitionPlacement` is the policy object: it pins each logical
device to its local domain's frame window, which ``hipMalloc`` on that
device passes to the allocators as ``frame_range``, so partition-local
buffers come out of the right quadrant by construction.  The
module-level functions turn a measured local fraction into effective
bandwidth, reading their coefficients from
:class:`repro.hw.config.PartitionCostModel`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..hw.config import MI300AConfig
from ..hw.hbm import HBMSubsystem
from ..perf.bandwidth import BufferTraits, gpu_stream_bandwidth
from .logical_device import LogicalDevice, enumerate_logical_devices
from .modes import ComputePartition, PartitionConfig


class PartitionPlacement:
    """Binds logical devices to NUMA domains and their frame windows.

    Args:
        config: the hardware configuration.
        partition: the active compute/memory mode pair.
        hbm: the HBM subsystem; must be built with the same domain count
            as *partition* so frame windows and interleave agree.
    """

    def __init__(
        self,
        config: MI300AConfig,
        partition: PartitionConfig,
        hbm: HBMSubsystem,
    ) -> None:
        if hbm.numa_domains != partition.numa_domains:
            raise ValueError(
                f"HBM models {hbm.numa_domains} NUMA domains but the "
                f"partition mode {partition.describe()} expects "
                f"{partition.numa_domains}"
            )
        self._partition = partition
        self._hbm = hbm
        self._devices = enumerate_logical_devices(config, partition)

    @property
    def partition(self) -> PartitionConfig:
        """The mode pair this placement enforces."""
        return self._partition

    @property
    def devices(self) -> List[LogicalDevice]:
        """The logical devices, in HIP id order."""
        return list(self._devices)

    def device(self, index: int) -> LogicalDevice:
        """The logical device with HIP id *index*."""
        if not 0 <= index < len(self._devices):
            raise IndexError(
                f"device {index} out of range [0, {len(self._devices)})"
            )
        return self._devices[index]

    def domain_of_device(self, index: int) -> int:
        """The NUMA domain local to logical device *index*."""
        return self.device(index).numa_domain

    def frame_range(self, index: int) -> Optional[Tuple[int, int]]:
        """Local frame window for device *index*; ``None`` in NPS1.

        ``None`` keeps the allocators on their whole-pool paths, so the
        default mode is bit-identical to the unpartitioned model.
        """
        if self._partition.numa_domains == 1:
            return None
        return self._hbm.domain_frame_range(self.domain_of_device(index))

    def local_fraction(self, frames: Sequence[int], index: int) -> float:
        """Fraction of *frames* homed in device *index*'s local domain."""
        if self._partition.numa_domains == 1:
            return 1.0
        return self._hbm.local_fraction(frames, self.domain_of_device(index))


# ----------------------------------------------------------------------
# Local/remote cost split
# ----------------------------------------------------------------------


def device_stream_bandwidth(
    config: MI300AConfig,
    device: LogicalDevice,
    traits: BufferTraits,
    local_fraction: float = 1.0,
) -> float:
    """Achievable stream bandwidth (bytes/s) of one logical device.

    The device's share of the package bandwidth scales with its XCD
    count (the memory system serves all XCDs symmetrically).  Under
    NPS4 the share then splits by placement: the local-domain portion
    streams at the localised rate (shorter data path — the guide's
    5-10% uplift), the remote portion at the Infinity-Fabric-crossing
    rate, and the two phases combine time-weighted (harmonically), as
    a stream must move both portions.
    """
    if not 0.0 <= local_fraction <= 1.0:
        raise ValueError(f"local fraction {local_fraction} outside [0, 1]")
    share = (
        gpu_stream_bandwidth(config, traits)
        * len(device.xcds)
        / config.xcd_count
    )
    if device.partition.numa_domains == 1:
        return share
    costs = config.partition_costs
    local_bw = share * (1.0 + costs.nps4_local_bandwidth_uplift)
    remote_bw = share * costs.nps4_remote_bandwidth_factor
    if local_fraction == 1.0:
        return local_bw
    if local_fraction == 0.0:
        return remote_bw
    time_per_byte = (
        local_fraction / local_bw + (1.0 - local_fraction) / remote_bw
    )
    return 1.0 / time_per_byte


def kernel_launch_factor(
    config: MI300AConfig, partition: PartitionConfig
) -> float:
    """Kernel-launch time multiplier for a partition mode.

    CPX devices skip the cross-XCD workgroup distribution step of the
    fused modes, which the partitioning guide reports as a small
    launch-overhead saving; SPX and TPX launch at the baseline cost.
    """
    if partition.compute is ComputePartition.CPX:
        return config.partition_costs.cpx_launch_overhead_factor
    return 1.0
