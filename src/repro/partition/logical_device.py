"""Logical devices: partitioned XCD subsets presented as GPUs.

In a partitioned mode each logical device is a subset of the package's
XCDs with its own compute units, its own per-XCD L2 slices, and — via
the memory partition — its own reach into the HBM stacks and Infinity
Cache slices.  This mirrors what ``amd-smi list`` shows after
repartitioning: CPX turns one MI300A into six small GPUs of 38 CUs
each, every one sharing the physical package (same UUID) but scheduled
independently.

The Infinity Cache is memory-side, so a logical device's *cache reach*
follows its memory traffic: in NPS1 every device's accesses spread over
all 128 slices (shared six ways across the XCDs), while in NPS4 a
device only touches the 32 slices of its local IOD's two stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

from ..hw.config import MI300AConfig
from .modes import MemoryPartition, PartitionConfig


@dataclass(frozen=True)
class LogicalDevice:
    """One GPU as enumerated under a partition mode.

    Attributes:
        index: position in the logical-device enumeration (the HIP
            device id inside this APU).
        partition: the mode pair that produced this view.
        xcds: physical XCD indices fused into this device.
        iods: IODs hosting those XCDs.
        compute_units: CUs this device schedules onto.
        l2_slices: per-XCD L2 cache slices owned by this device.
        numa_domain: the NPS domain local to this device (0 in NPS1).
        hbm_stacks: stacks directly visible to this device.
        memory_capacity_bytes: capacity of the visible stacks.
        ic_slice_channels: memory channels (= Infinity Cache slices)
            this device's traffic can reach.
        ic_reach_bytes: effective Infinity Cache capacity available to
            this device when every logical device is active — the
            reachable slices' capacity divided among the XCDs sharing
            them.
    """

    index: int
    partition: PartitionConfig
    xcds: Tuple[int, ...]
    iods: Tuple[int, ...]
    compute_units: int
    l2_slices: int
    numa_domain: int
    hbm_stacks: Tuple[int, ...]
    memory_capacity_bytes: int
    ic_slice_channels: Tuple[int, ...]
    ic_reach_bytes: float

    @property
    def ic_slice_count(self) -> int:
        """Number of Infinity Cache slices this device can reach."""
        return len(self.ic_slice_channels)

    @property
    def name(self) -> str:
        """amd-smi style label, e.g. ``MI300A[CPX/NPS4] gpu2``."""
        return f"MI300A[{self.partition.describe()}] gpu{self.index}"

    def __repr__(self) -> str:
        return (
            f"LogicalDevice({self.name}, {self.compute_units} CUs, "
            f"{self.memory_capacity_bytes >> 30} GiB visible)"
        )


def ic_reach_fraction(device: LogicalDevice, config: MI300AConfig) -> float:
    """*device*'s effective IC reach as a fraction of the full cache."""
    return device.ic_reach_bytes / config.infinity_cache.capacity_bytes


def enumerate_logical_devices(
    config: MI300AConfig, partition: PartitionConfig
) -> List[LogicalDevice]:
    """All logical devices the partition mode exposes, in HIP id order.

    CU counts split the package's 228 CUs evenly by XCD share; stack and
    slice visibility follows the memory mode (everything in NPS1, the
    local IOD's quadrant in NPS4, matching the stacks
    :class:`repro.hw.hbm.HBMSubsystem` maps that domain's frames to).
    Each call returns a new list of the (frozen) devices.
    """
    return list(_logical_devices(config, partition))


@functools.lru_cache(maxsize=32)
def _logical_devices(
    config: MI300AConfig, partition: PartitionConfig
) -> Tuple[LogicalDevice, ...]:
    geo = config.hbm
    lanes = geo.channels_per_stack
    domains = partition.numa_domains
    devices = []
    for index in range(partition.device_count):
        xcds = partition.xcds_of_device(index, config.xcd_count)
        # Two XCDs per IOD: XCD i sits on IOD i // 2.
        iods = tuple(sorted({x // 2 for x in xcds}))
        compute_units = config.gpu_compute_units * len(xcds) // config.xcd_count
        if partition.memory is MemoryPartition.NPS1:
            domain = 0
            stacks = tuple(range(geo.stacks))
            sharing_xcds = config.xcd_count
        else:
            # NPS4 pairs each device with its IOD's quadrant; devices on
            # the same IOD share that quadrant's stacks and slices.
            domain = iods[0]
            stacks = tuple(s for s in range(geo.stacks) if s % domains == domain)
            sharing_xcds = sum(
                1 for x in range(config.xcd_count) if x // 2 == domain
            )
        channels = tuple(
            s * lanes + lane for s in stacks for lane in range(lanes)
        )
        subset_capacity = (
            len(channels) * config.infinity_cache.slice_capacity_bytes
        )
        devices.append(
            LogicalDevice(
                index=index,
                partition=partition,
                xcds=xcds,
                iods=iods,
                compute_units=compute_units,
                l2_slices=len(xcds),
                numa_domain=domain,
                hbm_stacks=stacks,
                memory_capacity_bytes=len(stacks) * geo.stack_capacity_bytes,
                ic_slice_channels=channels,
                ic_reach_bytes=subset_capacity * len(xcds) / sharing_xcds,
            )
        )
    return tuple(devices)
