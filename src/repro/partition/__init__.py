"""Compute (SPX/TPX/CPX) and memory (NPS1/NPS4) partitioning.

The subsystem models the MI300A repartitioning the AMD Instinct
partitioning guide describes: :mod:`modes` validates the mode pairs,
:mod:`logical_device` presents XCD subsets as independent logical GPUs,
and :mod:`placement` pins allocations to NUMA-domain frame windows and
prices the local/remote split.
"""

from .logical_device import (
    LogicalDevice,
    enumerate_logical_devices,
    ic_reach_fraction,
)
from .modes import (
    ComputePartition,
    InvalidPartitionError,
    MemoryPartition,
    PartitionConfig,
    all_valid_modes,
)
from .placement import (
    PartitionPlacement,
    device_stream_bandwidth,
    kernel_launch_factor,
)

__all__ = [
    "ComputePartition",
    "InvalidPartitionError",
    "LogicalDevice",
    "MemoryPartition",
    "PartitionConfig",
    "PartitionPlacement",
    "all_valid_modes",
    "device_stream_bandwidth",
    "enumerate_logical_devices",
    "ic_reach_fraction",
    "kernel_launch_factor",
]
