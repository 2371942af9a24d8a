"""Tests for the partitioning subsystem (repro.partition).

Covers the mode compatibility matrix, logical-device enumeration, the
NPS4 frame mapping and domain-confined placement, the partition-aware
Infinity Cache view, and the HIP device-management surface.
"""

import numpy as np
import pytest

from repro.core.meminfo import hip_mem_get_info_device
from repro.hw.config import GiB, MiB, PAGE_SIZE, small_config
from repro.hw.hbm import HBMSubsystem
from repro.partition import (
    ComputePartition,
    InvalidPartitionError,
    MemoryPartition,
    PartitionConfig,
    PartitionPlacement,
    all_valid_modes,
    device_stream_bandwidth,
    enumerate_logical_devices,
    ic_reach_fraction,
    kernel_launch_factor,
)
from repro.perf.bandwidth import BufferTraits, gpu_stream_bandwidth
from repro.runtime.apu import make_apu
from repro.runtime.hip import HipError, HipRuntime, make_runtime

CPX_NPS4 = PartitionConfig(ComputePartition.CPX, MemoryPartition.NPS4)
CPX_NPS1 = PartitionConfig(ComputePartition.CPX, MemoryPartition.NPS1)
TPX_NPS1 = PartitionConfig(ComputePartition.TPX, MemoryPartition.NPS1)

HIPMALLOC_TRAITS = BufferTraits(
    on_demand=False, uncached=False,
    average_fragment_bytes=float(2 * MiB), channel_balance=1.0,
)


@pytest.fixture
def cpx_nps4_apu():
    return make_apu(2, xnack=True, partition=CPX_NPS4)


@pytest.fixture
def cpx_hip(cpx_nps4_apu):
    return HipRuntime(cpx_nps4_apu)


class TestModes:
    def test_device_counts(self):
        assert ComputePartition.SPX.device_count() == 1
        assert ComputePartition.TPX.device_count() == 3
        assert ComputePartition.CPX.device_count() == 6

    def test_xcds_per_device(self):
        assert ComputePartition.SPX.xcds_per_device() == 6
        assert ComputePartition.TPX.xcds_per_device() == 2
        assert ComputePartition.CPX.xcds_per_device() == 1

    def test_tpx_requires_divisible_xcds(self):
        with pytest.raises(InvalidPartitionError):
            ComputePartition.TPX.xcds_per_device(4)

    def test_numa_domains(self):
        assert MemoryPartition.NPS1.numa_domains == 1
        assert MemoryPartition.NPS4.numa_domains == 4

    @pytest.mark.parametrize(
        "compute", [ComputePartition.SPX, ComputePartition.TPX]
    )
    def test_nps4_requires_cpx(self, compute):
        with pytest.raises(InvalidPartitionError):
            PartitionConfig(compute, MemoryPartition.NPS4)

    def test_default_is_paper_testbed(self):
        mode = PartitionConfig()
        assert mode.compute is ComputePartition.SPX
        assert mode.memory is MemoryPartition.NPS1
        assert mode.describe() == "SPX/NPS1"

    def test_all_valid_modes_is_compatibility_matrix(self):
        labels = {m.describe() for m in all_valid_modes()}
        assert labels == {"SPX/NPS1", "TPX/NPS1", "CPX/NPS1", "CPX/NPS4"}

    def test_xcds_of_device_partitions_the_package(self):
        for mode in all_valid_modes():
            seen = []
            for dev in range(mode.device_count):
                seen.extend(mode.xcds_of_device(dev))
            assert seen == list(range(6))
        with pytest.raises(IndexError):
            TPX_NPS1.xcds_of_device(3)


class TestLogicalDevices:
    def test_spx_is_the_whole_package(self, config):
        (dev,) = enumerate_logical_devices(config, PartitionConfig())
        assert dev.compute_units == config.gpu_compute_units == 228
        assert dev.xcds == tuple(range(6))
        assert dev.hbm_stacks == tuple(range(8))
        assert dev.memory_capacity_bytes == config.hbm.capacity_bytes
        assert dev.ic_slice_count == 128
        assert dev.ic_reach_bytes == pytest.approx(
            config.infinity_cache.capacity_bytes
        )

    def test_cpx_divides_cus_exactly(self, config):
        devices = enumerate_logical_devices(config, CPX_NPS1)
        assert len(devices) == 6
        for dev in devices:
            assert dev.compute_units == 228 // 6 == 38
            assert dev.l2_slices == 1

    def test_cpx_nps1_ic_reach_is_one_sixth(self, config):
        devices = enumerate_logical_devices(config, CPX_NPS1)
        for dev in devices:
            # All 128 slices reachable, shared six ways: a fractional
            # 1/6 share of the 256 MiB (128/6 slices is not integral).
            assert dev.ic_slice_count == 128
            assert ic_reach_fraction(dev, config) == pytest.approx(1 / 6)

    def test_tpx_devices_sit_on_one_iod(self, config):
        devices = enumerate_logical_devices(config, TPX_NPS1)
        assert [d.iods for d in devices] == [(0,), (1,), (2,)]
        for dev in devices:
            assert dev.compute_units == 76

    def test_nps4_restricts_stacks_to_local_iod(self, config):
        devices = enumerate_logical_devices(config, CPX_NPS4)
        for dev in devices:
            domain = dev.iods[0]
            assert dev.numa_domain == domain
            assert dev.hbm_stacks == (domain, domain + 4)
            assert dev.memory_capacity_bytes == config.hbm.capacity_bytes // 4
            assert dev.ic_slice_count == 32
            # 64 MiB of local slices shared by the IOD's two XCDs.
            assert dev.ic_reach_bytes == pytest.approx(32 * MiB)
        assert [d.numa_domain for d in devices] == [0, 0, 1, 1, 2, 2]

    def test_device_name_mentions_mode(self, config):
        dev = enumerate_logical_devices(config, CPX_NPS4)[2]
        assert dev.name == "MI300A[CPX/NPS4] gpu2"


class TestNPS4FrameMapping:
    def test_nps1_default_unchanged(self):
        cfg = small_config(1 * GiB)
        assert HBMSubsystem(cfg.hbm).numa_domains == 1

    def test_invalid_domain_counts_rejected(self):
        cfg = small_config(1 * GiB)
        with pytest.raises(ValueError):
            HBMSubsystem(cfg.hbm, numa_domains=3)
        with pytest.raises(ValueError):
            HBMSubsystem(cfg.hbm, numa_domains=0)

    def test_domain_ranges_tile_the_pool(self):
        cfg = small_config(1 * GiB)
        hbm = HBMSubsystem(cfg.hbm, numa_domains=4)
        total = cfg.hbm.capacity_bytes // PAGE_SIZE
        edges = [hbm.domain_frame_range(d) for d in range(4)]
        assert edges[0][0] == 0 and edges[-1][1] == total
        for (_, hi), (lo, _) in zip(edges, edges[1:]):
            assert hi == lo

    def test_nps4_frames_stay_on_domain_stacks(self):
        cfg = small_config(1 * GiB)
        hbm = HBMSubsystem(cfg.hbm, numa_domains=4)
        for domain in range(4):
            lo, hi = hbm.domain_frame_range(domain)
            frames = np.arange(lo, min(lo + 4096, hi))
            channels = hbm.channels_of_frames(frames)
            stacks = channels // cfg.hbm.channels_per_stack
            domain_stacks = {s for s in range(cfg.hbm.stacks) if s % 4 == domain}
            assert set(np.unique(stacks)) == domain_stacks

    def test_nps1_mapping_matches_legacy_formula(self):
        cfg = small_config(1 * GiB)
        hbm = HBMSubsystem(cfg.hbm)
        frames = np.arange(0, 4096)
        stacks = frames % cfg.hbm.stacks
        lanes = (frames // cfg.hbm.stacks) % cfg.hbm.channels_per_stack
        expected = stacks * cfg.hbm.channels_per_stack + lanes
        assert (hbm.channels_of_frames(frames) == expected).all()

    def test_local_fraction(self):
        cfg = small_config(1 * GiB)
        hbm = HBMSubsystem(cfg.hbm, numa_domains=4)
        lo0, hi0 = hbm.domain_frame_range(0)
        lo1, _ = hbm.domain_frame_range(1)
        frames = np.array([lo0, lo0 + 1, lo1, lo1 + 1])
        assert hbm.local_fraction(frames, 0) == 0.5
        assert hbm.local_fraction(frames, 1) == 0.5
        assert hbm.local_fraction(frames, 2) == 0.0
        assert hbm.local_fraction(np.array([], dtype=np.int64), 0) == 1.0


class TestFrameRangeAllocation:
    def test_chunks_confined_to_range(self):
        from repro.core.physical import PhysicalMemory

        phys = PhysicalMemory(small_config(1 * GiB), seed=7)
        lo, hi = 65536, 131072
        frames = phys.alloc_chunks(4096, 16, frame_range=(lo, hi))
        assert frames.min() >= lo and frames.max() < hi

    def test_scattered_confined_to_range(self):
        from repro.core.physical import PhysicalMemory

        phys = PhysicalMemory(small_config(1 * GiB), seed=7)
        lo, hi = 131072, 196608
        frames = phys.alloc_scattered(4096, frame_range=(lo, hi))
        assert frames.min() >= lo and frames.max() < hi
        assert len(np.unique(frames)) == len(frames)

    def test_range_exhaustion_raises(self):
        from repro.core.physical import OutOfMemoryError, PhysicalMemory

        phys = PhysicalMemory(small_config(1 * GiB), seed=7)
        with pytest.raises(OutOfMemoryError):
            phys.alloc_chunks(1024, 16, frame_range=(0, 512))

    def test_bad_range_rejected(self):
        from repro.core.physical import PhysicalMemory

        phys = PhysicalMemory(small_config(1 * GiB), seed=7)
        with pytest.raises(ValueError):
            phys.alloc_chunks(16, 16, frame_range=(100, 100))
        with pytest.raises(ValueError):
            phys.alloc_scattered(16, frame_range=(-1, 100))


class TestPlacement:
    def test_nps1_frame_range_is_none(self, apu):
        assert apu.placement.frame_range(0) is None

    def test_domain_mismatch_rejected(self, apu):
        with pytest.raises(ValueError):
            PartitionPlacement(apu.config, CPX_NPS4, apu.hbm_map)

    def test_device_index_bounds(self, cpx_nps4_apu):
        with pytest.raises(IndexError):
            cpx_nps4_apu.placement.device(6)

    def test_local_allocations_fully_local(self, cpx_hip):
        placement = cpx_hip.apu.placement
        for index in range(6):
            cpx_hip.hipSetDevice(index)
            frames = cpx_hip.hipMalloc(2048 * PAGE_SIZE).vma.resident_frames()
            assert placement.local_fraction(frames, index) == 1.0
            domain = placement.domain_of_device(index)
            lo, hi = cpx_hip.apu.hbm_map.domain_frame_range(domain)
            assert frames.min() >= lo and frames.max() < hi

    def test_devices_on_same_iod_share_domain(self, cpx_nps4_apu):
        placement = cpx_nps4_apu.placement
        assert placement.domain_of_device(0) == placement.domain_of_device(1)
        assert placement.domain_of_device(0) != placement.domain_of_device(2)


class TestPartitionCostModel:
    def test_spx_equals_unpartitioned_model(self, config):
        (dev,) = enumerate_logical_devices(config, PartitionConfig())
        assert device_stream_bandwidth(
            config, dev, HIPMALLOC_TRAITS
        ) == gpu_stream_bandwidth(config, HIPMALLOC_TRAITS)

    def test_cpx_nps1_share_is_one_sixth(self, config):
        dev = enumerate_logical_devices(config, CPX_NPS1)[0]
        assert device_stream_bandwidth(
            config, dev, HIPMALLOC_TRAITS
        ) == pytest.approx(gpu_stream_bandwidth(config, HIPMALLOC_TRAITS) / 6)

    def test_nps4_local_uplift(self, config):
        dev = enumerate_logical_devices(config, CPX_NPS4)[0]
        local = device_stream_bandwidth(config, dev, HIPMALLOC_TRAITS, 1.0)
        share = gpu_stream_bandwidth(config, HIPMALLOC_TRAITS) / 6
        uplift = config.partition_costs.nps4_local_bandwidth_uplift
        assert local == pytest.approx(share * (1 + uplift))
        assert 1.05 <= local / share <= 1.10

    def test_nps4_remote_penalty_and_harmonic_mix(self, config):
        dev = enumerate_logical_devices(config, CPX_NPS4)[0]
        local = device_stream_bandwidth(config, dev, HIPMALLOC_TRAITS, 1.0)
        remote = device_stream_bandwidth(config, dev, HIPMALLOC_TRAITS, 0.0)
        mixed = device_stream_bandwidth(config, dev, HIPMALLOC_TRAITS, 0.5)
        assert remote < mixed < local
        assert mixed == pytest.approx(1 / (0.5 / local + 0.5 / remote))

    def test_bad_local_fraction_rejected(self, config):
        dev = enumerate_logical_devices(config, CPX_NPS4)[0]
        with pytest.raises(ValueError):
            device_stream_bandwidth(config, dev, HIPMALLOC_TRAITS, 1.5)

    def test_cpx_launch_saving(self, config):
        assert kernel_launch_factor(config, PartitionConfig()) == 1.0
        assert kernel_launch_factor(config, TPX_NPS1) == 1.0
        assert kernel_launch_factor(config, CPX_NPS4) == pytest.approx(0.9)


class TestHipDeviceManagement:
    def test_default_single_device(self, hip):
        assert hip.hipGetDeviceCount() == 1
        assert hip.hipGetDevice() == 0

    def test_cpx_enumerates_six(self, cpx_hip):
        assert cpx_hip.hipGetDeviceCount() == 6
        for ordinal in range(6):
            assert cpx_hip.hipDeviceGet(ordinal).index == ordinal

    def test_set_device_validates(self, cpx_hip):
        cpx_hip.hipSetDevice(5)
        assert cpx_hip.hipGetDevice() == 5
        with pytest.raises(HipError):
            cpx_hip.hipSetDevice(6)
        with pytest.raises(HipError):
            cpx_hip.hipDeviceGet(-1)

    def test_device_properties(self, cpx_hip):
        props = cpx_hip.hipGetDeviceProperties(3)
        assert props["multiProcessorCount"] == 38
        assert props["totalGlobalMem"] == (2 * GiB) // 4
        assert "CPX/NPS4" in props["name"]

    def test_hipmalloc_placed_in_local_domain(self, cpx_hip):
        apu = cpx_hip.apu
        for index in (0, 3, 5):
            cpx_hip.hipSetDevice(index)
            buf = cpx_hip.hipMalloc(8 * MiB)
            frames = buf.vma.resident_frames()
            assert apu.placement.local_fraction(frames, index) == 1.0

    def test_per_device_mem_get_info(self, cpx_hip):
        quadrant = (2 * GiB) // 4
        cpx_hip.hipSetDevice(0)
        buf = cpx_hip.hipMalloc(16 * MiB)
        free0, total0 = cpx_hip.hipMemGetInfo()
        assert total0 == quadrant
        assert total0 - free0 == 16 * MiB
        # Devices 2-5 live in other quadrants: the buffer is invisible.
        free2, total2 = cpx_hip.hipMemGetInfo(device=2)
        assert total2 == quadrant and free2 == quadrant
        # Device 1 shares device 0's quadrant and sees the same usage.
        free1, _ = cpx_hip.hipMemGetInfo(device=1)
        assert free1 == free0
        cpx_hip.hipFree(buf)

    def test_nps1_mem_get_info_unchanged(self, hip):
        buf = hip.hipMalloc(16 * MiB)
        free, total = hip.hipMemGetInfo()
        assert total == 2 * GiB
        assert total - free == 16 * MiB
        hip.hipFree(buf)

    def test_meminfo_function_agrees_with_runtime(self, cpx_nps4_apu):
        runtime = HipRuntime(cpx_nps4_apu)
        runtime.hipSetDevice(4)
        runtime.hipMalloc(4 * MiB)
        expected = runtime.hipMemGetInfo()
        direct = hip_mem_get_info_device(
            cpx_nps4_apu.memory,
            cpx_nps4_apu.physical,
            cpx_nps4_apu.hbm_map,
            cpx_nps4_apu.logical_devices[4],
        )
        assert direct == expected

    def test_make_runtime_passes_partition(self):
        runtime = make_runtime(1, partition=CPX_NPS1)
        assert runtime.hipGetDeviceCount() == 6
        assert runtime.apu.hbm_map.numa_domains == 1
