"""Hardware-point scaling tests: the models respond to config changes.

The simulator should be usable for *what-if* studies on future APUs;
these tests verify the models react correctly when the hardware point
moves, rather than being hard-wired to the MI300A numbers.
"""

import dataclasses

import pytest

from repro.hw.config import (
    GiB,
    HBMGeometry,
    InfinityCacheGeometry,
    MiB,
    default_config,
    small_config,
)
from repro.hw.hbm import HBMSubsystem
from repro.hw.infinity_cache import InfinityCache
from repro.perf.atomics import gpu_atomic_throughput
from repro.perf.bandwidth import BufferTraits, cpu_stream_bandwidth
from repro.perf.latency import cpu_chase_latency_ns


class TestBiggerInfinityCache:
    def test_larger_ic_lowers_mid_range_latency(self):
        base = default_config()
        bigger = base.replace(
            infinity_cache=InfinityCacheGeometry(capacity_bytes=1 * GiB)
        )
        ws = 768 * MiB
        assert cpu_chase_latency_ns(bigger, ws) < cpu_chase_latency_ns(base, ws)

    def test_slice_capacity_scales(self):
        geo = InfinityCacheGeometry(capacity_bytes=1 * GiB)
        assert geo.slice_capacity_bytes == 8 * MiB


class TestMoreComputeUnits:
    def test_more_cus_soften_hybrid_contention(self):
        from repro.perf.atomics import hybrid_atomic_throughput

        base = default_config()
        doubled = base.replace(gpu_compute_units=456)
        # At a fixed GPU thread count, a bigger device is further from
        # saturation, so the co-running GPU loses less on a hot array.
        small = hybrid_atomic_throughput(base, 1 << 10, 24, 14592, "uint64")
        big = hybrid_atomic_throughput(doubled, 1 << 10, 24, 14592, "uint64")
        assert big.gpu_relative > small.gpu_relative


class TestMoreCores:
    def test_extra_cores_extend_case_a_ramp(self):
        base = default_config()
        fat = base.replace(cpu_cores=48)
        traits = BufferTraits(False, False, 64 * 1024.0, 1.0)
        # Same peak, reached over a longer ramp.
        assert cpu_stream_bandwidth(fat, traits, 48) == pytest.approx(
            base.bandwidth.cpu_peak_stream_bytes_per_s
        )
        assert cpu_stream_bandwidth(fat, traits, 24) < \
            cpu_stream_bandwidth(base, traits, 24)


class TestHBMGeometryVariants:
    def test_channel_count_follows_geometry(self):
        geo = HBMGeometry(stacks=4, channels_per_stack=8)
        assert geo.channels == 32
        assert geo.capacity_bytes == 64 * GiB

    def test_hbm_subsystem_respects_geometry(self):
        geo = HBMGeometry(stacks=4, channels_per_stack=8)
        hbm = HBMSubsystem(geo)
        # Channel period = stacks * lanes.
        channel = hbm.channels_of_frames([0, 1, 32])
        assert channel[0] == channel[2]
        assert channel[1] != channel[0]

    def test_ic_requires_matching_slices(self):
        geo = HBMGeometry(stacks=4, channels_per_stack=8)
        ic_geo = InfinityCacheGeometry(slices=32)
        InfinityCache(ic_geo, HBMSubsystem(geo))  # matches: fine


class TestPolicyKnobs:
    def test_contiguity_knob_changes_fragments(self):
        from repro.runtime.apu import APU

        for contiguity, expected_avg in ((64 << 10, 64 << 10), (16 << 10, 16 << 10)):
            cfg = small_config(1 * GiB)
            cfg = cfg.replace(
                policy=dataclasses.replace(
                    cfg.policy, up_front_contiguity_bytes=contiguity
                )
            )
            apu = APU(config=cfg)
            buf = apu.memory.hip_malloc(8 * MiB)
            from repro.core.fragments import average_fragment_bytes

            assert average_fragment_bytes(buf.vma.fragment) == pytest.approx(
                expected_avg, rel=0.1
            )

    def test_fault_around_knob(self):
        from repro.runtime.apu import APU

        cfg = small_config(1 * GiB)
        cfg = cfg.replace(
            policy=dataclasses.replace(
                cfg.policy, up_front_cpu_fault_granularity_bytes=64 << 10
            )
        )
        apu = APU(config=cfg)
        buf = apu.memory.hip_malloc(1 * MiB)  # 256 pages
        report = apu.faults.touch_range(buf.vma, 0, 256, "cpu")
        assert report.cpu_fault_events == 16  # 64 KiB windows


class TestDownScaledPools:
    @pytest.mark.parametrize("gib", [1, 2, 4])
    def test_small_pools_work_end_to_end(self, gib):
        from repro.runtime import make_runtime
        from repro.runtime.kernels import BufferAccess, KernelSpec

        hip = make_runtime(memory_gib=gib, xnack=True)
        buf = hip.hipMalloc(64 * MiB)
        result = hip.launchKernel(
            KernelSpec("k", [BufferAccess(buf, "read")])
        )
        hip.hipDeviceSynchronize()
        assert result.duration_ns > 0
