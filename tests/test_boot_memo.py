"""Differential tests for the memoised node-boot tables.

``make_apu`` reuses tables that are pure functions of the frozen config
and the seed: the down-scaled config, the logical devices, the HBM
channel table and the physical pool's channel-draw tables with the
generator state after its weight draw.  Each is checked against a fresh
computation, with the configs interleaved so that a cache keyed on too
little returns a stale table.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.physical import GUIDE_BUCKETS, PhysicalMemory
from repro.hw.config import GiB, HBMGeometry, MI300AConfig, MiB, small_config
from repro.hw.hbm import HBMSubsystem, _channel_table
from repro.partition import all_valid_modes, enumerate_logical_devices
from repro.partition.logical_device import _logical_devices
from repro.runtime.apu import make_apu


def skewed(memory_bytes, skew):
    cfg = small_config(memory_bytes)
    return cfg.replace(
        policy=dataclasses.replace(cfg.policy, free_list_channel_skew=skew)
    )


def fresh_boot(config, seed):
    """The channel-draw tables and generator, computed the obvious way."""
    rng = np.random.default_rng(seed)
    geo = config.hbm
    skew = config.policy.free_list_channel_skew
    if skew > 0:
        raw = np.exp(rng.normal(0.0, 4.0 * skew, size=geo.channels))
    else:
        raw = np.ones(geo.channels)
    weights = raw / raw.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    first = cdf.searchsorted(edges[:-1], "right")
    last = cdf.searchsorted(edges[1:], "left")
    guide = np.where(first == last, first, -1)
    channel = np.arange(geo.channels)
    residues = (channel // geo.channels_per_stack
                + geo.stacks * (channel % geo.channels_per_stack))
    return weights, cdf, guide, residues, rng


#: Pool sizes, skews and seeds; a cache keyed on any subset of them
#: returns another boot's tables.
BOOTS = list(itertools.product(
    [64 * MiB, 1 * GiB], [0.0, 0.5, 1.1], [0, 3, 0x1300A]
))


class TestPhysicalBootTables:
    def test_matches_fresh_boot(self):
        for _ in range(2):  # the second pass reads the cache
            for memory_bytes, skew, seed in BOOTS:
                config = skewed(memory_bytes, skew)
                phys = PhysicalMemory(config, seed=seed)
                weights, cdf, guide, residues, rng = fresh_boot(config, seed)
                np.testing.assert_array_equal(phys.channel_weights(), weights)
                np.testing.assert_array_equal(phys._cdf, cdf)
                np.testing.assert_array_equal(phys._guide, guide)
                np.testing.assert_array_equal(phys._channel_residue, residues)
                assert phys._rng.bit_generator.state == rng.bit_generator.state

    def test_pools_of_one_boot_draw_alike(self):
        config = small_config(64 * MiB)
        first = PhysicalMemory(config, seed=9).alloc_scattered(3000)
        second = PhysicalMemory(config, seed=9)
        np.testing.assert_array_equal(second.alloc_scattered(3000), first)
        # Each pool has its own generator and bitmap.
        third = PhysicalMemory(config, seed=9)
        assert third.free_frames == third.total_frames
        assert third._rng is not second._rng

    def test_shared_tables_are_read_only(self):
        phys = PhysicalMemory(small_config(64 * MiB))
        for table in (phys._channel_weights, phys._cdf, phys._guide,
                      phys._channel_residue):
            with pytest.raises(ValueError):
                table[0] = 0


class TestChannelTable:
    def test_matches_fresh_table(self):
        geometries = [small_config(n).hbm for n in (64 * MiB, 1 * GiB)]
        geometries.append(dataclasses.replace(
            geometries[0], interleave_bytes=2 * geometries[0].interleave_bytes
        ))
        for _ in range(2):
            for geo, domains in itertools.product(geometries, (1, 2, 4)):
                hbm = HBMSubsystem(geo, numa_domains=domains)
                np.testing.assert_array_equal(
                    hbm._channel_of_key, _channel_table.__wrapped__(geo, domains)
                )
                with pytest.raises(ValueError):
                    hbm._channel_of_key[0] = 0


class TestLogicalDevices:
    def test_matches_fresh_enumeration(self):
        configs = [small_config(2 * GiB), MI300AConfig()]
        for _ in range(2):
            for config, partition in itertools.product(configs,
                                                       all_valid_modes()):
                assert enumerate_logical_devices(config, partition) == list(
                    _logical_devices.__wrapped__(config, partition)
                )

    def test_each_call_returns_a_new_list(self):
        config, partition = small_config(2 * GiB), all_valid_modes()[-1]
        first = enumerate_logical_devices(config, partition)
        first.pop()
        second = enumerate_logical_devices(config, partition)
        assert second is not first
        assert len(second) == len(first) + 1


class TestSmallConfig:
    def test_matches_fresh_config(self):
        for memory_bytes in (64 * MiB, 2 * GiB, 64 * MiB, 16 * GiB):
            assert small_config(memory_bytes) == MI300AConfig(
                hbm=HBMGeometry(stack_capacity_bytes=memory_bytes // 8)
            )
        assert small_config(64 * MiB) is small_config(64 * MiB)


def test_make_apu_boots_like_a_fresh_pool():
    for seed in (1, 2, 1):
        apu = make_apu(1, seed=seed)
        _, _, _, _, rng = fresh_boot(apu.config, seed)
        assert apu.physical._rng.bit_generator.state == rng.bit_generator.state
        assert apu.logical_devices == list(
            _logical_devices.__wrapped__(apu.config, apu.partition)
        )
