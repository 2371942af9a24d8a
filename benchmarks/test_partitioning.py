"""Partitioning modes: the Instinct partitioning guide's headline numbers.

Regenerates the partition sweep (`python -m repro run partition`) and asserts
the guide's findings on the simulated MI300A:

* NPS4 with partition-local placement streams 5-10% faster than NPS1 —
  the data path stays inside one IOD's quadrant;
* remote-quadrant placement under NPS4 is strictly worse than NPS1;
* CPX exposes six logical devices, each with 1/6 of the CUs and an
  Infinity Cache reach of 1/6 (NPS1) or one local quadrant (NPS4);
* the default SPX/NPS1 mode is bit-identical to the unpartitioned model.
"""

import numpy as np
import pytest

from conftest import experiment_rows, fmt_rate, print_table
from repro.hw.config import GiB, MiB
from repro.partition import (
    ComputePartition,
    MemoryPartition,
    PartitionConfig,
    all_valid_modes,
    device_stream_bandwidth,
    ic_reach_fraction,
)
from repro.runtime.hip import make_runtime

CPX_NPS1 = PartitionConfig(ComputePartition.CPX, MemoryPartition.NPS1)
CPX_NPS4 = PartitionConfig(ComputePartition.CPX, MemoryPartition.NPS4)

ARRAY_BYTES = 32 * MiB
MEMORY_GIB = 2


def _aggregate_stream(partition, remote=False):
    """Per-device hipMalloc STREAM under *partition*; returns
    (aggregate bytes/s, min local fraction)."""
    hip = make_runtime(MEMORY_GIB, partition=partition)
    apu = hip.apu
    aggregate, locals_ = 0.0, []
    n = len(apu.logical_devices)
    for device in apu.logical_devices:
        # Worst-case placement allocates the buffer on device i+2, so it
        # sits entirely in another device's quadrant.
        home = (device.index + 2) % n if remote else device.index
        hip.hipSetDevice(home)
        buf = hip.hipMalloc(ARRAY_BYTES)
        local = apu.placement.local_fraction(
            buf.vma.resident_frames(), device.index
        )
        traits = apu.buffer_traits(buf)
        locals_.append(local)
        aggregate += device_stream_bandwidth(apu.config, device, traits, local)
    return aggregate, min(locals_)


def test_nps4_local_stream_uplift(benchmark):
    """NPS4 partition-local STREAM lands 5-10% above NPS1 (guide's
    headline); remote-quadrant placement is strictly worse than NPS1."""

    def run():
        nps1, _ = _aggregate_stream(CPX_NPS1)
        nps4, worst_local = _aggregate_stream(CPX_NPS4)
        nps4_remote, _ = _aggregate_stream(CPX_NPS4, remote=True)
        return nps1, nps4, nps4_remote, worst_local

    nps1, nps4, nps4_remote, worst_local = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    ratio = nps4 / nps1
    print_table(
        "Partitioning guide: NPS4 vs NPS1 aggregate STREAM (CPX, hipMalloc)",
        ["placement", "aggregate_bw", "vs NPS1"],
        [
            ("NPS1 interleaved", fmt_rate(nps1, "B/s"), "1.00x"),
            ("NPS4 local", fmt_rate(nps4, "B/s"), f"{ratio:.2f}x"),
            ("NPS4 remote", fmt_rate(nps4_remote, "B/s"),
             f"{nps4_remote / nps1:.2f}x"),
        ],
    )
    # The uplift only exists because placement is genuinely local.
    assert worst_local == 1.0
    assert 1.05 <= ratio <= 1.10
    assert nps4_remote < nps1


def test_cpx_exposes_six_devices_with_sixth_of_resources(benchmark):
    """CPX: six logical devices, 38 CUs and a 1/6 IC share each."""

    def run():
        spx = make_runtime(MEMORY_GIB).apu
        nps1 = make_runtime(MEMORY_GIB, partition=CPX_NPS1).apu
        nps4 = make_runtime(MEMORY_GIB, partition=CPX_NPS4).apu
        return spx, nps1, nps4

    spx, nps1, nps4 = benchmark.pedantic(run, rounds=1, iterations=1)
    config = spx.config
    rows = []
    for apu in (spx, nps1, nps4):
        first = apu.logical_devices[0]
        rows.append(
            (apu.partition.describe(), len(apu.logical_devices),
             first.compute_units, first.ic_slice_count,
             f"{first.ic_reach_bytes / MiB:.1f} MiB")
        )
    print_table(
        "CPX logical devices",
        ["mode", "devices", "CUs/dev", "IC_slices/dev", "IC_reach/dev"],
        rows,
    )
    assert len(nps1.logical_devices) == 6
    (spx_dev,) = spx.logical_devices
    for dev in nps1.logical_devices:
        assert dev.compute_units == config.gpu_compute_units // 6 == 38
        assert dev.compute_units == spx_dev.compute_units // 6
        # 128 slices don't split six ways evenly: the device sees all
        # slices but effectively owns a 1/6 capacity share.
        assert ic_reach_fraction(dev, config) == pytest.approx(1 / 6)
        assert dev.ic_reach_bytes < spx_dev.ic_reach_bytes
    for dev in nps4.logical_devices:
        assert dev.ic_slice_count == 128 // 4  # the local quadrant's slices
        assert dev.ic_reach_bytes < spx_dev.ic_reach_bytes


def test_default_mode_is_bit_identical_to_unpartitioned(benchmark):
    """SPX/NPS1 (the paper's testbed) changes nothing: same device
    count, same frame->channel mapping, same meminfo, same bandwidth."""

    def run():
        plain = make_runtime(MEMORY_GIB)
        partitioned = make_runtime(MEMORY_GIB, partition=PartitionConfig())
        return plain, partitioned

    plain, partitioned = benchmark.pedantic(run, rounds=1, iterations=1)
    assert partitioned.hipGetDeviceCount() == 1
    frames = np.arange(0, (1 * GiB) // 4096, 17)
    assert (
        plain.apu.hbm_map.channels_of_frames(frames)
        == partitioned.apu.hbm_map.channels_of_frames(frames)
    ).all()
    for hip in (plain, partitioned):
        buf = hip.hipMalloc(ARRAY_BYTES)
        assert hip.hipMemGetInfo() == (2 * GiB - ARRAY_BYTES, 2 * GiB)
        device = hip.apu.logical_devices[0]
        traits = hip.apu.buffer_traits(buf)
        assert device_stream_bandwidth(
            hip.apu.config, device, traits
        ) == pytest.approx(3.6e12)
    rows = [("SPX/NPS1 vs unpartitioned", "identical mapping/meminfo/bw")]
    print_table("Default-mode regression", ["check", "result"], rows)


def test_partition_mode_sweep(benchmark):
    """The registry's ``partition`` experiment stays self-consistent
    with the direct sweep (CLI parity)."""
    rows = benchmark.pedantic(
        lambda: experiment_rows("partition", fresh=True),
        rounds=1, iterations=1,
    )
    print_table(
        "Partition mode sweep (aggregate hipMalloc STREAM)",
        ["mode", "aggregate_bw", "min_local_frac"],
        [(r["mode"], fmt_rate(r["aggregate_bw_bytes_per_s"], "B/s"),
          f"{r['min_local_fraction']:.2f}") for r in rows],
    )
    assert len(rows) == len(all_valid_modes())
    by_mode = {r["mode"]: r["aggregate_bw_bytes_per_s"] for r in rows}
    # Compute partitioning alone never changes aggregate bandwidth.
    assert by_mode["TPX/NPS1"] == pytest.approx(by_mode["SPX/NPS1"])
    assert by_mode["CPX/NPS1"] == pytest.approx(by_mode["SPX/NPS1"])
    assert by_mode["CPX/NPS4"] > by_mode["SPX/NPS1"]
