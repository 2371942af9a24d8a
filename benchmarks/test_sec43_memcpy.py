"""Section 4.3 — legacy CPU-GPU data transfers (hipMemcpy bandwidth).

Regenerates the hip_bandwidth measurements via the ``memcpy`` registry
experiment (256 MiB copies on a 4 GiB node): host<->device copies achieve
only 58 GB/s through SDMA (850 GB/s with SDMA disabled) while
device-to-device copies reach ~1.9 TB/s — all far below or near the GPU
STREAM bandwidth, quantifying what *legacy* explicit-model codes pay on
UPM for copies that move data within one physical memory.
"""

import pytest

from conftest import experiment_rows, fmt_rate, print_table


@pytest.fixture(scope="module")
def results(experiment):
    return {
        (r["transfer"], r["sdma"]): r["bandwidth_bytes_per_s"]
        for r in experiment("memcpy")
    }


def test_sec43_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_rows("memcpy", fresh=True), rounds=1, iterations=1
    )
    print_table(
        "Section 4.3: hipMemcpy bandwidth",
        ["transfer", "sdma", "bandwidth"],
        [(r["transfer"], r["sdma"], fmt_rate(r["bandwidth_bytes_per_s"], "B/s"))
         for r in rows],
    )
    assert len(rows) == 6


def test_sdma_host_device_58gbs(results):
    for label in ("malloc -> hipMalloc", "hipHostMalloc -> hipMalloc"):
        bw = results[(label, True)]
        assert bw == pytest.approx(58e9, rel=0.05), label


def test_no_sdma_850gbs(results):
    bw = results[("malloc -> hipMalloc", False)]
    assert bw == pytest.approx(850e9, rel=0.05)


def test_d2d_1900gbs(results):
    for sdma in (True, False):
        bw = results[("hipMalloc -> hipMalloc", sdma)]
        assert bw == pytest.approx(1.9e12, rel=0.05)


def test_legacy_copies_far_below_stream_bandwidth(results):
    """The headline: legacy transfers waste most of the memory system."""
    gpu_stream_bw = 3.6e12
    sdma = results[("malloc -> hipMalloc", True)]
    assert gpu_stream_bw / sdma > 50

def test_ordering(results):
    sdma = results[("malloc -> hipMalloc", True)]
    blit = results[("malloc -> hipMalloc", False)]
    d2d = results[("hipMalloc -> hipMalloc", True)]
    assert sdma < blit < d2d
