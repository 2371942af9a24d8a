"""Fig. 6 — memory allocation time per allocator across sizes.

Regenerates the allocation-speed curves (2 B to 1 GiB, N=100 loop) via
the ``fig6`` registry experiment and the deallocation findings of
Section 5.1.  The live-allocator loop is cross-checked against the cost
models at a sample size, so the curve is the behaviour of the actual
simulated allocators, not just a formula.
"""

import pytest

from conftest import experiment_rows, print_table
from repro.bench import allocspeed
from repro.exp import get_spec
from repro.exp.experiments import FIG6_SIZES
from repro.hw.config import GiB, KiB, MiB

SIZES = list(FIG6_SIZES)


@pytest.fixture(scope="module")
def samples(experiment):
    return {
        (r["allocator"], r["size_bytes"]): r for r in experiment("fig6")
    }


def test_fig6_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: experiment_rows("fig6", fresh=True), rounds=1, iterations=1
    )
    print_table(
        "Fig. 6: allocation / deallocation time (us)",
        ["allocator", "size", "alloc_us", "free_us"],
        [
            (r["allocator"], f"{r['size_bytes']} B",
             f"{r['alloc_ns'] / 1e3:.3f}", f"{r['free_ns'] / 1e3:.3f}")
            for r in rows
        ],
    )
    assert len(rows) == len(SIZES) * get_spec("fig6").point_count()


class TestAllocationFindings:
    def test_malloc_fastest(self, samples):
        assert samples[("malloc", 32)]["alloc_ns"] == pytest.approx(14.0)
        assert samples[("malloc", 1 * GiB)]["alloc_ns"] == pytest.approx(
            6e3, rel=0.1
        )

    def test_up_front_flat_to_16kib(self, samples):
        for allocator in ("hipMalloc", "hipHostMalloc", "hipMallocManaged(xnack=0)"):
            assert samples[(allocator, 2)]["alloc_ns"] == \
                samples[(allocator, 16 * KiB)]["alloc_ns"], allocator

    def test_hipmalloc_10us_to_37ms(self, samples):
        assert samples[("hipMalloc", 2)]["alloc_ns"] == pytest.approx(10e3)
        assert samples[("hipMalloc", 1 * GiB)]["alloc_ns"] == pytest.approx(
            37e6, rel=0.02
        )

    def test_pinned_allocators_200_to_400ms_at_1gib(self, samples):
        for allocator in ("hipHostMalloc", "hipMallocManaged(xnack=0)"):
            assert 200e6 <= samples[(allocator, 1 * GiB)]["alloc_ns"] <= 400e6

    def test_managed_xnack_constant(self, samples):
        values = {
            samples[("hipMallocManaged(xnack=1)", s)]["alloc_ns"] for s in SIZES
        }
        assert len(values) == 1

    def test_recommended_ordering(self, samples):
        """malloc for on-demand, hipMalloc as the fastest up-front."""
        for size in SIZES:
            assert samples[("malloc", size)]["alloc_ns"] <= \
                samples[("hipMalloc", size)]["alloc_ns"]
        for size in (2 * MiB, 16 * MiB, 1 * GiB):
            assert samples[("hipMalloc", size)]["alloc_ns"] < \
                samples[("hipHostMalloc", size)]["alloc_ns"]


class TestDeallocationFindings:
    def test_free_faster_until_16mib_then_4_to_9x(self, samples):
        for size in (2, 1 * KiB, 2 * MiB):
            s = samples[("malloc", size)]
            assert s["free_ns"] < s["alloc_ns"]
        for size in (128 * MiB, 1 * GiB):
            s = samples[("malloc", size)]
            assert 4 <= s["free_ns"] / s["alloc_ns"] <= 9

    def test_hipfree_crossover_at_2mib(self, samples):
        below = samples[("hipMalloc", 256 * KiB)]
        assert below["free_ns"] < below["alloc_ns"]
        above = samples[("hipMalloc", 128 * MiB)]
        assert above["free_ns"] > above["alloc_ns"]

    def test_hipfree_up_to_22x_at_256mib(self):
        ((_, _, alloc_ns, free_ns),) = allocspeed.cost_sweep(
            "hipMalloc", [256 * MiB]
        )
        assert free_ns / alloc_ns == pytest.approx(22, rel=0.15)

    def test_managed_xnack_free_microseconds(self, samples):
        for size in SIZES:
            free_ns = samples[("hipMallocManaged(xnack=1)", size)]["free_ns"]
            assert 3e3 <= free_ns <= 21e3

    def test_pinned_free_band(self, samples):
        assert samples[("hipHostMalloc", 16 * KiB)]["free_ns"] >= 220e3
        assert samples[("hipHostMalloc", 1 * GiB)]["free_ns"] == pytest.approx(
            67e6, rel=0.05
        )


def test_live_allocator_matches_model(benchmark):
    """The timed alloc/free loops on a live APU charge the model costs."""

    def live():
        return allocspeed.timed_loop("hipMalloc", 1 * MiB, count=100, warmup=10)

    alloc_ns, free_ns = benchmark.pedantic(live, rounds=1, iterations=1)
    ((_, _, model_alloc_ns, model_free_ns),) = allocspeed.cost_sweep(
        "hipMalloc", [1 * MiB]
    )
    assert alloc_ns == pytest.approx(model_alloc_ns, rel=0.01)
    assert free_ns == pytest.approx(model_free_ns, rel=0.01)
