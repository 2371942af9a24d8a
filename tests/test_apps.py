"""Integration tests for the six Rodinia workloads (repro.apps).

Small problem sizes for speed; the paper-scale comparisons run in
benchmarks/test_fig11_applications.py.  The key invariants:

* both memory models compute *identical* results (checksum equality);
* the memory/time orderings of Fig. 11 hold in sign.
"""

import pytest

from repro.apps import ALL_APPS, compare
from repro.apps.backprop import Backprop
from repro.apps.dwt2d import Dwt2d
from repro.apps.heartwall import Heartwall
from repro.apps.hotspot import Hotspot
from repro.apps.nn import NearestNeighbor
from repro.apps.srad import SradV1

SMALL = {
    "backprop": {"input_units": 1 << 16},
    "dwt2d": {"dim": 1024, "levels": 2},
    "heartwall": {"frame_dim": 256, "frames": 6, "points": 16},
    "hotspot": {"grid": 256, "iterations": 10},
    "nn": {"records": 1 << 18, "k": 4},
    "srad_v1": {"dim": 256, "iterations": 6},
}


@pytest.fixture(scope="module")
def results():
    """Run every app in every variant once (module-scoped: it's work)."""
    out = {}
    for name, cls in ALL_APPS.items():
        app = cls()
        out[name] = {
            variant: app.run(variant, memory_gib=4, params=SMALL[name])
            for variant in app.variants
        }
    return out


class TestRegistry:
    def test_six_apps(self):
        assert set(ALL_APPS) == {
            "backprop", "dwt2d", "heartwall", "hotspot", "nn", "srad_v1",
        }

    def test_every_app_has_explicit_baseline(self):
        for cls in ALL_APPS.values():
            assert "explicit" in cls().variants

    def test_heartwall_has_two_unified_variants(self):
        assert Heartwall().variants == ("explicit", "unified-v1", "unified-v2")

    def test_nn_has_allocator_fix_variant(self):
        assert "unified-hipalloc" in NearestNeighbor().variants


class TestCorrectness:
    def test_variants_compute_identical_results(self, results):
        for name, by_variant in results.items():
            baseline = by_variant["explicit"].checksum
            for variant, result in by_variant.items():
                assert result.checksum == pytest.approx(baseline, rel=1e-6), (
                    f"{name}/{variant} diverged from the explicit model"
                )

    def test_checksums_nontrivial(self, results):
        for name, by_variant in results.items():
            assert by_variant["explicit"].checksum != 0.0, name

    def test_times_positive_and_ordered(self, results):
        for by_variant in results.values():
            for result in by_variant.values():
                assert result.total_time_s > 0
                assert 0 < result.compute_time_s <= result.total_time_s

    def test_peak_memory_positive(self, results):
        for by_variant in results.values():
            for result in by_variant.values():
                assert result.peak_memory_bytes > 0


class TestFig11Orderings:
    """Sign-level orderings at small scale (full ratios in benchmarks/)."""

    def test_unified_saves_memory_where_buffers_merge(self, results):
        for name in ("backprop", "hotspot", "srad_v1", "nn"):
            explicit = results[name]["explicit"].peak_memory_bytes
            unified_variant = (
                "unified" if "unified" in results[name] else "unified-v2"
            )
            unified = results[name][unified_variant].peak_memory_bytes
            assert unified < explicit, name

    def test_dwt2d_memory_unchanged(self, results):
        c = compare(results["dwt2d"]["explicit"], results["dwt2d"]["unified"])
        assert c.memory_ratio == pytest.approx(1.0, abs=0.05)

    def test_heartwall_v2_memory_unchanged(self, results):
        c = compare(
            results["heartwall"]["explicit"], results["heartwall"]["unified-v2"]
        )
        assert c.memory_ratio == pytest.approx(1.0, abs=0.1)

    def test_backprop_unified_faster_compute(self, results):
        c = compare(results["backprop"]["explicit"], results["backprop"]["unified"])
        assert c.compute_time_ratio < 0.9

    def test_dwt2d_compute_collapses(self, results):
        c = compare(results["dwt2d"]["explicit"], results["dwt2d"]["unified"])
        assert c.compute_time_ratio < 0.5

    def test_nn_unified_compute_is_outlier(self, results):
        c = compare(results["nn"]["explicit"], results["nn"]["unified"])
        assert c.compute_time_ratio > 1.3

    def test_nn_allocator_fix_restores_performance(self, results):
        broken = compare(results["nn"]["explicit"], results["nn"]["unified"])
        fixed = compare(results["nn"]["explicit"], results["nn"]["unified-hipalloc"])
        assert fixed.compute_time_ratio < broken.compute_time_ratio

    def test_heartwall_v1_slower_than_v2(self, results):
        v1 = results["heartwall"]["unified-v1"].compute_time_s
        v2 = results["heartwall"]["unified-v2"].compute_time_s
        assert v1 > v2


class TestParameterHandling:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            Hotspot().run("managed", params=SMALL["hotspot"])

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            Hotspot().run("explicit", params={"gridsize": 64})

    def test_explicit_runs_without_xnack(self):
        # The baseline uses only XNACK-free allocators.
        app = Hotspot()
        assert not app.needs_xnack("explicit")
        assert app.needs_xnack("unified")

    def test_compare_different_apps_rejected(self, results):
        with pytest.raises(ValueError):
            compare(results["hotspot"]["explicit"], results["nn"]["unified"])

    def test_compare_variants_helper(self):
        app = SradV1()
        out = compare(
            app.run("explicit", memory_gib=4, params=SMALL["srad_v1"]),
            app.run("unified", memory_gib=4, params=SMALL["srad_v1"]),
        )
        assert out.app == "srad_v1"
