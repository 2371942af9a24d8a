"""Golden advisories: the Rodinia ports and examples/slow_port.py.

Three kinds of ground truth pin the advisor's output:

* the six explicit-model ports each carry at least one redundant-copy
  advisory, and the six managed-model ports advise clean — the paper's
  central porting claim (§4.3) read off the shipped sources statically;
* ``examples/slow_port.py`` triggers every check, one scenario per
  rule;
* the static fault-storm prediction cross-validates against hipsan's
  *dynamic* verdict: the one managed port the advisor flags (nn) is
  exactly the one whose trace storms at full problem size.
"""

from pathlib import Path

import pytest

from repro.analyze import (
    Severity,
    advise_apps,
    advise_file,
    analyze_app,
    fingerprint,
    load_baseline,
    port_is_clean,
)
from repro.apps import ALL_APPS

REPO = Path(__file__).resolve().parent.parent
SLOW_PORT = REPO / "examples" / "slow_port.py"
BASELINE = REPO / "advise_baseline.json"


@pytest.fixture(scope="module")
def buckets():
    return advise_apps()


class TestPortGolden:
    def test_every_app_bucketed(self, buckets):
        assert set(buckets) == set(ALL_APPS)
        for name in buckets:
            assert set(buckets[name]) == {"explicit", "managed"}

    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_explicit_ports_flag_redundant_copies(self, buckets, name):
        rules = {f.rule for f in buckets[name]["explicit"]}
        assert "redundant-copy" in rules

    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_managed_ports_advise_clean(self, buckets, name):
        assert port_is_clean(buckets[name]["managed"]), [
            f"{f.rule}: {f.message}"
            for f in buckets[name]["managed"]
            if f.severity > Severity.INFO
        ]

    def test_copy_advisories_are_warnings_and_some_are_priced(self, buckets):
        copies = [
            f
            for name in buckets
            for f in buckets[name]["explicit"]
            if f.rule == "redundant-copy"
        ]
        assert all(f.severity == Severity.WARNING for f in copies)
        # Constant-size copies are priced at the paper's SDMA rate;
        # symbolically-sized ones legitimately stay unpriced.
        assert any(f.cost_ns and f.cost_ns > 0 for f in copies)


class TestSlowPortGolden:
    """One scenario per rule in the shipped slow-port example."""

    EXPECTED = {
        "redundant_copy": "redundant-copy",
        "first_touch_hazard": "first-touch",
        "fault_storm": "fault-storm",
        "tlb_thrash": "tlb-reach",
        "mixed_models": "mixed-alloc",
        "sync_in_loop": "sync-in-loop",
    }

    @pytest.fixture(scope="class")
    def by_function(self):
        findings = advise_file(SLOW_PORT)
        grouped = {}
        for f in findings:
            grouped.setdefault(f.function, set()).add(f.rule)
        return grouped

    @pytest.mark.parametrize("scenario,rule", sorted(EXPECTED.items()))
    def test_scenario_triggers_its_rule(self, by_function, scenario, rule):
        assert rule in by_function.get(scenario, set())

    def test_all_six_rules_covered(self, by_function):
        seen = set().union(*by_function.values())
        assert set(self.EXPECTED.values()) <= seen

    def test_slow_port_runs_clean_dynamically(self):
        # The example's sins are performance-only: it computes correct
        # results, so it stays runnable (the doc gate imports it too).
        import runpy

        module = runpy.run_path(str(SLOW_PORT))
        for scenario in module["SCENARIOS"]:
            scenario()


class TestBaselineGolden:
    def test_checked_in_baseline_covers_the_ports(self, buckets):
        """`repro advise --apps --baseline advise_baseline.json` gates
        green: every current >=WARNING advisory is fingerprinted."""
        baseline = load_baseline(BASELINE)
        seen, missing = set(), []
        for name in sorted(buckets):
            for port in sorted(buckets[name]):
                for f in buckets[name][port]:
                    key = (f.rule, f.file, f.line, f.message)
                    if key in seen or f.severity < Severity.WARNING:
                        continue
                    seen.add(key)
                    if fingerprint(f) not in baseline:
                        missing.append(f"{f.rule} @ {f.file}:{f.line}")
        assert not missing, missing


class TestHipsanCrossValidation:
    """Static fault-storm predictions match the dynamic sanitizer."""

    def test_static_prediction_names_only_nn(self, buckets):
        stormy = {
            name
            for name in buckets
            if any(
                f.rule == "fault-storm"
                for f in buckets[name]["managed"]
            )
        }
        assert stormy == {"nn"}

    def test_nn_storms_dynamically_at_full_size(self):
        # Only from the malloc vector: the hipMalloc one is GPU-mapped at
        # allocation, though the static rule flags the one method both
        # managed variants share.
        params = {"records": 1 << 20, "k": 4}
        for variant, storms in (("unified", True), ("unified-hipalloc", False)):
            findings = analyze_app("nn", variant, params=params)
            assert any(f.rule == "fault-storm" for f in findings) == storms

    @pytest.mark.parametrize("name", ["hotspot", "srad_v1"])
    def test_storm_free_ports_stay_quiet_dynamically(self, name):
        findings = analyze_app(name, "unified")
        assert not any(f.rule == "fault-storm" for f in findings)
