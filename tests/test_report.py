"""Tests for experiment reports: the engine's rows and the JSON and CSV
artifacts ``write_artifacts`` makes of them (repro.exp)."""

import csv
import json

import pytest

from repro.exp import SCHEMA_VERSION, Engine, write_artifacts

#: The cheap model-backed experiments plotted from CSV.
CSV_SET = ["table1", "fig4", "fig6", "fig7", "fig8", "uvm"]


def _run(name, quick=False):
    return Engine(workers=1, cache=None).run(name, quick=quick)


@pytest.fixture(scope="module")
def quick_results():
    return Engine(workers=1, cache=None).run_many(CSV_SET, quick=True)


class TestExperimentReport:
    def test_column_extraction(self):
        result = _run("fig8")
        rows = result.dicts()
        assert [r["fault_type"] for r in rows] == [r[0] for r in result.rows]
        assert set(rows[0]) == set(result.columns)

    def test_csv_round_trip(self, quick_results, tmp_path):
        write_artifacts(quick_results, tmp_path)
        result = quick_results["table1"]
        with (tmp_path / "table1.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == result.columns
        assert rows[1:] == [[str(v) for v in row] for row in result.rows]

    def test_json_round_trip(self, quick_results, tmp_path):
        write_artifacts(quick_results, tmp_path)
        payload = json.loads((tmp_path / "fig8.json").read_text())
        assert payload["experiment"] == "fig8"
        assert payload["columns"] == quick_results["fig8"].columns
        assert payload["rows"] == quick_results["fig8"].rows

    def test_json_carries_provenance(self, quick_results):
        payload = quick_results["fig8"].to_payload()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["git_sha"]
        assert payload["timestamp"]  # ISO 8601
        assert "T" in payload["timestamp"]


class TestCollectors:
    def test_table1_rows(self):
        result = _run("table1")
        assert len(result.rows) == 10  # 5 allocators x 2 xnack modes
        assert "physical" in result.columns

    def test_fig7_matches_model(self):
        result = _run("fig7")
        assert {r["scenario"] for r in result.dicts()} == {
            "gpu_major", "gpu_minor", "cpu", "cpu12"
        }
        # The plateau value survives into the report.
        plateau = [
            r for r in result.rows
            if r[0] == "gpu_minor" and r[1] == 10_000_000
        ]
        assert plateau[0][2] == pytest.approx(9.0e6, rel=0.05)

    def test_fig8_columns(self):
        rows = _run("fig8").dicts()
        assert len(rows) == 3
        means = {r["fault_type"]: r["mean_us"] for r in rows}
        assert means["cpu"] == pytest.approx(9.0, rel=0.05)

    def test_run_many_covers_the_csv_set(self, quick_results):
        assert set(quick_results) == set(CSV_SET)
        assert all(r.ok and r.rows for r in quick_results.values())

    def test_write_artifacts_writes_csv_files(self, quick_results, tmp_path):
        write_artifacts(quick_results, tmp_path)
        for name in CSV_SET:
            path = tmp_path / f"{name}.csv"
            assert path.stat().st_size > 0, name

    def test_engine_resolves_any_registered_experiment(self):
        result = _run("partition", quick=True)
        assert "SPX/NPS1" in [r["mode"] for r in result.dicts()]
        assert result.spec.source == "Partitioning guide"
