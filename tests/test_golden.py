"""Golden row digests: the reproduced numbers must not drift.

``golden_rows.json`` at the repository root holds a SHA-256 of every
experiment's canonical JSON rows (and of each point's rows) for the
quick and the full grids.  Any change to a row fails here and names the
experiment and point; an intentional numeric change regenerates the
file with :func:`repro.exp.update_golden`.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.exp import (
    GOLDEN_PATH,
    Engine,
    ExperimentSpec,
    experiment_names,
    get_spec,
    temporarily_registered,
)
from repro.exp import engine as engine_module
from repro.exp.engine import golden_digests, verify_golden


def cube_runner(value):
    return [[value, value ** 3]]


CUBES = ExperimentSpec.define(
    name="cubes", title="cubes", columns=["k", "v"], runner=cube_runner,
    grid={"value": [1, 2, 3]},
)


@pytest.fixture(scope="module")
def quick_golden_run(tmp_path_factory):
    """One ``verify-bench --golden --quick`` run: its exit status, its
    output and the results of every experiment it computed."""
    results = {}
    run_many = Engine.run_many

    def recording_run_many(self, *args, **kwargs):
        out = run_many(self, *args, **kwargs)
        results.update(out)
        return out

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        # The digests are found from any directory.
        mp.chdir(tmp_path_factory.mktemp("golden"))
        mp.setattr(Engine, "run_many", recording_run_many)
        status = main(["verify-bench", "--golden", "--quick"])
    return status, out.getvalue(), results


def test_quick_grid_matches_golden(quick_golden_run):
    status, out, _ = quick_golden_run
    assert status == 0
    assert "golden_rows.json (quick grid): ok" in out


def test_every_row_has_one_field_per_column(quick_golden_run):
    _, _, results = quick_golden_run
    assert sorted(results) == sorted(experiment_names())
    for name, result in results.items():
        width = len(get_spec(name).columns)
        assert result.rows, name
        for row in result.rows:
            assert len(row) == width, (name, row)


def test_golden_covers_both_grids_of_every_experiment():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["numpy"].count(".") == 1  # the numpy series, e.g. "2.4"
    for grid in ("quick", "full"):
        assert sorted(golden[grid]) == sorted(experiment_names())


def test_drift_names_experiment_and_point():
    with temporarily_registered(CUBES):
        results = Engine().run_many(["cubes"])
        golden = golden_digests(results)
        assert verify_golden(results, golden) == []
        golden["cubes"]["rows"] = "0" * 64
        golden["cubes"]["points"][1] = "0" * 64
        problems = verify_golden(results, golden)
    assert problems == ["cubes: rows drifted at cubes[value=2]"]


def test_missing_experiment_and_point_count_reported():
    with temporarily_registered(CUBES):
        results = Engine().run_many(["cubes"])
        assert verify_golden(results, {}) == ["cubes: no golden digest"]
        golden = golden_digests(results)
        golden["cubes"]["rows"] = "0" * 64
        golden["cubes"]["points"].append("0" * 64)
        (problem,) = verify_golden(results, golden)
    assert "3 points, golden has 4" in problem


@pytest.mark.parametrize("argv", [
    [], ["--quick"], ["BENCH_results.json", "--quick"],
    ["golden_rows.json", "--golden"],
])
def test_verify_bench_needs_a_path_or_golden(argv):
    with pytest.raises(SystemExit, match="--golden"):
        main(["verify-bench", *argv])


def test_numpy_mismatch_is_named_before_the_drift(monkeypatch):
    monkeypatch.setattr(engine_module, "NUMPY_SERIES", "0.0")
    monkeypatch.setattr(Engine, "run_many", lambda *a, **k: {})
    monkeypatch.setattr(engine_module, "verify_golden", lambda *a: ["x: drifted"])
    problems = engine_module.check_golden(quick=True)
    assert problems[1:] == ["x: drifted"]
    assert "numpy version mismatch" in problems[0] and "numpy 0.0" in problems[0]
