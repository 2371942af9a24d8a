"""Tests for the experiment engine: execution, parallelism, failures,
artifacts (repro.exp.engine)."""

import json
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.cli import main
from repro.exp import (
    Engine,
    SCHEMA_VERSION,
    ExperimentSpec,
    bench_payload,
    execute_point,
    temporarily_registered,
    verify_bench,
    write_artifacts,
)


# Runners are module-level so worker processes can resolve them.

def square_runner(value, scale):
    return [[value, value * value * scale]]


def logging_runner(value, log_dir):
    """Counts real executions on disk — survives process boundaries."""
    with open(Path(log_dir) / f"{value}.log", "a") as fh:
        fh.write("x")
    return [[value, value + 1]]


def sleeping_runner(value, delay):
    time.sleep(delay)
    return [[value]]


def flaky_runner(value):
    if value == 2:
        raise ValueError("boom on 2")
    return [[value, value * 10]]


EDITED_VALUE = "before-edit"


def edited_runner(value):
    """Reads a module global, standing in for an uncommitted code edit."""
    return [[value, EDITED_VALUE]]


def sim_time_runner(value):
    return {"rows": [[value, "ok"]], "sim_time_ns": 1.5e9}


def make_spec(name, runner, grid, fixed=None, columns=("k", "v")):
    return ExperimentSpec.define(
        name=name,
        title=name,
        columns=list(columns),
        runner=runner,
        grid=grid,
        fixed=fixed or {},
    )


SQUARES = make_spec(
    "squares", square_runner, {"value": [1, 2, 3]}, {"scale": 2}
)
FLAKY = make_spec("flaky", flaky_runner, {"value": [1, 2, 3]})


class TestExecutePoint:
    def test_returns_rows_and_wall_time(self):
        with temporarily_registered(SQUARES):
            payload, wall_s = execute_point("squares", {"value": 3, "scale": 2})
        assert payload.pop("peak_rss_bytes") > 0
        assert payload == {"rows": [[3, 18]], "sim_time_ns": 0.0}
        assert wall_s >= 0.0

    def test_failure_becomes_error_payload(self):
        with temporarily_registered(FLAKY):
            payload, _ = execute_point("flaky", {"value": 2})
        assert "ValueError: boom on 2" in payload["error"]
        assert "Traceback" in payload["error"]

    def test_unknown_experiment_is_an_error_payload(self):
        payload, _ = execute_point("no-such-exp", {})
        assert "error" in payload


class TestEngineBasics:
    def test_serial_run_collects_rows_in_point_order(self):
        with temporarily_registered(SQUARES):
            result = Engine(workers=1).run("squares")
        assert result.ok
        assert result.rows == [[1, 2], [2, 8], [3, 18]]
        assert result.dicts()[0] == {"k": 1, "v": 2}

    def test_only_filter(self):
        with temporarily_registered(SQUARES):
            result = Engine(workers=1).run(
                "squares", only={"value": 2}
            )
        assert result.rows == [[2, 8]]

    def test_sim_time_aggregates(self):
        spec = make_spec("simt", sim_time_runner, {"value": [1, 2]})
        with temporarily_registered(spec):
            result = Engine(workers=1).run("simt")
        assert result.sim_time_ns == pytest.approx(3.0e9)


class TestNoStaleRows:
    def test_rerun_shows_an_uncommitted_edit(
        self, tmp_path, monkeypatch, capsys
    ):
        """A second run reflects the code as it is now, even when the
        edit is not committed (nothing is served from an earlier run)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = make_spec("edited", edited_runner, {"value": [1]})
        with temporarily_registered(spec):
            assert main(["run", "edited"]) == 0
            assert "before-edit" in capsys.readouterr().out
            monkeypatch.setitem(globals(), "EDITED_VALUE", "after-edit")
            assert main(["run", "edited"]) == 0
        out = capsys.readouterr().out
        assert "after-edit" in out and "before-edit" not in out


class TestParallel:
    def test_four_workers_at_least_2x_on_sleep_bound_points(self, tmp_path):
        """Engine parallelism proof: sleep-bound points overlap in the
        worker pool, halving (at least) the serial wall-clock even on a
        single-CPU host.  CPU-bound speedups need real cores (CI)."""
        spec = make_spec(
            "naps", sleeping_runner, {"value": [0, 1, 2, 3]}, {"delay": 0.4}
        )
        with temporarily_registered(spec):
            start = time.perf_counter()
            serial = Engine(workers=1).run("naps")
            serial_s = time.perf_counter() - start

            start = time.perf_counter()
            parallel = Engine(workers=4).run("naps")
            parallel_s = time.perf_counter() - start
        assert serial.rows == parallel.rows == [[0], [1], [2], [3]]
        assert serial_s / parallel_s >= 2.0, (serial_s, parallel_s)

    def test_workers_execute_every_point_exactly_once(self, tmp_path):
        spec = make_spec(
            "logged", logging_runner, {"value": [0, 1, 2, 3, 4]},
            {"log_dir": str(tmp_path)},
        )
        with temporarily_registered(spec):
            result = Engine(workers=3).run("logged")
        assert result.ok
        logs = sorted(p.name for p in tmp_path.glob("*.log"))
        assert logs == ["0.log", "1.log", "2.log", "3.log", "4.log"]
        assert all(p.read_text() == "x" for p in tmp_path.glob("*.log"))

    def test_parallel_failure_reaches_parent(self):
        with temporarily_registered(FLAKY):
            result = Engine(workers=2).run("flaky")
        (failure,) = result.failures
        assert failure.point.params["value"] == 2
        assert "boom on 2" in failure.error


class TestFailureReporting:
    def test_cli_exits_nonzero_with_params_and_traceback(self, capsys):
        with temporarily_registered(FLAKY):
            code = main(["run", "flaky"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED point flaky[value=2]" in captured.err
        assert "ValueError: boom on 2" in captured.err
        assert "Traceback" in captured.err
        # Surviving points still printed their rows.
        assert "===" in captured.out

    def test_ok_points_survive_a_failing_sibling(self):
        with temporarily_registered(FLAKY):
            result = Engine(workers=1).run("flaky")
        assert result.rows == [[1, 10], [3, 30]]
        assert not result.ok


class TestArtifacts:
    def _results(self):
        with temporarily_registered(SQUARES):
            engine = Engine(workers=1)
            return engine.run_many(["squares"])

    def test_write_artifacts_layout_and_provenance(self, tmp_path):
        results = self._results()
        bench_path = write_artifacts(
            results, tmp_path, workers=2, wall_s=1.25, quick=True
        )
        assert bench_path == tmp_path / "BENCH_results.json"
        per_exp = json.loads((tmp_path / "squares.json").read_text())
        assert per_exp["schema_version"] == SCHEMA_VERSION
        assert per_exp["git_sha"] and per_exp["timestamp"]
        assert per_exp["rows"] == [[1, 2], [2, 8], [3, 18]]
        bench = json.loads(bench_path.read_text())
        assert bench["kind"] == "repro-bench"
        assert bench["workers"] == 2 and bench["quick"] is True
        assert bench["experiments"]["squares"]["ok"] is True
        assert bench["experiments"]["squares"]["points"] == 3
        assert bench["experiments"]["squares"]["peak_rss_bytes"] == max(
            p.peak_rss_bytes for p in results["squares"].points
        ) > 0

    def test_verify_bench_accepts_sound_artifact(self, tmp_path):
        bench_path = write_artifacts(
            self._results(), tmp_path, workers=1, wall_s=0.1, quick=True
        )
        assert verify_bench(bench_path, expected=["squares"]) == []

    def test_verify_bench_flags_missing_experiment(self, tmp_path):
        bench_path = write_artifacts(
            self._results(), tmp_path, workers=1, wall_s=0.1, quick=True
        )
        problems = verify_bench(bench_path, expected=["squares", "fig2"])
        assert any("fig2" in p for p in problems)

    def test_verify_bench_flags_failures_and_bad_schema(self):
        with temporarily_registered(FLAKY):
            results = Engine(workers=1).run_many(["flaky"])
        payload = bench_payload(results, workers=1, wall_s=0.1, quick=False)
        problems = verify_bench(payload, expected=["flaky"])
        assert any("failure" in p for p in problems)
        payload["schema_version"] = "0"
        problems = verify_bench(payload, expected=["flaky"])
        assert any("schema_version" in p for p in problems)

    def test_verify_bench_flags_missing_peak_rss(self):
        payload = bench_payload(self._results(), workers=1, wall_s=0.1,
                                quick=True)
        assert verify_bench(payload, expected=["squares"]) == []
        del payload["experiments"]["squares"]["peak_rss_bytes"]
        problems = verify_bench(payload, expected=["squares"])
        assert problems == ["experiment 'squares' has no peak_rss_bytes"]

    def test_verify_bench_unreadable_file(self, tmp_path):
        problems = verify_bench(tmp_path / "missing.json", expected=[])
        assert any("unreadable" in p for p in problems)


# ----------------------------------------------------------------------
# Hardening: timeouts, interrupts, worker crashes
# ----------------------------------------------------------------------


def interrupting_runner(value):
    raise KeyboardInterrupt


def crash_once_runner(value, flag_dir):
    """Kills its worker process the first time each value runs."""
    flag = Path(flag_dir) / f"crashed_{value}"
    if value == 2 and not flag.exists():
        flag.write_text("x")
        os._exit(17)
    return [[value, value * 10]]


def always_crashing_runner(value):
    if value % 2 == 0:
        os._exit(17)
    return [[value, value * 10]]


class BreakingExecutor:
    """In-process stand-in for ``ProcessPoolExecutor`` whose ``submit``
    raises ``BrokenProcessPool`` on the calls numbered in ``broken``
    (counted across every pool the engine builds)."""

    broken = frozenset()
    calls = 0

    def __init__(self, max_workers=None, mp_context=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        BreakingExecutor.calls += 1
        if BreakingExecutor.calls in self.broken:
            raise BrokenProcessPool("worker died during submit")
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def breaking_executor(monkeypatch):
    import repro.exp.engine as engine_module

    monkeypatch.setattr(BreakingExecutor, "calls", 0)
    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", BreakingExecutor)
    return BreakingExecutor


class TestPointTimeout:
    def test_overrunning_point_is_recorded_not_hung(self):
        spec = make_spec(
            "sleepy", sleeping_runner, {"value": [1]}, {"delay": 5.0}
        )
        with temporarily_registered(spec):
            engine = Engine(workers=1, point_timeout_s=0.2)
            started = time.perf_counter()
            result = engine.run("sleepy")
        assert time.perf_counter() - started < 4.0
        assert not result.ok
        assert "PointTimeoutError" in result.failures[0].error

    def test_fast_point_is_untouched_by_the_budget(self):
        with temporarily_registered(SQUARES):
            engine = Engine(workers=1, point_timeout_s=30.0)
            result = engine.run("squares")
        assert result.ok

    def test_cli_timeout_flag_reaches_the_engine(self, capsys):
        spec = make_spec(
            "sleepy_cli", sleeping_runner, {"value": [1]}, {"delay": 5.0}
        )
        with temporarily_registered(spec):
            code = main(["run", "sleepy_cli", "--timeout", "0.2"])
        assert code == 1
        assert "PointTimeoutError" in capsys.readouterr().err


class TestInterruptsAndParams:
    def test_keyboard_interrupt_propagates(self):
        spec = make_spec("interrupting", interrupting_runner, {"value": [1]})
        with temporarily_registered(spec):
            with pytest.raises(KeyboardInterrupt):
                execute_point("interrupting", {"value": 1})

    def test_error_payload_carries_the_failing_params(self):
        with temporarily_registered(FLAKY):
            payload, _ = execute_point("flaky", {"value": 2})
        assert "boom on 2" in payload["error"]
        assert payload["params"] == {"value": 2}

    def test_failure_artifact_records_params(self):
        with temporarily_registered(FLAKY):
            result = Engine(workers=1).run("flaky")
        failures = result.to_payload()["failures"]
        assert failures[0]["params"] == {"value": 2}


class TestWorkerCrashes:
    def test_crashed_points_are_requeued_and_recover(self, tmp_path):
        spec = make_spec(
            "crash_once", crash_once_runner, {"value": [1, 2, 3]},
            {"flag_dir": str(tmp_path)},
        )
        with temporarily_registered(spec):
            engine = Engine(workers=2, max_point_retries=3)
            result = engine.run("crash_once")
        assert result.ok
        assert sorted(row[0] for row in result.rows) == [1, 2, 3]

    def test_persistent_crasher_is_contained(self):
        spec = make_spec(
            "crash_always", always_crashing_runner, {"value": [2, 4]}
        )
        with temporarily_registered(spec):
            engine = Engine(workers=2, max_point_retries=1)
            result = engine.run("crash_always")
        assert len(result.failures) == 2
        for point in result.failures:
            assert "worker process crashed" in point.error

    def test_submit_time_crash_requeues_unsent_points(
        self, breaking_executor, monkeypatch
    ):
        monkeypatch.setattr(breaking_executor, "broken", frozenset({2}))
        with temporarily_registered(SQUARES):
            engine = Engine(workers=2, max_point_retries=1)
            result = engine.run("squares")
        assert result.ok
        assert result.rows == [[1, 2], [2, 8], [3, 18]]
        # One submit failed, two points were resubmitted on a new pool.
        assert breaking_executor.calls == 4

    def test_submit_time_crash_respects_retry_budget(
        self, breaking_executor, monkeypatch
    ):
        monkeypatch.setattr(breaking_executor, "broken", frozenset({2, 3}))
        with temporarily_registered(SQUARES):
            engine = Engine(workers=2, max_point_retries=1)
            result = engine.run("squares")
        assert result.rows == [[1, 2]]
        assert [p.point.params["value"] for p in result.failures] == [2, 3]
        for point in result.failures:
            assert "worker died during submit" in point.error
