"""Tests for the experiment engine: caching, parallelism, failures,
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
    ExperimentSpec,
    ResultCache,
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
            result = Engine(workers=1, cache=None).run("squares")
        assert result.ok
        assert result.rows == [[1, 2], [2, 8], [3, 18]]
        assert result.dicts()[0] == {"k": 1, "v": 2}

    def test_only_filter(self):
        with temporarily_registered(SQUARES):
            result = Engine(workers=1, cache=None).run(
                "squares", only={"value": 2}
            )
        assert result.rows == [[2, 8]]

    def test_sim_time_aggregates(self):
        spec = make_spec("simt", sim_time_runner, {"value": [1, 2]})
        with temporarily_registered(spec):
            result = Engine(workers=1, cache=None).run("simt")
        assert result.sim_time_ns == pytest.approx(3.0e9)


class TestCache:
    def test_warm_rerun_recomputes_nothing_and_matches_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        with temporarily_registered(SQUARES):
            cold_engine = Engine(cache=cache, version="v1")
            cold = cold_engine.run("squares")
            assert cold_engine.executed_points == 3
            assert cold_engine.cached_points == 0

            warm_engine = Engine(cache=ResultCache(tmp_path), version="v1")
            warm = warm_engine.run("squares")
            assert warm_engine.executed_points == 0
            assert warm_engine.cached_points == 3
        assert warm.rows == cold.rows
        # Bit-identical, not merely approximately equal.
        assert json.dumps(warm.rows) == json.dumps(cold.rows)
        assert all(p.cached for p in warm.points)

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        with temporarily_registered(SQUARES):
            Engine(cache=cache, version="v1").run("squares")
        changed = make_spec(
            "squares", square_runner, {"value": [1, 2, 3]}, {"scale": 5}
        )
        assert changed.spec_hash() != SQUARES.spec_hash()
        with temporarily_registered(changed):
            engine = Engine(cache=cache, version="v1")
            result = engine.run("squares")
        assert engine.executed_points == 3
        assert result.rows == [[1, 5], [2, 20], [3, 45]]

    def test_code_version_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        with temporarily_registered(SQUARES):
            Engine(cache=cache, version="v1").run("squares")
            engine = Engine(cache=cache, version="v2")
            engine.run("squares")
        assert engine.executed_points == 3

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        with temporarily_registered(SQUARES):
            Engine(cache=cache, version="v1").run("squares")
            engine = Engine(cache=cache, version="v1", refresh=True)
            engine.run("squares")
        assert engine.executed_points == 3
        assert engine.cached_points == 0

    def test_failed_points_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        with temporarily_registered(FLAKY):
            Engine(cache=cache, version="v1").run("flaky")
            retry = Engine(cache=cache, version="v1")
            result = retry.run("flaky")
        # Only the failing point recomputes; the good ones come warm.
        assert retry.cached_points == 2
        assert retry.executed_points == 1
        assert len(result.failures) == 1


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
            serial = Engine(workers=1, cache=None).run("naps")
            serial_s = time.perf_counter() - start

            start = time.perf_counter()
            parallel = Engine(workers=4, cache=None).run("naps")
            parallel_s = time.perf_counter() - start
        assert serial.rows == parallel.rows == [[0], [1], [2], [3]]
        assert serial_s / parallel_s >= 2.0, (serial_s, parallel_s)

    def test_workers_execute_every_point_exactly_once(self, tmp_path):
        spec = make_spec(
            "logged", logging_runner, {"value": [0, 1, 2, 3, 4]},
            {"log_dir": str(tmp_path)},
        )
        with temporarily_registered(spec):
            result = Engine(workers=3, cache=None).run("logged")
        assert result.ok
        logs = sorted(p.name for p in tmp_path.glob("*.log"))
        assert logs == ["0.log", "1.log", "2.log", "3.log", "4.log"]
        assert all(p.read_text() == "x" for p in tmp_path.glob("*.log"))

    def test_parallel_failure_reaches_parent(self):
        with temporarily_registered(FLAKY):
            result = Engine(workers=2, cache=None).run("flaky")
        (failure,) = result.failures
        assert failure.point.params["value"] == 2
        assert "boom on 2" in failure.error


class TestFailureReporting:
    def test_cli_exits_nonzero_with_params_and_traceback(self, capsys):
        with temporarily_registered(FLAKY):
            code = main(["run", "flaky", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED point flaky[value=2]" in captured.err
        assert "ValueError: boom on 2" in captured.err
        assert "Traceback" in captured.err
        # Surviving points still printed their rows.
        assert "===" in captured.out

    def test_ok_points_survive_a_failing_sibling(self):
        with temporarily_registered(FLAKY):
            result = Engine(workers=1, cache=None).run("flaky")
        assert result.rows == [[1, 10], [3, 30]]
        assert not result.ok


class TestArtifacts:
    def _results(self):
        with temporarily_registered(SQUARES):
            engine = Engine(workers=1, cache=None)
            return engine.run_many(["squares"])

    def test_write_artifacts_layout_and_provenance(self, tmp_path):
        results = self._results()
        bench_path = write_artifacts(
            results, tmp_path, workers=2, wall_s=1.25, quick=True
        )
        assert bench_path == tmp_path / "BENCH_results.json"
        per_exp = json.loads((tmp_path / "squares.json").read_text())
        assert per_exp["schema_version"] == "1"
        assert per_exp["git_sha"] and per_exp["timestamp"]
        assert per_exp["rows"] == [[1, 2], [2, 8], [3, 18]]
        bench = json.loads(bench_path.read_text())
        assert bench["kind"] == "repro-bench"
        assert bench["workers"] == 2 and bench["quick"] is True
        assert bench["experiments"]["squares"]["ok"] is True
        assert bench["experiments"]["squares"]["points"] == 3

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
            results = Engine(workers=1, cache=None).run_many(["flaky"])
        payload = bench_payload(results, workers=1, wall_s=0.1, quick=False)
        problems = verify_bench(payload, expected=["flaky"])
        assert any("failure" in p for p in problems)
        payload["schema_version"] = "0"
        problems = verify_bench(payload, expected=["flaky"])
        assert any("schema_version" in p for p in problems)

    def test_verify_bench_unreadable_file(self, tmp_path):
        problems = verify_bench(tmp_path / "missing.json", expected=[])
        assert any("unreadable" in p for p in problems)


# ----------------------------------------------------------------------
# Hardening: timeouts, interrupts, worker crashes, cache integrity
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
            engine = Engine(workers=1, cache=None, point_timeout_s=0.2)
            started = time.perf_counter()
            result = engine.run("sleepy")
        assert time.perf_counter() - started < 4.0
        assert not result.ok
        assert "PointTimeoutError" in result.failures[0].error

    def test_fast_point_is_untouched_by_the_budget(self):
        with temporarily_registered(SQUARES):
            engine = Engine(workers=1, cache=None, point_timeout_s=30.0)
            result = engine.run("squares")
        assert result.ok

    def test_cli_timeout_flag_reaches_the_engine(self, capsys):
        spec = make_spec(
            "sleepy_cli", sleeping_runner, {"value": [1]}, {"delay": 5.0}
        )
        with temporarily_registered(spec):
            code = main(["run", "sleepy_cli", "--no-cache",
                         "--timeout", "0.2"])
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
            result = Engine(workers=1, cache=None).run("flaky")
        failures = result.to_payload()["failures"]
        assert failures[0]["params"] == {"value": 2}


class TestWorkerCrashes:
    def test_crashed_points_are_requeued_and_recover(self, tmp_path):
        spec = make_spec(
            "crash_once", crash_once_runner, {"value": [1, 2, 3]},
            {"flag_dir": str(tmp_path)},
        )
        with temporarily_registered(spec):
            engine = Engine(workers=2, cache=None, max_point_retries=3)
            result = engine.run("crash_once")
        assert result.ok
        assert sorted(row[0] for row in result.rows) == [1, 2, 3]

    def test_persistent_crasher_is_contained(self):
        spec = make_spec(
            "crash_always", always_crashing_runner, {"value": [2, 4]}
        )
        with temporarily_registered(spec):
            engine = Engine(workers=2, cache=None, max_point_retries=1)
            result = engine.run("crash_always")
        assert len(result.failures) == 2
        for point in result.failures:
            assert "worker process crashed" in point.error

    def test_submit_time_crash_requeues_unsent_points(
        self, breaking_executor, monkeypatch
    ):
        monkeypatch.setattr(breaking_executor, "broken", frozenset({2}))
        with temporarily_registered(SQUARES):
            engine = Engine(workers=2, cache=None, max_point_retries=1)
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
            engine = Engine(workers=2, cache=None, max_point_retries=1)
            result = engine.run("squares")
        assert result.rows == [[1, 2]]
        assert [p.point.params["value"] for p in result.failures] == [2, 3]
        for point in result.failures:
            assert "worker died during submit" in point.error


class TestCacheIntegrity:
    KEY = "ab" + "0" * 62

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, {"rows": [[1, 2]], "sim_time_ns": 0.0})
        path.write_text(path.read_text().replace('"rows"', '"cows"'))
        assert cache.get(self.KEY) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()
        assert cache.get(self.KEY) is None  # stays a miss afterwards

    def test_unparseable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(self.KEY, {"rows": []})
        path.write_text("{ not json")
        assert cache.get(self.KEY) is None
        assert cache.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_intact_entry_round_trips_through_the_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"rows": [[1, 2]], "sim_time_ns": 1.5}
        path = cache.put(self.KEY, payload)
        doc = json.loads(path.read_text())
        assert set(doc) == {"sha256", "payload"}
        assert cache.get(self.KEY) == payload
        assert cache.quarantined == 0

    def test_pre_checksum_entries_are_still_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        legacy = {"rows": [[3, 4]], "sim_time_ns": 0.0}
        path = cache._path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(legacy, sort_keys=True))
        assert cache.get(self.KEY) == legacy
        assert cache.quarantined == 0
