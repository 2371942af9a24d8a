"""Tests for the command-line interface (repro.cli)."""

import argparse
import json

import pytest

from repro.cli import build_parser, list_experiments, main
from repro.exp import experiment_names


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_collects_names_and_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "fig9", "--quick", "--workers", "4", "--no-cache"]
        )
        assert args.experiments == ["fig2", "fig9"]
        assert args.quick and args.no_cache
        assert args.workers == 4

    def test_app_selector(self):
        args = build_parser().parse_args(["run", "apps", "--app", "hotspot"])
        assert args.experiments == ["apps"]
        assert args.app == "hotspot"

    def test_legacy_alias_subcommands_are_gone(self):
        parser = build_parser()
        for name in experiment_names():
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--no-cache"])


class TestMenu:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "uvm" in out
        footer = out.strip().splitlines()[-1]
        for name in _subcommand_names():
            assert name in footer, name

    def test_list_shows_grid_and_point_counts(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "points" in out and "grid" in out
        assert "allocator[6]" in out  # fig2's grid axis

    def test_every_experiment_documented(self):
        rows = "\n".join(list_experiments())
        for name in experiment_names():
            assert name in rows

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_without_names_errors(self, capsys):
        assert main(["run", "--no-cache"]) == 2
        assert "--all" in capsys.readouterr().err


class TestCommandsRun:
    """Smoke-run the cheap commands end to end (output goes to stdout)."""

    @pytest.mark.parametrize("experiment", ["table1", "fig6", "fig7", "fig8"])
    def test_model_backed_commands(self, experiment, capsys):
        assert main(["run", experiment, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "===" in out

    def test_run_subcommand_multiple(self, capsys):
        assert main(["run", "fig8", "uvm", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 experiment(s)" in out
        assert "upm/MI300A" in out

    def test_fig9_quick(self, capsys):
        assert main(["run", "fig9", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "hipMalloc" in out

    def test_memcpy_quick(self, capsys):
        assert main(["run", "memcpy", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "hipMemcpy" in out

    def test_uvm_quick(self, capsys):
        assert main(["run", "uvm", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "upm/MI300A" in out

    def test_apps_single_quick(self, capsys):
        assert main(
            ["run", "apps", "--quick", "--no-cache", "--app", "srad_v1"]
        ) == 0
        out = capsys.readouterr().out
        assert "srad_v1" in out
        assert "hotspot" not in out

    def test_apps_unknown_app(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "apps", "--no-cache", "--app", "lud"])
        assert "lud" in str(excinfo.value.code)
        assert "hotspot" in str(excinfo.value.code)

    def test_partition_quick(self, capsys):
        assert main(["run", "partition", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        for mode in ("SPX/NPS1", "TPX/NPS1", "CPX/NPS1", "CPX/NPS4"):
            assert mode in out


class TestArtifacts:
    def test_run_writes_bench_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "fig8", "uvm", "--quick", "--out", str(out_dir),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        bench = json.loads((out_dir / "BENCH_results.json").read_text())
        assert bench["schema_version"] == "1"
        assert set(bench["experiments"]) == {"fig8", "uvm"}
        fig8 = json.loads((out_dir / "fig8.json").read_text())
        assert fig8["columns"] == ["fault_type", "mean_us", "p50_us", "p95_us"]
        assert fig8["git_sha"] and fig8["timestamp"]

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "fig8", "--quick", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert any(cache.rglob("*.json"))
        assert main(["run", "fig8", "--quick", "--cache-dir", str(cache)]) == 0
        assert "cpu" in capsys.readouterr().out

    def test_verify_bench_ok_and_missing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main([
            "run", "--all", "--quick", "--out", str(out_dir),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        capsys.readouterr()
        assert main(["verify-bench", str(out_dir / "BENCH_results.json")]) == 0
        payload = json.loads((out_dir / "BENCH_results.json").read_text())
        del payload["experiments"]["fig8"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert main(["verify-bench", str(broken)]) == 1
        assert "fig8" in capsys.readouterr().err


class TestExport:
    def test_export_writes_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        assert main([
            "run", "table1", "fig7", "--quick", "--no-cache",
            "--out", str(out_dir),
        ]) == 0
        header = (out_dir / "fig7.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "scenario"
        assert (out_dir / "table1.csv").exists()


def _subcommand_names():
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return list(subparsers.choices)
