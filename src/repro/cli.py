"""Command-line interface: regenerate any of the paper's experiments.

Every experiment lives in the :mod:`repro.exp` registry, and ``run`` is
its one entry point; the CLI is a thin shell over the engine:

    python -m repro list                       # the experiment registry
    python -m repro run fig2 --quick           # one experiment
    python -m repro run --all --workers 4      # the whole paper, parallel
    python -m repro run --all --quick --out out/   # JSON/CSV/BENCH artifacts
    python -m repro run apps --app hotspot     # one application comparison
    python -m repro verify-bench out/BENCH_results.json
    python -m repro verify-bench --golden --quick   # rows vs golden digests
    python -m repro lint examples              # static HIP API-misuse linter
    python -m repro analyze --quick            # hipsan sweep over the apps
    python -m repro advise --apps              # static UPM performance advisor
    python -m repro advise examples --format sarif --out advise.sarif
    python -m repro verify-sarif advise.sarif  # structural SARIF 2.1.0 check
    python -m repro chaos --campaign standard --quick   # fault injection

``run`` executes every grid point on a freshly built simulated node,
fans points out over ``--workers`` processes, writes one JSON and one
CSV per experiment with ``--out``, and exits non-zero — after printing
the failed point's parameters and traceback — when any point raises.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, List, Optional, Sequence


def _print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 14) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _fmt_cell(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


# ----------------------------------------------------------------------
# Engine-backed commands
# ----------------------------------------------------------------------


def _report_failures(results) -> int:
    """Print every failed point's params + traceback; non-zero if any."""
    failed = 0
    for result in results.values():
        for point in result.failures:
            failed += 1
            print(
                f"\nFAILED point {point.point.describe()}:", file=sys.stderr
            )
            print(point.error, file=sys.stderr)
    if failed:
        print(f"\n{failed} point(s) failed", file=sys.stderr)
    return 1 if failed else 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run experiments through the engine; write artifacts with --out."""
    from .exp import Engine, experiment_names, get_spec, write_artifacts

    if args.all:
        names = experiment_names()
    elif args.experiments:
        names = list(dict.fromkeys(args.experiments))
    else:
        print("run: name at least one experiment, or use --all",
              file=sys.stderr)
        return 2

    only = None
    if args.app:
        valid = set()
        for name in names:
            valid.update(dict(get_spec(name).active_grid()).get("app", ()))
        if args.app not in valid:
            raise SystemExit(
                f"unknown app {args.app!r}; choose from {sorted(valid)}"
            )
        only = {"app": args.app}

    engine = Engine(workers=args.workers, point_timeout_s=args.timeout)
    started = time.perf_counter()
    results = engine.run_many(names, quick=args.quick, only=only)
    wall_s = time.perf_counter() - started

    for name in names:
        result = results[name]
        _print_table(
            f"{result.spec.title} ({result.spec.source})",
            result.columns,
            [[_fmt_cell(v) for v in row] for row in result.rows],
        )
    print(
        f"\n{len(names)} experiment(s), "
        f"{sum(len(r.points) for r in results.values())} point(s) executed, "
        f"{wall_s:.2f}s wall-clock"
    )
    if args.out:
        bench = write_artifacts(
            results, args.out, workers=engine.workers, wall_s=wall_s,
            quick=args.quick,
        )
        print(f"wrote artifacts to {args.out}/ (bench: {bench})")
    return _report_failures(results)


def cmd_list(args: argparse.Namespace) -> int:
    """Print the experiment registry (what `run --all` will execute)."""
    from .exp import all_specs

    rows = []
    for spec in all_specs():
        axes = ", ".join(
            f"{axis}[{len(values)}]" for axis, values in spec.active_grid()
        ) or "-"
        rows.append((
            spec.name, spec.source, spec.point_count(),
            spec.point_count(quick=True), axes, spec.title,
        ))
    _print_table(
        "Registered experiments",
        ["experiment", "source", "points", "quick", "grid", "title"],
        rows,
    )
    print("\nSubcommands: run, list, lint, analyze, advise, chaos, "
          "verify-bench, verify-sarif; 'repro run --all' executes every "
          "experiment above.")
    return 0


def cmd_verify_bench(args: argparse.Namespace) -> int:
    """Validate a BENCH artifact, or with ``--golden`` the rows themselves."""
    from .exp import GOLDEN_PATH, check_golden, verify_bench

    if args.golden == bool(args.path) or (args.quick and not args.golden):
        raise SystemExit("verify-bench: give a BENCH file, or --golden [--quick]")
    if args.golden:
        problems = check_golden(args.quick)
        label = f"{GOLDEN_PATH.name} ({'quick' if args.quick else 'full'} grid)"
    else:
        problems, label = verify_bench(args.path), args.path
    if problems:
        for problem in problems:
            print(f"BENCH: {problem}", file=sys.stderr)
        return 1
    print(f"{label}: ok")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run apps under a named fault-injection campaign (repro.inject)."""
    from .inject import run_campaign, report_bytes

    try:
        report = run_campaign(
            args.campaign,
            seed=args.seed,
            apps=args.apps or None,
            quick=args.quick,
            memory_gib=args.memory_gib,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"chaos: {message}", file=sys.stderr)
        return 2
    rendered = report_bytes(report)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(rendered)
        print(f"wrote chaos report to {args.out}")
    else:
        sys.stdout.write(rendered.decode("utf-8"))

    for run in report["runs"]:
        status = "ok" if run["ok"] else "FAIL"
        detail = ""
        if run["error"] is not None:
            code = run["error"].get("code", run["error"]["type"])
            detail = f" ({code})"
        print(
            f"chaos {report['campaign']:16s} {run['app']:10s} "
            f"{run['variant']:16s} {status}{detail}",
            file=sys.stderr,
        )
    if not report["ok"]:
        bad = sum(1 for run in report["runs"] if not run["ok"])
        print(f"{bad} chaos run(s) violated the campaign contract",
              file=sys.stderr)
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
# Analysis commands (unchanged semantics)
# ----------------------------------------------------------------------


def cmd_lint(args: argparse.Namespace) -> int:
    """The static engine's lint rules over Python sources."""
    from .analyze import (
        has_errors,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )

    paths = args.paths or ["examples", "src/repro/apps"]
    findings = lint_paths(paths, exclude=tuple(args.exclude or ()))
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, tool="repro-lint"))
    else:
        print(render_text(findings))
    return 1 if has_errors(findings) else 0


def cmd_advise(args: argparse.Namespace) -> int:
    """Static UPM performance advisor (CFG + dataflow) with SARIF."""
    from .analyze import (
        Severity,
        advise_apps,
        advise_paths,
        load_baseline,
        new_findings,
        render_json,
        render_sarif,
        render_text,
        save_baseline,
    )

    if args.apps:
        buckets = advise_apps()
        findings, seen = [], set()
        for name in sorted(buckets):
            for port in sorted(buckets[name]):
                port_findings = buckets[name][port]
                if args.format == "text":
                    worst = [
                        f for f in port_findings if f.severity > Severity.INFO
                    ]
                    status = (
                        "clean" if not worst else f"{len(worst)} advisory(ies)"
                    )
                    print(f"{name:10s} {port:9s} {status}")
                for f in port_findings:
                    key = (f.rule, f.file, f.line, f.message)
                    if key not in seen:
                        seen.add(key)
                        findings.append(f)
    elif args.paths:
        findings = advise_paths(
            args.paths, exclude=tuple(args.exclude or ())
        )
    else:
        print("advise: name at least one path, or use --apps",
              file=sys.stderr)
        return 2

    if args.write_baseline:
        prints = save_baseline(findings, args.write_baseline)
        print(f"wrote {len(prints)} fingerprint(s) to {args.write_baseline}")
        return 0

    if args.format == "sarif":
        rendered = render_sarif(findings)
    elif args.format == "json":
        rendered = render_json(findings)
    else:
        rendered = render_text(findings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered)

    gate = [f for f in findings if f.severity >= Severity.WARNING]
    if args.baseline:
        gate = new_findings(gate, load_baseline(args.baseline))
        if gate:
            print(
                f"{len(gate)} finding(s) not in baseline {args.baseline}",
                file=sys.stderr,
            )
    return 1 if gate else 0


def cmd_verify_sarif(args: argparse.Namespace) -> int:
    """Validate a SARIF file against the 2.1.0 structural invariants."""
    import json

    from .analyze import validate_sarif

    with open(args.path) as fh:
        doc = json.load(fh)
    problems = validate_sarif(doc)
    if problems:
        for problem in problems:
            print(f"SARIF: {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: ok")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """hipsan: happens-before sanitizer over the ported applications."""
    from .analyze import SMALL_PARAMS, Severity, analyze_app, render_text
    from .apps import ALL_APPS

    names = [args.app] if args.app else sorted(ALL_APPS)
    failed = False
    for name in names:
        if name not in ALL_APPS:
            raise SystemExit(
                f"unknown app {name!r}; choose from {sorted(ALL_APPS)}"
            )
        app = ALL_APPS[name]()
        params = SMALL_PARAMS.get(name) if args.quick else None
        for variant in app.variants:
            findings = analyze_app(name, variant, params=params)
            reported = [f for f in findings if f.severity > Severity.INFO]
            status = "clean" if not reported else f"{len(reported)} finding(s)"
            print(f"{name:10s} {variant:16s} {status}")
            if reported:
                failed = True
                print(render_text(reported))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the MI300A UPM paper "
        "on the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run experiments through the unified engine"
    )
    run.add_argument(
        "experiments", nargs="*",
        help="experiment names (see 'repro list')",
    )
    run.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for point execution (default 1)",
    )
    run.add_argument(
        "--out", default=None,
        help="write per-experiment JSON and CSV + BENCH_results.json here",
    )
    run.add_argument(
        "--app", default=None,
        help="run only this application's points (e.g. run apps --app "
             "hotspot)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget; an overrunning point is "
             "recorded as a failure instead of hanging the sweep",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="reduced problem sizes for a fast look",
    )
    run.set_defaults(func=cmd_run)

    lst = sub.add_parser("list", help="print the experiment registry")
    lst.set_defaults(func=cmd_list)

    verify = sub.add_parser(
        "verify-bench", help="validate a BENCH_results.json artifact"
    )
    verify.add_argument("path", nargs="?", help="BENCH_results.json")
    verify.add_argument("--golden", action="store_true", help="rerun every "
                        "experiment; check its rows against golden_rows.json")
    verify.add_argument("--quick", action="store_true",
                        help="with --golden: check the quick grids")
    verify.set_defaults(func=cmd_verify_bench)

    lint = sub.add_parser("lint", help="static HIP API-misuse linter")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint")
    lint.add_argument("--exclude", action="append", default=None,
                      help="path suffix to skip; repeatable")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format (default text)")
    lint.set_defaults(func=cmd_lint)

    advise = sub.add_parser(
        "advise", help="static UPM performance advisor (CFG + dataflow)"
    )
    advise.add_argument("paths", nargs="*",
                        help="files or directories to advise")
    advise.add_argument("--apps", action="store_true",
                        help="advise the six Rodinia ports, per port model")
    advise.add_argument("--exclude", action="append", default=None,
                        help="path suffix to skip; repeatable")
    advise.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format (default text)")
    advise.add_argument("--out", default=None,
                        help="write the report to this file")
    advise.add_argument("--baseline", default=None,
                        help="suppression file: fail only on findings "
                             "missing from it")
    advise.add_argument("--write-baseline", default=None,
                        help="write the current findings as the baseline "
                             "and exit")
    advise.set_defaults(func=cmd_advise)

    verify_sarif = sub.add_parser(
        "verify-sarif", help="validate a SARIF 2.1.0 report file"
    )
    verify_sarif.add_argument("path", help="path to the .sarif file")
    verify_sarif.set_defaults(func=cmd_verify_sarif)

    chaos = sub.add_parser(
        "chaos", help="run apps under a named fault-injection campaign"
    )
    chaos.add_argument(
        "--campaign", default="standard",
        help="campaign name (see repro.inject.CAMPAIGNS; default standard)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="base seed; the same seed yields a byte-identical report",
    )
    chaos.add_argument(
        "--apps", nargs="*", default=None,
        help="restrict to these applications (default: all six ports)",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="only the nn + hotspot subset",
    )
    chaos.add_argument(
        "--memory-gib", type=int, default=8,
        help="simulated pool size in GiB (small enough that pressure "
             "faults bite; default 8)",
    )
    chaos.add_argument(
        "--out", default=None,
        help="write the JSON report here instead of stdout",
    )
    chaos.set_defaults(func=cmd_chaos)

    analyze = sub.add_parser(
        "analyze", help="hipsan happens-before sanitizer over the apps"
    )
    analyze.add_argument("--app", default=None,
                         help="analyze a single application")
    analyze.add_argument("--quick", action="store_true",
                         help="reduced problem sizes")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def list_experiments() -> List[str]:
    """The registry menu rows (name + title), exposed for tests."""
    from .exp import all_specs

    return [f"  {spec.name:10s} {spec.title}" for spec in all_specs()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .exp import UnknownExperimentError

    try:
        return args.func(args) or 0
    except UnknownExperimentError as exc:
        print(f"unknown experiment {exc.experiment!r}; try 'repro list'",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
