"""Unit tests for repro.advise: CFG, dataflow checks, SARIF, baseline, CLI."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analyze import (
    Severity,
    advise_file,
    advise_source,
    fingerprint,
    lint_file,
    load_baseline,
    new_findings,
    render_sarif,
    save_baseline,
    to_sarif,
    validate_sarif,
)
from repro.analyze.advise.cfg import build_cfg
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]

def cfg_of(source):
    return build_cfg(ast.parse(textwrap.dedent(source)).body)


def advise(source):
    return advise_source(textwrap.dedent(source), "snippet.py")


def rules(source):
    return {f.rule for f in advise(source)}


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


class TestCfg:
    def test_straight_line(self):
        cfg = cfg_of(
            """
            x = 1
            y = x + 1
            """
        )
        reachable = cfg.reachable()
        assert all(n.id in reachable for n in cfg.statement_nodes())
        assert cfg.exit in reachable

    def test_if_joins_both_arms(self):
        cfg = cfg_of(
            """
            if cond:
                a = 1
            else:
                a = 2
            after = a
            """
        )
        reachable = cfg.reachable()
        assert all(n.id in reachable for n in cfg.statement_nodes())
        # The statement after the if postdominates the test header.
        (after,) = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign) and n.line == 6
        ]
        (test,) = [n for n in cfg.statement_nodes() if n.kind == "header"]
        assert after.id in cfg.postdominators()[test.id]

    def test_while_has_back_edge_and_region(self):
        cfg = cfg_of(
            """
            while cond:
                body = 1
            after = 2
            """
        )
        assert len(cfg.loops) == 1
        loop = cfg.loops[0]
        (body,) = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign) and n.line == 3
        ]
        assert body.id in loop.body
        assert loop.head in cfg.succ[body.id]  # back edge
        assert cfg.innermost_loop(body.id) == 0

    def test_for_header_binds_iter_element(self):
        cfg = cfg_of(
            """
            for item in items:
                use(item)
            """
        )
        (head,) = [n for n in cfg.statement_nodes() if n.kind == "header"]
        assert head.bind_mode == "iter"
        assert isinstance(head.bind, ast.Name)

    def test_nested_loops_innermost_last(self):
        cfg = cfg_of(
            """
            for i in outer:
                for j in inner:
                    body = 1
            """
        )
        (body,) = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign)
        ]
        assert cfg.loops_of[body.id] == (0, 1)
        assert cfg.innermost_loop(body.id) == 1

    def test_break_terminates_flow(self):
        cfg = cfg_of(
            """
            while cond:
                break
                dead = 1
            after = 2
            """
        )
        reachable = cfg.reachable()
        dead = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign) and n.line == 4
        ]
        assert dead and dead[0].id not in reachable
        after = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign) and n.line == 5
        ]
        assert after and after[0].id in reachable

    def test_return_edges_to_exit(self):
        cfg = cfg_of(
            """
            x = 1
            return x
            """
        )
        (ret,) = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Return)
        ]
        assert cfg.exit in cfg.succ[ret.id]

    def test_try_handler_reachable_from_body(self):
        cfg = cfg_of(
            """
            try:
                risky = 1
            except ValueError:
                handled = 2
            after = 3
            """
        )
        reachable = cfg.reachable()
        assert all(n.id in reachable for n in cfg.statement_nodes())
        (risky,) = [
            n for n in cfg.statement_nodes()
            if isinstance(n.stmt, ast.Assign) and n.line == 3
        ]
        # Conservative exceptional edge out of the try body.
        assert any(
            cfg.nodes[s].kind == "join" for s in cfg.succ[risky.id]
        )

    def test_degenerate_body_keeps_exit_linked(self):
        cfg = cfg_of(
            """
            while True:
                pass
            """
        )
        assert cfg.pred[cfg.exit]
        # Postdominators stay well-defined.
        assert cfg.exit in cfg.postdominators()[cfg.entry]

    def test_exit_postdominates_everything_reachable(self):
        cfg = cfg_of(
            """
            for i in items:
                if i:
                    a = 1
                else:
                    continue
                b = 2
            c = 3
            """
        )
        postdom = cfg.postdominators()
        for node in cfg.reachable():
            assert cfg.exit in postdom[node]


# ----------------------------------------------------------------------
# Per-check positives and negatives (dataflow semantics)
# ----------------------------------------------------------------------

PRELUDE = """
import numpy as np

from repro import BufferAccess, KernelSpec, make_runtime
"""


def program(body):
    return PRELUDE + textwrap.dedent(body)


class TestChecks:
    def test_redundant_copy_fires(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                h = hip.array(1 << 10, np.float32, "malloc", name="h")
                d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
                hip.hipMemcpy(d, h)
                hip.hipDeviceSynchronize()
                hip.hipFree(h.allocation)
                hip.hipFree(d.allocation)
            """
        ))
        assert "redundant-copy" in found

    def test_no_copy_no_finding(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "readwrite")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert found == set()

    def test_redundant_copy_through_helper_summary(self):
        # The allocation happens in a helper, parameterized on the
        # allocator; the interprocedural summary resolves both handles.
        findings = advise(program(
            """
            def make(hip, allocator):
                return hip.array(1 << 10, np.float32, allocator, name="b")

            def run():
                hip = make_runtime(memory_gib=1)
                src = make(hip, "malloc")
                dst = make(hip, "hipMalloc")
                hip.hipMemcpy(dst, src)
                hip.hipDeviceSynchronize()
                hip.hipFree(src.allocation)
                hip.hipFree(dst.allocation)
            """
        ))
        copies = [f for f in findings if f.rule == "redundant-copy"]
        assert copies and all(f.severity == Severity.WARNING for f in copies)

    def test_first_touch_fires_on_on_demand_alloc(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1, xnack=True)
                d = hip.array(1 << 10, np.float32, "malloc", name="d")
                d.np[:] = 1.0
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "first-touch" in found

    def test_first_touch_quiet_for_up_front_alloc(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1, xnack=True)
                d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
                d.np[:] = 1.0
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "first-touch" not in found

    def test_fault_storm_on_large_cold_managed_range(self):
        findings = advise(program(
            """
            def run():
                hip = make_runtime(memory_gib=1, xnack=True)
                d = hip.array(8 << 20, np.uint8, "hipMallocManaged", name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        storms = [f for f in findings if f.rule == "fault-storm"]
        assert storms and all(f.severity == Severity.INFO for f in storms)

    def test_fault_storm_suppressed_when_xnack_off(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1, xnack=False)
                d = hip.array(8 << 20, np.uint8, "hipMallocManaged", name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "fault-storm" not in found

    def test_fault_storm_quiet_below_page_threshold(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1, xnack=True)
                d = hip.array(1 << 20, np.uint8, "hipMallocManaged", name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "fault-storm" not in found

    def test_tlb_reach_on_oversized_up_front_alloc(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                big = hip.hipMalloc(64 << 20, name="big")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(big, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(big)
            """
        ))
        assert "tlb-reach" in found

    def test_tlb_reach_quiet_within_reach(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                ok = hip.hipMalloc(16 << 20, name="ok")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(ok, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(ok)
            """
        ))
        assert "tlb-reach" not in found

    def test_mixed_alloc_on_branch_dependent_allocator(self):
        found = rules(program(
            """
            def run(flag):
                hip = make_runtime(memory_gib=1, xnack=True)
                if flag:
                    allocator = "hipMalloc"
                else:
                    allocator = "hipMallocManaged"
                d = hip.array(1 << 10, np.float32, allocator, name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "mixed-alloc" in found

    def test_single_model_is_quiet(self):
        found = rules(program(
            """
            def run(flag):
                hip = make_runtime(memory_gib=1)
                if flag:
                    allocator = "hipMalloc"
                else:
                    allocator = "hipHostMalloc"
                d = hip.array(1 << 10, np.float32, allocator, name="d")
                hip.launchKernel(
                    KernelSpec("k", [BufferAccess(d.allocation, "read")])
                )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "mixed-alloc" not in found

    def test_sync_in_loop_with_stream(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
                stream = hip.hipStreamCreate("s")
                for _ in range(4):
                    hip.launchKernel(
                        KernelSpec(
                            "k", [BufferAccess(d.allocation, "readwrite")]
                        ),
                        stream,
                    )
                    hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "sync-in-loop" in found

    def test_sync_after_loop_is_fine(self):
        found = rules(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
                stream = hip.hipStreamCreate("s")
                for _ in range(4):
                    hip.launchKernel(
                        KernelSpec(
                            "k", [BufferAccess(d.allocation, "readwrite")]
                        ),
                        stream,
                    )
                hip.hipDeviceSynchronize()
                hip.hipFree(d.allocation)
            """
        ))
        assert "sync-in-loop" not in found

    def test_syntax_error_reported_not_raised(self):
        findings = advise_source("def broken(:\n", "broken.py")
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_findings_carry_cost_and_paper_anchor(self):
        findings = advise(program(
            """
            def run():
                hip = make_runtime(memory_gib=1)
                h = hip.array(1 << 20, np.float32, "malloc", name="h")
                d = hip.array(1 << 20, np.float32, "hipMalloc", name="d")
                hip.hipMemcpy(d, h)
                hip.hipDeviceSynchronize()
                hip.hipFree(h.allocation)
                hip.hipFree(d.allocation)
            """
        ))
        (copy,) = [f for f in findings if f.rule == "redundant-copy"]
        assert copy.cost_ns and copy.cost_ns > 0
        assert copy.function.endswith("run")


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

BAD_SNIPPET = PRELUDE + textwrap.dedent(
    """
    def run():
        hip = make_runtime(memory_gib=1)
        h = hip.array(1 << 10, np.float32, "malloc", name="h")
        d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
        hip.hipMemcpy(d, h)
        hip.hipDeviceSynchronize()
        hip.hipFree(h.allocation)
        hip.hipFree(d.allocation)
    """
)

CLEAN_SNIPPET = PRELUDE + textwrap.dedent(
    """
    def run():
        hip = make_runtime(memory_gib=1)
        d = hip.array(1 << 10, np.float32, "hipMalloc", name="d")
        hip.launchKernel(
            KernelSpec("k", [BufferAccess(d.allocation, "readwrite")])
        )
        hip.hipDeviceSynchronize()
        hip.hipFree(d.allocation)
    """
)


class TestSarif:
    def findings(self):
        return advise_source(BAD_SNIPPET, "snippet.py")

    def test_render_is_valid(self):
        doc = to_sarif(self.findings())
        assert validate_sarif(doc) == []
        assert doc["version"] == "2.1.0"

    def test_results_reference_registered_rules(self):
        doc = to_sarif(self.findings())
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["partialFingerprints"]["reproAdvise/v1"]

    def test_empty_findings_still_valid(self):
        doc = to_sarif([])
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"] == []

    def test_validate_rejects_bad_version(self):
        doc = to_sarif(self.findings())
        doc["version"] = "1.0.0"
        assert validate_sarif(doc)

    def test_validate_rejects_unknown_rule_id(self):
        doc = to_sarif(self.findings())
        doc["runs"][0]["results"][0]["ruleId"] = "no.such-rule"
        assert validate_sarif(doc)

    def test_validate_rejects_bad_level(self):
        doc = to_sarif(self.findings())
        doc["runs"][0]["results"][0]["level"] = "catastrophic"
        assert validate_sarif(doc)

    def test_validate_rejects_missing_message(self):
        doc = to_sarif(self.findings())
        del doc["runs"][0]["results"][0]["message"]
        assert validate_sarif(doc)

    def test_render_sarif_parses(self):
        doc = json.loads(render_sarif(self.findings()))
        assert validate_sarif(doc) == []

    @pytest.mark.parametrize("tool,fixture", [
        ("repro-lint", "racey_port.py"), ("repro-advise", "slow_port.py"),
    ])
    def test_rule_table_is_the_rules_the_findings_use(self, tool, fixture):
        path = ROOT / "examples" / fixture
        findings = (lint_file if tool == "repro-lint" else advise_file)(path)
        doc = to_sarif(findings, tool=tool)
        assert validate_sarif(doc) == []
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == tool
        assert [r["id"] for r in driver["rules"]] == sorted(
            {f.rule for f in findings}
        )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def test_fingerprint_survives_line_shifts(self):
        before = {f.rule: fingerprint(f)
                  for f in advise_source(BAD_SNIPPET, "snippet.py")}
        shifted = "# a comment\n\n" + BAD_SNIPPET
        after = {f.rule: fingerprint(f)
                 for f in advise_source(shifted, "snippet.py")}
        assert before == after

    def test_round_trip_and_new_findings(self, tmp_path):
        findings = advise_source(BAD_SNIPPET, "snippet.py")
        path = tmp_path / "baseline.json"
        prints = save_baseline(findings, path)
        assert set(prints) == {fingerprint(f) for f in findings}
        baseline = load_baseline(path)
        assert new_findings(findings, baseline) == []
        fresh = advise_source(
            BAD_SNIPPET.replace('"h"', '"other"'), "snippet.py"
        )
        assert new_findings(fresh, baseline)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "fingerprints": {}}))
        with pytest.raises(ValueError):
            load_baseline(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestAdviseCli:
    def test_findings_gate_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_SNIPPET)
        assert main(["advise", str(path)]) == 1
        out = capsys.readouterr().out
        assert "redundant-copy" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(CLEAN_SNIPPET)
        assert main(["advise", str(path)]) == 0

    def test_no_paths_usage_error(self, capsys):
        assert main(["advise"]) == 2

    def test_baseline_round_trip(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_SNIPPET)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["advise", str(path), "--write-baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert main(["advise", str(path), "--baseline", str(baseline)]) == 0
        # A finding missing from the baseline re-arms the gate.
        baseline.write_text(json.dumps({"version": 1, "fingerprints": {}}))
        assert main(["advise", str(path), "--baseline", str(baseline)]) == 1

    def test_sarif_out_then_verify(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_SNIPPET)
        sarif = tmp_path / "report.sarif"
        main([
            "advise", str(path), "--format", "sarif", "--out", str(sarif)
        ])
        capsys.readouterr()
        doc = json.loads(sarif.read_text())
        assert validate_sarif(doc) == []
        assert main(["verify-sarif", str(sarif)]) == 0

    def test_verify_sarif_rejects_corrupt(self, tmp_path, capsys):
        sarif = tmp_path / "broken.sarif"
        sarif.write_text(json.dumps({"version": "2.1.0"}))
        assert main(["verify-sarif", str(sarif)]) == 1

    def test_json_format_parses(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_SNIPPET)
        main(["advise", str(path), "--format", "json"])
        parsed = json.loads(capsys.readouterr().out)
        assert any(f["rule"] == "redundant-copy" for f in parsed)


class TestDeterminism:
    def test_tlb_reach_finding_ignores_hash_seed(self):
        """Set iteration order varies with PYTHONHASHSEED; the report
        must not (quickstart's buffer aliases four allocator sites)."""
        outputs = []
        for seed in ("0", "2"):
            env = dict(
                os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src")
            )
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "advise",
                 "examples/quickstart.py", "--format", "json"],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=120,
            )
            outputs.append(proc.stdout)
        assert "tlb-reach" in outputs[0]
        assert outputs[0] == outputs[1]
