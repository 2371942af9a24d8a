"""Tests for the lint rules of the static analysis engine.

Each rule gets positive and negative coverage through ``lint_source``;
``TestControlFlow`` covers what the CFG adds over a linear walk, and
the final classes are the CI gate itself: the shipped examples and
ported applications must lint clean of error-severity findings.
"""

import pathlib
import textwrap

import pytest

from repro.analyze import Severity, has_errors, lint_paths, lint_source

ROOT = pathlib.Path(__file__).resolve().parent.parent


def lint(code):
    return lint_source(textwrap.dedent(code), "snippet.py")


def rules(findings):
    return {f.rule for f in findings}


class TestMissingSync:
    def test_host_read_after_async_launch(self):
        findings = lint("""
            def f(hip, spec):
                hip.launchKernel(spec)
                hip.runCpuKernel(spec)
        """)
        assert "missing-sync" in rules(findings)

    def test_sync_in_between_is_clean(self):
        findings = lint("""
            def f(hip, spec):
                hip.launchKernel(spec)
                hip.hipDeviceSynchronize()
                hip.runCpuKernel(spec)
        """)
        assert "missing-sync" not in rules(findings)

    def test_np_view_of_alloc_after_launch(self):
        findings = lint("""
            def f(hip, spec):
                buf = hip.hipMalloc(1024)
                hip.launchKernel(spec)
                return buf.np.sum()
        """)
        assert "missing-sync" in rules(findings)

    def test_hipmemcpy_counts_as_sync(self):
        findings = lint("""
            def f(hip, spec, dst, src):
                hip.launchKernel(spec)
                hip.hipMemcpy(dst, src)
                hip.runCpuKernel(spec)
        """)
        assert "missing-sync" not in rules(findings)

    def test_severity_is_warning(self):
        findings = lint("""
            def f(hip, spec):
                hip.launchKernel(spec)
                hip.runCpuKernel(spec)
        """)
        finding = next(f for f in findings if f.rule == "missing-sync")
        assert finding.severity == Severity.WARNING
        assert finding.line is not None


class TestLifetimeRules:
    def test_leaked_alloc_warns_in_runtime_owning_scope(self):
        findings = lint("""
            def f():
                hip = make_runtime(memory_gib=1)
                buf = hip.hipMalloc(1024)
                hip.hipDeviceSynchronize()
        """)
        assert "leaked-alloc" in rules(findings)

    def test_borrowed_runtime_scope_is_exempt(self):
        # A scope that receives the runtime as a parameter borrows its
        # memory arena; the creator owns teardown (the app harness frees
        # everything after the timed window), so no leak warning here.
        findings = lint("""
            def f(hip):
                buf = hip.hipMalloc(1024)
                hip.hipDeviceSynchronize()
        """)
        assert "leaked-alloc" not in rules(findings)

    def test_freed_alloc_does_not_warn(self):
        findings = lint("""
            def f():
                hip = make_runtime(memory_gib=1)
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
        """)
        assert "leaked-alloc" not in rules(findings)

    def test_freeing_the_allocation_view_releases_the_name(self):
        findings = lint("""
            def f():
                hip = make_runtime(memory_gib=1)
                buf = hip.array(256, np.float32, "hipMalloc")
                hip.hipFree(buf.allocation)
                hip.hipFree(buf.allocation)
        """)
        assert rules(findings) == {"double-free"}

    def test_freeing_an_alias_does_not_release_the_name(self):
        findings = lint("""
            def f():
                hip = make_runtime(memory_gib=1)
                buf = hip.array(256, np.float32, "hipMalloc")
                alias = buf.allocation
                hip.hipFree(alias)
        """)
        assert rules(findings) == {"leaked-alloc"}

    def test_returned_alloc_does_not_warn(self):
        findings = lint("""
            def f():
                hip = make_runtime(memory_gib=1)
                buf = hip.hipMalloc(1024)
                return buf
        """)
        assert "leaked-alloc" not in rules(findings)

    def test_double_free_is_error(self):
        findings = lint("""
            def f(hip):
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
                hip.hipFree(buf)
        """)
        finding = next(f for f in findings if f.rule == "double-free")
        assert finding.severity == Severity.ERROR

    def test_use_after_free_is_error(self):
        findings = lint("""
            def f(hip, spec):
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
                hip.hipMemcpy(buf, buf)
        """)
        assert "use-after-free" in rules(findings)

    def test_free_before_sync_under_pending_async(self):
        findings = lint("""
            def f(hip, spec):
                buf = hip.hipMalloc(1024)
                hip.launchKernel(spec)
                hip.hipFree(buf)
        """)
        assert "free-in-flight" in rules(findings)

    def test_free_after_sync_is_clean(self):
        findings = lint("""
            def f(hip, spec):
                buf = hip.hipMalloc(1024)
                hip.launchKernel(spec)
                hip.hipDeviceSynchronize()
                hip.hipFree(buf)
        """)
        assert "free-in-flight" not in rules(findings)


class TestModelAndApiRules:
    def test_mixed_model_flagged(self):
        # The same logical buffer name hops between memory models.
        findings = lint("""
            def f(hip):
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
                buf = hip.hipMallocManaged(1024)
                hip.hipFree(buf)
        """)
        assert "mixed-model" in rules(findings)

    def test_single_model_is_clean(self):
        findings = lint("""
            def f(hip):
                a = hip.hipMalloc(1024)
                b = hip.hipHostMalloc(1024)
                hip.hipFree(a)
                hip.hipFree(b)
        """)
        assert "mixed-model" not in rules(findings)

    def test_deprecated_api_names_replacement(self):
        findings = lint("""
            def f(hip):
                buf = hip.hipMallocHost(1024)
                hip.hipFree(buf)
        """)
        finding = next(f for f in findings if f.rule == "deprecated-api")
        assert finding.severity == Severity.ERROR
        assert "hipHostMalloc" in (finding.hint or "")

    def test_unknown_api_is_error(self):
        findings = lint("""
            def f(hip):
                hip.hipMallocAsync(1024)
        """)
        assert "unknown-api" in rules(findings)

    def test_known_api_not_flagged(self):
        findings = lint("""
            def f(hip, event, stream):
                hip.hipEventRecord(event, stream)
                hip.hipStreamWaitEvent(stream, event)
                hip.hipEventSynchronize(event)
        """)
        assert "unknown-api" not in rules(findings)

    def test_locally_defined_hip_name_not_flagged(self):
        findings = lint("""
            def hipCustomHelper(x):
                return x

            def f():
                return hipCustomHelper(1)
        """)
        assert "unknown-api" not in rules(findings)

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "broken.py")
        assert rules(findings) == {"syntax-error"}
        assert has_errors(findings)


class TestControlFlow:
    def test_free_on_returning_branch_spares_fallthrough(self):
        # The freeing path returns before the use.
        findings = lint("""
            def f(hip, c, n):
                buf = hip.hipMalloc(n)
                if c:
                    hip.hipFree(buf)
                    return
                hip.hipMemcpy(buf, buf)
        """)
        assert "use-after-free" not in rules(findings)

    def test_free_in_loop_reaches_next_iteration(self):
        findings = lint("""
            def f(hip, n):
                buf = hip.hipMalloc(1024)
                for i in range(n):
                    hip.hipMemcpy(buf, buf)
                    hip.hipFree(buf)
        """)
        assert {"use-after-free", "double-free"} <= rules(findings)

    def test_sync_on_one_branch_leaves_the_other_pending(self):
        findings = lint("""
            def f(hip, spec, fix):
                hip.launchKernel(spec)
                if fix:
                    hip.hipDeviceSynchronize()
                hip.runCpuKernel(spec)
        """)
        assert "missing-sync" in rules(findings)

    def test_exclusive_branches_do_not_mix_models(self):
        findings = lint("""
            def f(hip, managed):
                if managed:
                    buf = hip.hipMallocManaged(1024)
                else:
                    buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
        """)
        assert "mixed-model" not in rules(findings)

    def test_unreachable_code_is_not_judged(self):
        findings = lint("""
            def f(hip):
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
                return
                hip.hipFree(buf)
        """)
        assert "double-free" not in rules(findings)

    def test_work_launched_in_a_loop_is_pending_after_it(self):
        findings = lint("""
            def f(hip, spec, n):
                for i in range(n):
                    hip.launchKernel(spec)
                hip.runCpuKernel(spec)
        """)
        assert "missing-sync" in rules(findings)

    def test_pipelined_loop_is_judged_per_iteration(self):
        # Host work overlapping the previous iteration's kernel is the
        # chunked / double-buffered pipeline of porting_walkthrough.py
        # and heartwall; without byte ranges the rule cannot tell it from
        # a race, so work carried around a back edge does not count
        # inside the loop.
        findings = lint("""
            def f(hip, spec, n):
                for i in range(n):
                    hip.runCpuKernel(spec)
                    hip.launchKernel(spec)
                hip.hipDeviceSynchronize()
        """)
        assert "missing-sync" not in rules(findings)

    def test_handler_starts_without_pending_work(self):
        findings = lint("""
            def f(hip, spec, buf):
                try:
                    hip.launchKernel(spec)
                    hip.hipDeviceSynchronize()
                except HipError:
                    hip.hipFree(buf)
        """)
        assert "free-in-flight" not in rules(findings)

    def test_nested_function_is_linted(self):
        findings = lint("""
            def outer():
                def inner(hip, spec):
                    hip.launchKernel(spec)
                    hip.runCpuKernel(spec)
                return inner
        """)
        assert "missing-sync" in rules(findings)


class TestLintPaths:
    def test_exclude_by_name(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        assert lint_paths([tmp_path], exclude=("bad.py",)) == []
        assert has_errors(lint_paths([tmp_path]))

    def test_exclude_dot_directory(self, tmp_path, monkeypatch):
        hidden = tmp_path / ".hid" / "sub"
        hidden.mkdir(parents=True)
        (hidden / "bad.py").write_text("hipBogusCall()\n")
        monkeypatch.chdir(tmp_path)
        assert has_errors(lint_paths([".hid"]))
        for entry in (".hid/sub/bad.py", "./.hid/sub/bad.py"):
            assert lint_paths([".hid"], exclude=(entry,)) == []

    def test_repeated_paths_report_once(self, tmp_path):
        from repro.analyze import advise_paths

        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        assert len(lint_paths([bad, bad])) == 1
        assert len(lint_paths([tmp_path, bad])) == 1
        slow = ROOT / "examples" / "slow_port.py"
        assert advise_paths([slow, slow]) == advise_paths([slow])

    def test_findings_carry_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\nhipBogusCall()\n")
        (finding,) = lint_paths([bad])
        assert finding.file.endswith("bad.py")
        assert finding.line == 2


class TestShippedSourcesGate:
    """The CI gate: our own examples and ports lint clean of errors."""

    def test_examples_have_no_error_findings(self):
        findings = lint_paths(
            [ROOT / "examples"], exclude=("examples/racey_port.py",)
        )
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        assert errors == [], errors

    def test_apps_have_no_error_findings(self):
        findings = lint_paths([ROOT / "src" / "repro" / "apps"])
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        assert errors == [], errors

    def test_racey_port_itself_parses(self):
        findings = lint_paths([ROOT / "examples" / "racey_port.py"])
        assert "syntax-error" not in rules(findings)


class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        good = tmp_path / "good.py"
        good.write_text("def f(hip):\n    hip.hipDeviceSynchronize()\n")
        code = main(["lint", str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_errors(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        assert main(["lint", str(tmp_path)]) == 1

    def test_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        main(["lint", "--format", "json", str(tmp_path)])
        data = json.loads(capsys.readouterr().out)
        assert data[0]["rule"] == "unknown-api"

    def test_format_is_the_only_format_switch(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["lint", "--json", "--format", "sarif", str(tmp_path)])
        assert exit_.value.code == 2

    def test_sarif_output_is_valid(self, tmp_path, capsys):
        import json

        from repro.analyze import validate_sarif
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        main(["lint", "--format", "sarif", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert validate_sarif(doc) == []
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert any(
            r["ruleId"] == "unknown-api" for r in run["results"]
        )
