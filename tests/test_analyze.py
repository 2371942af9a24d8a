"""Tests for the hipsan happens-before sanitizer (repro.analyze).

Four layers:

* vector-clock / ordering unit tests (the HB core),
* the runtime event log the sanitizer replays,
* scenario tests driving small traced runtimes through each rule,
  the porting rules (duplicated pairs, copy share, dead allocations)
  included,
* the regression gates: every seeded bug in examples/racey_port.py is
  detected, and all six Rodinia ports analyze clean in both memory
  models, with duplicated pairs in exactly the explicit variants.
"""

import ast
import importlib.util
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analyze import (
    RULES,
    SMALL_PARAMS,
    Severity,
    VectorClock,
    analyze_app,
    analyze_log,
    analyze_runtime,
    has_errors,
    ordered_before,
    render_json,
    render_text,
)
from repro.analyze.findings import Finding
from repro.apps import ALL_APPS
from repro.hw.config import MiB
from repro.runtime.hip import make_runtime
from repro.runtime.kernels import BufferAccess, KernelSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _spec(name, alloc, mode):
    return KernelSpec(name, [BufferAccess(alloc, mode)])


def _rules(findings):
    return {f.rule for f in findings}


def _of(findings, rule):
    return [f for f in findings if f.rule == rule]


def _names(finding):
    """The quoted buffer names a finding's message mentions, in order."""
    return re.findall(r"'([^']*)'", finding.message)


# ----------------------------------------------------------------------
# Vector clocks
# ----------------------------------------------------------------------


class TestVectorClock:
    def test_fresh_clocks_compare_equal(self):
        assert VectorClock() <= VectorClock()

    def test_tick_breaks_symmetry(self):
        a, b = VectorClock(), VectorClock()
        a.tick("host")
        assert b <= a
        assert not a <= b

    def test_join_takes_componentwise_max(self):
        a, b = VectorClock(), VectorClock()
        a.tick("host")
        b.tick("s0")
        b.tick("s0")
        a.join(b)
        assert a.get("host") == 1
        assert a.get("s0") == 2

    def test_copy_is_independent(self):
        a = VectorClock()
        a.tick("host")
        b = a.copy()
        b.tick("host")
        assert a.get("host") == 1
        assert b.get("host") == 2

    def test_concurrent_clocks_incomparable(self):
        a, b = VectorClock(), VectorClock()
        a.tick("host")
        b.tick("s0")
        assert not a <= b
        assert not b <= a

    def test_ordered_before_own_component(self):
        first = VectorClock()
        first.tick("s0")
        later = VectorClock()
        later.tick("s0")
        later.tick("s0")
        assert ordered_before(first.copy(), "s0", later)
        assert not ordered_before(later, "s0", first)

    def test_ordered_before_via_join(self):
        producer = VectorClock()
        producer.tick("s0")
        consumer = VectorClock()
        consumer.join(producer)
        consumer.tick("s1")
        assert ordered_before(producer, "s0", consumer)


# ----------------------------------------------------------------------
# Findings model
# ----------------------------------------------------------------------


class TestFindings:
    def test_severity_ordering_and_str(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert str(Severity.ERROR) == "error"

    def test_render_text_sorted_and_counted(self):
        findings = [
            Finding("a.info", Severity.INFO, "quiet"),
            Finding("b.err", Severity.ERROR, "loud", hint="fix it"),
        ]
        text = render_text(findings)
        assert text.index("b.err") < text.index("a.info")
        assert "fix it" in text
        assert "2 finding(s)" in text

    def test_render_json_roundtrips(self):
        import json

        findings = [Finding("r", Severity.WARNING, "msg", file="f.py", line=3)]
        data = json.loads(render_json(findings))
        assert data[0]["rule"] == "r"
        assert data[0]["severity"] == "warning"
        assert data[0]["line"] == 3

    def test_has_errors(self):
        assert not has_errors([Finding("r", Severity.WARNING, "m")])
        assert has_errors([Finding("r", Severity.ERROR, "m")])

    def test_registry_is_exactly_the_codes_the_analyzers_emit(self):
        """Every code literal passed to ``make_finding`` in the package
        (directly, or through a local assigned a literal) is
        registered, and every registered code is emitted somewhere."""
        emitted = set()
        for path in (ROOT / "src" / "repro" / "analyze").rglob("*.py"):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                assigned = {}
                for node in ast.walk(fn):
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Constant
                    ):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                assigned.setdefault(target.id, set()).add(
                                    node.value.value
                                )
                for node in ast.walk(fn):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "make_finding"
                    ):
                        continue
                    code = node.args[0]
                    if isinstance(code, ast.Constant):
                        emitted.add(code.value)
                    else:
                        emitted |= assigned[code.id]
        assert emitted == set(RULES)
        assert len(RULES) == 23
        assert not any("." in code for code in RULES)


# ----------------------------------------------------------------------
# Runtime event log
# ----------------------------------------------------------------------


def _traced():
    return make_runtime(memory_gib=2, xnack=True, trace=True)


def _kinds(log, wanted=("alloc", "free", "memcpy", "kernel")):
    return [e.kind for e in log if e.kind in wanted]


@pytest.fixture
def traced_explicit_run():
    """A miniature explicit-model run: h/d pair + copies + kernel.

    Yields the run's event ``log``, its ``apu`` and the ``kernel``'s
    :class:`KernelResult`.
    """
    hip = _traced()
    memory = hip.apu.memory
    h = memory.malloc(16 * MiB, name="h_data")
    d = memory.hip_malloc(16 * MiB, name="d_data")
    memory.hip_malloc(4 * MiB, name="d_scratch")
    hip.hipMemcpy(d, h, 16 * MiB)
    kernel = hip.launchKernel(
        KernelSpec("stencil", [BufferAccess(d, "readwrite")])
    )
    hip.hipDeviceSynchronize()
    hip.hipMemcpy(h, d, 16 * MiB)
    return SimpleNamespace(log=hip.apu.trace, apu=hip.apu, kernel=kernel)


class TestTracer:
    def test_records_events_in_order(self, traced_explicit_run):
        assert _kinds(traced_explicit_run.log) == [
            "alloc", "alloc", "alloc", "memcpy", "kernel", "memcpy",
        ]

    def test_live_bytes(self, traced_explicit_run):
        apu = traced_explicit_run.apu
        assert apu.memory.live_bytes() == 36 * MiB
        scratch = next(a for a in apu.memory.allocations
                       if a.vma.name == "d_scratch")
        apu.memory.free(scratch)
        assert apu.memory.live_bytes() == 32 * MiB
        assert _kinds(apu.trace)[-1] == "free"

    def test_accessed_tracking(self):
        hip = _traced()
        memory = hip.apu.memory
        copied = memory.malloc(1 * MiB, name="copied")
        launched = memory.hip_malloc(1 * MiB, name="launched")
        memory.hip_malloc(1 * MiB, name="idle")
        staging = memory.hip_malloc(1 * MiB, name="staging")
        hip.hipMemcpy(staging, copied)
        hip.launchKernel(KernelSpec("k", [BufferAccess(launched, "read")]))
        hip.hipDeviceSynchronize()
        dead = _of(analyze_log(hip.apu.trace), "dead-alloc")
        assert [_names(f) for f in dead] == [["idle"]]

    def test_query_helpers(self, traced_explicit_run):
        kinds = _kinds(traced_explicit_run.log)
        assert kinds.count("memcpy") == 2
        assert kinds.count("kernel") == 1
        assert kinds.count("alloc") == 3

    def test_log_carries_copy_and_fault_time(self):
        hip = _traced()
        memory = hip.apu.memory
        h = memory.malloc(4 * MiB, name="h")
        d = memory.hip_malloc(4 * MiB, name="d")
        hip.hipMemcpy(d, h)  # resolves the copy's first-touch faults
        started = hip.apu.clock.now_ns
        hip.hipMemcpy(d, h)
        copy = [e for e in hip.apu.trace if e.kind == "memcpy"][-1]
        assert copy.data["duration_ns"] == pytest.approx(
            hip.apu.clock.now_ns - started
        )
        fresh = memory.malloc(4 * MiB, name="fresh")
        result = hip.launchKernel(
            KernelSpec("k", [BufferAccess(fresh, "read")])
        )
        kernel = [e for e in hip.apu.trace if e.kind == "kernel"][-1]
        assert result.fault_ns > 0
        assert kernel.data["fault_ns"] == result.fault_ns


class TestAdvisor:
    """The porting rules: what a unified port (Listing 1 -> 2) removes."""

    def test_finds_duplicated_pair(self, traced_explicit_run):
        pairs = _of(analyze_log(traced_explicit_run.log),
                    "duplicated-pair")
        assert len(pairs) == 1
        assert _names(pairs[0]) == ["h_data", "d_data"]
        assert f"{16 * MiB} B" in pairs[0].message
        assert "2 copies" in pairs[0].message

    def test_potential_saving(self, traced_explicit_run):
        (pair,) = _of(analyze_log(traced_explicit_run.log),
                      "duplicated-pair")
        assert f"saves {16 * MiB} B" in pair.message

    def test_copy_fraction(self, traced_explicit_run):
        log = traced_explicit_run.log
        findings = analyze_log(log)
        copies = [e.data["duration_ns"] for e in log if e.kind == "memcpy"]
        assert all(c > 0 for c in copies)
        (dominated,) = _of(findings, "copy-dominated")
        assert dominated.cost_ns == pytest.approx(sum(copies))
        (pair,) = _of(findings, "duplicated-pair")
        assert pair.cost_ns == pytest.approx(sum(copies))
        kernel = traced_explicit_run.kernel
        fraction = sum(copies) / (sum(copies) + kernel.duration_ns)
        assert f"copies are {fraction:.0%} " in dominated.message

    def test_dead_allocation_detected(self, traced_explicit_run):
        dead = _of(analyze_log(traced_explicit_run.log), "dead-alloc")
        assert [_names(f) for f in dead] == [["d_scratch"]]

    def test_fault_dominated_vector_storms(self):
        # A GPU kernel faulting a 4 MiB std::vector in: the fault-storm
        # rule covers what a per-kernel fault-share check would flag.
        hip = _traced()
        vec = hip.apu.memory.malloc(4 * MiB, name="std::vector")
        hip.launchKernel(KernelSpec("euclid", [BufferAccess(vec, "read")]))
        hip.hipDeviceSynchronize()
        findings = analyze_log(hip.apu.trace)
        assert _rules(findings) == {"fault-storm"}
        assert "served 1024 GPU page faults" in findings[0].message

    def test_unified_run_is_clean(self):
        hip = _traced()
        buf = hip.apu.memory.hip_malloc(16 * MiB, name="unified")
        hip.launchKernel(KernelSpec("stencil", [BufferAccess(buf, "read")]))
        hip.hipDeviceSynchronize()
        assert analyze_log(hip.apu.trace) == []

    def test_size_mismatch_not_paired(self):
        hip = _traced()
        h = hip.apu.memory.malloc(16 * MiB, name="h")
        d = hip.apu.memory.hip_malloc(8 * MiB, name="d")
        hip.hipMemcpy(d, h, 8 * MiB)
        findings = analyze_log(hip.apu.trace)
        assert not _of(findings, "duplicated-pair")

    def test_summary_text(self, traced_explicit_run):
        text = render_text(analyze_log(traced_explicit_run.log))
        assert "duplicated-pair" in text
        assert "h_data" in text
        assert "d_scratch" in text
        assert "copies are" in text

    def test_dead_alloc_counts_fault_touches(self):
        # dwt2d fills its host planes from the CPU: first-touch faults
        # are accesses.  nn's first std::vector storage (b0, 64 B) is
        # freed on grow untouched, so it is the one dead buffer.
        dwt2d = analyze_app("dwt2d", "unified", params=SMALL_PARAMS["dwt2d"])
        assert not _of(dwt2d, "dead-alloc")
        nn = _of(analyze_app("nn", "unified", params=SMALL_PARAMS["nn"]),
                 "dead-alloc")
        assert len(nn) == 1
        assert nn[0].message.startswith("buffer b0 ")


# ----------------------------------------------------------------------
# Sanitizer scenarios
# ----------------------------------------------------------------------


class TestSanitizerScenarios:
    def test_clean_synchronous_pipeline(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        hip.launchKernel(_spec("produce", buf.allocation, "write"))
        hip.hipDeviceSynchronize()
        hip.runCpuKernel(_spec("consume", buf.allocation, "read"))
        assert analyze_runtime(hip) == []

    def test_unsynchronized_d2h_read(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        hip.launchKernel(_spec("produce", buf.allocation, "write"))
        hip.runCpuKernel(_spec("consume", buf.allocation, "read"))
        findings = analyze_runtime(hip)
        assert _rules(findings) == {"unsync-d2h-read"}
        assert findings[0].severity == Severity.ERROR

    def test_event_edge_suppresses_stream_race(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        s1, s2 = hip.hipStreamCreate("a"), hip.hipStreamCreate("b")
        hip.launchKernel(_spec("first", buf.allocation, "write"), s1)
        event = hip.hipEventCreate("edge")
        hip.hipEventRecord(event, s1)
        hip.hipStreamWaitEvent(s2, event)
        hip.launchKernel(_spec("second", buf.allocation, "write"), s2)
        hip.hipDeviceSynchronize()
        assert analyze_runtime(hip) == []

    def test_missing_event_is_stream_race(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        s1, s2 = hip.hipStreamCreate("a"), hip.hipStreamCreate("b")
        hip.launchKernel(_spec("first", buf.allocation, "write"), s1)
        hip.launchKernel(_spec("second", buf.allocation, "write"), s2)
        hip.hipDeviceSynchronize()
        assert _rules(analyze_runtime(hip)) == {"stream-race"}

    def test_disjoint_ranges_do_not_race(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        half = (1 << 20) * 2  # bytes of the first half
        hip.launchKernel(KernelSpec("low", [BufferAccess(
            buf.allocation, "write", size_bytes=half)]))
        hip.runCpuKernel(KernelSpec("high", [BufferAccess(
            buf.allocation, "write", offset_bytes=half, size_bytes=half)]))
        hip.hipDeviceSynchronize()
        assert analyze_runtime(hip) == []

    def test_read_read_is_not_a_race(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        hip.apu.touch(buf.allocation, "cpu")
        hip.launchKernel(_spec("gpu_reader", buf.allocation, "read"))
        hip.runCpuKernel(_spec("cpu_reader", buf.allocation, "read"))
        hip.hipDeviceSynchronize()
        assert analyze_runtime(hip) == []

    def test_pinned_async_copy_race_and_fix(self):
        for fix in (False, True):
            hip = make_runtime(memory_gib=2, trace=True)
            src = hip.array(1 << 20, np.float32, "hipHostMalloc")
            dst = hip.array(1 << 20, np.float32, "hipMalloc")
            stream = hip.hipStreamCreate("copy")
            hip.hipMemcpyAsync(dst, src, stream=stream)
            if fix:
                hip.hipStreamSynchronize(stream)
            hip.runCpuKernel(_spec("refill", src.allocation, "write"))
            porting = {"duplicated-pair", "copy-dominated"}
            findings = analyze_runtime(hip)
            if fix:
                assert _rules(findings) == porting
            else:
                assert _rules(findings) == {"memcpy-race"} | porting

    def test_pageable_async_copy_is_host_synchronous(self):
        # hipMemcpyAsync from pageable memory stages synchronously on
        # the host side, so rewriting the source afterwards is safe.
        hip = make_runtime(memory_gib=2, trace=True)
        src = hip.array(1 << 20, np.float32, "malloc")
        dst = hip.array(1 << 20, np.float32, "hipMalloc")
        hip.apu.touch(src.allocation, "cpu")
        stream = hip.hipStreamCreate("copy")
        hip.hipMemcpyAsync(dst, src, stream=stream)
        hip.runCpuKernel(_spec("refill", src.allocation, "write"))
        hip.hipStreamSynchronize(stream)
        assert _rules(analyze_runtime(hip)) == {
            "duplicated-pair", "copy-dominated",
        }

    def test_free_in_flight_and_use_after_free(self):
        hip = make_runtime(memory_gib=2, xnack=True, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        alloc = buf.allocation
        hip.launchKernel(_spec("writer", alloc, "write"))
        hip.hipFree(alloc)
        hip.launchKernel(_spec("stale", alloc, "read"))
        hip.hipDeviceSynchronize()
        rules = _rules(analyze_runtime(hip))
        assert "free-in-flight" in rules
        assert "use-after-free" in rules

    def test_synchronized_free_is_clean(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        hip.launchKernel(_spec("writer", buf.allocation, "write"))
        hip.hipDeviceSynchronize()
        hip.hipFree(buf.allocation)
        assert analyze_runtime(hip) == []

    def test_double_free_detected(self):
        from repro.runtime.hip import HipError, hipErrorInvalidValue

        hip = make_runtime(memory_gib=2, trace=True)
        alloc = hip.hipMalloc(1 << 20)
        hip.hipFree(alloc)
        with pytest.raises(HipError) as failure:
            hip.hipFree(alloc)
        assert failure.value.code == hipErrorInvalidValue
        assert _rules(analyze_runtime(hip)) == {
            "double-free", "dead-alloc",
        }

    def test_xnack_fatal_access_reported(self):
        from repro.core.faults import GPUMemoryAccessError

        hip = make_runtime(memory_gib=2, xnack=False, trace=True)
        buf = hip.array(1 << 20, np.float32, "malloc")
        hip.apu.touch(buf.allocation, "cpu")
        with pytest.raises(GPUMemoryAccessError):
            hip.launchKernel(_spec("toucher", buf.allocation, "read"))
            hip.hipDeviceSynchronize()
        assert _rules(analyze_runtime(hip)) == {"xnack-fatal"}

    def test_fault_storm_is_info_only(self):
        hip = make_runtime(memory_gib=2, xnack=True, trace=True)
        buf = hip.array(8 << 20, np.uint8, "hipMallocManaged")
        hip.launchKernel(_spec("first_touch", buf.allocation, "read"))
        hip.hipDeviceSynchronize()
        findings = analyze_runtime(hip)
        assert _rules(findings) == {"fault-storm"}
        assert all(f.severity == Severity.INFO for f in findings)

    def test_findings_deduplicated_across_iterations(self):
        hip = make_runtime(memory_gib=2, trace=True)
        buf = hip.array(1 << 20, np.float32, "hipMalloc")
        for _ in range(5):
            hip.launchKernel(_spec("produce", buf.allocation, "write"))
            hip.runCpuKernel(_spec("consume", buf.allocation, "read"))
        assert len(analyze_runtime(hip)) == 1

    def test_untraced_runtime_rejected(self):
        hip = make_runtime(memory_gib=2)
        with pytest.raises(ValueError, match="trace"):
            analyze_runtime(hip)


# ----------------------------------------------------------------------
# Regression gates
# ----------------------------------------------------------------------


def _load_racey_port():
    path = ROOT / "examples" / "racey_port.py"
    spec = importlib.util.spec_from_file_location("racey_port", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRaceyPortExample:
    """The acceptance gate: each seeded bug in the example is caught."""

    @pytest.fixture(scope="class")
    def racey(self):
        return _load_racey_port()

    def test_detects_unsynchronized_d2h_read(self, racey):
        assert "unsync-d2h-read" in _rules(racey.unsync_d2h_read())

    def test_detects_cpu_gpu_race(self, racey):
        assert "cpu-gpu-race" in _rules(racey.cpu_gpu_race())

    def test_detects_use_after_free(self, racey):
        rules = _rules(racey.use_after_free())
        assert "use-after-free" in rules
        assert "free-in-flight" in rules

    def test_detects_every_remaining_rule(self, racey):
        assert "memcpy-race" in _rules(racey.memcpy_race())
        assert "stream-race" in _rules(racey.stream_race())
        assert "double-free" in _rules(racey.double_free())
        assert "xnack-fatal" in _rules(racey.xnack_fatal())
        assert "fault-storm" in _rules(racey.fault_storm())

    def test_every_scenario_reports_something(self, racey):
        for scenario in racey.SCENARIOS:
            assert scenario(), scenario.__name__


def _app_variant_matrix():
    for name in sorted(ALL_APPS):
        for variant in ALL_APPS[name]().variants:
            yield name, variant


@pytest.mark.parametrize("name,variant", list(_app_variant_matrix()))
def test_rodinia_ports_analyze_clean(name, variant):
    """All six ports, every memory model: no races, no lifetime bugs.

    The dynamic twin of the static redundant-copy gate: every explicit
    variant copies between duplicated host/device pairs and spends over
    a fifth of its GPU-path time copying; no unified variant does.
    """
    findings = analyze_app(name, variant, params=SMALL_PARAMS[name])
    reported = [f for f in findings if f.severity > Severity.INFO]
    assert reported == [], render_text(reported)
    pairs = _of(findings, "duplicated-pair")
    dominated = _of(findings, "copy-dominated")
    if variant == "explicit":
        assert len(pairs) >= 1
        assert len(dominated) == 1
    else:
        assert pairs == [] and dominated == [], render_text(findings)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestAnalyzeCli:
    def test_analyze_single_app_quick(self, capsys):
        from repro.cli import main

        code = main(["analyze", "--quick", "--app", "hotspot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hotspot" in out
        assert "clean" in out

    def test_analyze_rejects_unknown_app(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["analyze", "--app", "nosuchapp"])
