"""Tests for repro.inject: triggers, determinism, hardened recovery,
invariants, and the chaos harness (plus the flaky_port example)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BufferAccess, KernelSpec, make_runtime
from repro.cli import main
from repro.core.faults import FaultHandler, GPUMemoryAccessError
from repro.core.physical import TransientAllocationError
from repro.inject import (
    CAMPAIGNS,
    Always,
    CallWindow,
    InjectionPlan,
    Injector,
    NthCall,
    Probability,
    check_invariants,
    derive_seed,
    get_campaign,
    report_bytes,
    run_campaign,
    run_one,
)
from repro.porting import UnifiedVector
from repro.runtime.hip import (
    ALLOC_BACKOFF_NS,
    ALLOC_RETRY_LIMIT,
    ALLOCATORS,
    HipError,
    hipErrorECCNotCorrectable,
    hipErrorInvalidValue,
    hipErrorOutOfMemory,
    hipErrorUnknown,
    hipSuccess,
)

ROOT = Path(__file__).resolve().parent.parent


def _plan(*injectors, seed=0, name="test"):
    return InjectionPlan(list(injectors), seed=seed, name=name)


# ----------------------------------------------------------------------
# Trigger predicates
# ----------------------------------------------------------------------


class TestTriggers:
    def _pattern(self, plan, calls=6, site="s", **context):
        return [plan.fire(site, **context) is not None
                for _ in range(calls)]

    def test_nth_call_is_one_based(self):
        plan = _plan(Injector("s", "k", NthCall(3)))
        assert self._pattern(plan) == [False, False, True, False, False,
                                       False]

    def test_call_window_is_half_open(self):
        plan = _plan(Injector("s", "k", CallWindow(2, 4), times=10))
        assert self._pattern(plan) == [False, True, True, False, False,
                                       False]

    def test_fire_budget_bounds_always(self):
        plan = _plan(Injector("s", "k", Always(), times=2))
        assert self._pattern(plan) == [True, True, False, False, False,
                                       False]

    def test_probability_extremes(self):
        assert not any(self._pattern(_plan(
            Injector("s", "k", Probability(0.0), times=10))))
        assert all(self._pattern(_plan(
            Injector("s", "k", Probability(1.0), times=10))))

    def test_probability_is_seed_deterministic(self):
        patterns = [
            self._pattern(
                _plan(Injector("s", "k", Probability(0.4), times=10),
                      seed=11),
                calls=20,
            )
            for _ in range(2)
        ]
        assert patterns[0] == patterns[1]
        other = self._pattern(
            _plan(Injector("s", "k", Probability(0.4), times=10), seed=12),
            calls=20,
        )
        assert other != patterns[0]  # a different stream, not a constant

    def test_probability_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Probability(1.5)

    def test_plan_order_breaks_ties(self):
        plan = _plan(
            Injector("s", "first", NthCall(1)),
            Injector("s", "second", Always(), times=10),
        )
        assert plan.fire("s").kind == "first"
        assert plan.fire("s").kind == "second"

    def test_sites_count_independently(self):
        plan = _plan(Injector("a", "k", NthCall(2)),
                     Injector("b", "k", NthCall(1)))
        assert plan.fire("a") is None
        assert plan.fire("b") is not None
        assert plan.fire("a") is not None
        assert plan.calls("a") == 2
        assert plan.calls("b") == 1

    def test_injector_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Injector("s", "k", times=0)


class TestPlanLifecycle:
    def test_plan_is_single_use(self, apu):
        plan = _plan()
        plan.attach(apu)
        from repro.runtime import make_apu

        with pytest.raises(RuntimeError, match="single-use"):
            plan.attach(make_apu(1))

    def test_journal_records_fires_and_notes(self):
        plan = _plan(Injector("s", "k", NthCall(1), params={"x": 1}))
        plan.fire("s", nbytes=64)
        plan.note("recover.test", attempt=1)
        events = [entry["event"] for entry in plan.journal_payload()]
        assert events == ["s:k", "recover.test"]
        fire = plan.journal_payload()[0]
        assert fire["call"] == 1
        assert fire["trigger"] == "nth-call(1)"
        assert fire["context"] == {"nbytes": 64}
        assert json.dumps(plan.journal_payload())  # JSON-clean

    def test_teardown_releases_pressure(self):
        plan = _plan(Injector("physical.alloc", "pressure", NthCall(1),
                              params={"fraction": 0.4}))
        hip = make_runtime(memory_gib=1, inject=plan)
        free0 = hip.apu.physical.free_frames
        hip.hipMalloc(1 << 20, name="victim")
        assert hip.apu.physical.pressure_frames > 0
        plan.teardown()
        assert hip.apu.physical.pressure_frames == 0
        hip.hipFree(hip.apu.memory.allocations[0])
        assert hip.apu.physical.free_frames == free0


# ----------------------------------------------------------------------
# Hardened allocation: retry, backoff, defrag, degrade
# ----------------------------------------------------------------------


class TestAllocationRecovery:
    def test_transient_failures_are_retried_with_backoff(self):
        plan = _plan(Injector("physical.alloc", "transient",
                              CallWindow(1, 3), times=2))
        hip = make_runtime(memory_gib=1, inject=plan)
        t0 = hip.apu.clock.now_ns
        hip.hipMalloc(1 << 20, name="survivor")
        retries = plan.notes("recover.alloc.retry")
        assert len(retries) == 2
        # Exponential backoff: 1x + 2x the base delay, plus the alloc cost.
        assert hip.apu.clock.now_ns - t0 >= 3 * ALLOC_BACKOFF_NS
        assert hip.hipPeekAtLastError() == hipSuccess

    def test_retry_exhaustion_surfaces_typed_oom(self):
        plan = _plan(Injector("physical.alloc", "transient", Always(),
                              times=100))
        hip = make_runtime(memory_gib=1, inject=plan)
        with pytest.raises(HipError) as failure:
            hip.hipMalloc(1 << 20, name="doomed")
        assert failure.value.code == hipErrorOutOfMemory
        assert len(plan.notes("recover.alloc.retry")) == ALLOC_RETRY_LIMIT

    def test_defragment_then_retry_recovers_from_pressure(self):
        plan = _plan(Injector("physical.alloc", "pressure", NthCall(1),
                              params={"fraction": 0.95}))
        hip = make_runtime(memory_gib=1, inject=plan)
        nbytes = (hip.apu.physical.total_frames // 2) * 4096
        hip.hipMalloc(nbytes, name="big")  # cannot fit under pressure
        assert plan.notes("recover.alloc.defrag")
        assert hip.apu.physical.pressure_frames == 0

    def _fragment_to_singles(self, hip):
        """Leave only isolated free frames: no aligned pair anywhere."""
        physical = hip.apu.physical
        frames = physical.alloc_chunks(physical.free_frames, 1)
        physical.free(frames[1::2])
        return frames[0::2]

    def test_managed_degrades_to_scattered_when_pairs_run_out(self):
        hip = make_runtime(memory_gib=1, xnack=False)
        held = self._fragment_to_singles(hip)
        allocation = hip.hipMallocManaged(4 << 20, name="managed")
        assert hip.degradations
        event = hip.degradations[0]
        assert event["event"] == "alloc.scattered-fallback"
        assert event["name"] == "managed"
        assert allocation.vma.resident_frames().size == (4 << 20) // 4096
        hip.hipFree(allocation)
        hip.apu.physical.free(held)
        assert hip.apu.physical.free_frames == hip.apu.physical.total_frames

    def test_host_malloc_has_the_same_fallback(self):
        hip = make_runtime(memory_gib=1)
        held = self._fragment_to_singles(hip)
        hip.hipHostMalloc(1 << 20, name="pinned")
        assert [d["event"] for d in hip.degradations] == [
            "alloc.scattered-fallback"
        ]
        hip.apu.physical.free(held)

    def test_hip_malloc_never_degrades(self):
        hip = make_runtime(memory_gib=1)
        held = self._fragment_to_singles(hip)
        with pytest.raises(HipError) as failure:
            hip.hipMalloc(64 << 20, name="contiguous")
        assert failure.value.code == hipErrorOutOfMemory
        assert not hip.degradations
        hip.apu.physical.free(held)


# ----------------------------------------------------------------------
# Typed error surface (satellite: error-code mapping)
# ----------------------------------------------------------------------


class TestErrorSurface:
    def test_double_free_maps_to_invalid_value(self):
        hip = make_runtime(memory_gib=1)
        allocation = hip.hipMalloc(1 << 20, name="once")
        hip.hipFree(allocation)
        with pytest.raises(HipError) as failure:
            hip.hipFree(allocation)
        assert failure.value.code == hipErrorInvalidValue

    def test_get_last_error_returns_and_clears(self):
        hip = make_runtime(memory_gib=1)
        assert hip.hipGetLastError() == hipSuccess
        allocation = hip.hipMalloc(1 << 20, name="once")
        hip.hipFree(allocation)
        with pytest.raises(HipError):
            hip.hipFree(allocation)
        assert hip.hipPeekAtLastError() == hipErrorInvalidValue
        assert hip.hipPeekAtLastError() == hipErrorInvalidValue  # sticky
        assert hip.hipGetLastError() == hipErrorInvalidValue
        assert hip.hipGetLastError() == hipSuccess  # cleared

    def test_unknown_allocator_is_invalid_value(self):
        hip = make_runtime(memory_gib=1)
        with pytest.raises(HipError) as failure:
            hip.array(16, np.float32, "cudaMalloc")
        assert failure.value.code == hipErrorInvalidValue

    def test_error_code_parsed_from_message(self):
        assert HipError("hipErrorOutOfMemory: pool exhausted").code == (
            hipErrorOutOfMemory
        )
        assert HipError("something went wrong").code == hipErrorUnknown


class TestExhaustedFrameAllocator:
    """Every named allocation and first touch fails typed, leaking nothing."""

    @pytest.mark.parametrize("xnack", [False, True])
    @pytest.mark.parametrize(
        "case",
        [*ALLOCATORS, "vector:malloc", "vector:hipMalloc",
         "vector:hipHostMalloc"],
    )
    def test_failures_are_typed_out_of_memory_and_leak_nothing(
        self, case, xnack
    ):
        hip = make_runtime(memory_gib=1, xnack=xnack)
        if case.startswith("vector:"):
            # The first storage is made before the plan attaches, so the
            # failing allocation is the vector's growth.
            vector = UnifiedVector(hip, allocator=case.split(":")[1])
            vector.extend(range(4))
        plan = _plan(Injector("physical.alloc", "transient", Always(),
                              times=10_000))
        plan.attach(hip.apu)
        codes = []

        def attempt(call):
            try:
                return call()
            except HipError as failure:
                codes.append(failure.code)
                return None

        if case.startswith("vector:"):
            attempt(lambda: vector.extend(range(1 << 12)))
        else:
            buffer = attempt(lambda: hip.allocate(1 << 20, case))
            if buffer is None:  # a failed attempt leaves nothing live
                assert hip.apu.memory.allocations == []
            else:
                attempt(lambda: hip.hipMemcpy(buffer, buffer, 4096))
                attempt(lambda: hip.hipMemcpyAsync(buffer, buffer, 4096))
                attempt(lambda: hip.runCpuKernel(KernelSpec(
                    "cpu-touch", [BufferAccess(buffer, "write", "touch")],
                )))
                # Pageable memory without XNACK is illegal on the GPU
                # (a fatal access, not an allocation failure).
                if xnack or case != "malloc":
                    attempt(lambda: hip.launchKernel(KernelSpec(
                        "gpu-touch", [BufferAccess(buffer, "read", "touch")],
                    )))
        assert codes and set(codes) == {hipErrorOutOfMemory}
        for allocation in list(hip.apu.memory.allocations):
            hip.hipFree(allocation)
        plan.teardown()
        assert check_invariants(hip.apu) == []

    @pytest.mark.parametrize("append", [
        lambda vector: vector.push_back(4.0),       # touches a new page
        lambda vector: vector.extend(range(1024)),  # touches a new page
        lambda vector: vector.extend(range(4096)),  # grows first
    ], ids=["push_back", "extend", "extend-grow"])
    def test_malloc_vector_first_touch_is_typed_and_keeps_its_state(
        self, append
    ):
        hip = make_runtime(memory_gib=1)
        vector = UnifiedVector(hip, initial_capacity=2048)
        vector.extend(range(1024))  # fills the first page
        storage = vector.allocation
        plan = _plan(Injector("physical.alloc", "transient", Always(),
                              times=10_000))
        plan.attach(hip.apu)
        with pytest.raises(HipError) as failure:
            append(vector)
        assert failure.value.code == hipErrorOutOfMemory
        assert hip.hipPeekAtLastError() == hipErrorOutOfMemory
        # A failed append keeps the old storage and appends nothing.
        assert vector.allocation is storage
        assert vector.data.tolist() == list(range(1024))
        assert hip.apu.memory.allocations == [storage]
        vector.free()
        plan.teardown()
        assert check_invariants(hip.apu) == []


# ----------------------------------------------------------------------
# SDMA transfer faults
# ----------------------------------------------------------------------


def _memcpy_workload(inject=None):
    hip = make_runtime(memory_gib=1, inject=inject)
    host = hip.array(1 << 18, np.float32, "malloc", name="host")
    hip.apu.touch(host.allocation, "cpu")
    device = hip.hipMalloc(1 << 20, name="device")
    t0 = hip.apu.clock.now_ns
    hip.hipMemcpy(device, host.allocation, 1 << 20)
    return hip, hip.apu.clock.now_ns - t0


class TestSdmaFaults:
    def test_stall_multiplies_the_transfer_time(self):
        _, clean_ns = _memcpy_workload()
        plan = _plan(Injector("sdma.transfer", "stall", NthCall(1),
                              params={"factor": 6.0}))
        _, stalled_ns = _memcpy_workload(inject=plan)
        assert plan.fired("sdma.transfer") == 1
        assert stalled_ns > 4 * clean_ns

    def test_retryable_failure_falls_back_to_blit(self):
        plan = _plan(Injector("sdma.transfer", "failure", NthCall(1)))
        hip, _ = _memcpy_workload(inject=plan)
        assert [d["event"] for d in hip.degradations] == [
            "memcpy.blit-fallback"
        ]
        assert hip.hipPeekAtLastError() == hipSuccess  # absorbed

    def test_abort_surfaces_hip_error_unknown(self):
        plan = _plan(Injector("sdma.transfer", "abort", NthCall(1)))
        with pytest.raises(HipError) as failure:
            _memcpy_workload(inject=plan)
        assert failure.value.code == hipErrorUnknown


# ----------------------------------------------------------------------
# HBM ECC faults
# ----------------------------------------------------------------------


def _kernel_workload(inject=None, xnack=False):
    hip = make_runtime(memory_gib=1, xnack=xnack, inject=inject)
    data = hip.array(1 << 20, np.float32, "malloc", name="data")
    hip.apu.touch(data.allocation, "cpu")
    hip.launchKernel(KernelSpec(
        "reader", [BufferAccess(data.allocation, "read")],
    ))
    hip.hipDeviceSynchronize()
    return hip


def _device_kernel_workload(inject=None):
    hip = make_runtime(memory_gib=1, inject=inject)
    data = hip.hipMalloc(1 << 22, name="data")
    hip.launchKernel(KernelSpec("reader", [BufferAccess(data, "read")]))
    hip.hipDeviceSynchronize()
    return hip


class TestEccFaults:
    def test_correctable_errors_cost_latency_and_count(self):
        # ecc_check runs once per kernel buffer access: use three buffers
        # so the Always trigger exhausts its three-fire budget.
        plan = _plan(Injector("hbm.ecc", "correctable", Always(), times=3,
                              params={"count": 2}))
        hip = make_runtime(memory_gib=1, inject=plan)
        buffers = [hip.hipMalloc(1 << 20, name=f"buf{i}") for i in range(3)]
        hip.launchKernel(KernelSpec(
            "reader", [BufferAccess(b, "read") for b in buffers],
        ))
        hip.hipDeviceSynchronize()
        assert hip.apu.hbm_map.correctable_errors == 6
        assert plan.fired("hbm.ecc") == 3

    def test_uncorrectable_error_aborts_the_launch_typed(self):
        plan = _plan(Injector("hbm.ecc", "uncorrectable", NthCall(1)))
        with pytest.raises(HipError) as failure:
            _device_kernel_workload(inject=plan)
        assert failure.value.code == hipErrorECCNotCorrectable

    def test_ras_counter_ticks_before_the_abort(self):
        plan = _plan(Injector("hbm.ecc", "uncorrectable", NthCall(1)))
        hip = make_runtime(memory_gib=1, inject=plan)
        data = hip.hipMalloc(1 << 22, name="data")
        with pytest.raises(HipError):
            hip.launchKernel(KernelSpec(
                "reader", [BufferAccess(data, "read")],
            ))
        assert hip.apu.hbm_map.uncorrectable_errors == 1


# ----------------------------------------------------------------------
# XNACK retry faults
# ----------------------------------------------------------------------


class TestXnackFaults:
    def test_dropped_replays_are_re_retried(self):
        plan = _plan(Injector("xnack.retry", "drop", CallWindow(1, 3),
                              times=2))
        hip = _kernel_workload(inject=plan, xnack=True)
        assert plan.fired("xnack.retry") == 2
        assert hip.hipPeekAtLastError() == hipSuccess

    def test_exhausted_replays_escalate_to_the_fatal_path(self):
        plan = _plan(Injector("xnack.retry", "drop", Always(), times=10_000))
        with pytest.raises(GPUMemoryAccessError):
            _kernel_workload(inject=plan, xnack=True)
        assert plan.fired("xnack.retry") >= FaultHandler.XNACK_RETRY_LIMIT

    def test_retry_storm_completes(self):
        plan = _plan(Injector("xnack.storm", "storm", NthCall(1),
                              params={"factor": 4.0}))
        _kernel_workload(inject=plan, xnack=True)
        assert plan.fired("xnack.storm") == 1


# ----------------------------------------------------------------------
# Invariants and the leak property (satellite: hypothesis)
# ----------------------------------------------------------------------


class TestInvariants:
    def test_clean_apu_passes(self, apu):
        assert check_invariants(apu) == []

    def test_live_allocations_flagged_when_quiescent(self, apu):
        apu.memory.hip_malloc(1 << 20, name="live")
        problems = check_invariants(apu)
        assert any("live" in p for p in problems)
        assert check_invariants(apu, expect_quiescent=False) == []


_FAULT_MENU = [
    ("physical.alloc", "transient", {}),
    ("physical.alloc", "pressure", {"fraction": 0.3}),
    ("hbm.ecc", "correctable", {"count": 1}),
    ("hbm.ecc", "uncorrectable", {}),
    ("sdma.transfer", "stall", {"factor": 3.0}),
    ("sdma.transfer", "failure", {}),
    ("sdma.transfer", "abort", {}),
    ("xnack.retry", "drop", {}),
    ("xnack.storm", "storm", {"factor": 2.0}),
]

_triggers = st.one_of(
    st.builds(NthCall, st.integers(1, 6)),
    st.builds(lambda lo, width: CallWindow(lo, lo + width),
              st.integers(1, 5), st.integers(1, 4)),
    st.builds(Probability, st.floats(0.0, 1.0)),
    st.just(Always()),
)

_injectors = st.lists(
    st.builds(
        lambda choice, trigger, times: Injector(
            choice[0], choice[1], trigger, times=times, params=choice[2],
        ),
        st.sampled_from(_FAULT_MENU),
        _triggers,
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=5,
)


class TestLeakFreedomProperty:
    """Satellite: under ANY seeded plan, physical frames all come back."""

    @given(injectors=_injectors, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_free_frames_return_after_recovery_or_clean_failure(
        self, injectors, seed
    ):
        plan = InjectionPlan(injectors, seed=seed, name="property")
        hip = make_runtime(memory_gib=1, xnack=True, inject=plan)
        physical = hip.apu.physical
        before = physical.free_frames
        try:
            host = hip.array(1 << 14, np.float32, "malloc", name="src")
            hip.apu.touch(host.allocation, "cpu")
            device = hip.hipMalloc(1 << 16, name="device")
            hip.hipMemcpy(device, host.allocation, 1 << 16)
            hip.launchKernel(KernelSpec(
                "k", [BufferAccess(device, "read")],
            ))
            hip.hipDeviceSynchronize()
        except (HipError, GPUMemoryAccessError, MemoryError, RuntimeError):
            pass
        finally:
            for allocation in list(hip.apu.memory.allocations):
                hip.apu.memory.free(allocation)
            plan.teardown()
        assert physical.free_frames == before
        assert physical.audit() == []
        assert check_invariants(hip.apu) == []


# ----------------------------------------------------------------------
# Campaigns and the chaos harness
# ----------------------------------------------------------------------


class TestCampaigns:
    def test_registry_contents(self):
        assert set(CAMPAIGNS) == {
            "standard", "oom-pressure", "ecc-fatal", "xnack-exhaustion",
            "sdma-abort",
        }
        assert get_campaign("standard").recoverable
        assert not get_campaign("ecc-fatal").recoverable

    def test_unknown_campaign_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="standard"):
            get_campaign("nope")

    def test_plans_do_not_share_injector_state(self):
        campaign = get_campaign("standard")
        one, two = campaign.plan(1), campaign.plan(1)
        assert one.injectors is not two.injectors
        assert one.injectors[0] is not two.injectors[0]

    def test_every_campaign_site_is_consulted(self):
        # An injector is only live if some subsystem consults its site
        # through InjectionPlan.fire; these two workloads reach every
        # site an attached APU wires (allocation, ECC, SDMA, XNACK).
        plans = [_plan(), _plan()]
        _memcpy_workload(inject=plans[0])
        _kernel_workload(inject=plans[1], xnack=True)
        sites = {
            injector.site
            for campaign in CAMPAIGNS.values()
            for injector in campaign.build()
        }
        unconsulted = {
            site for site in sites if not any(p.calls(site) for p in plans)
        }
        assert unconsulted == set()

    def test_derive_seed_distinguishes_runs(self):
        seeds = {
            derive_seed(7, campaign, app, variant)
            for campaign in CAMPAIGNS
            for app in ("nn", "hotspot")
            for variant in ("explicit", "unified")
        }
        assert len(seeds) == len(CAMPAIGNS) * 4


class TestChaosHarness:
    def test_recoverable_run_matches_baseline_and_leaks_nothing(self):
        record = run_one(get_campaign("standard"), "nn", "unified", seed=7)
        assert record["ok"]
        assert record["error"] is None
        assert record["checksum_matches"]
        assert record["invariant_problems"] == []
        assert record["injected_faults"] > 0
        assert record["free_frames_after"] == record["total_frames"]

    def test_fatal_campaign_fails_typed_without_leaking(self):
        record = run_one(get_campaign("ecc-fatal"), "hotspot", "unified",
                         seed=7)
        assert record["ok"]
        assert record["error"] is not None
        assert record["error"]["typed"]
        assert record["error"]["code"] == hipErrorECCNotCorrectable
        assert record["invariant_problems"] == []
        assert record["free_frames_after"] == record["total_frames"]

    def test_quick_report_is_byte_identical_per_seed(self):
        reports = [
            report_bytes(run_campaign("standard", seed=7, quick=True))
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        other = report_bytes(run_campaign("standard", seed=8, quick=True))
        assert other != reports[0]

    def test_every_campaign_honours_its_contract_quick(self):
        for name in CAMPAIGNS:
            report = run_campaign(name, seed=7, quick=True)
            assert report["ok"], (name, report["runs"])

    def test_standard_campaign_across_all_six_ports(self):
        """Every variant of every Rodinia port recovers."""
        report = run_campaign("standard", seed=7)
        apps = {run["app"] for run in report["runs"]}
        assert apps == {"backprop", "dwt2d", "heartwall", "hotspot", "nn",
                        "srad_v1"}
        # Two variants each, plus nn's unified-hipalloc and heartwall's
        # unified-v2.
        assert len(report["runs"]) == 14
        for run in report["runs"]:
            assert run["ok"], (run["app"], run["variant"], run["error"])
            assert run["checksum_matches"]
            assert run["free_frames_after"] == run["total_frames"]

    def test_unknown_app_is_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            run_campaign("standard", apps=["quake3"])


class TestChaosCli:
    def test_cli_writes_report_and_replays_identically(self, tmp_path):
        argv = ["chaos", "--campaign", "standard", "--quick", "--seed",
                "7", "--apps", "nn"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["ok"] and report["campaign"] == "standard"

    def test_cli_rejects_unknown_campaign(self, capsys):
        assert main(["chaos", "--campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The flaky_port example (satellite)
# ----------------------------------------------------------------------


def _load_flaky_port():
    path = ROOT / "examples" / "flaky_port.py"
    spec = importlib.util.spec_from_file_location("flaky_port", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFlakyPortExample:
    @pytest.fixture(scope="class")
    def flaky(self):
        return _load_flaky_port()

    def test_recoverable_run_reproduces_the_clean_checksum(self, flaky):
        clean = flaky.run_pipeline()
        injected = flaky.run_pipeline(inject=flaky.recoverable_plan())
        assert injected["checksum"] == clean["checksum"]
        assert injected["fired"] > 0
        assert injected["free_frames"] == injected["total_frames"]

    def test_fatal_run_fails_typed_and_clean(self, flaky):
        result = flaky.run_pipeline(inject=flaky.fatal_plan())
        assert result["error"] is not None
        assert result["error"].code == hipErrorUnknown
        assert result["free_frames"] == result["total_frames"]

    def test_main_exercises_all_scenarios(self, flaky, capsys):
        assert flaky.main() == 0
        out = capsys.readouterr().out
        assert "no frames leaked" in out
