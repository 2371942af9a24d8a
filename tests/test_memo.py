"""The run-scoped memo (repro.memo).

Within one engine run the explicit and unified variants of an app feed
their kernels the same inputs, so the memo computes each numeric chain
once; Fig. 2's CPU and GPU curves of one allocator share one set-up.
These tests check that a memoised run is bit-identical to a memo-less
one, that the lookup keys by exact argument values, that the memo
lives exactly as long as one ``Engine.run_many``, and that it stays
within its byte budget, evicting a chain with the entries it read.
"""

import json
from unittest import mock

import numpy as np
import pytest

from repro import memo
from repro.apps import ALL_APPS, backprop, dwt2d, heartwall, hotspot, nn, srad
from repro.bench import multichase
from repro.exp import GOLDEN_PATH, Engine, ExperimentSpec, temporarily_registered
from repro.exp.engine import golden_digests
from repro.exp.experiments import APP_QUICK_PARAMS
from repro.hw.config import KiB, MiB

#: Each app's kernel chain: the memoised call a unified variant must
#: take from the memo after its explicit baseline ran.
CHAINS = {
    "backprop": backprop._train,
    "dwt2d": dwt2d._transform,
    "heartwall": heartwall._next_frame,
    "hotspot": hotspot._simulate,
    "nn": nn._nearest,
    "srad_v1": srad._denoise,
}


def qualname(fn):
    return f"{fn.__module__}.{fn.__qualname__}"


def fingerprint(result):
    return (result.checksum.hex(), result.total_time_s.hex(),
            result.compute_time_s.hex(), result.peak_memory_bytes)


@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_memoised_variants_are_bit_identical_and_hit(app):
    instance, params = ALL_APPS[app](), APP_QUICK_PARAMS[app]
    plain = [fingerprint(instance.run(v, params=dict(params)))
             for v in instance.variants]
    chain = qualname(CHAINS[app])
    memoised = []
    with memo.scope() as m:
        for variant in instance.variants:
            hits, misses = m.hits[chain], m.misses[chain]
            memoised.append(fingerprint(instance.run(variant, params=dict(params))))
            if variant != "explicit":
                assert m.hits[chain] > hits and m.misses[chain] == misses
    assert memoised == plain


def test_memo_lives_exactly_as_long_as_one_run():
    seen = []

    def runner(value):
        seen.append(memo._CURRENT.get())
        return [[value]]

    spec = ExperimentSpec.define(
        name="memo-probe", title="memo probe", columns=["v"], runner=runner,
        grid={"value": [1, 2]},
    )
    with temporarily_registered(spec):
        assert memo._CURRENT.get() is None
        Engine().run_many(["memo-probe"])
        assert memo._CURRENT.get() is None
        assert seen[0] is not None and seen[0] is seen[1]
        with memo.scope() as outer:
            Engine().run_many(["memo-probe"])  # nested: a fresh memo
            assert memo._CURRENT.get() is outer
        assert seen[2] is seen[3] and seen[2] not in (outer, seen[0])
    assert memo._CURRENT.get() is None


def test_without_a_scope_every_call_computes():
    calls = []

    @memo.memoised
    def double(a):
        calls.append(1)
        return a * 2

    a = np.arange(4.0)
    assert double(a).flags.writeable and double(a).flags.writeable
    assert len(calls) == 2


def test_results_are_read_only_and_not_copied():
    @memo.memoised
    def pair(n):
        return np.zeros(n), (np.ones(n), 1.5)

    with memo.scope():
        first = pair(8)
        again = pair(8)
    assert again[0] is first[0] and again[1][0] is first[1][0]
    for array in (first[0], first[1][0]):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_a_result_aliasing_an_input_is_copied_not_frozen():
    @memo.memoised
    def identity(a):
        return a

    a = np.arange(4.0)
    with memo.scope():
        out = identity(a)
    assert out is not a and a.flags.writeable and not out.flags.writeable


def test_generator_state_keys_the_call_and_is_restored_on_a_hit():
    @memo.memoised
    def draw(rng, n):
        return rng.random(n)

    fresh, replay = np.random.default_rng(1), np.random.default_rng(1)
    with memo.scope() as m:
        first = draw(fresh, 5)
        second = draw(fresh, 5)  # a later state: a miss
        assert m.misses[qualname(draw)] == 2
        assert draw(replay, 5) is first and draw(replay, 5) is second
        assert m.hits[qualname(draw)] == 2
    assert replay.bit_generator.state == fresh.bit_generator.state


def test_scalars_key_by_exact_value():
    @memo.memoised
    def ident(x):
        return np.array([x])

    with memo.scope() as m:
        ident(0.0)
        ident(-0.0)
        ident(0)
        assert m.misses[qualname(ident)] == 3
        with pytest.raises(TypeError):
            ident([1, 2])


def test_arrays_key_by_dtype_shape_and_bytes():
    @memo.memoised
    def first(a):
        return float(a.flat[0])

    a = np.zeros(4, np.int64)
    changed = a.copy()
    changed[3] = 1
    with memo.scope() as m:
        first(a)
        first(a.copy())  # equal bytes: a hit
        for other in (a.reshape(2, 2), a.view(np.float64), changed):
            first(other)
    assert (m.hits[qualname(first)], m.misses[qualname(first)]) == (1, 4)


def test_the_memo_holds_results_only():
    @memo.memoised
    def make(n):
        return np.arange(n, dtype=np.float64), np.zeros(n, np.uint8)

    @memo.memoised
    def total(a):
        return float(a.sum())

    with memo.scope() as m:
        total(np.ones(4096))  # a float result: no bytes, and no key copy
        make(1024)
        make(16)
        assert m.nbytes == (1024 + 16) * 9


def test_evicting_a_generator_evicts_the_chain_computed_from_it():
    @memo.memoised
    def make(n):
        return np.ones(n, np.uint8)

    @memo.memoised
    def chain(n):
        return make(n) * 2

    @memo.memoised
    def block(n):
        return np.zeros(n, np.uint8)

    with mock.patch.object(memo, "BUDGET_BYTES", 1000), memo.scope() as m:
        make(300)  # a variant loads its input
        chain(300)  # a miss whose make(300) is a hit
        assert m.hits[qualname(make)] == 1
        block(100)
        assert m.nbytes == 700
        block(400)  # over budget: make(300) is the least recently used
        assert m.nbytes == 500  # make(300) and chain(300) both dropped
        chain(300)
        assert m.misses[qualname(chain)] == 2
        assert m.misses[qualname(make)] == 2


def test_over_budget_entry_is_not_stored_and_lru_respects_budget():
    @memo.memoised
    def block(n, tag):
        return np.full(n, tag, dtype=np.uint8)

    with mock.patch.object(memo, "BUDGET_BYTES", 1000), memo.scope() as m:
        block(1001, 0)
        assert m.nbytes == 0
        for tag in range(5):
            block(300, tag)
            assert m.nbytes <= 1000
        assert m.nbytes == 900  # three entries: tags 2, 3 and 4
        block(300, 2)  # held: refreshes its place in the LRU order
        block(300, 5)  # evicts tag 3, the least recently used
        hits = m.hits[qualname(block)]
        block(300, 2)
        block(300, 4)
        assert m.hits[qualname(block)] == hits + 2
        block(300, 3)
        assert m.misses[qualname(block)] == 8
        assert m.nbytes == 900


def test_pool_workers_match_one_worker_and_the_quick_golden():
    serial = Engine(workers=1).run("apps", quick=True)
    pooled = Engine(workers=2).run("apps", quick=True)
    assert pooled.ok and pooled.rows == serial.rows
    golden = json.loads(GOLDEN_PATH.read_text())["quick"]["apps"]
    assert golden_digests({"apps": pooled})["apps"] == golden


# ----------------------------------------------------------------------
# Fig. 2: one set-up per allocator per run
# ----------------------------------------------------------------------

CURVES = qualname(multichase._curves)
FIG2_SIZES = (1 * KiB, 1 * MiB, 64 * MiB)


@pytest.mark.parametrize("order", [("cpu", "gpu"), ("gpu", "cpu")])
def test_fig2_second_device_is_a_hit_with_the_unscoped_rows(order):
    plain = {device: multichase.chase_curve("malloc", device, FIG2_SIZES, 2)
             for device in order}
    # The devices' curves differ, so a swapped curve cannot pass.
    assert [r[3] for r in plain["cpu"]] != [r[3] for r in plain["gpu"]]
    with memo.scope() as m:
        first = multichase.chase_curve("malloc", order[0], FIG2_SIZES, 2)
        assert (m.misses[CURVES], m.hits[CURVES]) == (1, 0)
        second = multichase.chase_curve("malloc", order[1], FIG2_SIZES, 2)
        assert (m.misses[CURVES], m.hits[CURVES]) == (1, 1)
        assert m.nbytes == 0  # floats only: no APU, no frame arrays
    assert [first, second] == [plain[order[0]], plain[order[1]]]


def test_fig2_list_and_tuple_sizes_give_the_same_rows():
    rows = multichase.chase_curve("hipMalloc", "cpu", FIG2_SIZES, 2)
    assert multichase.chase_curve("hipMalloc", "cpu", list(FIG2_SIZES), 2) == rows
    with memo.scope() as m:
        assert multichase.chase_curve("hipMalloc", "cpu", FIG2_SIZES, 2) == rows
        assert multichase.chase_curve(
            "hipMalloc", "cpu", list(FIG2_SIZES), 2) == rows
        assert (m.misses[CURVES], m.hits[CURVES]) == (1, 1)


def test_fig2_unknown_device_and_allocator_still_raise_in_a_scope():
    with memo.scope() as m:
        with pytest.raises(ValueError, match="device"):
            multichase.chase_curve("malloc", "npu", FIG2_SIZES, 2)
        assert m.misses[CURVES] == 0  # rejected before any set-up
        for device in ("cpu", "gpu"):
            with pytest.raises(ValueError, match="allocator"):
                multichase.chase_curve("cudaMalloc", device, FIG2_SIZES, 2)


def test_fig2_quick_grid_boots_once_per_allocator_and_matches_golden():
    boots = []
    real = multichase.make_runtime

    def counting(*args, **kwargs):
        boots.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(multichase, "make_runtime", counting):
        result = Engine().run("fig2", quick=True)
    allocators = {point.point.params["allocator"] for point in result.points}
    assert result.ok and len(boots) == len(allocators) == 2
    assert len(result.points) == 2 * len(allocators)
    golden = json.loads(GOLDEN_PATH.read_text())["quick"]["fig2"]
    assert golden_digests({"fig2": result})["fig2"] == golden
