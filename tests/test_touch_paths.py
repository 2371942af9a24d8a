"""Whole-range touches against the per-page reference fault paths.

The fault handler and the HMM mirror map a uniform range (wholly
unmapped and backed or unbacked, or wholly needed by the GPU table) as
one run and count its fault-around windows from its ends.  The
reference (tests.oracles.PerPageFaultHandler and PerPageHMMMirror) works
every range page by page.  Random sequences of whole, partial and
overlapping CPU and GPU touches, partial GPU invalidations and a
hipHostRegister, driven on two identical APUs, must leave the same page
state, reports, counters and page-table statistics after every step.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import GPUMemoryAccessError
from repro.hw.config import GiB, PAGE_SIZE, small_config
from repro.inject.invariants import check_invariants
from repro.runtime.apu import APU

from tests.oracles import PerPageFaultHandler, PerPageHMMMirror

#: Buffer sizes in pages: several fault-around windows (128 pages, 64
#: after a GPU touch) and 64 KiB GPU chunks (16 pages), none a multiple.
SIZES = (300, 200, 130, 260, 90)

#: One buffer per kind: malloc, hipMalloc, hipHostMalloc, malloc that a
#: step may hipHostRegister, and hipMallocManaged (on-demand with XNACK,
#: up-front without).
REGISTERED = 3


def _apu(xnack, eager, reference):
    config = small_config(1 * GiB)
    if eager:
        config = dataclasses.replace(
            config,
            policy=dataclasses.replace(config.policy, eager_gpu_maps=True),
        )
    apu = APU(config, xnack=xnack)
    if reference:
        apu.faults.__class__ = PerPageFaultHandler
        apu.hmm.__class__ = PerPageHMMMirror
    mem = apu.memory
    buffers = [
        mem.malloc(SIZES[0] * PAGE_SIZE),
        mem.hip_malloc(SIZES[1] * PAGE_SIZE),
        mem.hip_host_malloc(SIZES[2] * PAGE_SIZE),
        mem.malloc(SIZES[3] * PAGE_SIZE),
        mem.hip_malloc_managed(SIZES[4] * PAGE_SIZE),
    ]
    return apu, buffers


@st.composite
def steps(draw):
    """(kind, buffer, first page, count, device) calls."""
    out = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ["touch"] * 6 + ["invalidate", "register"]
        ))
        buf = draw(st.integers(0, len(SIZES) - 1))
        npages = SIZES[buf]
        if draw(st.booleans()):
            first, count = 0, npages  # a whole buffer
        else:
            first = draw(st.integers(0, npages - 1))
            count = draw(st.integers(1, npages - first))
        out.append((kind, buf, first, count, draw(st.sampled_from(["cpu", "gpu"]))))
    return out


def _step(apu, buffers, kind, buf, first, count, device):
    """Apply one call; returns its report, or the error type it raised."""
    allocation = buffers[buf]
    try:
        if kind == "touch":
            report = apu.faults.touch_range(allocation.vma, first, count, device)
            return dataclasses.asdict(report)
        if kind == "invalidate":
            return apu.hmm.invalidate_range(allocation.vma, first, count)
        if buf == REGISTERED and not allocation.pinned:
            apu.memory.host_register(allocation)
        return None
    except GPUMemoryAccessError as error:
        return type(error)


def _state(apu, buffers):
    pages = [
        (b.vma.frames.copy(), b.vma.sys_valid.copy(), b.vma.gpu_valid.copy(),
         b.vma.fragment.copy())
        for b in buffers
    ]
    return (pages, apu.faults.counters, apu.system_pt.stats, apu.gpu_pt.stats)


def _assert_same_state(got, want):
    for ours, theirs in zip(got[0], want[0]):
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)
    assert got[1:] == want[1:]


@pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("xnack", [False, True], ids=["xnack0", "xnack1"])
@given(calls=steps())
@settings(max_examples=40, deadline=None)
def test_matches_per_page_reference(xnack, eager, calls):
    apu, buffers = _apu(xnack, eager, reference=False)
    ref, ref_buffers = _apu(xnack, eager, reference=True)
    _assert_same_state(_state(apu, buffers), _state(ref, ref_buffers))
    for call in calls:
        assert _step(apu, buffers, *call) == _step(ref, ref_buffers, *call)
        _assert_same_state(_state(apu, buffers), _state(ref, ref_buffers))
        assert check_invariants(apu, expect_quiescent=False) == []


@pytest.mark.parametrize("xnack", [False, True], ids=["xnack0", "xnack1"])
def test_every_touch_shape_is_exercised(xnack):
    """A fixed sequence that takes each uniform and each mixed path."""
    calls = [
        ("touch", 0, 10, 40, "cpu"),    # unbacked: first touch
        ("touch", 0, 0, 300, "cpu"),    # mixed mapped / unbacked
        ("touch", 1, 0, 200, "cpu"),    # backed: fault-around, whole
        ("touch", 2, 5, 60, "cpu"),     # backed, partial
        ("touch", 2, 0, 130, "cpu"),    # mixed mapped / backed
        ("invalidate", 1, 20, 50, "gpu"),
        ("touch", 1, 0, 200, "gpu"),    # mixed GPU-mapped / minor faults
        ("register", 3, 0, 1, "cpu"),
        ("touch", 3, 0, 260, "gpu"),    # already mirrored
        ("touch", 4, 0, 90, "gpu"),
        ("touch", 4, 0, 90, "cpu"),
    ]
    if xnack:
        calls += [
            ("touch", 0, 0, 300, "gpu"),  # minor over the CPU-touched pages
            ("touch", 0, 0, 300, "cpu"),
        ]
    apu, buffers = _apu(xnack, False, reference=False)
    ref, ref_buffers = _apu(xnack, False, reference=True)
    reports = []
    for call in calls:
        got = _step(apu, buffers, *call)
        assert got == _step(ref, ref_buffers, *call)
        reports.append(got)
        _assert_same_state(_state(apu, buffers), _state(ref, ref_buffers))
    assert reports[0]["cpu_fault_events"] == 40
    # 128-page windows: pages 0-199 touch two, pages 5-64 one.
    assert reports[2]["cpu_fault_events"] == 2
    assert reports[3]["cpu_fault_events"] == 1
    if xnack:
        assert reports[6]["gpu_minor_pages"] == 50
    else:  # no replay for the invalidated pages
        assert reports[6] is GPUMemoryAccessError
    assert check_invariants(apu, expect_quiescent=False) == []
