"""The GPU fragment scan and the buffer traits are computed on first read.

A GPU map owes the fragment scan of its region and ``VMA.fragment`` runs
it; ``APU.buffer_traits`` derives the fragment average and the channel
balance only when a bandwidth model reads them.  The values must be
those of the eager map-time scan (tests.oracles.EagerGPUTable), and the
work nobody reads must not be done.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.address_space as address_space
from repro import memo
from repro.bench.multichase import chase_curve
from repro.bench.stream import cpu_fault_count, tlb_misses
from repro.core.address_space import VMA
from repro.core.page_table import GPUPageTable, HMMMirror, SystemPageTable
from repro.hw.config import MiB, PAGE_SIZE
from repro.runtime.kernels import BufferAccess, KernelSpec

from tests.oracles import EagerGPUTable

#: The allocator rows of Figs. 2 and 9.
ALLOCATORS = ["malloc", "malloc+register", "hipMalloc", "hipHostMalloc",
              "hipMallocManaged(xnack=0)", "hipMallocManaged(xnack=1)"]

#: The configurations of Fig. 10.
FIG10_CONFIGS = ["malloc / baseline", "malloc / xnack", "malloc / gpu-init",
                 "hipMalloc / baseline", "hipMalloc / gpu-init",
                 "hipHostMalloc / baseline", "hipHostMalloc / gpu-init",
                 "managed / xnack"]


# ----------------------------------------------------------------------
# Differential: deferred scans against the eager oracle
# ----------------------------------------------------------------------


@st.composite
def layouts(draw):
    """A backed VMA (physical runs of random length and alignment) with
    a random subset of pages present in the system table."""
    runs = draw(st.lists(
        st.tuples(st.integers(0, 1 << 12), st.integers(1, 24)),
        min_size=1, max_size=8,
    ))
    frames = np.concatenate([np.arange(s, s + n) for s, n in runs])
    base_vpn = draw(st.integers(1 << 20, (1 << 20) + 64))
    vma = VMA(base_vpn * PAGE_SIZE, len(frames))
    vma.frames[:] = frames
    vma.sys_valid[:] = draw(st.lists(
        st.booleans(), min_size=len(frames), max_size=len(frames)))
    return vma


@st.composite
def operations(draw, npages):
    """Random page-table calls over ``[0, npages)``."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["map", "unmap", "propagate", "invalidate"]))
        first = draw(st.integers(0, npages - 1))
        count = draw(st.integers(1, npages - first))
        ops.append((kind, first, count, draw(st.booleans())))
    return ops


def _apply(kind, first, count, vma, hmm, oracle):
    """One call on the real tables and the same change on the oracle."""
    if kind == "map":
        hmm.gpu.map_range(vma, first, count)
        oracle.map(first, count)
    elif kind == "propagate":
        sl = slice(first, first + count)
        needed = vma.sys_valid[sl] & ~oracle.gpu_valid[sl]
        hmm.propagate_range(vma, first, count)
        edges = np.diff(needed, prepend=False, append=False)
        bounds = np.flatnonzero(edges)
        for lo, hi in zip(bounds[0::2], bounds[1::2]):
            oracle.map(first + int(lo), int(hi - lo))
    elif kind == "unmap":
        hmm.gpu.unmap_range(vma, first, count)
        oracle.unmap(first, count)
    else:
        hmm.invalidate_range(vma, first, count)
        oracle.unmap(first, count)


def _run(vma, ops, read_after):
    hmm = HMMMirror(SystemPageTable(), GPUPageTable())
    oracle = EagerGPUTable(vma)
    for kind, first, count, peek in ops:
        _apply(kind, first, count, vma, hmm, oracle)
        assert np.array_equal(vma.gpu_valid, oracle.gpu_valid)
        if read_after(peek):
            assert np.array_equal(vma.fragment, oracle.fragment)
    assert np.array_equal(vma.fragment, oracle.fragment)
    return hmm.gpu.stats


class TestDifferential:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_step_matches_eager_scan(self, data):
        vma = data.draw(layouts())
        _run(vma, data.draw(operations(vma.npages)), lambda peek: True)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_scans_owed_across_steps_match_eager_scan(self, data):
        """Reads at random steps only, so owed scans pile up across
        maps and meet partial unmaps."""
        vma = data.draw(layouts())
        _run(vma, data.draw(operations(vma.npages)), lambda peek: peek)

    def test_partial_unmap_runs_owed_scan_first(self):
        # One aligned 8-page run maps as one exponent-3 fragment.  The
        # eager scan ran at map time, so unmapping pages 3-4 leaves the
        # others at 3; a scan run after the unmap would see two short
        # regions and give pages 0-2 exponents 1, 1, 0.
        vma = VMA(64 * PAGE_SIZE, 8)
        vma.frames[:] = np.arange(128, 136)
        gpu = GPUPageTable()
        gpu.map_range(vma, 0, 8)
        gpu.unmap_range(vma, 3, 2)
        assert vma.fragment.tolist() == [3, 3, 3, 0, 0, 3, 3, 3]
        assert gpu.stats.fragment_scans == 1

    def test_whole_unmap_drops_owed_scans(self):
        vma = VMA(64 * PAGE_SIZE, 8)
        vma.frames[:] = np.arange(128, 136)
        gpu = GPUPageTable()
        gpu.map_range(vma, 0, 8)
        gpu.unmap_range(vma, 0, 8)
        assert (vma.fragment == 0).all()
        assert gpu.stats.fragment_scans == 0

    def test_adjacent_maps_scan_their_region_once(self):
        vma = VMA(64 * PAGE_SIZE, 16)
        vma.frames[:] = np.arange(128, 144)
        gpu = GPUPageTable()
        for first in (8, 0, 4, 12):
            gpu.map_range(vma, first, 4)
        assert gpu.stats.fragment_scans == 0
        assert (vma.fragment == 4).all()
        assert gpu.stats.fragment_scans == 1
        vma.fragment  # nothing owed: no further scan
        assert gpu.stats.fragment_scans == 1


# ----------------------------------------------------------------------
# The saved work
# ----------------------------------------------------------------------


@pytest.fixture
def scans(monkeypatch):
    """Pages of every fragment scan run while the test runs."""
    pages = []
    scan = address_space.compute_fragments

    def counting(frames, base_vpn, *args):
        pages.append(len(frames))
        return scan(frames, base_vpn, *args)

    monkeypatch.setattr(address_space, "compute_fragments", counting)
    return pages


@pytest.fixture
def runtimes(monkeypatch):
    """Every runtime the Fig. 2 and STREAM runners build."""
    import repro.bench.multichase as multichase
    import repro.bench.stream as stream

    built = []

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    make = multichase.make_runtime
    monkeypatch.setattr(multichase, "make_runtime", recording)
    monkeypatch.setattr(stream, "make_runtime", recording)
    return built


class TestSavedWork:
    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_fig2_setup_runs_no_scan(self, allocator, runtimes):
        with memo.scope():
            for device in ("cpu", "gpu"):
                chase_curve(allocator, device, [4096, MiB], memory_gib=1)
        (runtime,) = runtimes
        assert runtime.apu.gpu_pt.stats.fragment_scans == 0

    @pytest.mark.parametrize("allocator", ALLOCATORS[:5])
    def test_fig9_triad_scans_each_array_once(self, allocator, runtimes):
        tlb_misses(allocator, 2 * MiB, memory_gib=1)
        (runtime,) = runtimes
        assert runtime.apu.gpu_pt.stats.fragment_scans == 3

    def test_cpu_kernel_never_reads_fragments(self, hip):
        buf = hip.hipMalloc(MiB)
        hip.runCpuKernel(KernelSpec("triad", [BufferAccess(buf, "read")]), 8)
        assert buf.vma.owed_scans
        assert hip.apu.gpu_pt.stats.fragment_scans == 0

    def test_gpu_stream_builds_no_channel_histogram(self, hip, monkeypatch):
        def histogram(frames):
            raise AssertionError("GPU stream read the channel balance")

        monkeypatch.setattr(hip.apu.hbm_map, "channel_histogram", histogram)
        buf = hip.hipMalloc(MiB)
        hip.launchKernel(KernelSpec("triad", [BufferAccess(buf, "read")]))
        hip.hipDeviceSynchronize()
        assert hip.apu.gpu_pt.stats.fragment_scans == 1

    def test_traits_computed_on_first_read_only(self, hip):
        buf = hip.hipMalloc(MiB)
        traits = hip.apu.buffer_traits(buf)
        assert hip.apu.gpu_pt.stats.fragment_scans == 0
        first = traits.average_fragment_bytes
        assert first >= 32 * 1024
        assert traits.average_fragment_bytes == first
        assert hip.apu.gpu_pt.stats.fragment_scans == 1

    def test_memory_sweep_runs_only_fig9_scans(self, scans):
        """The perfbench ``memory`` sweep's points: Fig. 2 on six
        allocators and two devices, Fig. 9 on five, Fig. 10 on eight
        configurations, all on 16 GiB nodes.  Only Fig. 9's fifteen
        arrays are scanned (34 scans when every map scanned)."""
        with memo.scope():
            for allocator in ALLOCATORS:
                for device in ("cpu", "gpu"):
                    chase_curve(allocator, device, [4096, 256 * MiB], 16)
            assert scans == []
            for allocator in ALLOCATORS[:5]:
                tlb_misses(allocator, 32 * MiB, memory_gib=16)
            for config in FIG10_CONFIGS:
                cpu_fault_count(config, 32 * MiB, memory_gib=16)
        assert scans == [32 * MiB // PAGE_SIZE] * 15
