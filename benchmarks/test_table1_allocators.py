"""Table 1 — memory allocators on MI300A.

Regenerates the allocator capability matrix (GPU access, CPU access,
physical allocation timing) by *probing the live allocators*, not just
printing the static table: each cell is verified against simulator
behaviour in both XNACK modes.
"""

import pytest

from conftest import experiment_rows, print_table
from repro.core.faults import GPUMemoryAccessError
from repro.hw.config import MiB
from repro.runtime.apu import make_apu


def probe_matrix():
    """Derive Table 1 empirically from the simulator."""
    rows = []
    for xnack in (False, True):
        apu = make_apu(2, xnack=xnack)

        def probe(allocation, label):
            gpu_ok = True
            try:
                apu.faults.touch_range(allocation.vma, 0, 1, "gpu")
            except GPUMemoryAccessError:
                gpu_ok = False
            physical = (
                "on-demand" if allocation.vma.resident_bytes() == 0 or
                allocation.on_demand else "up-front"
            )
            rows.append((label, xnack, gpu_ok, True, physical))

        probe(apu.memory.malloc(1 * MiB), "malloc")
        registered = apu.memory.host_register(apu.memory.malloc(1 * MiB))
        probe(registered, "malloc + hipHostRegister")
        probe(apu.memory.hip_malloc(1 * MiB), "hipMalloc")
        probe(apu.memory.hip_host_malloc(1 * MiB), "hipHostMalloc")
        probe(apu.memory.hip_malloc_managed(1 * MiB), "hipMallocManaged")
    return rows


def test_table1_capability_matrix(benchmark):
    rows = benchmark.pedantic(probe_matrix, rounds=1, iterations=1)
    print_table(
        "Table 1: memory allocators on MI300A (probed)",
        ["allocator", "xnack", "gpu_access", "cpu_access", "physical"],
        rows,
    )
    by_key = {(r[0], r[1]): r for r in rows}

    # malloc: GPU access only with XNACK; always on-demand.
    assert not by_key[("malloc", False)][2]
    assert by_key[("malloc", True)][2]
    assert by_key[("malloc", False)][4] == "on-demand"

    # The up-front allocators are GPU-accessible in both modes.
    for name in ("malloc + hipHostRegister", "hipMalloc", "hipHostMalloc"):
        for xnack in (False, True):
            assert by_key[(name, xnack)][2]
            assert by_key[(name, xnack)][4] == "up-front"

    # hipMallocManaged flips with XNACK.
    assert by_key[("hipMallocManaged", False)][4] == "up-front"
    assert by_key[("hipMallocManaged", True)][4] == "on-demand"


def test_table1_static_matches_probed():
    """The registered ``table1`` experiment agrees with the probed behaviour."""
    probed = {(r[0], r[1]): r for r in probe_matrix()}
    for row in experiment_rows("table1"):
        key = (row["allocator"], row["xnack"])
        assert probed[key][2] == row["gpu_access"], key
        assert probed[key][4] == row["physical"], key
