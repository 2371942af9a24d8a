#!/usr/bin/env python3
"""Porting advisor: DrGPUM-style trace analysis for UPM ports.

Runs a small explicit-model pipeline on a traced simulator, then lets
hipsan read the runtime's event log.  Besides races and lifetime bugs,
its info-level porting rules find what the paper's porting strategies
would fix: duplicated host/device buffer pairs, copy-dominated GPU
time and dead allocations.

Run:  python examples/porting_advisor.py
"""

from repro import BufferAccess, KernelSpec, make_runtime
from repro.analyze import analyze_runtime, render_text


def main() -> None:
    hip = make_runtime(memory_gib=8, xnack=True, trace=True)
    apu = hip.apu

    # --- an explicit-model mini-app; the runtime logs every call ------
    size = 128 << 20
    h_in = apu.memory.malloc(size, name="h_input")
    d_in = apu.memory.hip_malloc(size, name="d_input")
    d_out = apu.memory.hip_malloc(size, name="d_output")
    h_out = apu.memory.malloc(size, name="h_output")
    scratch = apu.memory.hip_malloc(16 << 20, name="d_scratch")  # oops

    apu.touch(h_in, "cpu")
    for step in range(4):
        hip.hipMemcpy(d_in, h_in, size)
        hip.launchKernel(KernelSpec(
            f"transform_{step}",
            [BufferAccess(d_in, "read"), BufferAccess(d_out, "write")],
        ))
        hip.hipDeviceSynchronize()
        hip.hipMemcpy(h_out, d_out, size)

    # --- the advisor's verdict ----------------------------------------
    findings = analyze_runtime(hip)
    print(render_text(findings))
    print()
    pairs = [f for f in findings if f.rule == "hipsan.duplicated-pair"]
    copy_ms = sum(f.cost_ns for f in pairs) / 1e6
    print(f"Unifying the {len(pairs)} pairs would save "
          f"{len(pairs) * size >> 20} MiB of the "
          f"{apu.memory.live_bytes() >> 20} MiB footprint and eliminate "
          f"{copy_ms:.1f} ms of transfers — "
          "exactly the Listing 1 -> Listing 2 transformation.")

    apu.memory.free(h_in)
    apu.memory.free(d_in)
    apu.memory.free(d_out)
    apu.memory.free(h_out)
    apu.memory.free(scratch)


if __name__ == "__main__":
    main()
