"""Three-way memory-model comparison: explicit vs UVM vs UPM.

Runs the same alternating CPU/GPU pipeline — the access pattern that
punishes software unified memory hardest — under the three models the
paper situates itself between:

* **explicit / discrete** — host+device buffers, a hipMemcpy each way
  per iteration (the traditional high-performance baseline);
* **UVM / discrete** — managed memory; each hand-over faults and
  migrates the working set over the link (the 2-3x degradation the
  paper cites from [14]);
* **UPM / MI300A** — one unified buffer on the simulated APU; the
  hand-over is free.

The result quantifies the paper's thesis: hardware unification turns
the unified *programming model* from a performance sacrifice into the
natural default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime.hip import make_runtime
from ..runtime.kernels import BufferAccess, KernelSpec
from .config import UVMConfig
from .system import UVMSystem


@dataclass(frozen=True)
class ModelResult:
    """Wall time and movement volume of one memory model."""

    model: str
    time_ms: float
    moved_bytes: int

    def relative_to(self, baseline: "ModelResult") -> float:
        """Slowdown versus *baseline* (>1 = slower)."""
        return self.time_ms / baseline.time_ms


def run_explicit_discrete(
    working_set_bytes: int, iterations: int,
    config: Optional[UVMConfig] = None,
) -> ModelResult:
    """Explicit model on the discrete GPU: copy over, compute, copy back."""
    system = UVMSystem(config)
    system.device_malloc(working_set_bytes, "d_data")
    start = system.clock.now_ns
    moved = 0
    for _ in range(iterations):
        # CPU updates the host copy...
        system.clock.advance(
            working_set_bytes / system.config.host_bandwidth_bytes_per_s * 1e9
        )
        # ...ships it to the device, computes, ships results back.
        system.memcpy(working_set_bytes)
        system.clock.advance(
            working_set_bytes / system.config.device_bandwidth_bytes_per_s * 1e9
            + system.config.kernel_launch_ns
        )
        system.memcpy(working_set_bytes)
        moved += 2 * working_set_bytes
    return ModelResult(
        "explicit/discrete", (system.clock.now_ns - start) / 1e6, moved
    )


def run_uvm(
    working_set_bytes: int, iterations: int,
    config: Optional[UVMConfig] = None,
    use_prefetch: bool = False,
) -> ModelResult:
    """Unified model on the discrete GPU: fault-driven migration."""
    system = UVMSystem(config)
    buffer = system.malloc_managed(working_set_bytes, "managed")
    start = system.clock.now_ns
    for _ in range(iterations):
        system.run_cpu_kernel({buffer: working_set_bytes})
        if use_prefetch:
            system.prefetch(buffer, "device")
            system.run_gpu_kernel({buffer: working_set_bytes}, prefetched=True)
        else:
            system.run_gpu_kernel({buffer: working_set_bytes})
    moved = system.counters.total_migrated_bytes
    label = "uvm+prefetch/discrete" if use_prefetch else "uvm/discrete"
    return ModelResult(label, (system.clock.now_ns - start) / 1e6, moved)


def run_upm(
    working_set_bytes: int, iterations: int, memory_gib: Optional[int] = None,
) -> ModelResult:
    """Unified model on the simulated MI300A: no movement at all."""
    if memory_gib is None:
        memory_gib = max(2, (working_set_bytes >> 30) * 2 + 1)
    runtime = make_runtime(memory_gib, xnack=True)
    apu = runtime.apu
    buffer = runtime.hipMalloc(working_set_bytes, "unified")
    start = apu.clock.now_ns
    for _ in range(iterations):
        runtime.runCpuKernel(
            KernelSpec("update", [BufferAccess(buffer, "readwrite")]),
            threads=apu.cpu.cores,
        )
        runtime.launchKernel(
            KernelSpec("compute", [BufferAccess(buffer, "read")])
        )
        runtime.hipDeviceSynchronize()
    return ModelResult("upm/MI300A", (apu.clock.now_ns - start) / 1e6, 0)


def three_way_comparison(
    working_set_bytes: int = 1 << 30, iterations: int = 10,
) -> dict[str, ModelResult]:
    """All three models on the alternating CPU/GPU pipeline."""
    explicit = run_explicit_discrete(working_set_bytes, iterations)
    uvm = run_uvm(working_set_bytes, iterations)
    uvm_pf = run_uvm(working_set_bytes, iterations, use_prefetch=True)
    upm = run_upm(working_set_bytes, iterations)
    return {
        r.model: r for r in (explicit, uvm, uvm_pf, upm)
    }
