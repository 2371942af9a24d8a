"""Memory-usage profiling (paper Sections 3.2 and 6).

The paper profiles peak memory usage by sampling the libnuma free-memory
counter, the only interface that sees all allocation types on MI300A.
:class:`MemoryUsageProfiler` does the same against the simulated pool.
"""

from __future__ import annotations

from ..runtime.apu import APU


class MemoryUsageProfiler:
    """Peak physical memory tracker, libnuma-style (the paper's method).

    Call :meth:`sample` at interesting points (the app ports call it after
    every allocation, fault burst and kernel); :attr:`peak_bytes` is the
    high-water mark relative to the usage when the profiler was created.
    """

    def __init__(self, apu: APU) -> None:
        self._physical = apu.physical
        self._baseline = apu.physical.used_bytes
        self.peak_bytes = 0

    def sample(self) -> int:
        """Record the current usage; returns usage relative to baseline."""
        current = self._physical.used_bytes - self._baseline
        if current > self.peak_bytes:
            self.peak_bytes = current
        return current
