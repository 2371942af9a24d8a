"""Simulated time base for the APU model.

All runtime components advance a shared :class:`SimClock`.  Time is kept in
nanoseconds as a float.  The clock also supports *regions* — named spans
the applications use to attribute elapsed simulated time to phases (e.g.
"compute" vs "total"), mirroring the paper's use of inserted timers around
the main compute phase.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator


class SimClock:
    """A monotonically advancing simulated clock with named regions."""

    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._regions: Dict[str, float] = {}

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds since clock creation."""
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_ns / 1e9

    def advance(self, delta_ns: float) -> float:
        """Advance simulated time by *delta_ns* (must be >= 0).

        Returns the new time.  A negative delta indicates a model bug and
        raises ``ValueError`` rather than silently rewinding time.
        """
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ns} ns")
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, when_ns: float) -> float:
        """Advance to absolute time *when_ns* if it is in the future."""
        if when_ns > self._now_ns:
            self._now_ns = when_ns
        return self._now_ns

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Attribute simulated time spent in this block to region *name*.

        Regions may nest; nested time is attributed to every enclosing
        region (like wall-clock timers placed around nested phases).
        """
        start = self._now_ns
        try:
            yield
        finally:
            elapsed = self._now_ns - start
            self._regions[name] = self._regions.get(name, 0.0) + elapsed

    def region_ns(self, name: str) -> float:
        """Total simulated nanoseconds attributed to region *name*."""
        return self._regions.get(name, 0.0)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now_ns:.1f} ns)"
