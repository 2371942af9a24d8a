"""Seeded, deterministic fault injection over the simulated APU.

A :class:`InjectionPlan` is a list of :class:`Injector` descriptors —
each naming a *site* (an instrumented hook point inside the simulator),
a fault *kind* the site understands, a :class:`Trigger` predicate, and a
fire budget.  The subsystems consult their attached plan at every hook
point (``plan.fire(site, **context)``); when an injector matches, the
site receives a fault descriptor and reacts the way the corresponding
hardware/driver failure would:

========================  ==============================================
Site                      Kinds
========================  ==============================================
``physical.alloc``        ``transient`` (allocation fails, retryable),
                          ``pressure`` (fragment the free list)
``hbm.ecc``               ``correctable`` (scrub latency),
                          ``uncorrectable`` (poisoned access, fatal)
``sdma.transfer``         ``stall`` (engine runs slow), ``failure``
                          (retryable on the blit path), ``abort`` (fatal)
``xnack.retry``           ``drop`` (one replay is lost and re-retried)
``xnack.storm``           ``storm`` (fault replays multiply)
========================  ==============================================

Determinism: probability triggers draw from the plan's own seeded PRNG
and every journal record is stamped with *simulated* time only, so the
same (plan, seed, workload) triple always produces a byte-identical
journal — the property the chaos harness's replay check enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def _jsonable(value: Any) -> Any:
    """Coerce context values (numpy scalars included) to JSON types."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


# ----------------------------------------------------------------------
# Trigger predicates
# ----------------------------------------------------------------------


class Trigger:
    """When an injector fires: a pure predicate over the call stream."""

    def decide(
        self, call_index: int, rng: random.Random, context: Dict[str, Any]
    ) -> bool:
        """Whether to fire on this call (1-based *call_index* per site)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Stable journal label for this trigger."""
        raise NotImplementedError


@dataclass(frozen=True)
class Always(Trigger):
    """Fire on every call (bounded only by the injector's fire budget)."""

    def decide(self, call_index, rng, context) -> bool:
        return True

    def describe(self) -> str:
        return "always"


@dataclass(frozen=True)
class NthCall(Trigger):
    """Fire exactly on the *n*-th call to the site (1-based)."""

    n: int

    def decide(self, call_index, rng, context) -> bool:
        return call_index == self.n

    def describe(self) -> str:
        return f"nth-call({self.n})"


@dataclass(frozen=True)
class CallWindow(Trigger):
    """Fire on every call with index in the half-open window ``[lo, hi)``."""

    lo: int
    hi: int

    def decide(self, call_index, rng, context) -> bool:
        return self.lo <= call_index < self.hi

    def describe(self) -> str:
        return f"call-window[{self.lo},{self.hi})"


@dataclass(frozen=True)
class Probability(Trigger):
    """Fire with probability *p* per call, drawn from the plan's PRNG."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.p}")

    def decide(self, call_index, rng, context) -> bool:
        return rng.random() < self.p

    def describe(self) -> str:
        return f"probability({self.p})"


# ----------------------------------------------------------------------
# Injectors and the plan
# ----------------------------------------------------------------------


@dataclass
class Injector:
    """One composable fault source: site + kind + trigger + budget."""

    site: str
    kind: str
    trigger: Trigger = field(default_factory=Always)
    times: int = 1
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.times <= 0:
            raise ValueError(f"times must be positive, got {self.times}")


@dataclass(frozen=True)
class Injection:
    """A fired fault, handed to the hook site that asked."""

    seq: int
    site: str
    kind: str
    params: Dict[str, Any]


class InjectionPlan:
    """A seeded set of injectors plus the journal of what fired.

    The plan is single-use: attach it to one APU (``make_apu(...,
    inject=plan)`` does this), run the workload, then read
    :attr:`journal` / :meth:`journal_payload`.  ``teardown()`` releases
    any outstanding injected state (fragmentation-pressure frames) so
    leak invariants can be checked afterwards.
    """

    def __init__(
        self,
        injectors: Sequence[Injector] = (),
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.injectors: List[Injector] = list(injectors)
        self.seed = int(seed)
        self.name = name
        self.apu = None  # set by attach()
        self.journal: List[Dict[str, Any]] = []
        self._rng = random.Random(self.seed)
        self._calls: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}  # id(injector) -> times fired

    # -- wiring ---------------------------------------------------------

    def attach(self, apu) -> None:
        """Bind this plan to one APU: hook every instrumented subsystem."""
        if self.apu is not None and self.apu is not apu:
            raise RuntimeError(
                "InjectionPlan is single-use: already attached to an APU"
            )
        self.apu = apu
        apu.physical.inject = self
        apu.faults.inject = self
        apu.hbm_map.inject = self

    # -- firing ---------------------------------------------------------

    def fire(self, site: str, **context: Any) -> Optional[Injection]:
        """Consult the plan at a hook point; at most one injector fires.

        Returns the fired :class:`Injection` (recorded in the journal)
        or None.  Injectors are evaluated in plan order, so composing a
        one-shot ``NthCall`` ahead of a ``Probability`` background rate
        behaves predictably.
        """
        index = self._calls.get(site, 0) + 1
        self._calls[site] = index
        for injector in self.injectors:
            if injector.site != site:
                continue
            fired = self._fires.get(id(injector), 0)
            if fired >= injector.times:
                continue
            if not injector.trigger.decide(index, self._rng, context):
                continue
            self._fires[id(injector)] = fired + 1
            injection = Injection(
                seq=len(self.journal), site=site, kind=injector.kind,
                params=dict(injector.params),
            )
            self._record(
                "inject", f"{site}:{injector.kind}",
                call=index,
                trigger=injector.trigger.describe(),
                params={k: _jsonable(v) for k, v in injector.params.items()},
                context={k: _jsonable(v) for k, v in sorted(context.items())},
            )
            return injection
        return None

    def note(self, event: str, **data: Any) -> None:
        """Journal a recovery/degradation event observed at a site."""
        self._record("note", event, **{
            k: _jsonable(v) for k, v in data.items()
        })

    def _record(self, record_type: str, event: str, **data: Any) -> None:
        entry: Dict[str, Any] = {
            "seq": len(self.journal),
            "type": record_type,
            "event": event,
            "t_ns": self.apu.clock.now_ns if self.apu is not None else None,
        }
        entry.update(data)
        self.journal.append(entry)

    # -- inspection / lifecycle -----------------------------------------

    def calls(self, site: str) -> int:
        """How many times *site* consulted the plan."""
        return self._calls.get(site, 0)

    def fired(self, site: Optional[str] = None) -> int:
        """Number of injected faults (optionally for one site)."""
        return sum(
            1 for entry in self.journal
            if entry["type"] == "inject"
            and (site is None or entry["event"].startswith(site + ":"))
        )

    def notes(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        """Journaled recovery/degradation notes (optionally one event)."""
        return [
            entry for entry in self.journal
            if entry["type"] == "note"
            and (event is None or entry["event"] == event)
        ]

    def journal_payload(self) -> List[Dict[str, Any]]:
        """The journal as a JSON-ready list (already JSON-typed)."""
        return [dict(entry) for entry in self.journal]

    def teardown(self) -> int:
        """Release injected state still held; returns reclaimed frames.

        Today that is fragmentation-pressure frames; recoverable faults
        clean up after themselves at their sites.
        """
        if self.apu is None:
            return 0
        reclaimed = self.apu.physical.release_pressure()
        if reclaimed:
            self.note("teardown.release-pressure", reclaimed_frames=reclaimed)
        return reclaimed

    def __repr__(self) -> str:
        return (
            f"InjectionPlan({self.name or 'anonymous'}, seed={self.seed}, "
            f"{len(self.injectors)} injector(s), {self.fired()} fired)"
        )
