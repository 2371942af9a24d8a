"""Named injection campaigns for the chaos harness.

A :class:`Campaign` is a reusable recipe: a factory producing a fresh
injector list (injectors carry mutable fire budgets, so plans must not
share them) plus the contract the harness asserts afterwards.  For a
*recoverable* campaign the runtime's hardening must absorb every fault
— the app completes with the correct output and nothing leaks.  For a
*non-recoverable* campaign the run is expected to fail, but it must
fail **cleanly**: a typed error, and still no leaked frames once the
harness teardown runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .plan import (
    Always,
    CallWindow,
    Injector,
    InjectionPlan,
    NthCall,
    Probability,
)


@dataclass(frozen=True)
class Campaign:
    """A named, reusable fault-injection recipe."""

    name: str
    description: str
    recoverable: bool
    build: Callable[[], List[Injector]]

    def plan(self, seed: int) -> InjectionPlan:
        """A fresh single-use plan for one run under this campaign."""
        return InjectionPlan(self.build(), seed=seed, name=self.name)


def _standard() -> List[Injector]:
    # A mix of every recoverable fault class: transient allocation
    # failures early in the allocation stream, one fragmentation-pressure
    # hit, a background rate of correctable ECC errors, one slow and one
    # failed SDMA transfer, a few dropped XNACK replays, and one retry
    # storm.
    return [
        Injector("physical.alloc", "transient", CallWindow(2, 4), times=2),
        Injector(
            "physical.alloc", "pressure", NthCall(6),
            params={"fraction": 0.3},
        ),
        Injector(
            "hbm.ecc", "correctable", Probability(0.05), times=3,
            params={"count": 2},
        ),
        Injector("sdma.transfer", "stall", NthCall(1), params={"factor": 6.0}),
        Injector("sdma.transfer", "failure", NthCall(3)),
        Injector("xnack.retry", "drop", CallWindow(1, 4), times=3),
        Injector("xnack.storm", "storm", NthCall(1), params={"factor": 4.0}),
    ]


def _oom_pressure() -> List[Injector]:
    # Memory-pressure focus: the free list fragments before the first
    # allocation (forcing a genuine defragment-then-retry for chunked
    # allocators) and transient failures pile onto the next calls.  The
    # burst stays within the bounded retry budgets — a recoverable
    # campaign must be survivable by design.
    return [
        Injector(
            "physical.alloc", "pressure", NthCall(1),
            params={"fraction": 0.6},
        ),
        Injector("physical.alloc", "transient", CallWindow(2, 5), times=3),
    ]


def _ecc_fatal() -> List[Injector]:
    # One uncorrectable HBM frame error during the second GPU kernel
    # access: the launch must abort with hipErrorECCNotCorrectable.
    return [Injector("hbm.ecc", "uncorrectable", NthCall(2))]


def _xnack_exhaustion() -> List[Injector]:
    # Drop every XNACK replay: the bounded retry loop must escalate to
    # the fatal path instead of spinning forever.  Only bites variants
    # that actually take GPU faults (XNACK-dependent unified ports).
    return [Injector("xnack.retry", "drop", Always(), times=1000)]


def _sdma_abort() -> List[Injector]:
    # A non-retryable engine hang on the first SDMA transfer: surfaces
    # as hipErrorUnknown (explicit, memcpy-using variants only).
    return [Injector("sdma.transfer", "abort", NthCall(1))]


#: Registry of named campaigns (``repro chaos --campaign <name>``).
CAMPAIGNS: Dict[str, Campaign] = {
    campaign.name: campaign
    for campaign in (
        Campaign(
            "standard",
            "every recoverable fault class at low intensity",
            recoverable=True,
            build=_standard,
        ),
        Campaign(
            "oom-pressure",
            "fragmentation pressure plus transient allocation failures",
            recoverable=True,
            build=_oom_pressure,
        ),
        Campaign(
            "ecc-fatal",
            "an uncorrectable HBM error mid-kernel (expected clean failure)",
            recoverable=False,
            build=_ecc_fatal,
        ),
        Campaign(
            "xnack-exhaustion",
            "all XNACK replays dropped until the retry limit trips",
            recoverable=False,
            build=_xnack_exhaustion,
        ),
        Campaign(
            "sdma-abort",
            "a non-retryable SDMA engine hang on the first copy",
            recoverable=False,
            build=_sdma_abort,
        ),
    )
}


def get_campaign(name: str) -> Campaign:
    """Look up a campaign by name (helpful error on a miss)."""
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r}; known: {known}") from None
