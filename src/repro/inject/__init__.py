"""repro.inject — deterministic fault injection and the chaos harness.

:class:`InjectionPlan` composes seeded :class:`Injector` descriptors
over the simulator's instrumented fault sites;
:mod:`~repro.inject.campaigns` names reusable recipes;
:mod:`~repro.inject.chaos` runs applications under them and checks the
post-run invariants of :mod:`~repro.inject.invariants`.
"""

from .campaigns import CAMPAIGNS, Campaign, get_campaign
from .chaos import (
    CHAOS_MEMORY_GIB,
    QUICK_APPS,
    derive_seed,
    report_bytes,
    run_campaign,
    run_one,
)
from .invariants import check_invariants, vma_problems
from .plan import (
    Always,
    CallWindow,
    Injection,
    InjectionPlan,
    Injector,
    NthCall,
    Probability,
    Trigger,
)

__all__ = [
    "Always",
    "CAMPAIGNS",
    "CHAOS_MEMORY_GIB",
    "CallWindow",
    "Campaign",
    "Injection",
    "InjectionPlan",
    "Injector",
    "NthCall",
    "Probability",
    "QUICK_APPS",
    "Trigger",
    "check_invariants",
    "derive_seed",
    "get_campaign",
    "report_bytes",
    "run_campaign",
    "run_one",
    "vma_problems",
]
