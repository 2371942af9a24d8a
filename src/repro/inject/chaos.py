"""The chaos harness: run applications under named injection campaigns.

For every variant of every selected app the harness runs a clean
baseline, then the same workload with a fresh seeded
:class:`~repro.inject.InjectionPlan` attached, and then asserts the
campaign's contract:

* the simulator's invariants hold afterwards — no leaked physical
  frames, free bitmap consistent, page tables in agreement with the
  HMM mirror (:func:`~repro.inject.invariants.check_invariants`);
* a *recoverable* campaign must complete with output identical to the
  baseline (the hardened runtime absorbed every fault);
* a *non-recoverable* campaign may fail, but only with a **typed**
  error (``HipError`` with an ``hipError_t`` code, or the fault
  handler's ``GPUMemoryAccessError``) — and must still not leak.

Everything in the emitted report derives from simulated time and seeded
randomness, so the same ``--seed`` always produces a byte-identical
report (the CI replay check).
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Optional, Sequence

from ..core.faults import GPUMemoryAccessError
from ..runtime.hip import HipError
from .campaigns import Campaign, get_campaign
from .invariants import check_invariants

#: Pool size for chaos runs: small enough that pressure faults bite.
CHAOS_MEMORY_GIB = 8

#: The ``--quick`` subset (one latency-bound, one iteration-heavy app).
QUICK_APPS = ("nn", "hotspot")

#: Report schema version (bump on layout changes).
SCHEMA_VERSION = 1


def derive_seed(seed: int, campaign: str, app: str, variant: str) -> int:
    """Per-run plan seed: stable, distinct per (campaign, app, variant)."""
    tag = f"{campaign}:{app}:{variant}".encode()
    return (int(seed) * 1_000_003 + zlib.crc32(tag)) & 0x7FFFFFFF


def _small_params(app_name: str) -> Optional[Dict[str, int]]:
    from ..analyze import SMALL_PARAMS

    return SMALL_PARAMS.get(app_name)


def _classify_error(exc: BaseException) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "typed": isinstance(exc, (HipError, GPUMemoryAccessError)),
    }
    if isinstance(exc, HipError):
        record["code"] = exc.code
    return record


def run_one(
    campaign: Campaign,
    app_name: str,
    variant: str,
    seed: int,
    memory_gib: int = CHAOS_MEMORY_GIB,
) -> Dict[str, Any]:
    """One (app, variant) chaos run: baseline, injected run, verdict."""
    from ..apps import ALL_APPS

    app = ALL_APPS[app_name]()
    params = _small_params(app_name)
    baseline = app.run(
        variant, memory_gib=memory_gib, params=params
    )

    plan_seed = derive_seed(seed, campaign.name, app_name, variant)
    plan = campaign.plan(plan_seed)
    error: Optional[Dict[str, Any]] = None
    result = None
    try:
        result = app.run(
            variant, memory_gib=memory_gib, params=params, inject=plan
        )
    except (HipError, GPUMemoryAccessError, MemoryError, RuntimeError) as exc:
        error = _classify_error(exc)
    plan.teardown()

    problems = check_invariants(app.last_apu)
    checksum_matches = (
        result is not None and result.checksum == baseline.checksum
    )
    if error is None:
        ok = checksum_matches and not problems
    else:
        ok = (
            not campaign.recoverable
            and bool(error["typed"])
            and not problems
        )

    record: Dict[str, Any] = {
        "app": app_name,
        "variant": variant,
        "plan_seed": plan_seed,
        "ok": ok,
        "error": error,
        "checksum_matches": checksum_matches,
        "invariant_problems": problems,
        "injected_faults": plan.fired(),
        "recovery_notes": len(plan.notes()),
        "degradations": [
            note["event"] for note in plan.notes()
            if note["event"].startswith("degrade.")
        ],
        "baseline_total_time_s": baseline.total_time_s,
        "injected_total_time_s": (
            result.total_time_s if result is not None else None
        ),
        "free_frames_after": app.last_apu.physical.free_frames,
        "total_frames": app.last_apu.physical.total_frames,
        "journal": plan.journal_payload(),
    }
    return record


def run_campaign(
    campaign_name: str,
    seed: int = 7,
    apps: Optional[Sequence[str]] = None,
    quick: bool = False,
    memory_gib: int = CHAOS_MEMORY_GIB,
) -> Dict[str, Any]:
    """Run a named campaign across apps; returns the JSON-ready report."""
    from ..apps import ALL_APPS

    campaign = get_campaign(campaign_name)
    if apps is None:
        apps = list(QUICK_APPS) if quick else sorted(ALL_APPS)
    unknown = set(apps) - set(ALL_APPS)
    if unknown:
        raise ValueError(
            f"unknown app(s) {sorted(unknown)}; choose from {sorted(ALL_APPS)}"
        )

    runs: List[Dict[str, Any]] = []
    for app_name in apps:
        app = ALL_APPS[app_name]()
        for variant in app.variants:
            runs.append(
                run_one(
                    campaign, app_name, variant, seed,
                    memory_gib=memory_gib,
                )
            )

    return {
        "schema": SCHEMA_VERSION,
        "campaign": campaign.name,
        "description": campaign.description,
        "recoverable": campaign.recoverable,
        "seed": int(seed),
        "quick": bool(quick),
        "memory_gib": int(memory_gib),
        "apps": list(apps),
        "runs": runs,
        "ok": all(run["ok"] for run in runs),
    }


def report_bytes(report: Dict[str, Any]) -> bytes:
    """Canonical serialisation — byte-identical for identical reports."""
    return (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
