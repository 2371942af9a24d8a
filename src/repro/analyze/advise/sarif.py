"""SARIF 2.1.0 writer and structural validator.

One writer serves both static tools (``repro advise`` and
``repro lint --format sarif``) so CI uploads a single code-scanning
artifact format.  The rule table comes straight from the registry in
:mod:`repro.analyze.findings` — the rules the report's findings use,
with their paper anchors in ``properties.paper`` — and each result
carries the baseline fingerprint as a ``partialFingerprints`` entry so
code-scanning UIs and the CI gate agree on finding identity.

``validate_sarif`` is a self-contained structural check of the
invariants the 2.1.0 schema mandates (no network, no jsonschema
dependency); CI runs it via ``repro verify-sarif``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from ..findings import Finding, all_rules
from .baseline import _relative, fingerprint

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: ``level`` strings the 2.1.0 schema allows on a result.
_LEVELS = {"none", "note", "warning", "error"}


def to_sarif(
    findings: Iterable[Finding], *, tool: str = "repro-advise"
) -> Dict[str, object]:
    """Build the SARIF log object for one run."""
    findings = list(findings)
    used = {f.rule for f in findings}
    rules = [r for r in all_rules() if r.code in used]
    rule_index = {r.code: i for i, r in enumerate(rules)}

    results: List[Dict[str, object]] = []
    for f in findings:
        properties: Dict[str, object] = {}
        if f.rule in rule_index:
            properties["paper"] = rules[rule_index[f.rule]].paper
        if f.cost_ns is not None:
            properties["cost_ns"] = f.cost_ns
        if f.function:
            properties["function"] = f.function
        if f.hint:
            properties["hint"] = f.hint
        result: Dict[str, object] = {
            "ruleId": f.rule,
            "level": f.severity.sarif_level,
            "message": {"text": f.message},
            "partialFingerprints": {"reproAdvise/v1": fingerprint(f)},
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        if f.file:
            region: Dict[str, object] = {}
            if f.line:
                region["startLine"] = int(f.line)
            location: Dict[str, object] = {
                "physicalLocation": {
                    "artifactLocation": {"uri": _relative(f.file)},
                }
            }
            if region:
                location["physicalLocation"]["region"] = region
            result["locations"] = [location]
        if properties:
            result["properties"] = properties
        results.append(result)

    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "informationUri":
                            "https://github.com/ROCm/HIP",
                        "rules": [
                            {
                                "id": r.code,
                                "shortDescription": {"text": r.doc},
                                "defaultConfiguration": {
                                    "level": r.severity.sarif_level
                                },
                                "properties": {"paper": r.paper},
                            }
                            for r in rules
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Iterable[Finding], *, tool: str = "repro-advise"
) -> str:
    """The SARIF log as a JSON string."""
    return json.dumps(to_sarif(findings, tool=tool), indent=2)


def validate_sarif(doc: object) -> List[str]:
    """Structural 2.1.0 validation; returns problems (empty = valid)."""
    problems: List[str] = []

    def check(cond: bool, message: str) -> bool:
        if not cond:
            problems.append(message)
        return cond

    if not check(isinstance(doc, dict), "log must be a JSON object"):
        return problems
    check(doc.get("version") == SARIF_VERSION,
          f"version must be {SARIF_VERSION!r}")
    check(isinstance(doc.get("$schema"), str), "$schema must be a string")
    runs = doc.get("runs")
    if not check(isinstance(runs, list) and len(runs) >= 1,
                 "runs must be a non-empty array"):
        return problems
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not check(isinstance(run, dict), f"{where} must be an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        if not check(isinstance(driver, dict),
                     f"{where}.tool.driver is required"):
            continue
        check(
            isinstance(driver.get("name"), str) and driver["name"],
            f"{where}.tool.driver.name must be a non-empty string",
        )
        rule_ids = set()
        rules = driver.get("rules", [])
        if check(isinstance(rules, list),
                 f"{where}.tool.driver.rules must be an array"):
            for j, rule in enumerate(rules):
                rwhere = f"{where}.tool.driver.rules[{j}]"
                if not check(
                    isinstance(rule, dict) and isinstance(
                        rule.get("id"), str
                    ),
                    f"{rwhere}.id must be a string",
                ):
                    continue
                check(rule["id"] not in rule_ids,
                      f"{rwhere}.id {rule['id']!r} is duplicated")
                rule_ids.add(rule["id"])
        results = run.get("results")
        if not check(isinstance(results, list),
                     f"{where}.results must be an array"):
            continue
        for j, result in enumerate(results):
            rwhere = f"{where}.results[{j}]"
            if not check(isinstance(result, dict),
                         f"{rwhere} must be an object"):
                continue
            message = result.get("message")
            check(
                isinstance(message, dict)
                and isinstance(message.get("text"), str),
                f"{rwhere}.message.text is required",
            )
            rule_id = result.get("ruleId")
            if rule_id is not None:
                check(isinstance(rule_id, str),
                      f"{rwhere}.ruleId must be a string")
                if rule_ids:
                    check(
                        rule_id in rule_ids,
                        f"{rwhere}.ruleId {rule_id!r} not in the driver's "
                        "rules table",
                    )
            level = result.get("level")
            if level is not None:
                check(level in _LEVELS,
                      f"{rwhere}.level {level!r} is not a SARIF level")
            for k, location in enumerate(result.get("locations", [])):
                lwhere = f"{rwhere}.locations[{k}]"
                physical = location.get("physicalLocation") if isinstance(
                    location, dict
                ) else None
                if physical is None:
                    continue
                if not check(isinstance(physical, dict),
                             f"{lwhere}.physicalLocation must be an object"):
                    continue
                artifact = physical.get("artifactLocation")
                if artifact is not None:
                    check(
                        isinstance(artifact, dict)
                        and isinstance(artifact.get("uri"), str),
                        f"{lwhere}...artifactLocation.uri must be a string",
                    )
                region = physical.get("region")
                if region is not None:
                    start = region.get("startLine") if isinstance(
                        region, dict
                    ) else None
                    check(
                        start is None
                        or (isinstance(start, int) and start >= 1),
                        f"{lwhere}...region.startLine must be a positive "
                        "integer",
                    )
    return problems
