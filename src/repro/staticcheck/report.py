"""Report rendering: text for humans, SARIF for CI.

SARIF output follows the 2.1.0 schema closely enough for GitHub code
scanning: one run, one driver with the SC rule table, one ``error``
result per unsuppressed finding with the witnessing call chain folded
into the message and the line-free fingerprint under
``partialFingerprints``.  Suppressed findings are left out of both
reports; the pragma at the code records why.
"""

from __future__ import annotations

import json

from repro.staticcheck.findings import ALL_SC_RULES, StaticFinding

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def render_text(findings: list[StaticFinding]) -> str:
    """Human-readable report: each unsuppressed finding, then the tally."""
    active = [f for f in findings if not f.suppressed]
    lines = [finding.render() for finding in active]
    lines.append(f"staticcheck: {len(active)} finding(s)")
    return "\n".join(lines)


def render_sarif(findings: list[StaticFinding]) -> str:
    """SARIF 2.1.0 document for the CI artifact upload."""
    results = []
    for finding in findings:
        if finding.suppressed:
            continue
        text = finding.message
        if finding.chain:
            text += " | call chain: " + " -> ".join(finding.chain)
        results.append({
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": text},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
            "partialFingerprints": {
                "reproStaticcheck/v1": finding.fingerprint(),
            },
        })
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-staticcheck",
                    "informationUri":
                        "docs/STATIC_ANALYSIS.md",
                    "rules": [
                        {
                            "id": rule,
                            "shortDescription": {"text": desc},
                        }
                        for rule, desc in sorted(ALL_SC_RULES.items())
                    ],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)
