"""SARIF 2.1.0 output for xatulint findings.

``cli lint --format sarif`` serialises every rule (the per-file XL and
project-wide XF families alike) into one SARIF run, so CI can upload the file as an
artifact and code-scanning UIs can render findings inline.  Only the
subset of the format that consumers actually read is emitted: the tool
driver with its rule inventory, one result per finding with a physical
location, and a stable partial fingerprint derived from the same
``(rule, path, line_text)`` triple the baseline matches on — so a
finding keeps its identity across line-number churn in SARIF exactly as
it does in the baseline ledger.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from .framework import ANALYZER_VERSION, Finding, Rule, Severity

__all__ = ["to_sarif", "render_sarif", "sarif_level"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def sarif_level(severity: str) -> str:
    return _LEVELS.get(severity, "warning")


def _fingerprint(finding: Finding) -> str:
    rule, path, line_text = finding.fingerprint
    digest = hashlib.sha256(
        f"{rule}\x00{path}\x00{line_text}".encode()
    ).hexdigest()
    return digest[:32]


def to_sarif(
    findings: Iterable[Finding],
    rules: Iterable[Rule],
    suppressed: Iterable[Finding] = (),
) -> dict:
    """Build the SARIF document as a plain dict.

    ``rules`` is the rule inventory of the run.  ``suppressed``
    findings (baseline-matched) are included with a suppression record so
    the artifact shows the whole ledger, not just new findings.
    """
    rule_descriptors = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": sarif_level(rule.severity)},
        }
        for rule in rules
    ]

    def result(finding: Finding, *, suppressed_entry: bool) -> dict:
        out = {
            "ruleId": finding.rule,
            "level": sarif_level(finding.severity),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": max(1, finding.col + 1),
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "xatulint/v1": _fingerprint(finding),
            },
        }
        if suppressed_entry:
            out["suppressions"] = [
                {"kind": "external", "justification": "baselined"}
            ]
        return out

    results = [result(f, suppressed_entry=False) for f in findings]
    results += [result(f, suppressed_entry=True) for f in suppressed]

    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "xatulint",
                        "version": ANALYZER_VERSION,
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rule_descriptors,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "./"}},
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Iterable[Finding],
    rules: Iterable[Rule],
    suppressed: Iterable[Finding] = (),
) -> str:
    return json.dumps(to_sarif(findings, rules, suppressed), indent=2)
