"""Baseline suppression for xatulint findings.

The baseline file (``lint-baseline.json`` at the repo root) is the
committed ledger of *intentional* rule violations: each entry names the
rule, the file, the offending line's stripped text, and — mandatory —
a human-written reason.  ``cli lint`` subtracts baselined findings from
its report, so the gate fails only on **new** findings; fixing a
baselined site and deleting its entry shrinks the ledger monotonically.

Fingerprints are line-*content* based (``(rule, path, stripped line)``),
not line-number based, so edits elsewhere in a file never churn the
baseline.  One entry suppresses every occurrence of that exact line in
that file — if that is too broad for a case, fix the code instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .framework import ANALYZER_VERSION, Finding

__all__ = ["BaselineEntry", "Baseline", "BASELINE_VERSION", "DEFAULT_BASELINE_PATH"]

BASELINE_VERSION = 1
DEFAULT_BASELINE_PATH = "lint-baseline.json"
_PLACEHOLDER_REASON = "TODO: document why this is acceptable"


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One suppressed finding pattern, with its written justification."""

    rule: str
    path: str
    line_text: str
    reason: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.line_text)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line_text,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BaselineEntry":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line_text=str(payload["line"]),
            reason=str(payload.get("reason", _PLACEHOLDER_REASON)),
        )


def _in_scope(entry: BaselineEntry, scope: set[str] | None) -> bool:
    return scope is None or entry.path in scope


class Baseline:
    """An ordered set of :class:`BaselineEntry` with matching helpers."""

    def __init__(
        self,
        entries: Iterable[BaselineEntry] = (),
        analyzer: str | None = None,
        rules: tuple[str, ...] = (),
    ) -> None:
        self.entries: list[BaselineEntry] = list(entries)
        self._index = {entry.fingerprint: entry for entry in self.entries}
        # provenance stamp: which analyzer generation and rule inventory
        # wrote this file (None/() for pre-stamp baselines)
        self.analyzer = analyzer
        self.rules = tuple(rules)

    def stamp_warnings(self, current_rules: Iterable[str]) -> list[str]:
        """Human-readable warnings when this baseline predates the
        current analyzer or rule inventory — a cue to re-audit entries."""
        warnings: list[str] = []
        if self.analyzer is None:
            warnings.append(
                "baseline has no analyzer stamp (written before "
                f"xatulint {ANALYZER_VERSION}); rewrite with "
                "--write-baseline to stamp it"
            )
            return warnings
        if self.analyzer != ANALYZER_VERSION:
            warnings.append(
                f"baseline was written by xatulint {self.analyzer}; "
                f"this build is {ANALYZER_VERSION} — re-audit and rewrite "
                "with --write-baseline"
            )
        current = tuple(sorted(current_rules))
        if self.rules and current != self.rules:
            added = sorted(set(current) - set(self.rules))
            removed = sorted(set(self.rules) - set(current))
            parts = []
            if added:
                parts.append(f"new rules since baseline: {', '.join(added)}")
            if removed:
                parts.append(f"rules gone since baseline: {', '.join(removed)}")
            warnings.append(
                "baseline rule inventory is outdated ("
                + "; ".join(parts)
                + ")"
            )
        return warnings

    def __len__(self) -> int:
        return len(self.entries)

    def match(self, finding: Finding) -> BaselineEntry | None:
        return self._index.get(finding.fingerprint)

    def suppresses(self, finding: Finding) -> bool:
        return finding.fingerprint in self._index

    def partition(
        self, findings: Iterable[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split findings into (new, baselined)."""
        new: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            (suppressed if self.suppresses(finding) else new).append(finding)
        return new, suppressed

    def unused_entries(
        self, findings: Iterable[Finding], scope: set[str] | None = None
    ) -> list[BaselineEntry]:
        """Entries matching no current finding — stale, delete them.

        ``scope`` is the set of paths the run read (default: every
        path); an entry for a file outside it is never judged stale.
        """
        seen = {finding.fingerprint for finding in findings}
        return [
            e
            for e in self.entries
            if e.fingerprint not in seen and _in_scope(e, scope)
        ]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text())
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path} has format version {version!r}; "
                f"this build reads version {BASELINE_VERSION}"
            )
        return cls(
            (BaselineEntry.from_json(e) for e in payload.get("entries", ())),
            analyzer=payload.get("analyzer"),
            rules=tuple(payload.get("rules", ())),
        )

    def save(self, path: str | Path, rules: Iterable[str] = ()) -> Path:
        path = Path(path)
        entries = sorted(
            self.entries, key=lambda e: (e.path, e.rule, e.line_text)
        )
        stamp_rules = tuple(sorted(rules)) or self.rules
        payload = {
            "version": BASELINE_VERSION,
            "analyzer": ANALYZER_VERSION,
            "rules": list(stamp_rules),
            "entries": [e.to_json() for e in entries],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return path

    # ------------------------------------------------------------------
    @classmethod
    def from_findings(
        cls,
        findings: Iterable[Finding],
        previous: "Baseline | None" = None,
        reason: str = _PLACEHOLDER_REASON,
        scope: set[str] | None = None,
    ) -> "Baseline":
        """Build a baseline covering ``findings``, keeping the written
        reasons of any entry that still matches (``--write-baseline``).

        Entries of ``previous`` for files outside ``scope`` (the paths the
        run read; default: every path) are carried over unchanged — a run
        cannot judge a file it did not read.
        """
        previous = previous or cls()
        seen: dict[tuple[str, str, str], BaselineEntry] = {
            e.fingerprint: e for e in previous.entries if not _in_scope(e, scope)
        }
        for finding in findings:
            if finding.fingerprint in seen:
                continue
            kept = previous._index.get(finding.fingerprint)
            seen[finding.fingerprint] = kept or BaselineEntry(
                rule=finding.rule,
                path=finding.path,
                line_text=finding.line_text,
                reason=reason,
            )
        return cls(seen.values())
