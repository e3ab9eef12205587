"""xatulint — the framework: findings, file contexts, one rule registry,
one driver.

A *rule* is a small class registered with :func:`register`: it walks one
:class:`FileContext` and yields ``(node, message)`` pairs (the rules live
in :mod:`repro.analysis.rules`).  Every rule shares one parse per file,
one :class:`Finding` constructor, one inline suppression filter and one
inventory (:func:`all_rules`), so ``cli lint`` runs every rule in one pass
(see docs/ANALYSIS.md for the how-to).  The framework deliberately knows
nothing about the domain — everything Xatu-specific lives in the rules.

Design points that matter for a lint gate:

* **Deterministic output** — files are visited in sorted order and
  findings are sorted by ``(path, line, col, rule)``, so two runs over
  the same tree produce byte-identical reports.
* **Line-content fingerprints** — a finding carries the stripped source
  line it points at; the baseline (:mod:`repro.analysis.baseline`)
  matches on ``(rule, path, line_text)`` rather than line numbers, so
  unrelated edits don't churn the suppression file.
* **Inline escapes** — ``# xatulint: ignore[XL009]`` on the offending
  line suppresses that rule there (``ignore`` with no bracket list
  suppresses every rule); use sparingly, prefer the baseline file which
  forces a written reason.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator

__all__ = [
    "ANALYZER_VERSION",
    "Severity",
    "Finding",
    "Rule",
    "FileContext",
    "register",
    "all_rules",
    "get_rule",
    "analyze_source",
    "analyze_paths",
    "iter_python_files",
    "relative_path",
]


# Analyzer generation, stamped into baseline files.  Bump the major when
# the rule inventory or a rule's semantics change enough that an old
# baseline deserves a re-audit; `cli lint` warns when a baseline was
# written by an older analyzer or a different rule set.
ANALYZER_VERSION = "5.0"


class Severity:
    """Finding severities: error, warning, info."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``line_text`` is the stripped source line — the stable half of the
    baseline fingerprint (line *numbers* churn with every edit above the
    finding; line *content* only churns when the flagged code itself
    changes).
    """

    rule: str
    severity: str
    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    message: str
    fix_hint: str = ""
    line_text: str = ""

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.line_text)

    def render(self) -> str:
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}{hint}"
        )


_SUPPRESS_RE = re.compile(r"#\s*xatulint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


class FileContext:
    """One parsed source file: its tree, lines and parent map.

    Built once per file by the driver and shared by every rule.
    """

    def __init__(self, rel_path: str, source: str, tree: ast.Module) -> None:
        self.rel_path = PurePosixPath(rel_path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- source access --------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        """Inline ``# xatulint: ignore[...]`` escape on ``lineno``."""
        match = _SUPPRESS_RE.search(self.line_text(lineno))
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        return rule_id in {part.strip() for part in listed.split(",")}

    # -- tree navigation ------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def statement_of(self, node: ast.AST) -> ast.stmt | None:
        """The innermost statement containing ``node`` (itself if one)."""
        current: ast.AST | None = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self._parents.get(current)
        return current

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def next_sibling(self, stmt: ast.stmt) -> ast.stmt | None:
        """The statement following ``stmt`` in its enclosing body, if any."""
        parent = self._parents.get(stmt)
        if parent is None:
            return None
        for body_field in ("body", "orelse", "finalbody", "handlers"):
            body = getattr(parent, body_field, None)
            if isinstance(body, list) and stmt in body:
                index = body.index(stmt)
                if index + 1 < len(body):
                    return body[index + 1]
                return None
        return None

    def walk(self, *types: type) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node


class Rule:
    """Base class for one lint rule.

    A rule sets the class attributes and implements :meth:`check`,
    yielding ``(node, message)`` pairs; the driver builds each finding with
    :meth:`finding`, honours inline suppressions and sorts.
    """

    id: str = "XL000"
    name: str = "unnamed"
    severity: str = Severity.ERROR
    fix_hint: str = ""
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Path scoping; default: every file under analysis."""
        return True

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=self.fix_hint,
            line_text=ctx.line_text(line),
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add a rule to the registry."""
    rule = cls()
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id: the one rule inventory."""
    from . import rules  # noqa: F401  (self-registration on import)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    all_rules()
    return _REGISTRY[rule_id]


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def _analyze(
    sources: Iterable[tuple[str, str]], rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Parse each ``(rel_path, source)`` once and run ``rules`` (default:
    every rule) over it; a file that does not parse is one XL000 finding."""
    rules = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rel_path, source in sources:
        rel_path = PurePosixPath(rel_path).as_posix()
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="XL000",
                    severity=Severity.ERROR,
                    path=rel_path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(rel_path, source, tree)
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for node, message in rule.check(ctx):
                finding = rule.finding(ctx, node, message)
                if not ctx.suppressed(finding.line, finding.rule):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_source(
    source: str, rel_path: str, rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Lint one in-memory source blob (the unit-test entry)."""
    return _analyze([(rel_path, source)], rules)


_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(paths: Iterable[str | Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            out.add(path)
        elif path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.add(sub)
    return sorted(out)


def relative_path(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` in POSIX form (as-is when outside)."""
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def analyze_paths(
    paths: Iterable[str | Path],
    root: str | Path | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; paths in findings are
    reported relative to ``root`` (default: the current directory)."""
    root = Path(root) if root is not None else Path.cwd()
    return _analyze(
        ((relative_path(path, root), path.read_text())
         for path in iter_python_files(paths, root)),
        rules,
    )
