"""xatulint — the framework: findings, file contexts, one rule registry,
one driver.

A *rule* is a small class registered with :func:`register`.  A per-file
rule (the XL family, :mod:`repro.analysis.rules`) walks one
:class:`FileContext` and yields ``(node, message)`` pairs; a project-wide
rule (the XF family, :mod:`repro.analysis.flow.checkers`) overrides
:meth:`Rule.run` and reads the whole symbol graph.  Both families share
one parse per file, one :class:`Finding` constructor, one inline
suppression filter and one inventory (:func:`all_rules`), so ``cli lint``
runs every rule in one pass (see docs/ANALYSIS.md for the how-to).  The
framework deliberately knows nothing about the domain — everything
Xatu-specific lives in the rules.

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
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .flow.checkers import SymbolGraph
    from .flow.symbols import SymbolTable

__all__ = [
    "ANALYZER_VERSION",
    "Severity",
    "Finding",
    "Rule",
    "FileContext",
    "dotted_name",
    "register",
    "all_rules",
    "get_rule",
    "analyze_source",
    "analyze_sources",
    "analyze_paths",
    "iter_python_files",
    "relative_path",
]


# Analyzer generation, stamped into baseline files.  Bump the major when
# the rule inventory or a rule's semantics change enough that an old
# baseline deserves a re-audit; `cli lint` warns when a baseline was
# written by an older analyzer or a different rule set.
ANALYZER_VERSION = "4.0"


class Severity:
    """Finding severities, ordered: error > warning > info."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER.get(severity, 99)


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


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.normal``);
    ``""`` for anything that is not a chain of attributes on a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


_SUPPRESS_RE = re.compile(r"#\s*xatulint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


class FileContext:
    """One parsed source file: its tree, lines and parent map.

    Built once per file by :class:`~repro.analysis.flow.symbols.SymbolTable`
    and shared by every rule of both families.
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

    # -- path scoping ---------------------------------------------------
    def in_subpath(self, *fragments: str) -> bool:
        """Whether the file lives under any ``fragment`` path component
        (``ctx.in_subpath("serve")`` matches ``src/repro/serve/shard.py``)."""
        parts = PurePosixPath(self.rel_path).parts
        return any(fragment in parts for fragment in fragments)

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

    A per-file rule sets the class attributes and implements
    :meth:`check`, yielding ``(node, message)`` pairs; a project-wide rule
    overrides :meth:`run` instead.  Either way findings are built by
    :meth:`finding`, and the driver honours inline suppressions and sorts.
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

    def run(self, sg: "SymbolGraph") -> Iterable[Finding]:
        """Every finding of this rule over the analyzed files."""
        for ctx in sg.table.files.values():
            if self.applies_to(ctx):
                for node, message in self.check(ctx):
                    yield self.finding(ctx, node, message)

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
    from .flow import checkers  # noqa: F401

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    all_rules()
    return _REGISTRY[rule_id]


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def _analyze(
    table: "SymbolTable", rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Run ``rules`` (default: every rule) over one parsed table."""
    from .flow.checkers import SymbolGraph

    sg = SymbolGraph(table)
    findings = list(table.errors)
    for rule in rules if rules is not None else all_rules():
        for finding in rule.run(sg):
            if not table.files[finding.path].suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_sources(
    sources: dict[str, str], rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Lint in-memory ``{rel_path: source}`` blobs (the unit-test entry)."""
    from .flow.symbols import SymbolTable

    return _analyze(SymbolTable.from_sources(sources), rules)


def analyze_source(
    source: str, rel_path: str, rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Lint one in-memory source blob."""
    return analyze_sources({rel_path: source}, rules)


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
    from .flow.symbols import SymbolTable

    root = Path(root) if root is not None else Path.cwd()
    return _analyze(SymbolTable.build(root, paths), rules)
