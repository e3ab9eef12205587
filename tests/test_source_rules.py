"""The two source rules no runtime gate checks, as tests over the tree.

* **XL003** — a process-global switch (``set_enabled``) toggled with no
  restore path.  Only a *raising* body leaks it, and no test raises
  there: telemetry stays on for every later caller in the process.
* **XL009** — a bare ``except:``.  It also catches ``KeyboardInterrupt``:
  a shard worker swallowing it turns a clean shutdown into a hang, and
  its error replies read the same as a typed handler's.

Each rule is one check function over one source text, pinned by the
fixtures below (a shape that must fire, a shape that must stay silent,
and the audit mutant that keeps the rule: docs/ANALYSIS.md), and one
test that runs it over every ``.py`` file under ``src/``,
``benchmarks/`` and ``examples/``.  ``tests/`` stays out: its switch
toggles are pytest fixtures and setup/teardown pairs that restore the
switch in a way a syntactic rule cannot see.
"""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

# Intentional findings: (rule, repo-relative path, stripped source line)
# -> the reason it is allowed.  An entry that no longer matches a finding
# fails its rule's tree test, so the list only shrinks.
ALLOWED: dict[tuple[str, str, str], str] = {}


# ----------------------------------------------------------------------
# the ast helper
# ----------------------------------------------------------------------
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Parsed:
    """One parsed source with parent links."""

    def __init__(self, source: str) -> None:
        self.tree = ast.parse(source)
        self.parents = {
            child: parent
            for parent in ast.walk(self.tree)
            for child in ast.iter_child_nodes(parent)
        }

    def walk(self, *types: type):
        return (node for node in ast.walk(self.tree) if isinstance(node, types))

    def ancestors(self, node: ast.AST):
        while (node := self.parents.get(node)) is not None:
            yield node

    def in_context_manager(self, node: ast.AST) -> bool:
        """Whether the innermost function around ``node`` is
        ``__enter__`` or ``__exit__``."""
        func = next((a for a in self.ancestors(node) if isinstance(a, _FUNCTIONS)), None)
        return func is not None and func.name in ("__enter__", "__exit__")

    def statement_of(self, node: ast.AST | None) -> ast.stmt | None:
        """The innermost statement containing ``node`` (itself if one)."""
        while node is not None and not isinstance(node, ast.stmt):
            node = self.parents.get(node)
        return node

    def next_sibling(self, stmt: ast.stmt) -> ast.stmt | None:
        """The statement after ``stmt`` in its enclosing body, if any."""
        parent = self.parents.get(stmt)
        for field in ("body", "orelse", "finalbody"):
            body = getattr(parent, field, None)
            if isinstance(body, list) and stmt in body:
                index = body.index(stmt)
                return body[index + 1] if index + 1 < len(body) else None
        return None


def _call_name(call: ast.Call) -> str:
    """The trailing name of a call target: ``a.b.c(...)`` -> ``c``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


# ----------------------------------------------------------------------
# the rules: each returns (line, message) per finding
# ----------------------------------------------------------------------
XL003_HINT = (
    "use the context-manager form (telemetry()) or restore the previous "
    "value in a finally: block"
)
XL009_HINT = "catch a specific exception type (Exception at the widest)"


def _restores_in_finally(stmt: ast.stmt | None) -> bool:
    return (
        isinstance(stmt, ast.Try)
        and bool(stmt.finalbody)
        and any(
            isinstance(sub, ast.Call) and _call_name(sub) == "set_enabled"
            for node in stmt.finalbody
            for sub in ast.walk(node)
        )
    )


def _restored_next(parsed: Parsed, call: ast.Call) -> bool:
    """Whether the statement after the toggle is the ``try``/``finally``
    that restores it.  A toggle that ends its body (often under an
    ``if``) is judged by the enclosing statement's next sibling, never
    across a function boundary."""
    stmt = parsed.statement_of(call)
    while stmt is not None:
        sibling = parsed.next_sibling(stmt)
        if sibling is not None:
            return _restores_in_finally(sibling)
        parent = parsed.parents.get(stmt)
        if isinstance(parent, (*_FUNCTIONS, ast.Module)):
            return False
        stmt = parsed.statement_of(parent)
    return False


def xl003_switch_leaks(source: str, rel_path: str) -> list[tuple[int, str]]:
    """``set_enabled`` calls with no restore path, and direct writes to
    the grad-mode flag.  The switches' defining modules are exempt."""
    if rel_path.endswith(("obs/registry.py", "nn/autograd.py")):
        return []
    parsed = Parsed(source)
    found = []
    for call in parsed.walk(ast.Call):
        if _call_name(call) != "set_enabled" or parsed.in_context_manager(call):
            continue
        if any(isinstance(a, ast.Try) and a.finalbody for a in parsed.ancestors(call)):
            continue
        if not _restored_next(parsed, call):
            found.append((call.lineno, "`set_enabled(...)` toggles process-global "
                          "state with no try/finally restore on this path"))
    for node in parsed.walk(ast.Assign, ast.AugAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "grad_enabled" for t in targets) \
                and not parsed.in_context_manager(node):
            found.append((node.lineno, "direct assignment to the grad-mode flag; "
                          "use no_grad() so the previous mode is restored"))
    return sorted(found)


def xl009_bare_excepts(source: str, rel_path: str) -> list[tuple[int, str]]:
    """Every ``except:`` with no exception type."""
    return sorted(
        (handler.lineno, "bare `except:` also catches KeyboardInterrupt")
        for handler in Parsed(source).walk(ast.ExceptHandler)
        if handler.type is None
    )


# ----------------------------------------------------------------------
# the tree tests
# ----------------------------------------------------------------------
def _scanned_files() -> list[Path]:
    return sorted(
        path
        for top in SCANNED
        for path in (REPO_ROOT / top).rglob("*.py")
        if not SKIP_DIRS.intersection(path.relative_to(REPO_ROOT).parts)
    )


def _assert_tree_clean(rule: str, check, hint: str) -> None:
    offending, allowed_hits = [], set()
    for path in _scanned_files():
        rel = path.relative_to(REPO_ROOT).as_posix()
        source = path.read_text()
        try:
            found = check(source, rel)
        except SyntaxError as exc:
            pytest.fail(f"{rel}:{exc.lineno}: does not parse: {exc.msg}")
        lines = source.splitlines()
        for line, message in found:
            key = (rule, rel, lines[line - 1].strip())
            if key in ALLOWED:
                allowed_hits.add(key)
            else:
                offending.append(f"{rel}:{line}: {rule} {message}  [{hint}]")
    assert not offending, f"{rule} findings:\n" + "\n".join(offending)
    stale = {key for key in ALLOWED if key[0] == rule} - allowed_hits
    assert not stale, f"stale {rule} allow-list entries: {sorted(stale)}"


def test_xl003_tree_is_clean():
    _assert_tree_clean("XL003", xl003_switch_leaks, XL003_HINT)


def test_xl009_tree_is_clean():
    _assert_tree_clean("XL009", xl009_bare_excepts, XL009_HINT)


def test_tree_scan_names_each_finding_and_each_unparseable_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "REPO_ROOT", tmp_path)
    bare = "try:\n    work()\nexcept:\n    pass\n"
    for rel in ("benchmarks/a.py", "examples/b.py", "src/__pycache__/c.py", "tests/d.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(bare)
    with pytest.raises(AssertionError) as failed:
        _assert_tree_clean("XL009", xl009_bare_excepts, XL009_HINT)
    message = str(failed.value)
    assert "benchmarks/a.py:3: XL009" in message and "examples/b.py:3: XL009" in message
    assert "c.py" not in message and "d.py" not in message
    (tmp_path / "src" / "broken.py").write_text("def broken(:\n")
    with pytest.raises(pytest.fail.Exception, match="src/broken.py:1: does not parse"):
        _assert_tree_clean("XL009", xl009_bare_excepts, XL009_HINT)


# ----------------------------------------------------------------------
# the fixtures: (source, rel_path, fires)
# ----------------------------------------------------------------------
FIXTURE_PATH = "src/repro/fixture.py"

XL003_FIXTURES = [
    pytest.param("""
        def run(path):
            set_enabled(True)
            do_work()
            set_enabled(False)
    """, FIXTURE_PATH, True, id="bare_toggle_fires"),
    pytest.param("""
        def run(path):
            set_enabled(True)
            try:
                do_work()
            finally:
                set_enabled(False)
    """, FIXTURE_PATH, False, id="try_finally_is_fine"),
    # The toggle sits under `if`, so the restoring try/finally is a
    # sibling of the *if*, not of the call statement: the rule must climb
    # enclosing statements (the cli.py --telemetry shape).
    pytest.param("""
        def run(path):
            if path:
                set_enabled(True)
            try:
                do_work()
            finally:
                if path:
                    set_enabled(False)
    """, FIXTURE_PATH, False, id="toggle_inside_if_before_try_finally_is_fine"),
    pytest.param("""
        class telemetry:
            def __enter__(self):
                set_enabled(True)
                return self

            def __exit__(self, *exc):
                set_enabled(False)
    """, FIXTURE_PATH, False, id="context_manager_plumbing_is_fine"),
    pytest.param("def set_enabled(flag):\n    set_enabled(flag)\n",
                 "src/repro/obs/registry.py", False, id="defining_module_is_exempt"),
    pytest.param("_MODE.grad_enabled = False\n", FIXTURE_PATH, True,
                 id="grad_flag_poke_fires"),
    # The audit mutant: bench/train.py's telemetry-on epoch without its
    # try/finally.  A raising fit() leaves telemetry on for every later
    # bench case; no other test, golden or smoke fails on it.
    pytest.param("""
        def _make_train_epoch_obs(sizes, enabled):
            from ..obs import set_enabled

            fit = _make_train_epoch(sizes, True)

            def run():
                previous = set_enabled(enabled)
                fit()
                set_enabled(previous)

            return run
    """, "src/repro/bench/train.py", True, id="bench_obs_toggle_without_finally_fires"),
]

XL009_FIXTURES = [
    pytest.param("""
        try:
            work()
        except:
            pass
    """, FIXTURE_PATH, True, id="bare_except_fires"),
    # The audit mutant: the one shard dispatch catching everything.
    # Error replies read the same, so every other gate passes, but a
    # Ctrl-C in a forked shard becomes an error reply instead of a
    # shutdown.
    pytest.param("""
        def _execute(detector, message, reader=None):
            try:
                result = detector.step(*message[1:])
                return ("ok", result)
            except:
                exc = sys.exc_info()[1]
                return ("error", f"{type(exc).__name__}: {exc}")
    """, "src/repro/serve/shard.py", True, id="shard_execute_bare_except_fires"),
    pytest.param("""
        try:
            work()
        except Exception:
            pass
    """, FIXTURE_PATH, False, id="typed_except_is_fine"),
]


@pytest.mark.parametrize("source, rel_path, fires", XL003_FIXTURES)
def test_xl003_fixture(source, rel_path, fires):
    found = xl003_switch_leaks(textwrap.dedent(source), rel_path)
    assert bool(found) is fires, found


@pytest.mark.parametrize("source, rel_path, fires", XL009_FIXTURES)
def test_xl009_fixture(source, rel_path, fires):
    found = xl009_bare_excepts(textwrap.dedent(source), rel_path)
    assert bool(found) is fires, found
