"""The xatulint domain rules (XL003, XL009).

Each rule encodes one invariant that no runtime gate of this repo
checks: a raising body that leaks a process-global switch, a handler
that swallows ``KeyboardInterrupt``.  A bug that a byte-identity test,
the goldens or the sanitizer already fails gets no rule
(docs/ANALYSIS.md, "Mutant audit").  The catalogue lives in
docs/ANALYSIS.md; the fixtures per rule live in tests/test_analysis.py.

Rules are deliberately *syntactic and local*: they over-approximate and
rely on the committed baseline file to record intentional exceptions
with a written reason — that keeps every rule simple enough to audit in
one read, and every exception documented in one place.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .framework import FileContext, Rule, Severity, register


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _call_name(call: ast.Call) -> str:
    """The trailing name of a call target: ``a.b.c(...)`` -> ``c``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _inside_try_finally(ctx: FileContext, node: ast.AST) -> bool:
    return any(
        isinstance(anc, ast.Try) and anc.finalbody for anc in ctx.ancestors(node)
    )


# ----------------------------------------------------------------------
# XL003 — process-global switches must not leak
# ----------------------------------------------------------------------
_SWITCH_CALLS = {"set_enabled"}


@register
class GlobalSwitchLeakRule(Rule):
    """Toggling a process-global switch without a restore path leaks it.

    ``repro.obs.set_enabled`` mutates process-wide state: a raising body
    between toggle and restore leaves telemetry on for every later import
    in the process — an earlier grad-mode race, fixed by hand, had exactly
    this shape.  Allowed forms: toggle inside ``try``/``finally``, toggle
    whose *next statement* opens the ``try``/``finally`` that restores
    it, context-manager plumbing (``__enter__``/``__exit__``), and the
    defining module itself.
    """

    id = "XL003"
    name = "global-switch-leak"
    severity = Severity.ERROR
    fix_hint = (
        "use the context-manager form (telemetry()) or restore the "
        "previous value in a finally: block"
    )
    description = "global switch toggled without try/finally or ctx manager"

    def applies_to(self, ctx: FileContext) -> bool:
        # The switches' own defining modules are the mechanism, not a use.
        return not ctx.rel_path.endswith(
            ("obs/registry.py", "nn/autograd.py")
        )

    def _restores_in_finally(self, stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Try) or not stmt.finalbody:
            return False
        for node in stmt.finalbody:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and _call_name(sub) in _SWITCH_CALLS:
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for call in ctx.walk(ast.Call):
            name = _call_name(call)
            if name not in _SWITCH_CALLS:
                continue
            func = ctx.enclosing_function(call)
            if func is not None and func.name in ("__enter__", "__exit__"):
                continue
            if _inside_try_finally(ctx, call):
                continue
            # Toggle immediately followed by the try/finally that restores
            # it is fine — check siblings of the statement and of each
            # enclosing statement (the toggle often sits in an `if`).
            stmt = ctx.statement_of(call)
            restored = False
            while stmt is not None and not restored:
                sibling = ctx.next_sibling(stmt)
                if sibling is not None:
                    restored = self._restores_in_finally(sibling)
                    break
                parent = ctx.parent(stmt)
                if isinstance(
                    parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
                ):
                    break  # never climb across a function boundary
                stmt = ctx.statement_of(parent)
            if restored:
                continue
            yield call, (
                f"`{name}(...)` toggles process-global state with no "
                "try/finally restore on this path"
            )
        # Direct pokes at the autograd mode object are never OK outside
        # the context managers in nn/autograd.py itself.
        for node in ctx.walk(ast.Assign, ast.AugAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "grad_enabled"
                ):
                    func = ctx.enclosing_function(node)
                    if func is not None and func.name in ("__enter__", "__exit__"):
                        continue
                    yield node, (
                        "direct assignment to the grad-mode flag; use "
                        "no_grad() so the previous mode is restored"
                    )


# ----------------------------------------------------------------------
# XL009 — bare except
# ----------------------------------------------------------------------
@register
class BareExceptRule(Rule):
    """``except:`` catches SystemExit/KeyboardInterrupt too.

    A shard worker swallowing KeyboardInterrupt turns a clean shutdown
    into a hang; catch the narrowest exception that the recovery path
    actually handles (``Exception`` at the very widest).
    """

    id = "XL009"
    name = "bare-except"
    severity = Severity.WARNING
    fix_hint = "catch a specific exception type (Exception at the widest)"
    description = "bare except: clause"

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for handler in ctx.walk(ast.ExceptHandler):
            if handler.type is None:
                yield handler, "bare `except:` also catches KeyboardInterrupt"
