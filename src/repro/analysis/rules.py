"""The xatulint per-file domain rules (XL001, XL003–XL005, XL008–XL010).

Each rule encodes one invariant the train/serve stack's correctness
rests on — invariants no generic linter knows about.  The catalogue,
with rationale and worked examples, lives in docs/ANALYSIS.md; the
positive/negative fixtures per rule live in tests/test_analysis.py.

Rules are deliberately *syntactic and local*: they over-approximate
(flagging, e.g., a leaf-parameter update as a tape mutation) and rely
on the committed baseline file to record the intentional exceptions
with a written reason — that keeps every rule simple enough to audit
in one read, and every exception documented in one place.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from .framework import FileContext, Rule, Severity, dotted_name, register


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _mentions_attr(node: ast.AST, attr: str) -> bool:
    """Whether any sub-expression accesses ``<something>.<attr>``."""
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == attr
        for sub in ast.walk(node)
    )


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
# XL001 — tape-node buffers must never be mutated in place
# ----------------------------------------------------------------------
@register
class TapeMutationRule(Rule):
    """In-place writes through a ``.data`` buffer invalidate the tape.

    Autograd backward closures capture ``tensor.data`` *by reference*;
    mutating it between forward and backward silently corrupts every
    gradient that flows through the node.  The runtime sanitizer
    (``REPRO_SANITIZE=1``) enforces this dynamically by freezing tape
    buffers; this rule catches the pattern at review time.  Legitimate
    exceptions (optimizer steps and checkpoint loads touch only *leaf*
    parameters, which are never tape nodes) are baselined with reasons.
    """

    id = "XL001"
    name = "tape-mutation"
    severity = Severity.ERROR
    fix_hint = (
        "build a new array instead of writing through .data; if the "
        "target is provably a leaf parameter, baseline with a reason"
    )
    description = "in-place mutation of a Tensor .data buffer"

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for node in ctx.walk(ast.Assign, ast.AugAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # `x.data[...] = v` / `x.data += v` — but a plain rebind
                # `x.data = v` (Attribute target itself) only counts for
                # AugAssign; rebinding the attribute makes a new array.
                if isinstance(target, ast.Subscript) and _mentions_attr(
                    target, "data"
                ):
                    yield node, "in-place write through a Tensor .data buffer"
                elif isinstance(node, ast.AugAssign) and isinstance(
                    target, ast.Attribute
                ) and target.attr == "data":
                    yield node, "augmented assignment mutates .data in place"
        for call in ctx.walk(ast.Call):
            for kw in call.keywords:
                if kw.arg == "out" and kw.value is not None and _mentions_attr(
                    kw.value, "data"
                ):
                    yield call, (
                        "ufunc out= targets a Tensor .data buffer "
                        "(mutates the tape in place)"
                    )


# ----------------------------------------------------------------------
# XL003 — process-global switches must not leak
# ----------------------------------------------------------------------
_SWITCH_CALLS = {"set_enabled", "set_tape_hook"}


@register
class GlobalSwitchLeakRule(Rule):
    """Toggling a process-global switch without a restore path leaks it.

    ``repro.obs.set_enabled`` and ``repro.nn.set_tape_hook`` mutate
    process-wide state: a raising body between toggle and restore leaves
    telemetry (or the profiling hook) on for every later import in the
    process — the grad-mode race PR 4 fixed by hand was exactly this
    shape.  Allowed forms: toggle inside ``try``/``finally``, toggle
    whose *next statement* opens the ``try``/``finally`` that restores
    it, context-manager plumbing (``__enter__``/``__exit__``), and the
    defining module itself.
    """

    id = "XL003"
    name = "global-switch-leak"
    severity = Severity.ERROR
    fix_hint = (
        "use the context-manager form (telemetry() / profile_tape()) or "
        "restore the previous value in a finally: block"
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
# XL004 — unseeded randomness breaks crash-equivalence
# ----------------------------------------------------------------------
_RNG_FACTORIES = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
                  "RandomState", "get_state", "set_state"}


@register
class UnseededRandomnessRule(Rule):
    """Module-level RNG calls make replays and restores non-reproducible.

    The serving stack's crash-equivalence guarantee (a restored run is
    byte-identical to an uninterrupted one) holds only when every random
    draw flows from an explicitly seeded ``np.random.Generator`` that is
    part of checkpointed state.  ``np.random.normal(...)`` and friends
    draw from hidden process-global state that no checkpoint captures.
    """

    id = "XL004"
    name = "unseeded-randomness"
    severity = Severity.ERROR
    fix_hint = (
        "thread an np.random.Generator through (rng parameter, "
        "np.random.default_rng(seed) at the boundary)"
    )
    description = "np.random.* / random.* module-level draw"

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for call in ctx.walk(ast.Call):
            dotted = dotted_name(call.func)
            parts = dotted.split(".")
            if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                if parts[2] not in _RNG_FACTORIES:
                    yield call, (
                        f"`{dotted}(...)` draws from the hidden global RNG; "
                        "crash-equivalence requires an explicit Generator"
                    )
            elif len(parts) == 2 and parts[0] == "random" and parts[1] not in (
                "Random", "SystemRandom"
            ):
                yield call, (
                    f"`{dotted}(...)` draws from the stdlib global RNG; "
                    "use a seeded random.Random (or numpy Generator)"
                )


# ----------------------------------------------------------------------
# XL005 — wall-clock reads in deterministic paths
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.now": "datetime.datetime.now()",
    "datetime.datetime.utcnow": "datetime.datetime.utcnow()",
    "date.today": "date.today()",
    "datetime.date.today": "datetime.date.today()",
}


@register
class WallClockRule(Rule):
    """Wall-clock reads in core/serve/nn paths break replay determinism.

    Logical time in this stack is the *minute index* threaded through
    every API; real timestamps differ between the original and the
    restored run, so any wall-clock read that influences state breaks
    the byte-identical-alerts guarantee.  ``time.perf_counter`` is fine
    — durations feed telemetry, never state.  Host metadata stamping in
    ``obs``/``bench`` is out of scope by path.
    """

    id = "XL005"
    name = "wall-clock"
    severity = Severity.ERROR
    fix_hint = (
        "thread the minute index (or an injected clock) through instead; "
        "time.perf_counter() is fine for durations"
    )
    description = "wall-clock read in a determinism-critical path"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_subpath(
            "core", "serve", "nn", "netflow", "signals", "detect", "scrub",
            "survival",
        )

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for call in ctx.walk(ast.Call):
            dotted = dotted_name(call.func)
            if dotted in _WALL_CLOCK:
                yield call, (
                    f"`{_WALL_CLOCK[dotted]}` reads the wall clock in a "
                    "determinism-critical path"
                )


# ----------------------------------------------------------------------
# XL008 — mutable default arguments
# ----------------------------------------------------------------------
@register
class MutableDefaultRule(Rule):
    """A mutable default is shared across *every* call of the function.

    In a long-lived serving process that is cross-request state leakage:
    one tick's alerts bleed into the next.  Default to ``None`` and
    materialize inside the body.
    """

    id = "XL008"
    name = "mutable-default"
    severity = Severity.ERROR
    fix_hint = "default to None and create the list/dict/set in the body"
    description = "mutable default argument"

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for func in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
            for default in list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and _call_name(default) in ("list", "dict", "set", "defaultdict")
                )
                if mutable:
                    yield default, (
                        f"mutable default argument in `{func.name}` is shared "
                        "across calls"
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


# ----------------------------------------------------------------------
# XL010 — unordered iteration in alert-merge paths
# ----------------------------------------------------------------------
_ALERT_FUNC_RE = re.compile(r"alert|merge|poll|tick")


@register
class AlertOrderHazardRule(Rule):
    """Alert streams must be deterministic and shard-count-invariant.

    Functions on the alert path (``*alert*``, ``*merge*``, ``*poll*``,
    ``*tick*``) must not iterate raw ``dict.values()`` / ``.items()`` /
    ``.keys()`` or sets when producing output: insertion order varies
    with ingest interleaving (and set order with hash seeds), so the
    merged stream stops being byte-identical across shard counts.  Wrap
    the iterable in ``sorted(...)``.
    """

    id = "XL010"
    name = "alert-order-hazard"
    severity = Severity.WARNING
    fix_hint = "iterate sorted(d.items()) so the emitted order is canonical"
    description = "unordered dict/set iteration in an alert-merge path"

    def _is_sorted_wrapped(self, ctx: FileContext, call: ast.Call) -> bool:
        parent = ctx.parent(call)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ("sorted", "min", "max", "len", "sum")
        )

    def check(self, ctx: FileContext) -> Iterable[tuple[ast.AST, str]]:
        for func in ctx.walk(ast.FunctionDef):
            if not _ALERT_FUNC_RE.search(func.name):
                continue
            iters: list[ast.AST] = []
            for sub in ast.walk(func):
                if isinstance(sub, ast.For):
                    iters.append(sub.iter)
                elif isinstance(sub, ast.comprehension):
                    iters.append(sub.iter)
            for it in iters:
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr in ("values", "items", "keys")
                    and not it.args
                    and not self._is_sorted_wrapped(ctx, it)
                ):
                    yield it, (
                        f"`{func.name}` iterates dict.{it.func.attr}() on an "
                        "alert path; emission order must be canonical"
                    )

