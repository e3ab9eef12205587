"""The xatuflow project-wide rule (XF002).

**XF002 seed-stream-discipline** reads the whole-project
:class:`SymbolGraph` (symbol table + call graph) and per-function CFGs
instead of one file's AST, so its facts survive function and module
boundaries — the blind spot of the per-file XL rules.
``SeedSequence``/``Generator`` values are linear resources: each named
stream is consumed by exactly one owner.  Double consumption on one
control-flow path, consumption inside a loop or comprehension, and
aliased hand-offs all fire; exclusive ``if``/``else`` consumptions do
not (the CFG knows the difference).

It registers into the same registry as the XL rules and builds findings
through the same :meth:`Rule.finding`, so one pass, one suppression
filter and one baseline cover both families.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

from ..framework import FileContext, Finding, Rule, Severity, dotted_name, register
from .callgraph import build_call_graph
from .cfg import build_cfg
from .engine import fixpoint_summaries
from .symbols import ClassInfo, FunctionInfo, SymbolTable

__all__ = ["SymbolGraph"]


class SymbolGraph:
    """Symbol table + call graph, built once per run and shared by every
    rule."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.graph = build_call_graph(table)

    def ctx_of(self, fn: FunctionInfo) -> FileContext:
        return self.table.module_of(fn).ctx


def _in_comprehension(ctx: FileContext, node: ast.AST) -> bool:
    return any(
        isinstance(anc, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for anc in ctx.ancestors(node)
    )


# ======================================================================
# XF002 — seed streams are linear resources
# ======================================================================
_SEEDSEQ = "seedseq"
_GEN = "generator"
_SAFE_CALLS = {"len", "isinstance", "repr", "str", "id", "type", "print"}


@register
class SeedStreamChecker(Rule):
    """XF002: each named SeedSequence/Generator stream has one owner."""

    id = "XF002"
    name = "seed-stream-discipline"
    severity = Severity.ERROR
    fix_hint = (
        "spawn one child stream per consumer (root.spawn(n)); never hand "
        "the same SeedSequence/Generator to two owners or construct "
        "owners from it in a loop"
    )
    description = (
        "SeedSequence/Generator stream consumed more than once (linear-"
        "resource violation), tracked through call-return summaries"
    )

    # -- stream-kind evaluation ----------------------------------------
    def _kind_of(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        expr: ast.AST,
        env: dict[str, str],
        get_summary: Callable[[str], str | None],
    ) -> str | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            leaf = dotted.split(".")[-1] if dotted else ""
            if leaf == "SeedSequence":
                return _SEEDSEQ
            if leaf in ("default_rng", "Generator", "Random"):
                return _GEN
            if leaf == "spawn":
                return _SEEDSEQ  # a spawn() result (list; unpacked below)
            for site in sg.graph.callees_of(fn.qualname):
                if site.node is expr and not site.heuristic:
                    return get_summary(site.callee)
        return None

    def _summary(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        get_summary: Callable[[str], str | None],
    ) -> str | None:
        env = self._bindings(sg, fn, get_summary)
        result: str | None = None
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                kind = self._kind_of(sg, fn, node.value, env, get_summary)
                if kind is not None:
                    result = kind
        return result

    def _bindings(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        get_summary: Callable[[str], str | None],
    ) -> dict[str, str]:
        """Flow-insensitive variable → stream-kind map for one function."""
        env: dict[str, str] = {}
        for _ in range(2):  # two passes resolve forward chains a = b
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                kind = self._kind_of(sg, fn, node.value, env, get_summary)
                for target in node.targets:
                    if isinstance(target, ast.Name) and kind is not None:
                        env[target.id] = kind
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        # a, b = root.spawn(2) — every element is a stream
                        value = node.value
                        unpack_kind = None
                        if (
                            isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Attribute)
                            and value.func.attr == "spawn"
                        ):
                            unpack_kind = _SEEDSEQ
                        elif isinstance(value, (ast.Tuple, ast.List)) and len(
                            value.elts
                        ) == len(target.elts):
                            continue  # handled positionally below if needed
                        if unpack_kind is not None:
                            for el in target.elts:
                                if isinstance(el, ast.Name):
                                    env[el.id] = unpack_kind
        return env

    # -- consumption collection ----------------------------------------
    def _consumptions(
        self, sg: SymbolGraph, fn: FunctionInfo, env: dict[str, str]
    ) -> dict[str, list[ast.AST]]:
        """var → consumption sites, deduplicated by node identity.

        Only *ownership hand-offs* consume, never draws:

        * a ``SeedSequence`` passed **directly by name** to any call —
          handing the same entropy source to two consumers is always a
          collision (``default_rng(ss)`` twice, two constructors, ...);
        * a ``Generator`` passed directly by name to a *constructor* of
          a table class (the object captures the stream) or stored on
          ``self``.  Passing a generator to a plain function that draws
          from it sequentially is this codebase's explicit-rng idiom and
          is deterministic — it does not consume.
        """
        mod = sg.table.module_of(fn)
        sites: dict[str, dict[int, ast.AST]] = {}

        def consume(name_node: ast.Name) -> None:
            sites.setdefault(name_node.id, {})[id(name_node)] = name_node

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                leaf = dotted.split(".")[-1] if dotted else ""
                if leaf in _SAFE_CALLS:
                    continue
                resolved = sg.table.resolve(mod, dotted) if dotted else None
                is_ctor = isinstance(resolved, ClassInfo)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if not (isinstance(arg, ast.Name) and arg.id in env):
                        continue
                    kind = env[arg.id]
                    if kind == _SEEDSEQ or (kind == _GEN and is_ctor):
                        consume(arg)
            elif isinstance(node, ast.Assign):
                # self.x = v : ownership moves into the object
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                        node.value, ast.Name
                    ):
                        if node.value.id in env:
                            consume(node.value)
        return {var: list(by_id.values()) for var, by_id in sites.items()}

    def run(self, sg: SymbolGraph) -> Iterable[Finding]:
        names = list(sg.table.functions)
        summaries = fixpoint_summaries(
            sg.graph,
            names,
            initial=lambda _q: None,
            transfer=lambda q, get: self._summary(sg, sg.table.functions[q], get),
        )

        def get_summary(qualname: str) -> str | None:
            return summaries.get(qualname)

        findings: list[Finding] = []
        for qualname in names:
            fn = sg.table.functions[qualname]
            env = self._bindings(sg, fn, get_summary)
            if not env:
                continue
            cfg = build_cfg(fn.node)
            ctx = sg.ctx_of(fn)
            for var, sites in sorted(self._consumptions(sg, fn, env).items()):
                kind = env[var]
                noun = "SeedSequence" if kind == _SEEDSEQ else "Generator"
                flagged: set[int] = set()
                resolved: list[tuple[ast.AST, int | None]] = []
                for site in sites:
                    if _in_comprehension(ctx, site):
                        if id(site) not in flagged:
                            flagged.add(id(site))
                            findings.append(
                                self.finding(
                                    ctx,
                                    site,
                                    f"{noun} stream `{var}` is consumed "
                                    "inside a comprehension — one stream "
                                    "shared across every constructed "
                                    "element",
                                )
                            )
                        continue
                    stmt = ctx.statement_of(site)
                    block = cfg.block_of(stmt) if stmt is not None else None
                    if block is not None and cfg.in_loop(block):
                        if id(site) not in flagged:
                            flagged.add(id(site))
                            findings.append(
                                self.finding(
                                    ctx,
                                    site,
                                    f"{noun} stream `{var}` is consumed "
                                    "inside a loop body — one stream "
                                    "shared across iterations",
                                )
                            )
                        continue
                    resolved.append((site, block))
                # pairwise: double consumption on one control-flow path
                for i in range(len(resolved)):
                    for j in range(i + 1, len(resolved)):
                        site_a, block_a = resolved[i]
                        site_b, block_b = resolved[j]
                        if block_a is None or block_b is None:
                            continue
                        sequential = (
                            block_a == block_b
                            or cfg.reaches(block_a, block_b)
                            or cfg.reaches(block_b, block_a)
                        )
                        if sequential and id(site_b) not in flagged:
                            flagged.add(id(site_b))
                            findings.append(
                                self.finding(
                                    ctx,
                                    site_b,
                                    f"{noun} stream `{var}` is consumed a "
                                    "second time (first hand-off at line "
                                    f"{site_a.lineno}) — split child "
                                    "streams instead of sharing one",
                                )
                            )
        return findings
