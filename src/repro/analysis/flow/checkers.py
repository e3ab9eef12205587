"""The xatuflow project-wide rules (XF001–XF004).

Each rule reads the whole-project :class:`SymbolGraph` (symbol table +
call graph) instead of one file's AST, so its facts survive function and
module boundaries — the exact blind spot of the per-file XL rules:

* **XF001 dtype-flow** — float32/float64 provenance through assignments
  and *call-return summaries*; flags mixed-dtype joins (binops, concats)
  that would silently upcast a reduced-precision inference lane and
  break bitwise lane equivalence.
* **XF002 seed-stream-discipline** — ``SeedSequence``/``Generator``
  values as linear resources: each named stream is consumed by exactly
  one owner.  Double consumption on one control-flow path, consumption
  inside a loop or comprehension, and aliased hand-offs all fire;
  exclusive ``if``/``else`` consumptions do not (the CFG knows the
  difference).
* **XF003 shard-state-ownership** — escape analysis across thread/
  process spawn sites: an object that escapes into a worker context
  while the spawning side retains an alias is *shared*; unguarded
  attribute writes reachable from the worker entry are flagged unless
  they go through the checkpoint (``state_dict``/``load_state_dict``) or
  ``ShmRing`` paths, hold a lock, or target an attribute declared with an
  ``# owner:`` note.
* **XF004 no-grad-reachability** — walks unguarded call chains from
  inference entry points (the entry itself included); any function on
  such a chain that allocates tape nodes (``Tensor(...)``,
  ``lstm_sequence``, ``.forward``) outside ``no_grad`` fires, with the
  full call path in the message.

They register into the same registry as the XL rules and build findings
through the same :meth:`Rule.finding`, so one pass, one suppression
filter and one baseline cover both families.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterable, Iterator

from ..framework import FileContext, Finding, Rule, Severity, dotted_name, register
from .callgraph import build_call_graph
from .cfg import CFG, build_cfg
from .engine import dataflow_forward, fixpoint_summaries
from .symbols import ClassInfo, FunctionInfo, SymbolTable

__all__ = ["SymbolGraph"]


class SymbolGraph:
    """Symbol table + call graph + per-function CFGs, built once per run
    and shared by every rule."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.graph = build_call_graph(table)
        self._cfgs: dict[str, CFG] = {}

    def ctx_of(self, fn: FunctionInfo) -> FileContext:
        return self.table.module_of(fn).ctx

    def cfg_of(self, fn: FunctionInfo) -> CFG:
        cfg = self._cfgs.get(fn.qualname)
        if cfg is None:
            cfg = build_cfg(fn.node)
            self._cfgs[fn.qualname] = cfg
        return cfg


def _with_targets(ctx: FileContext, node: ast.AST) -> Iterator[ast.AST]:
    """The context expression of every ``with`` item enclosing ``node``."""
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.With):
            for item in anc.items:
                yield item.context_expr


def _under_no_grad(ctx: FileContext, node: ast.AST) -> bool:
    return any(
        "no_grad" in dotted_name(expr.func if isinstance(expr, ast.Call) else expr)
        for expr in _with_targets(ctx, node)
    )


def _is_lock(expr: ast.AST) -> bool:
    """A lock by construction (``Lock()``/``RLock()``) or by name: the
    last name component is ``lock`` or ends in ``_lock`` (``self._lock``,
    ``_CACHE_LOCK``) — never a mere substring (``blocklist``, ``clock``)."""
    if isinstance(expr, ast.Call):
        return dotted_name(expr.func).split(".")[-1] in ("Lock", "RLock")
    leaf = dotted_name(expr).split(".")[-1].lower()
    return leaf == "lock" or leaf.endswith("_lock")


def _under_lock(ctx: FileContext, node: ast.AST) -> bool:
    return any(_is_lock(expr) for expr in _with_targets(ctx, node))


def _in_comprehension(ctx: FileContext, node: ast.AST) -> bool:
    return any(
        isinstance(anc, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for anc in ctx.ancestors(node)
    )


def _with_call_path(message: str, path: list[str]) -> str:
    rendered = " -> ".join(q.split(":")[-1] for q in path)
    return f"{message} [call path: {rendered}]"


# ======================================================================
# XF001 — dtype provenance across call edges
# ======================================================================
_F32 = "float32"
_F64 = "float64"
_ARRAY_FACTORIES = {
    "asarray", "array", "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "ascontiguousarray", "linspace", "arange",
}
# Factories that default to float64 when no dtype is given.
_F64_DEFAULT_FACTORIES = {"zeros", "ones", "empty", "full", "linspace"}
_JOIN_CALLS = {"concatenate", "stack", "hstack", "vstack", "column_stack"}


def _dtype_const(expr: ast.AST) -> str | None:
    """A dtype-denoting expression: ``np.float32`` / ``"float32"``."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        if expr.value in (_F32, _F64):
            return expr.value
    name = dotted_name(expr)
    leaf = name.split(".")[-1] if name else ""
    if leaf in (_F32, _F64):
        return leaf
    return None


def _join_dtype(a: str | None, b: str | None) -> str | None:
    return a if a == b else None


@register
class DtypeFlowChecker(Rule):
    """XF001: float64 values must not silently join a float32 lane."""

    id = "XF001"
    name = "dtype-flow"
    severity = Severity.ERROR
    fix_hint = (
        "cast explicitly at the lane boundary (np.asarray(x, dtype=...)); "
        "a mixed-dtype join upcasts silently and breaks bitwise lane "
        "equivalence"
    )
    description = (
        "mixed float32/float64 join, tracked interprocedurally through "
        "call-return summaries"
    )

    # -- expression dtype evaluation -----------------------------------
    def _dtype_of(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        expr: ast.AST,
        env: dict[str, str | None],
        get_summary: Callable[[str], str | None],
    ) -> str | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            dotted = dotted_name(func)
            leaf = dotted.split(".")[-1] if dotted else ""
            if leaf in (_F32, _F64):
                return leaf
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                for kw in expr.keywords:
                    if kw.arg == "dtype":
                        return _dtype_const(kw.value)
                if expr.args:
                    return _dtype_const(expr.args[0])
                return None
            if leaf in _ARRAY_FACTORIES:
                for kw in expr.keywords:
                    if kw.arg == "dtype":
                        got = _dtype_const(kw.value)
                        if got is not None:
                            return got
                        # dtype=<dynamic> — unknown, never assume
                        return None
                root = dotted.split(".")[0] if "." in dotted else ""
                if leaf in _F64_DEFAULT_FACTORIES and root in ("np", "numpy"):
                    return _F64
                return None
            # interprocedural: a resolved callee's return-dtype summary
            for site in sg.graph.callees_of(fn.qualname):
                if site.node is expr and not site.heuristic:
                    return get_summary(site.callee)
            return None
        if isinstance(expr, ast.BinOp):
            left = self._dtype_of(sg, fn, expr.left, env, get_summary)
            right = self._dtype_of(sg, fn, expr.right, env, get_summary)
            if left is not None and right is not None:
                # numpy promotion: f32 (op) f64 -> f64
                return _F64 if _F64 in (left, right) else left
            return None
        if isinstance(expr, ast.IfExp):
            return _join_dtype(
                self._dtype_of(sg, fn, expr.body, env, get_summary),
                self._dtype_of(sg, fn, expr.orelse, env, get_summary),
            )
        if isinstance(expr, ast.Subscript):
            return self._dtype_of(sg, fn, expr.value, env, get_summary)
        return None

    # -- one function's intraprocedural pass ---------------------------
    def _analyze(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        get_summary: Callable[[str], str | None],
        report: Callable[[ast.AST, str], None] | None = None,
    ) -> str | None:
        cfg = sg.cfg_of(fn)

        def transfer(idx: int, state: dict[str, str | None]):
            env = dict(state)
            for stmt in cfg.blocks[idx].statements:
                self._transfer_stmt(sg, fn, stmt, env, get_summary, report)
            return env

        def join(a: dict, b: dict) -> dict:
            merged = {}
            for key in set(a) | set(b):
                value = _join_dtype(a.get(key), b.get(key))
                if value is not None:
                    merged[key] = value
            return merged

        in_states = dataflow_forward(cfg, {}, transfer, join)

        # return-dtype summary: join over every reachable return
        result: str | None = None
        first = True
        for idx, state in in_states.items():
            env = dict(state)
            for stmt in cfg.blocks[idx].statements:
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    value = self._dtype_of(sg, fn, stmt.value, env, get_summary)
                    result = value if first else _join_dtype(result, value)
                    first = False
                self._transfer_stmt(sg, fn, stmt, env, get_summary, None)
        return result

    def _transfer_stmt(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        stmt: ast.stmt,
        env: dict[str, str | None],
        get_summary: Callable[[str], str | None],
        report: Callable[[ast.AST, str], None] | None,
    ) -> None:
        # Shallow handling: compound statements only contribute their
        # header expression — their bodies live in other CFG blocks.
        if isinstance(stmt, ast.Assign):
            if report is not None:
                self._scan_expr(sg, fn, stmt.value, env, get_summary, report)
            value = self._dtype_of(sg, fn, stmt.value, env, get_summary)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if value is None:
                        env.pop(target.id, None)
                    else:
                        env[target.id] = value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                if report is not None:
                    self._scan_expr(sg, fn, stmt.value, env, get_summary, report)
                value = self._dtype_of(sg, fn, stmt.value, env, get_summary)
                if isinstance(stmt.target, ast.Name):
                    if value is None:
                        env.pop(stmt.target.id, None)
                    else:
                        env[stmt.target.id] = value
        elif isinstance(stmt, ast.AugAssign):
            if report is not None:
                self._scan_expr(sg, fn, stmt.value, env, get_summary, report)
            if isinstance(stmt.target, ast.Name):
                left = env.get(stmt.target.id)
                right = self._dtype_of(sg, fn, stmt.value, env, get_summary)
                if (
                    report is not None
                    and left is not None
                    and right is not None
                    and left != right
                ):
                    report(
                        stmt,
                        f"augmented assignment joins {left} `{stmt.target.id}` "
                        f"with a {right} value",
                    )
                merged = _join_dtype(left, right)
                if merged is None:
                    env.pop(stmt.target.id, None)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if report is not None and stmt.value is not None:
                self._scan_expr(sg, fn, stmt.value, env, get_summary, report)
        elif isinstance(stmt, (ast.If, ast.While)):
            if report is not None:
                self._scan_expr(sg, fn, stmt.test, env, get_summary, report)
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.target, ast.Name):
                env.pop(stmt.target.id, None)

    def _scan_expr(
        self,
        sg: SymbolGraph,
        fn: FunctionInfo,
        expr: ast.AST,
        env: dict[str, str | None],
        get_summary: Callable[[str], str | None],
        report: Callable[[ast.AST, str], None],
    ) -> None:
        """Flag mixed-dtype joins inside one expression tree."""
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp):
                left = self._dtype_of(sg, fn, node.left, env, get_summary)
                right = self._dtype_of(sg, fn, node.right, env, get_summary)
                if left is not None and right is not None and left != right:
                    report(
                        node,
                        f"binary op joins a {left} value with a {right} "
                        "value — numpy upcasts silently",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                leaf = dotted.split(".")[-1] if dotted else ""
                if leaf in _JOIN_CALLS and node.args:
                    seq = node.args[0]
                    elements = (
                        seq.elts if isinstance(seq, (ast.List, ast.Tuple)) else []
                    )
                    dtypes = {
                        d
                        for d in (
                            self._dtype_of(sg, fn, el, env, get_summary)
                            for el in elements
                        )
                        if d is not None
                    }
                    if len(dtypes) > 1:
                        report(
                            node,
                            f"np.{leaf} joins arrays of "
                            f"{' and '.join(sorted(dtypes))} — the result "
                            "silently upcasts the lane",
                        )

    # ------------------------------------------------------------------
    def run(self, sg: SymbolGraph) -> Iterable[Finding]:
        names = list(sg.table.functions)

        summaries = fixpoint_summaries(
            sg.graph,
            names,
            initial=lambda _q: None,
            transfer=lambda q, get: self._analyze(
                sg, sg.table.functions[q], get
            ),
        )

        def get_summary(qualname: str) -> str | None:
            return summaries.get(qualname)

        findings: list[Finding] = []
        for qualname in names:
            fn = sg.table.functions[qualname]
            ctx = sg.ctx_of(fn)
            seen: set[int] = set()

            def report(node: ast.AST, message: str) -> None:
                if id(node) in seen:
                    return
                seen.add(id(node))
                findings.append(self.finding(ctx, node, message))

            self._analyze(sg, fn, get_summary, report)
        return findings


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
            cfg = sg.cfg_of(fn)
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


# ======================================================================
# XF003 — shard-state ownership across spawn boundaries
# ======================================================================
_SPAWN_LEAVES = {"Thread", "Process"}
_CHECKPOINT_FUNCS = {"state_dict", "load_state_dict"}
_MEDIATED_MODULES = ("serve.shm", "serve.state")


@register
class ShardOwnershipChecker(Rule):
    """XF003: state shared across a spawn boundary needs mediation."""

    id = "XF003"
    name = "shard-state-ownership"
    severity = Severity.ERROR
    fix_hint = (
        "hand the object wholly to the worker (construct it in the spawn "
        "args), mediate through checkpoint/ShmRing paths, or guard the "
        "write with a lock / `# owner:` contract"
    )
    description = (
        "attribute write reachable from a thread/process worker entry on "
        "an object the spawning side still aliases"
    )

    def _spawn_sites(
        self, sg: SymbolGraph, fn: FunctionInfo
    ) -> list[ast.Call]:
        out = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted.split(".")[-1] in _SPAWN_LEAVES:
                    if any(kw.arg == "target" for kw in node.keywords):
                        out.append(node)
        return out

    def _resolve_target(
        self, sg: SymbolGraph, fn: FunctionInfo, expr: ast.AST
    ) -> FunctionInfo | None:
        table = sg.table
        mod = table.module_of(fn)
        cls = table.class_of(fn)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and cls is not None
        ):
            return table.method_of(cls, expr.attr)
        dotted = dotted_name(expr)
        if dotted:
            resolved = table.resolve(mod, dotted)
            if isinstance(resolved, FunctionInfo):
                return resolved
        return None

    def _class_of_value(
        self, sg: SymbolGraph, fn: FunctionInfo, expr: ast.AST
    ) -> ClassInfo | None:
        """The table class an escaped expression refers to, if inferable."""
        table = sg.table
        mod = table.module_of(fn)
        cls = table.class_of(fn)
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return cls
            # local also stored on self => the spawner retains an alias
            ctor_class: ClassInfo | None = None
            retained = False
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == expr.id
                            and isinstance(node.value, ast.Call)
                        ):
                            resolved = table.resolve(
                                mod, dotted_name(node.value.func)
                            )
                            if isinstance(resolved, ClassInfo):
                                ctor_class = resolved
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and isinstance(node.value, ast.Name)
                            and node.value.id == expr.id
                        ):
                            retained = True
            return ctor_class if retained else None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and cls is not None
        ):
            # self.<attr> escapes; infer its class from the constructor
            # assignment anywhere in the spawning class.
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Call
                    ):
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr == expr.attr
                            ):
                                resolved = table.resolve(
                                    table.module_of(method),
                                    dotted_name(node.value.func),
                                )
                                if isinstance(resolved, ClassInfo):
                                    return resolved
            return None
        return None

    def _owned_attrs(self, sg: SymbolGraph, cls: ClassInfo) -> set[str]:
        """Attributes introduced with an `# owner:` note: single-writer
        ownership declared once, at the attribute's introduction."""
        ctx = sg.table.modules[cls.module].ctx
        owned: set[str] = set()
        for node in ast.walk(cls.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if "owner:" not in ctx.line_text(node.lineno):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        owned.add(target.attr)
        return owned

    def run(self, sg: SymbolGraph) -> Iterable[Finding]:
        table = sg.table
        findings: list[Finding] = []
        flagged: set[tuple[str, int]] = set()
        for fn in list(table.functions.values()):
            for spawn in self._spawn_sites(sg, fn):
                target_expr = next(
                    kw.value for kw in spawn.keywords if kw.arg == "target"
                )
                entry = self._resolve_target(sg, fn, target_expr)
                if entry is None:
                    continue
                args_kw = next(
                    (kw.value for kw in spawn.keywords if kw.arg == "args"),
                    None,
                )
                escaped: list[ClassInfo] = []
                elements = (
                    args_kw.elts
                    if isinstance(args_kw, (ast.Tuple, ast.List))
                    else []
                )
                for element in elements:
                    shared = self._class_of_value(sg, fn, element)
                    if shared is not None:
                        escaped.append(shared)
                if not escaped:
                    continue
                reachable = sg.graph.reachable_from([entry.qualname])
                for shared in escaped:
                    owned = self._owned_attrs(sg, shared)
                    for method in shared.methods.values():
                        path = reachable.get(method.qualname)
                        if path is None:
                            continue
                        if method.name in _CHECKPOINT_FUNCS:
                            continue
                        if any(
                            method.module.endswith(m) for m in _MEDIATED_MODULES
                        ):
                            continue
                        ctx = sg.ctx_of(method)
                        for node in ast.walk(method.node):
                            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                                continue
                            targets = (
                                node.targets
                                if isinstance(node, ast.Assign)
                                else [node.target]
                            )
                            for target in targets:
                                if not (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    continue
                                if target.attr in owned:
                                    continue
                                if "owner:" in ctx.line_text(node.lineno):
                                    continue
                                if _under_lock(ctx, node):
                                    continue
                                key = (method.rel_path, node.lineno)
                                if key in flagged:
                                    continue
                                flagged.add(key)
                                findings.append(
                                    self.finding(
                                        ctx,
                                        node,
                                        _with_call_path(
                                            f"`self.{target.attr}` of "
                                            f"`{shared.name}` is written on "
                                            "the worker side of a spawn "
                                            "boundary while the spawning side "
                                            "retains an alias — unmediated "
                                            "shared state",
                                            path,
                                        ),
                                    )
                                )
        return findings


# ======================================================================
# XF004 — tape allocation reachable from inference entries
# ======================================================================
_INFER_ENTRY_RE = re.compile(
    r"(^_?infer)|(_infer($|_))|(^predict)|(_np($|_))"
)
_TAPE_LEAVES = {"Tensor", "lstm_sequence"}


@register
class NoGradReachabilityChecker(Rule):
    """XF004: inference-reachable functions must not allocate tape."""

    id = "XF004"
    name = "no-grad-reachability"
    severity = Severity.ERROR
    fix_hint = (
        "establish `with no_grad():` at the inference entry (or decorate "
        "the entry with @no_grad) so every transitively reached Tensor "
        "construction is graph-free"
    )
    description = (
        "function reachable from an inference entry point over an "
        "unguarded call chain allocates tape nodes"
    )

    def _mode_aware(self, fn: FunctionInfo) -> bool:
        """A function that dispatches on grad mode itself is mechanism."""
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                if "grad_enabled" in dotted_name(node.func):
                    return True
            if isinstance(node, ast.Name) and node.id == "grad_enabled":
                return True
        return False

    def _mechanism_module(self, sg: SymbolGraph, fn: FunctionInfo) -> bool:
        """The module defining the Tensor class is the tape itself."""
        mod = sg.table.modules[fn.module]
        return "Tensor" in mod.classes

    def _alloc_sites(self, fn: FunctionInfo) -> list[tuple[ast.Call, str]]:
        out = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            leaf = dotted.split(".")[-1] if dotted else ""
            if leaf in _TAPE_LEAVES:
                out.append((node, leaf))
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "forward":
                out.append((node, f"{dotted or 'obj.forward'}"))
        return out

    def _decorated_no_grad(self, fn: FunctionInfo) -> bool:
        return any("no_grad" in d for d in fn.decorator_names)

    def run(self, sg: SymbolGraph) -> Iterable[Finding]:
        table = sg.table
        entries = [
            fn.qualname
            for fn in table.functions.values()
            if _INFER_ENTRY_RE.search(fn.name)
            and not self._mechanism_module(sg, fn)
        ]
        findings: list[Finding] = []
        flagged: set[tuple[str, int]] = set()
        # BFS over *unguarded* chains only: a call site under
        # `with no_grad():` (or a @no_grad callee) seals everything below.
        paths: dict[str, list[str]] = {}
        queue: list[str] = []
        for entry in sorted(entries):
            if entry not in paths:
                paths[entry] = [entry]
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            fn = table.functions[current]
            if self._mechanism_module(sg, fn) or self._mode_aware(fn):
                continue
            if self._decorated_no_grad(fn):
                continue
            ctx = sg.ctx_of(fn)
            for node, what in self._alloc_sites(fn):
                if _under_no_grad(ctx, node):
                    continue
                key = (fn.rel_path, node.lineno)
                if key in flagged:
                    continue
                flagged.add(key)
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        _with_call_path(
                            f"`{what}(...)` allocates tape nodes outside "
                            "no_grad on an inference path",
                            paths[current],
                        ),
                    )
                )
            for site in sg.graph.callees_of(current):
                if site.callee in paths:
                    continue
                if _under_no_grad(ctx, site.node):
                    continue
                callee = table.functions.get(site.callee)
                if callee is None:
                    continue
                if self._decorated_no_grad(callee):
                    continue
                paths[site.callee] = paths[current] + [site.callee]
                queue.append(site.callee)
        return findings
