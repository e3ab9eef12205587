"""Call-graph construction over the xatuflow symbol table.

For every function in the table, each ``ast.Call`` in its body is
resolved to a callee qualname when possible:

* direct names (``helper(...)``) through module scope and imports;
* ``self.method(...)`` through the enclosing class and its resolvable
  bases;
* dotted access (``module.func``, ``Class.method``, ``pkg.mod.Class``)
  through the import-aware :meth:`SymbolTable.resolve`;
* constructor calls (``OnlineXatu(...)``) become edges to
  ``Class.__init__``;
* as a last resort, a *unique-name fallback*: ``obj.step(...)`` where
  exactly one class in the whole table defines ``step`` resolves to that
  method, marked ``heuristic=True`` so checkers can weigh it.

Edges carry the call node, so a checker can match a call expression to
its resolved callee (XF002 reads the callee's return summary there).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..framework import dotted_name
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, SymbolTable

__all__ = ["CallSite", "CallGraph", "build_call_graph"]


@dataclass
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at ``node``."""

    caller: str  # qualname
    callee: str  # qualname
    node: ast.Call
    heuristic: bool = False  # resolved only via the unique-name fallback


class CallGraph:
    """Edges between table functions, with a reverse index."""

    def __init__(self) -> None:
        self.edges: dict[str, list[CallSite]] = {}
        self.callers: dict[str, list[CallSite]] = {}

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.callers.setdefault(site.callee, []).append(site)

    def callees_of(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    def callers_of(self, qualname: str) -> list[CallSite]:
        return self.callers.get(qualname, [])


# ----------------------------------------------------------------------
def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph()
    for fn in table.functions.values():
        mod = table.module_of(fn)
        cls = table.class_of(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            site = _resolve_call(table, mod, cls, fn, node)
            if site is not None:
                graph.add(site)
    return graph


def _resolve_call(
    table: SymbolTable,
    mod: ModuleInfo,
    cls: ClassInfo | None,
    fn: FunctionInfo,
    call: ast.Call,
) -> CallSite | None:
    func = call.func
    # self.method(...) — the common intraclass edge
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and cls is not None
    ):
        target = table.method_of(cls, func.attr)
        if target is not None:
            return CallSite(fn.qualname, target.qualname, call)
        return None
    dotted = dotted_name(func)
    if dotted:
        resolved = table.resolve(mod, dotted)
        if isinstance(resolved, FunctionInfo):
            return CallSite(fn.qualname, resolved.qualname, call)
        if isinstance(resolved, ClassInfo):
            init = table.method_of(resolved, "__init__")
            if init is not None:
                return CallSite(fn.qualname, init.qualname, call)
            return None
    # unique-name fallback for attribute calls on values of unknown type
    if isinstance(func, ast.Attribute):
        candidates = table.method_index.get(func.attr, [])
        if len(candidates) == 1:
            return CallSite(
                fn.qualname, candidates[0].qualname, call, heuristic=True
            )
    return None
