"""Call-graph construction over the xatuflow symbol table.

For every function in the table, each ``ast.Call`` in its body is
resolved to a callee qualname when possible:

* direct names (``helper(...)``) through module scope and imports;
* ``self.method(...)`` through the enclosing class and its resolvable
  bases;
* dotted access (``module.func``, ``Class.method``, ``pkg.mod.Class``)
  through the import-aware :meth:`SymbolTable.resolve`;
* constructor calls (``OnlineXatu(...)``) become edges to
  ``Class.__init__`` and are additionally recorded as *constructions*
  (the escape checker needs to know which class a value was built from);
* as a last resort, a *unique-name fallback*: ``obj.step(...)`` where
  exactly one class in the whole table defines ``step`` resolves to that
  method, marked ``heuristic=True`` so checkers can weigh it.

Edges carry the call node, so checkers can reason about the *site*
(guarded by ``with no_grad():``? inside a comprehension?) and findings
can print an interprocedural trace.
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
    constructs: str | None = None  # ClassInfo qualname when a constructor


class CallGraph:
    """Edges between table functions, with reverse index and path search."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: dict[str, list[CallSite]] = {}
        self.callers: dict[str, list[CallSite]] = {}

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.callers.setdefault(site.callee, []).append(site)

    def callees_of(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    def callers_of(self, qualname: str) -> list[CallSite]:
        return self.callers.get(qualname, [])

    # ------------------------------------------------------------------
    def reachable_from(
        self, entries: list[str], include_heuristic: bool = True
    ) -> dict[str, list[str]]:
        """BFS closure: qualname → shortest call path (list of qualnames,
        entry first) for every function reachable from ``entries``."""
        paths: dict[str, list[str]] = {}
        queue: list[str] = []
        for entry in entries:
            if entry not in paths:
                paths[entry] = [entry]
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for site in self.callees_of(current):
                if site.heuristic and not include_heuristic:
                    continue
                if site.callee in paths:
                    continue
                paths[site.callee] = paths[current] + [site.callee]
                queue.append(site.callee)
        return paths


# ----------------------------------------------------------------------
def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph(table)
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
                return CallSite(
                    fn.qualname, init.qualname, call, constructs=resolved.qualname
                )
            # Constructor of a class with no table __init__ (dataclass,
            # inherited init): keep the construction fact on a synthetic
            # edge to the class qualname so escape analysis still sees it.
            return CallSite(
                fn.qualname, resolved.qualname, call, constructs=resolved.qualname
            )
    # unique-name fallback for attribute calls on values of unknown type
    if isinstance(func, ast.Attribute):
        candidates = table.method_index.get(func.attr, [])
        if len(candidates) == 1:
            return CallSite(
                fn.qualname, candidates[0].qualname, call, heuristic=True
            )
    return None
