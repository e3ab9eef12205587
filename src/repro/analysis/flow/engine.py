"""The xatuflow fixpoint engine.

:func:`fixpoint_summaries` computes one abstract summary per function
(e.g. "returns a fresh Generator") by iterating a transfer function to
fixpoint over the call graph — a classic worklist iteration.  When a
function's summary changes, its *callers* re-enter the worklist, so facts
propagate across call edges — the property that separates the XF rules
from the per-file XL rules.

It terminates because the abstract domain the checker uses is a finite
lattice and the transfer function is monotone; a hard iteration cap
guards against a checker bug ever hanging the lint gate.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from .callgraph import CallGraph

__all__ = ["fixpoint_summaries"]

S = TypeVar("S")

_MAX_ROUNDS = 50  # defensive cap; real fixpoints settle in < 5 rounds


def fixpoint_summaries(
    graph: CallGraph,
    functions: Iterable[str],
    initial: Callable[[str], S],
    transfer: Callable[[str, Callable[[str], S]], S],
) -> dict[str, S]:
    """Iterate ``transfer`` over the call graph until summaries stabilize.

    ``transfer(qualname, get_summary)`` recomputes one function's summary,
    reading callee summaries through ``get_summary`` (which returns the
    ``initial`` value for functions outside the analyzed set, so external
    callees degrade to the checker's ⊥/unknown).
    """
    names = list(functions)
    summaries: dict[str, S] = {name: initial(name) for name in names}
    in_set = set(names)

    def get_summary(qualname: str) -> S:
        if qualname in summaries:
            return summaries[qualname]
        return initial(qualname)

    worklist = list(names)
    rounds: dict[str, int] = {}
    while worklist:
        name = worklist.pop()
        rounds[name] = rounds.get(name, 0) + 1
        if rounds[name] > _MAX_ROUNDS:
            continue
        updated = transfer(name, get_summary)
        if updated != summaries[name]:
            summaries[name] = updated
            # The change can affect every caller's summary.
            for site in graph.callers_of(name):
                if site.caller in in_set and site.caller not in worklist:
                    worklist.append(site.caller)
    return summaries
