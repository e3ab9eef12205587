"""xatuflow: the project-wide half of xatulint.

Under :mod:`repro.analysis.framework` (findings, file contexts, the one
rule registry and driver), this package holds the parse and the
interprocedural machinery every ``cli lint`` run uses:

* :mod:`.symbols` — the one parser: every file into a
  :class:`~repro.analysis.framework.FileContext`, plus module/import
  resolution into one symbol table;
* :mod:`.callgraph` — call edges between every table function;
* :mod:`.cfg` — per-function basic-block control-flow graphs;
* :mod:`.engine` — inter- and intraprocedural fixpoint engines;
* :mod:`.checkers` — the four project-wide rules (XF001 dtype-flow,
  XF002 seed-stream discipline, XF003 shard-state ownership, XF004
  no_grad reachability).

Like the parent package, nothing here imports other ``repro``
subpackages and nothing executes analyzed code — analysis is purely
source-level.
"""

from .callgraph import CallGraph, CallSite, build_call_graph
from .cfg import CFG, Block, build_cfg
from .checkers import SymbolGraph
from .engine import dataflow_forward, fixpoint_summaries
from .symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    module_name_for,
)

__all__ = [
    "Block",
    "CFG",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "SymbolGraph",
    "SymbolTable",
    "build_call_graph",
    "build_cfg",
    "dataflow_forward",
    "fixpoint_summaries",
    "module_name_for",
]
