"""xatuflow: the project-wide half of xatulint.

Under :mod:`repro.analysis.framework` (findings, file contexts, the one
rule registry and driver), this package holds the parse and the
interprocedural machinery every ``cli lint`` run uses:

* :mod:`.symbols` — the one parser: every file into a
  :class:`~repro.analysis.framework.FileContext`, plus module/import
  resolution into one symbol table;
* :mod:`.callgraph` — call edges between every table function;
* :mod:`.cfg` — per-function basic-block control-flow graphs;
* :mod:`.engine` — the interprocedural fixpoint engine;
* :mod:`.checkers` — the project-wide rule, XF002 seed-stream
  discipline.

Like the parent package, nothing here imports other ``repro``
subpackages and nothing executes analyzed code — analysis is purely
source-level.
"""

from .callgraph import CallGraph, CallSite, build_call_graph
from .cfg import CFG, Block, build_cfg
from .checkers import SymbolGraph
from .engine import fixpoint_summaries
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
    "fixpoint_summaries",
    "module_name_for",
]
