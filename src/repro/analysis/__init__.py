"""repro.analysis — xatulint: domain-aware static analysis + sanitizer.

The correctness gate for the autograd/serving stack (docs/ANALYSIS.md):

* :mod:`repro.analysis.framework` — the AST rule framework: registry,
  :class:`Finding`, deterministic file drivers, inline suppressions;
* :mod:`repro.analysis.rules` — the XL001–XL010 domain rules (tape
  immutability, no_grad hygiene, global-switch leaks, reproducibility,
  alert-order determinism);
* :mod:`repro.analysis.flow` — **xatuflow**, the interprocedural layer:
  symbol table, call graph, per-function CFGs, fixpoint engines, and the
  deep XF001–XF004 checkers behind ``cli lint --deep``;
* :mod:`repro.analysis.baseline` — the committed suppression ledger
  (``lint-baseline.json``) with per-entry written reasons and an
  analyzer-version + rule-inventory stamp;
* :mod:`repro.analysis.sarif` — SARIF 2.1.0 serialisation for CI
  artifacts (``cli lint --format sarif``);
* :mod:`repro.analysis.sanitizer` — the ``REPRO_SANITIZE=1`` runtime
  backstop: frozen tape buffers and NaN/inf kernel-boundary guards.

Run it via ``python -m repro.cli lint --strict`` (shallow, fast) or
``python -m repro.cli lint --deep`` (adds the flow checkers) /
``make lint`` / ``make lint-deep``.

:mod:`repro.analysis.flow` is *not* imported here — the deep layer loads
only when ``--deep`` asks for it, keeping the sanitizer import path
(this package is imported by :mod:`repro.nn.autograd`) minimal.

This package is imported by :mod:`repro.nn.autograd` (for the sanitizer
switch), so it must not import any repro subpackage.
"""

from .baseline import BASELINE_VERSION, DEFAULT_BASELINE_PATH, Baseline, BaselineEntry
from .framework import (
    ANALYZER_VERSION,
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    iter_python_files,
    register,
)
from .rules import ALL_RULE_IDS
from .sanitizer import (
    SanitizeError,
    check_finite,
    freeze_tape_buffer,
    sanitize_enabled,
    sanitized,
    set_sanitize,
)

__all__ = [
    "ALL_RULE_IDS",
    "ANALYZER_VERSION",
    "BASELINE_VERSION",
    "DEFAULT_BASELINE_PATH",
    "Baseline",
    "BaselineEntry",
    "FileContext",
    "Finding",
    "Rule",
    "SanitizeError",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "check_finite",
    "freeze_tape_buffer",
    "get_rule",
    "iter_python_files",
    "register",
    "sanitize_enabled",
    "sanitized",
    "set_sanitize",
]
