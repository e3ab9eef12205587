"""repro.analysis — xatulint: domain-aware static analysis + sanitizer.

The correctness gate for the autograd/serving stack (docs/ANALYSIS.md):

* :mod:`repro.analysis.framework` — findings, file contexts, the one
  rule registry (:func:`~repro.analysis.framework.all_rules`) and the
  one-pass driver (``analyze_paths`` / ``analyze_source``), inline
  suppressions;
* :mod:`repro.analysis.rules` — the XL rules (global-switch leaks, bare
  excepts);
* :mod:`repro.analysis.baseline` — the committed suppression ledger
  (``lint-baseline.json``) with per-entry written reasons and an
  analyzer-version + rule-inventory stamp;
* :mod:`repro.analysis.sanitizer` — the ``REPRO_SANITIZE=1`` runtime
  guard: frozen tape buffers and NaN/inf kernel-boundary guards.

Run the linter via ``python -m repro.cli lint --strict`` / ``make lint``.

This package is imported by :mod:`repro.nn.autograd` and
:mod:`repro.nn.fused` for the sanitizer, so it imports the sanitizer
only: the linter's modules load when ``cli lint`` (or a test) imports
them by name, never on the serving path.  Nothing here may import
another repro subpackage.
"""

from .sanitizer import (
    SanitizeError,
    check_finite,
    freeze_tape_buffer,
    sanitize_enabled,
    sanitized,
    set_sanitize,
)

__all__ = [
    "SanitizeError",
    "check_finite",
    "freeze_tape_buffer",
    "sanitize_enabled",
    "sanitized",
    "set_sanitize",
]
