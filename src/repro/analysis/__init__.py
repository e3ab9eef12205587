"""repro.analysis — the ``REPRO_SANITIZE=1`` runtime sanitizer.

Frozen tape buffers and NaN/inf kernel-boundary guards
(:mod:`repro.analysis.sanitizer`, docs/ANALYSIS.md).  The two source
rules no runtime gate checks are tests, ``tests/test_source_rules.py``.

:mod:`repro.nn.autograd` and :mod:`repro.nn.fused` import this package,
so nothing here may import another repro subpackage.
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
