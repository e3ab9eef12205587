"""Runtime sanitizer: the one guard on tape mutation, plus finite
kernel boundaries.

No lint rule checks tape writes: a write through a recorded op's
``.data`` fails here, in the sanitized CI lane (docs/ANALYSIS.md,
"Mutant audit").  Under an environment switch, so the production hot
path pays a single module-level boolean read, it enforces two
invariants at runtime:

* **Tape immutability** — every tensor produced by a recorded op gets
  ``ndarray.flags.writeable = False``, so any in-place write to an
  activation buffer between forward and backward raises immediately at
  the mutation site instead of silently corrupting gradients.  Leaf
  tensors (parameters, inputs) stay writable: optimizers and
  ``gradcheck`` mutate those by design.
* **Finite kernel boundaries** — the fused kernels assert their inputs
  and outputs are free of NaN/inf, so a poisoned batch is caught at the
  kernel that first saw it, not three subsystems downstream as a weird
  survival score.

Enable with ``REPRO_SANITIZE=1`` (the CI sanitized test lane does); in
code use :func:`sanitized` / :func:`set_sanitize` (tests).  This module
must stay import-light — :mod:`repro.nn.autograd` imports it.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

__all__ = [
    "SanitizeError",
    "sanitize_enabled",
    "set_sanitize",
    "sanitized",
    "freeze_tape_buffer",
    "check_finite",
]


def _env_flag() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


_SANITIZE = _env_flag()


class SanitizeError(RuntimeError):
    """A runtime invariant the sanitizer enforces was violated."""


def sanitize_enabled() -> bool:
    """Whether the runtime sanitizer hooks are active."""
    return _SANITIZE


def set_sanitize(flag: bool) -> bool:
    """Flip the sanitizer switch; returns the previous state (tests)."""
    global _SANITIZE
    previous = _SANITIZE
    _SANITIZE = bool(flag)
    return previous


class sanitized:
    """Enable (or disable) the sanitizer within a ``with`` block,
    restoring the previous state on exit, raising included."""

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled

    def __enter__(self) -> "sanitized":
        self._prev = set_sanitize(self._enabled)
        return self

    def __exit__(self, *exc) -> bool:
        set_sanitize(self._prev)
        return False


def freeze_tape_buffer(array: np.ndarray) -> np.ndarray:
    """Mark a tape-node buffer read-only so in-place writes raise.

    Views of frozen buffers inherit the flag; fresh arrays derived from
    them (``np.zeros_like`` etc.) stay writable.  Arrays that do not own
    their memory and whose base is writable can still be frozen — numpy
    allows tightening ``writeable`` on any array.
    """
    try:
        array.flags.writeable = False
    except ValueError:
        # Some exotic views refuse the flag change.  Such a buffer stays
        # writable: an in-place write to it goes unseen unless it
        # produces NaN/inf at a finite guard.
        pass
    return array


def check_finite(where: str, **named: np.ndarray) -> None:
    """Raise :class:`SanitizeError` if any named array has NaN/inf.

    ``where`` names the kernel boundary for the report, e.g.
    ``lstm_sequence.forward``.
    """
    bad: list[str] = []
    for name, array in named.items():
        if array is None:
            continue
        data = np.asarray(array)
        if data.dtype.kind != "f":
            continue
        if not np.all(np.isfinite(data)):
            n_nan = int(np.isnan(data).sum())
            n_inf = int(np.isinf(data).sum())
            bad.append(f"{name} (shape {data.shape}: {n_nan} NaN, {n_inf} inf)")
    if bad:
        raise SanitizeError(
            f"non-finite values at {where}: " + ", ".join(bad)
        )
