"""Persisting model weights to disk.

Models are saved as ``.npz`` archives of their ``state_dict()``; a tiny JSON
sidecar records arbitrary metadata (attack type, calibrated threshold, and
the hyper-parameters needed to rebuild the architecture).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .layers import Module

__all__ = [
    "save_module",
    "load_state",
    "load_module_into",
]


def save_module(
    module: Module, path: str | Path, metadata: dict | None = None
) -> Path:
    """Write ``module.state_dict()`` (and optional metadata) to ``path``.

    ``path`` gets a ``.npz`` suffix if it has none; metadata goes to a
    sibling ``.json`` file.  Returns the weights path.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **module.state_dict())
    if metadata is not None:
        meta_path = path.with_suffix(".json")
        meta_path.write_text(json.dumps(metadata, indent=2, sort_keys=True))
    return path


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load a weights archive and its metadata sidecar (if present)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with np.load(path) as archive:
        state = {key: archive[key].copy() for key in archive.files}
    meta_path = path.with_suffix(".json")
    metadata = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return state, metadata


def load_module_into(module: Module, path: str | Path) -> dict:
    """Load weights from ``path`` into an existing module; return metadata."""
    state, metadata = load_state(path)
    module.load_state_dict(state)
    return metadata
