"""Durable, versioned on-disk checkpoints for the serving engine.

A checkpoint is a directory::

    <root>/
      LATEST                  -> name of the newest ckpt-* subdirectory
      ckpt-00000419/
        MANIFEST.json         {"format_version": 5, "minute": 419, ...}
        engine.pkl            engine-level state (collector, counters)
        shard-00.pkl          one OnlineXatu state_dict per shard
        shard-01.pkl
        ...

Every payload is a *canonical* state dict (sorted collections only, see
``OnlineXatu.state_dict``) pickled at a pinned protocol, and the manifest
is sorted-key JSON with no wall-clock content — so equal states produce
byte-identical checkpoints, the property the crash-equivalence tests
assert.  Writes are atomic (staged to a temp directory, then renamed) so
a crash mid-snapshot never corrupts the latest good checkpoint.

Format version 5 holds serving state only: a shard file is the clock, the
columnar matrix, the A2/A4/A5 stores, the hazard, suppression, watch and
last-seen trackers, and the ``deployment`` digest of the model, scaler,
config, routing, blocklist and route table it was served under (key table
in ``docs/SERVING.md``).  Alerts leave a shard with the ``step`` that
raised them, so no shard holds an alert queue (version 3 did).  The
deployment itself comes from the detector factory on restore, and a shard
refuses a snapshot whose digest is not its own.  ``engine.pkl`` has no
count of withheld alerts: the engine withholds none (version 4 did, under
a ``suppress`` policy).  Versions 1 to 4 have no reader: they raise
:class:`CheckpointFormatError`, and the deployment restarts cold.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from pathlib import Path

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointFormatError",
    "write_checkpoint",
    "read_checkpoint",
    "list_checkpoints",
    "latest_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 5

# Pinned: newer pickle protocols could serialize the same state to
# different bytes, silently breaking checkpoint byte-identity.
_PICKLE_PROTOCOL = 4


class CheckpointFormatError(ValueError):
    """Raised for unreadable or incompatibly-versioned checkpoints."""


def _dump(obj, path: Path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=_PICKLE_PROTOCOL)


def _load(path: Path):
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (  # what a missing, empty or torn pickle raises (pickle docs)
        OSError, EOFError, pickle.UnpicklingError, AttributeError, ImportError, IndexError
    ) as exc:
        raise CheckpointFormatError(f"unreadable checkpoint file {path}: {exc!r}") from exc


def write_checkpoint(
    root: str | Path,
    minute: int,
    shard_states: list[dict],
    engine_state: dict,
) -> Path:
    """Atomically write one checkpoint; returns the ``ckpt-*`` directory."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = f"ckpt-{minute:08d}"
    staging = root / f".tmp-{name}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "minute": int(minute),
        "shards": len(shard_states),
        "files": ["engine.pkl"]
        + [f"shard-{i:02d}.pkl" for i in range(len(shard_states))],
    }
    (staging / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    _dump(engine_state, staging / "engine.pkl")
    for i, state in enumerate(shard_states):
        _dump(state, staging / f"shard-{i:02d}.pkl")
    final = root / name
    if final.exists():
        shutil.rmtree(final)
    os.replace(staging, final)
    # The LATEST pointer is advisory (readers fall back to sorting the
    # ckpt-* names), so a torn write here is harmless.
    latest_tmp = root / ".LATEST.tmp"
    latest_tmp.write_text(name + "\n")
    os.replace(latest_tmp, root / "LATEST")
    return final


def list_checkpoints(root: str | Path) -> list[Path]:
    """All checkpoint directories under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir() and p.name.startswith("ckpt-"))


def latest_checkpoint(root: str | Path) -> Path | None:
    """The newest checkpoint directory, or None if there is none."""
    root = Path(root)
    pointer = root / "LATEST"
    if pointer.is_file():
        candidate = root / pointer.read_text().strip()
        if candidate.is_dir():
            return candidate
    checkpoints = list_checkpoints(root)
    return checkpoints[-1] if checkpoints else None


def read_checkpoint(path: str | Path) -> tuple[int, list[dict], dict]:
    """Load ``(minute, shard_states, engine_state)`` from one checkpoint.

    ``path`` may be a ``ckpt-*`` directory or a checkpoint root (the
    newest checkpoint is used).  Raises :class:`CheckpointFormatError`,
    naming the file, for a missing or unreadable manifest, a manifest
    without ``shards`` / ``minute``, any other format version, and a
    missing, empty or torn payload file.
    """
    path = Path(path)
    if not (path / "MANIFEST.json").is_file():
        newest = latest_checkpoint(path)
        if newest is None:
            raise CheckpointFormatError(f"no checkpoint found under {path}")
        path = newest
    try:
        manifest = json.loads((path / "MANIFEST.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"unreadable manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointFormatError(f"manifest in {path} is not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint {path} has format_version={version!r}; "
            f"this build reads version {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        minute, n_shards = int(manifest["minute"]), int(manifest["shards"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(
            f"manifest {path / 'MANIFEST.json'} lacks a usable {exc!r}"
        ) from exc
    engine_state = _load(path / "engine.pkl")
    shard_states = [_load(path / f"shard-{i:02d}.pkl") for i in range(n_shards)]
    return minute, shard_states, engine_state
