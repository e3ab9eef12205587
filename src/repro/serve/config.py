"""Typed configuration for the serving engine."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["ServeConfig", "BACKENDS", "INFERENCE_DTYPES", "TRANSPORTS"]

BACKENDS = ("inline", "process")
INFERENCE_DTYPES = ("float32", "float64")
TRANSPORTS = ("pipe", "shm")


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Knobs for :class:`~repro.serve.ServeEngine`.

    Attributes
    ----------
    shards:
        Number of worker shards the customer universe is partitioned
        across (``customer_id % shards``).  The merged alert stream is
        identical for any shard count; sharding only changes who does the
        scoring work.
    backend:
        ``inline`` scores shards sequentially in the caller's thread (the
        deterministic reference, and the right choice for tests);
        ``process`` forks one worker per shard so shards score
        concurrently on multi-core hosts.
    checkpoint_dir / checkpoint_every:
        Where and how often (in observed minutes) to snapshot the full
        online state.  ``checkpoint_every=0`` disables periodic snapshots
        (explicit :meth:`~repro.serve.ServeEngine.checkpoint` calls still
        work); a positive value requires ``checkpoint_dir``.
    inference_dtype:
        ``"float32"`` (the default) or ``"float64"``: the precision every
        :class:`~repro.core.OnlineXatu` the engine builds scores in.
        Float64 is the training precision and the oracle; float32 is
        served because only which side of the threshold a decision lands
        on matters, and ``scenarios check`` gates that every Xatu world's
        alerts are equal under both (docs/SERVING.md "Inference
        precision").  This is engine policy, never checkpointed state: a
        restore may change it freely.
    transport:
        How the process backend moves each minute's flow payload to its
        workers: ``shm`` (the default) stages the encoded batch in a
        per-shard shared-memory ring and pipes only a control tuple;
        ``pipe`` pickles the payload through the pipe.  The transports
        are interchangeable — same alerts, same checkpoints — and hosts
        without a usable shared-memory filesystem fall back to ``pipe``
        automatically (with a warning).  Ignored by the inline backend,
        which passes batches by reference.
    """

    shards: int = 1
    backend: str = "inline"
    checkpoint_dir: str | Path | None = None
    checkpoint_every: int = 0
    inference_dtype: str = "float32"
    transport: str = "shm"

    def validate(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if self.checkpoint_every and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every > 0 requires a checkpoint_dir")
        if self.inference_dtype not in INFERENCE_DTYPES:
            raise ValueError(f"inference_dtype must be one of {INFERENCE_DTYPES}")
