"""repro.serve — the sharded, checkpointable online serving engine.

Wraps the streaming detector (:class:`~repro.core.OnlineXatu`) in a
deployment runtime: N worker shards partition the customer universe, a
:class:`~repro.netflow.FlowCollector`-backed ingest loop feeds them
minute batches, per-shard alerts merge into one ordered stream, and the
complete online state checkpoints to a versioned on-disk format so a
killed-and-restored run emits the same alerts as one that never stopped.
See docs/SERVING.md.
"""

from .config import BACKENDS, ServeConfig
from .engine import ServeEngine
from .routing import ContiguousCustomerRouter
from .shard import ShardFailure, ShardWorker
from .state import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointFormatError,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "ServeConfig",
    "ServeEngine",
    "ContiguousCustomerRouter",
    "ShardWorker",
    "ShardFailure",
    "BACKENDS",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointFormatError",
    "write_checkpoint",
    "read_checkpoint",
    "list_checkpoints",
    "latest_checkpoint",
]
