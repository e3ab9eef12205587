"""In-memory span tracing around the public callables of each layer.

The serving stack is not edited: for a traced pass the runner swaps each
callable in :data:`TARGETS` for a wrapper (``setattr`` on the owning class
or module), records ``[name, start, end, parent]`` spans and work counts in
memory, and puts the original objects back afterwards — ``uninstall`` leaves
every attribute identical (``is``) to what it found.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  One driver thread issues every call, so spans nest strictly
and the self times of all layers sum to the duration of the root spans
(``ingest_datagram``, ``tick``, ``restore``).  Under the process backend
only the parent's spans exist: the forked shard children trace into their
own copy of this object, which dies with them.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["TARGETS", "GROUPS", "Tracer", "summarize", "originals", "layer_unit", "is_count", "counts_of"]


# ----------------------------------------------------------------------
# work counts, taken at the same boundaries as the spans
# ----------------------------------------------------------------------
def _count_engine_ingest(counts, args, result):
    counts["serve.engine.ingest_datagram.bytes"] += len(args[1])
    counts["serve.engine.ingest_datagram.records"] += result


def _count_drain(counts, args, result):
    counts["netflow.sampler.drain_batch.records"] += len(result)


def _count_tick(counts, args, result):
    counts["serve.engine.tick.alerts"] += len(result)


def _count_add_batch(counts, args, result):
    counts["netflow.matrix.add_batch.rows"] += len(args[1])


def _count_submit_step(counts, args, result):
    counts["serve.shard.submit_step.rows"] += len(args[2])


def _count_ring_write(counts, args, result):
    counts["serve.shm.ring_write.bytes"] += len(args[1])


def _count_feature_windows(counts, args, result):
    counts["core.online.feature_windows.windows"] += len(args[1])
    counts["core.online.feature_windows.bytes"] += result.nbytes


def _count_scaler(counts, args, result):
    counts["signals.features.scaler_transform.elements"] += args[1].size


def _count_lstm(counts, args, result):
    # Computed from the argument shapes, not measured: matmul FLOPs of the
    # input and recurrent projections, and every operand read or written once.
    x, w_x, w_h, bias = args[:4]
    batch, steps, features = x.shape
    hidden = w_h.shape[0]
    counts["nn.fused.lstm_infer_batched.batch_rows"] += batch
    counts["nn.fused.lstm_infer_batched.mflop"] += (
        2.0 * batch * steps * 4 * hidden * (features + hidden) / 1e6
    )
    counts["nn.fused.lstm_infer_batched.mb"] += (
        x.nbytes + w_x.nbytes + w_h.nbytes + bias.nbytes + result.nbytes
    ) / 1e6


def _count_dense(counts, args, result):
    x, weight = args[:2]
    counts["nn.fused.dense_infer.mflop"] += 2.0 * x.size * weight.shape[1] / 1e6


def _count_pool(counts, args, result):
    counts["nn.fused.pool_infer.mb"] += (args[0].nbytes + result.nbytes) / 1e6


def _count_evict(counts, args, result):
    counts["netflow.matrix.evict_before.cells_evicted"] += result


def _count_write_checkpoint(counts, args, result):
    counts["serve.state.write_checkpoint.checkpoints"] += 1
    counts["serve.state.write_checkpoint.bytes"] += sum(
        f.stat().st_size for f in Path(result).iterdir()
    )


# (span name, owning module, owning class or None, attribute, count hook)
TARGETS = (
    ("serve.engine.ingest_datagram", "repro.serve.engine", "ServeEngine", "ingest_datagram", _count_engine_ingest),
    ("netflow.sampler.ingest_datagram", "repro.netflow.sampler", "FlowCollector", "ingest_datagram", None),
    ("netflow.sampler.ingest_datagram_batch", "repro.netflow.sampler", "FlowCollector", "ingest_datagram_batch", None),
    ("netflow.datagram.decode_batch", "repro.netflow.datagram", "DatagramCodec", "decode_batch", None),
    ("netflow.sampler.drain_batch", "repro.netflow.sampler", "FlowCollector", "drain_batch", _count_drain),
    ("serve.engine.tick", "repro.serve.engine", "ServeEngine", "tick", _count_tick),
    ("netflow.matrix.add_batch", "repro.netflow.matrix", "TrafficMatrix", "add_batch", _count_add_batch),
    ("signals.history.batch_mask", "repro.signals.history", "PreviousAttackerStore", "batch_mask", None),
    ("serve.shard.submit_step", "repro.serve.shard", "ShardWorker", "submit_step", _count_submit_step),
    ("serve.shm.ring_write", "repro.serve.shm", "ShmRing", "write", _count_ring_write),
    ("serve.shard.collect", "repro.serve.shard", "ShardWorker", "collect", None),
    ("core.online.step", "repro.core.online", "OnlineXatu", "step", None),
    ("core.online.feature_windows", "repro.core.online", "OnlineXatu", "feature_windows", _count_feature_windows),
    ("netflow.matrix.feature_block", "repro.netflow.matrix", "TrafficMatrix", "feature_block", None),
    ("signals.history.feature_block", "repro.signals.history", "AttackHistoryStore", "feature_block", None),
    ("signals.clustering.feature_block", "repro.signals.clustering", "AttackerCustomerGraph", "feature_block", None),
    ("signals.features.scaler_transform", "repro.signals.features", "FeatureScaler", "transform", _count_scaler),
    ("core.model.stage_pooled", "repro.core.model", "XatuModel", "stage_pooled", None),
    ("core.model.hazards_np_staged", "repro.core.model", "XatuModel", "hazards_np_staged", None),
    # core/model.py imports these from the module on every call, so patching
    # the module attribute reaches the serving path.
    ("nn.fused.lstm_infer_batched", "repro.nn.fused", None, "lstm_infer_batched", _count_lstm),
    ("nn.fused.dense_infer", "repro.nn.fused", None, "dense_infer", _count_dense),
    ("nn.fused.pool_infer", "repro.nn.fused", None, "pool_infer", _count_pool),
    ("netflow.matrix.evict_before", "repro.netflow.matrix", "TrafficMatrix", "evict_before", _count_evict),
    ("serve.engine.checkpoint", "repro.serve.engine", "ServeEngine", "checkpoint", None),
    # engine.py binds these two by name at import, so its namespace is the
    # one the engine reads.
    ("serve.state.write_checkpoint", "repro.serve.engine", None, "write_checkpoint", _count_write_checkpoint),
    ("serve.shard.state_dict", "repro.serve.shard", "ShardWorker", "state_dict", None),
    ("serve.engine.restore", "repro.serve.engine", "ServeEngine", "restore", None),
    ("serve.state.read_checkpoint", "repro.serve.engine", None, "read_checkpoint", None),
    ("serve.shard.load_state_dict", "repro.serve.shard", "ShardWorker", "load_state_dict", None),
)

# Layer groups whose share of the total self time the workloads are meant to
# separate (see README "How the metrics interact").
GROUPS = {
    "scoring": (
        "core.online.feature_windows",
        "netflow.matrix.feature_block",
        "signals.history.feature_block",
        "signals.clustering.feature_block",
        "signals.features.scaler_transform",
        "core.model.stage_pooled",
        "core.model.hazards_np_staged",
        "nn.fused.lstm_infer_batched",
        "nn.fused.dense_infer",
        "nn.fused.pool_infer",
    ),
    "ingest_fold": (
        "serve.engine.ingest_datagram",
        "netflow.sampler.ingest_datagram",
        "netflow.sampler.ingest_datagram_batch",
        "netflow.datagram.decode_batch",
        "netflow.sampler.drain_batch",
        "netflow.matrix.add_batch",
        "signals.history.batch_mask",
    ),
    "checkpoint": (
        "serve.engine.checkpoint",
        "serve.state.write_checkpoint",
        "serve.shard.state_dict",
    ),
}

# Work counts reported per measured minute; the rest are per pass.
_PER_MINUTE_COUNTS = (
    "serve.engine.ingest_datagram.bytes",
    "serve.engine.ingest_datagram.records",
    "netflow.sampler.drain_batch.records",
    "serve.engine.tick.alerts",
    "netflow.matrix.add_batch.rows",
    "serve.shard.submit_step.rows",
    "serve.shm.ring_write.bytes",
    "core.online.feature_windows.windows",
    "core.online.feature_windows.bytes",
    "signals.features.scaler_transform.elements",
    "nn.fused.lstm_infer_batched.batch_rows",
    "nn.fused.lstm_infer_batched.mflop",
    "nn.fused.lstm_infer_batched.mb",
    "nn.fused.dense_infer.mflop",
    "nn.fused.pool_infer.mb",
    "netflow.matrix.evict_before.cells_evicted",
)


def _resolve(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class Tracer:
    """Span and count recorder; wrappers exist only between install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, open_, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for name, module_name, class_name, attr, count in TARGETS:
            owner = _resolve(module_name, class_name)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(name, original.__func__, count))
            else:
                wrapper = self._wrap(name, original, count)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def mark(self) -> None:
        """Forget everything recorded so far (end of the warm-up minutes)."""
        if self._open:
            raise RuntimeError("mark() inside an open span")
        self.spans.clear()
        self.counts.clear()


def originals() -> dict[str, object]:
    """The object each target attribute currently holds, by span name."""
    return {
        name: vars(_resolve(module_name, class_name))[attr]
        for name, module_name, class_name, attr, _count in TARGETS
    }


def summarize(tracer: Tracer, minutes: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``minutes`` measured minutes.

    ``wall_s`` is the pass's measured wall time (what the end-to-end metrics
    divide by); ``trace.coverage`` is the share of it the spans account for.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    submit_by_tick: dict[int, list[float]] = defaultdict(list)
    spans = tracer.spans
    for name, start, end, parent in spans:
        duration = end - start
        self_s[name] += duration
        calls[name] += 1
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        if name == "serve.shard.submit_step":
            submit_by_tick[parent].append(duration)

    out: dict[str, float] = {}
    for name, *_rest in TARGETS:
        out[f"{name}.self_ms_per_min"] = self_s[name] * 1e3 / minutes
        out[f"{name}.calls_per_min"] = calls[name] / minutes
    for key in _PER_MINUTE_COUNTS:
        out[f"{key}_per_min"] = tracer.counts[key] / minutes
    # Flows the engine drained but routed to no shard.  (Flows a shard's own
    # detector could not route show as submit_step rows above add_batch rows;
    # the reference pass checks both are zero.)
    out["serve.engine.tick.unrouted_per_min"] = (
        tracer.counts["netflow.sampler.drain_batch.records"]
        - tracer.counts["serve.shard.submit_step.rows"]
    ) / minutes
    # Inline shards run inside submit_step, so the spread of its duration
    # across the shards of one tick is their compute skew (the parallel
    # backends' makespan is set by the slowest).  ~0 under the process backend.
    out["serve.shard.submit_step.skew_ms_per_min"] = (
        sum(max(d) - min(d) for d in submit_by_tick.values()) * 1e3 / minutes
    )
    checkpoints = tracer.counts["serve.state.write_checkpoint.checkpoints"]
    out["serve.state.write_checkpoint.checkpoints"] = checkpoints
    out["serve.state.write_checkpoint.bytes_per_checkpoint"] = (
        tracer.counts["serve.state.write_checkpoint.bytes"] / checkpoints
        if checkpoints
        else 0.0
    )
    out["serve.engine.restore.restore_ms"] = 1e3 * sum(
        end - start for name, start, end, _p in spans if name == "serve.engine.restore"
    )
    total_self = sum(self_s.values())
    for group, names in GROUPS.items():
        out[f"share.{group}"] = (
            sum(self_s[n] for n in names) / total_self if total_self else 0.0
        )
    out["trace.coverage"] = total_self / wall_s
    return out


def layer_unit(metric: str) -> str:
    """The unit of one per-layer metric, from its name."""
    if metric.startswith(("share.", "trace.")):
        return "share"
    for suffix, unit in (
        ("_ms_per_min", "ms/min"),
        ("restore_ms", "ms"),
        ("bytes_per_min", "B/min"),
        ("bytes_per_checkpoint", "B"),
        ("mflop_per_min", "Mflop/min"),
        ("mb_per_min", "MB/min"),
        ("_per_min", "1/min"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def is_count(metric: str) -> bool:
    """True for per-layer metrics that are exact, seed-determined counts."""
    return not (
        metric.startswith(("share.", "trace."))
        or metric.endswith(("_ms_per_min", "restore_ms"))
    )


def counts_of(layers: dict[str, float]) -> dict[str, float]:
    return {name: value for name, value in layers.items() if is_count(name)}
