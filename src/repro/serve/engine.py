"""The sharded, checkpointable serving engine.

:class:`ServeEngine` is the deployment loop from §2.6 made durable: a
:class:`~repro.netflow.FlowCollector` receives export datagrams, each
minute ``tick()`` partitions the arrived flows across N shard workers
(``customer_id % shards``), and the per-shard alerts are merged into one
``(minute, customer_id)``-ordered stream.

Shard-count invariance
----------------------
The A4/A5 signals (attack history, bipartite clustering) couple customers
*across* shards: a clustering feature of customer ``c`` depends on alerts
of other customers in the window.  The engine therefore broadcasts every
incumbent-defense alert to **all** shards — each shard's history/graph
stores are global, only its traffic matrix is partition-local — so the
merged alert stream is byte-identical for any shard count.  Tests assert
this.

Durability
----------
``checkpoint()`` snapshots the collector plus every shard's complete
online state into a versioned on-disk format
(:mod:`repro.serve.state`); ``restore()`` loads one back, after which
replaying the same minutes produces the same merged stream as a run that
never stopped (the crash-equivalence guarantee).

Degradation
-----------
``tick()`` consults :meth:`~repro.netflow.FlowCollector.feed_health`
every minute: when the export-feed loss rate exceeds
``ServeConfig.degraded_loss_rate`` the minute counts as degraded —
flagged in the obs metrics, and (under the ``suppress`` policy) its
alerts are withheld.  An unhealthy shard (worker raised or died) stops
scoring its partition while the rest of the feed continues.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.online import OnlineAlert, OnlineXatu
from ..netflow.customers import CustomerLookup
from ..netflow.records import FlowBatch
from ..netflow.sampler import FeedHealth, FlowCollector
from ..obs import get_registry, obs_enabled, trace
from ..signals.history import AlertRecord
from .config import ServeConfig
from .shard import ShardFailure, ShardWorker
from .state import read_checkpoint, write_checkpoint

__all__ = ["ServeEngine"]

DetectorFactory = Callable[[dict[int, int]], OnlineXatu]


def _merge_key(alert: OnlineAlert) -> tuple[int, int]:
    return (alert.minute, alert.customer_id)


class ServeEngine:
    """Drive a sharded fleet of :class:`~repro.core.OnlineXatu` partitions.

    Parameters
    ----------
    detector_factory:
        ``factory(partition_customer_of) -> OnlineXatu`` — builds one
        shard's detector from its slice of the address→customer map.  The
        factory must give every shard the same model/threshold/stores
        configuration, otherwise shard-count invariance is forfeit.
    customer_of:
        The full destination-address → customer-id map; the engine routes
        flows to shards with it.  Either a plain dict or an analytic
        router such as :class:`~repro.serve.ContiguousCustomerRouter` —
        with a router, routing and shard partitioning are arithmetic
        (O(batch) work, O(1) memory) and each shard's factory receives a
        :meth:`~repro.serve.ContiguousCustomerRouter.shard_view` instead
        of a dict slice, so million-customer universes never materialize
        a routing table.
    config:
        A validated :class:`~repro.serve.ServeConfig`.
    """

    name = "serve"

    def __init__(
        self,
        detector_factory: DetectorFactory,
        customer_of: dict[int, int],
        config: ServeConfig | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self._lookup = CustomerLookup(customer_of)
        self.customer_of = self._lookup.mapping
        self._factory = detector_factory
        self.collector = FlowCollector()
        self.shards = [
            ShardWorker(
                index,
                self._shard_factory(index),
                backend=self.config.backend,
                transport=self.config.transport,
            )
            for index in range(self.config.shards)
        ]
        self._minute = -1
        self._pending: list[OnlineAlert] = []
        self._pending_cdet: list[AlertRecord] = []
        self._pending_ends: list[tuple[int, int]] = []
        self._alerts_emitted = 0
        self._alerts_suppressed = 0
        self._degraded_minutes = 0
        self._minutes_observed = 0
        self._checkpoints_written = 0
        self._closed = False

    def _shard_factory(self, index: int) -> Callable[[], OnlineXatu]:
        n = self.config.shards
        if self._lookup.is_table:
            partition = {
                addr: cid for addr, cid in self.customer_of.items() if cid % n == index
            }
        else:
            partition = self.customer_of.shard_view(index, n)
        factory = self._factory
        inference_dtype = self.config.inference_dtype

        def build() -> OnlineXatu:
            detector = factory(partition)
            # Inference precision is engine policy, not detector state:
            # applied on every (re)build, never serialized — so a restore
            # may change it freely.
            if isinstance(detector, OnlineXatu):
                detector.inference_dtype = (
                    None if inference_dtype is None else np.dtype(inference_dtype)
                )
            return detector

        return build

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest_datagram(self, blob: bytes) -> int:
        """Receive one headered export datagram; returns its record count."""
        return len(self.collector.ingest_datagram_batch(blob))

    def ingest_flows(self, flows: FlowBatch) -> int:
        """Receive already-decoded flows (bypasses the wire codec).  A caller
        holding records converts them once, with
        :meth:`FlowBatch.from_records`."""
        return self.collector.add_flows(flows)

    def ingest_cdet_alert(self, record: AlertRecord) -> None:
        """Queue one incumbent-defense alert for broadcast to every shard
        on the next ``tick`` (A2/A4/A5 stores are global signals)."""
        self._pending_cdet.append(record)

    def ingest_mitigation_end(self, customer_id: int, minute: int) -> None:
        """Queue one mitigation-end notice (re-arms the customer)."""
        self._pending_ends.append((customer_id, minute))

    # ------------------------------------------------------------------
    # the minute loop
    # ------------------------------------------------------------------
    def _partition(self, batch: FlowBatch) -> tuple[list[FlowBatch], int]:
        """Split one minute's batch into per-shard batches, columnar.

        Routing (``customer_of`` lookup) and shard assignment
        (``customer_id % shards``) happen as two vectorized passes; order
        within each shard's batch is arrival order, exactly what the old
        per-record append loop produced.
        """
        n = self.config.shards
        arr = batch.array
        if not len(arr):
            return [FlowBatch.empty() for _ in range(n)], 0
        cids, routed = self._lookup.route(arr["dst_addr"].astype(np.int64))
        shard_of = np.where(routed, cids % n, -1)
        unrouted = int(len(arr) - np.count_nonzero(routed))
        return [batch.take(shard_of == index) for index in range(n)], unrouted

    def _fan_out(
        self, minute: int, by_shard: list[FlowBatch]
    ) -> list[tuple[ShardWorker, float]]:
        """Dispatch the minute to every healthy shard before joining any
        of them — with the process backend the shards score concurrently.
        Queued incumbent alerts and mitigation ends go to all shards."""
        cdet_alerts, self._pending_cdet = self._pending_cdet, []
        ends, self._pending_ends = self._pending_ends, []
        dispatched = []
        for shard, shard_flows in zip(self.shards, by_shard):
            if not shard.healthy:
                continue
            start = time.perf_counter()
            try:
                shard.submit_step(minute, shard_flows, cdet_alerts, ends)
            except ShardFailure:
                continue
            dispatched.append((shard, start))
        return dispatched

    def _collect(
        self, dispatched: list[tuple[ShardWorker, float]]
    ) -> list[OnlineAlert]:
        """Join every dispatched shard; a failed one contributes nothing."""
        telemetry_on = obs_enabled()
        alerts: list[OnlineAlert] = []
        for shard, start in dispatched:
            try:
                alerts.extend(shard.collect())
            except ShardFailure:
                pass
            if telemetry_on:
                get_registry().histogram(
                    "serve.shard_minute_seconds",
                    "per-shard wall time for one minute",
                ).observe(time.perf_counter() - start, shard=str(shard.index))
        return alerts

    def _merge(
        self, alerts: list[OnlineAlert], suppressed: bool
    ) -> tuple[list[OnlineAlert], int]:
        """Order the shards' alerts canonically and hold them for
        :meth:`poll_alerts`; a suppressed minute's alerts are withheld.
        Returns ``(emitted alerts, withheld count)``."""
        alerts.sort(key=_merge_key)
        withheld = 0
        if suppressed:
            withheld, alerts = len(alerts), []
        self._alerts_suppressed += withheld
        self._pending.extend(alerts)
        self._alerts_emitted += len(alerts)
        return alerts, withheld

    def _record_minute(
        self,
        emitted: int,
        withheld: int,
        suppressed: bool,
        unrouted: int,
        loss_rate: float,
        degraded: bool,
    ) -> None:
        registry = get_registry()
        registry.counter("serve.minutes", "minutes served").inc()
        if emitted:
            registry.counter("serve.alerts", "merged alerts emitted").inc(emitted)
        if unrouted:
            registry.counter(
                "serve.flows_unrouted", "flows dropped: unknown destination"
            ).inc(unrouted)
        if suppressed:
            registry.counter(
                "serve.alerts_suppressed", "alerts withheld while degraded"
            ).inc(withheld)
        registry.gauge(
            "serve.feed_loss_rate", "collector-observed export loss rate"
        ).set(loss_rate)
        registry.gauge(
            "serve.feed_degraded", "1 while the export feed is degraded"
        ).set(1.0 if degraded else 0.0)
        for shard in self.shards:
            registry.gauge(
                "serve.shard_healthy", "1 while the shard worker is live"
            ).set(1.0 if shard.healthy else 0.0, shard=str(shard.index))

    def tick(self, minute: int) -> list[OnlineAlert]:
        """Score one minute: drain/partition → ``_fan_out`` → ``_collect``
        → ``_merge`` → ``_record_minute`` → periodic ``checkpoint``.

        Must be called once per minute, monotonically — quiet minutes too
        (absence of traffic is signal).  Returns the minute's merged
        alerts (also available via :meth:`poll_alerts`).
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if minute <= self._minute:
            raise ValueError(f"minutes must advance: got {minute} after {self._minute}")
        self._minute = minute
        self._minutes_observed += 1

        by_shard, unrouted = self._partition(self.collector.drain_batch())
        loss_rate = self.collector.feed_health().loss_rate
        degraded = loss_rate > self.config.degraded_loss_rate
        if degraded:
            self._degraded_minutes += 1
        suppressed = degraded and self.config.degradation_policy == "suppress"

        with trace("serve.tick"):
            alerts = self._collect(self._fan_out(minute, by_shard))
        alerts, withheld = self._merge(alerts, suppressed)
        if obs_enabled():
            self._record_minute(
                len(alerts), withheld, suppressed, unrouted, loss_rate, degraded
            )
        every = self.config.checkpoint_every
        if every and self._minutes_observed % every == 0:
            self.checkpoint()
        return alerts

    def poll_alerts(self) -> list[OnlineAlert]:
        """Drain the merged alert stream accumulated since the last poll."""
        pending, self._pending = self._pending, []
        return pending

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def current_minute(self) -> int:
        return self._minute

    def feed_health(self) -> FeedHealth:
        return self.collector.feed_health()

    def shard_health(self) -> dict[int, bool]:
        """Liveness of every shard worker."""
        return {shard.index: shard.healthy for shard in self.shards}

    def stats(self) -> dict:
        """Engine-level counters (the checkpointed subset plus health)."""
        return {
            "minute": self._minute,
            "minutes_observed": self._minutes_observed,
            "alerts_emitted": self._alerts_emitted,
            "alerts_suppressed": self._alerts_suppressed,
            "degraded_minutes": self._degraded_minutes,
            "checkpoints_written": self._checkpoints_written,
            "healthy_shards": sum(1 for s in self.shards if s.healthy),
            "shards": self.config.shards,
        }

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _engine_state(self) -> dict:
        return {
            "minute": self._minute,
            "minutes_observed": self._minutes_observed,
            "alerts_emitted": self._alerts_emitted,
            "alerts_suppressed": self._alerts_suppressed,
            "degraded_minutes": self._degraded_minutes,
            "collector": self.collector.state_dict(),
            "pending": [
                [a.customer_id, a.minute, a.survival] for a in self._pending
            ],
            "pending_cdet": [
                [
                    r.customer_id,
                    r.attack_type.value,
                    r.detect_minute,
                    r.end_minute,
                    r.peak_bytes,
                    sorted(int(a) for a in r.attackers),
                ]
                for r in self._pending_cdet
            ],
            "pending_ends": [list(pair) for pair in self._pending_ends],
            "shards": self.config.shards,
        }

    def _shard_states(self) -> list[dict]:
        """Every shard's snapshot: all are asked before any is awaited
        (forked shards build theirs side by side) and every reply is
        collected, so a failure — raised after — strands no command."""
        dispatched: list[ShardWorker] = []
        states: list[dict] = []
        failure: ShardFailure | None = None
        for shard in self.shards:
            try:
                shard.submit("state")
                dispatched.append(shard)
            except ShardFailure as exc:  # unhealthy: no complete snapshot
                failure = failure or exc
        for shard in dispatched:
            try:
                states.append(shard.collect())
            except ShardFailure as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return states

    def checkpoint(self, root: str | Path | None = None) -> Path:
        """Snapshot the full engine + shard state to disk; returns the
        checkpoint directory."""
        root = root if root is not None else self.config.checkpoint_dir
        if root is None:
            raise ValueError("no checkpoint directory configured")
        path = write_checkpoint(
            root, self._minute, self._shard_states(), self._engine_state()
        )
        self._checkpoints_written += 1
        if obs_enabled():
            get_registry().counter(
                "serve.checkpoints", "checkpoints written"
            ).inc()
        return path

    def restore(self, path: str | Path | None = None) -> int:
        """Load a checkpoint (default: the newest under the configured
        directory) into this engine; returns the restored minute.

        The engine must have been built with the same shard count the
        checkpoint was written with.  An unreadable, torn or
        otherwise-versioned checkpoint raises
        :class:`~repro.serve.state.CheckpointFormatError` before anything
        is loaded: the engine is as it was.  A shard that refuses its
        snapshot (another deployment, a malformed state) raises
        :class:`~repro.serve.shard.ShardFailure` after earlier shards may
        have loaded theirs, so the engine closes first: it never serves a
        mix of restored and unrestored shards, and ``tick`` raises.
        """
        from ..synth.attacks import AttackType

        root = path if path is not None else self.config.checkpoint_dir
        if root is None:
            raise ValueError("no checkpoint directory configured")
        minute, shard_states, engine_state = read_checkpoint(root)
        if len(shard_states) != len(self.shards):
            raise ValueError(
                f"checkpoint has {len(shard_states)} shards, engine has "
                f"{len(self.shards)}"
            )
        try:
            for shard, state in zip(self.shards, shard_states):
                shard.load_state_dict(state)
        except ShardFailure:
            self.close()
            raise
        self._minute = int(engine_state["minute"])
        self._minutes_observed = int(engine_state["minutes_observed"])
        self._alerts_emitted = int(engine_state["alerts_emitted"])
        self._alerts_suppressed = int(engine_state["alerts_suppressed"])
        self._degraded_minutes = int(engine_state["degraded_minutes"])
        self.collector = FlowCollector()
        self.collector.load_state_dict(engine_state["collector"])
        self._pending = [
            OnlineAlert(int(c), int(m), float(s))
            for c, m, s in engine_state["pending"]
        ]
        self._pending_cdet = [
            AlertRecord(
                customer_id=int(c),
                attack_type=AttackType(t),
                detect_minute=int(d),
                end_minute=int(e),
                peak_bytes=float(p),
                attackers=frozenset(int(a) for a in attackers),
            )
            for c, t, d, e, p, attackers in engine_state["pending_cdet"]
        ]
        self._pending_ends = [
            (int(c), int(m)) for c, m in engine_state["pending_ends"]
        ]
        return minute

    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
