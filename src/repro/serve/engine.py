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

Faults
------
``tick()`` consults :meth:`~repro.netflow.FlowCollector.feed_health`
every minute: when the export-feed loss rate exceeds
:data:`DEGRADED_LOSS_RATE` the minute counts as degraded and is flagged
in the obs metrics; its alerts are emitted as usual.  A shard fault has
one rule: any :class:`~repro.serve.shard.ShardFailure` — the shard raised
in ``step``, in a snapshot or in a load, or its worker died — ends the
``tick``, ``checkpoint`` or ``restore`` it happened in.  The engine first
collects the reply of every shard it sent the command to, then closes and
re-raises the first failure; from then on every ``tick``, ``checkpoint``
and ``restore`` raises ``RuntimeError("engine is closed")``.  It never
serves a partial fleet.  Recovery is the crash-equivalent path: a fresh
engine ``restore()``s the last checkpoint.
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

__all__ = ["ServeEngine", "DEGRADED_LOSS_RATE"]

# Export-feed loss rate (FlowCollector.feed_health) above which a minute
# counts as degraded.
DEGRADED_LOSS_RATE = 0.05

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
        self.shards: list[ShardWorker] = []
        try:
            for index in range(self.config.shards):
                self.shards.append(
                    ShardWorker(
                        index,
                        self._shard_factory(index),
                        backend=self.config.backend,
                        transport=self.config.transport,
                    )
                )
        except BaseException:
            for shard in self.shards:
                shard.close()
            raise
        self._minute = -1
        self._pending: list[OnlineAlert] = []
        self._pending_cdet: list[AlertRecord] = []
        self._pending_ends: list[tuple[int, int]] = []
        self._alerts_emitted = 0
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
        inference_dtype = np.dtype(self.config.inference_dtype)

        def build() -> OnlineXatu:
            detector = factory(partition)
            # Inference precision and the shard index are engine policy,
            # not detector state: applied on every (re)build, never
            # serialized — so a restore may change them freely.
            if isinstance(detector, OnlineXatu):
                detector.inference_dtype = inference_dtype
                detector.shard = index
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
        self, submit: Callable[[ShardWorker], None]
    ) -> tuple[list[tuple[ShardWorker, float]], ShardFailure | None]:
        """Send one command to every shard before joining any of them —
        with the process backend the shards work concurrently.  Stops at
        the first shard that refuses it; returns the shards sent to, with
        their start times, and that refusal."""
        dispatched = []
        for shard in self.shards:
            start = time.perf_counter()
            try:
                submit(shard)
            except ShardFailure as exc:
                return dispatched, exc
            dispatched.append((shard, start))
        return dispatched, None

    def _collect(
        self,
        dispatched: list[tuple[ShardWorker, float]],
        failure: ShardFailure | None,
        timed: bool = False,
    ) -> list:
        """Join every dispatched shard, so none is left with a pending
        command; then, if any shard failed (``failure``: the send
        ``_fan_out`` had refused), close the engine and raise the first
        failure.  Returns the replies in shard order; ``timed`` observes
        each shard's minute in ``serve.shard_minute_seconds``."""
        telemetry_on = timed and obs_enabled()
        replies = []
        for shard, start in dispatched:
            try:
                replies.append(shard.collect())
            except ShardFailure as exc:
                failure = failure or exc
            if telemetry_on:
                get_registry().histogram(
                    "serve.shard_minute_seconds",
                    "per-shard wall time for one minute",
                ).observe(time.perf_counter() - start, shard=str(shard.index))
        if failure is not None:
            self.close()
            raise failure
        return replies

    def _merge(self, replies: list[list[OnlineAlert]]) -> list[OnlineAlert]:
        """Order the shards' alerts canonically and hold them for
        :meth:`poll_alerts`."""
        alerts = [alert for shard_alerts in replies for alert in shard_alerts]
        alerts.sort(key=_merge_key)
        self._pending.extend(alerts)
        self._alerts_emitted += len(alerts)
        return alerts

    def _record_minute(
        self, emitted: int, unrouted: int, loss_rate: float, degraded: bool
    ) -> None:
        registry = get_registry()
        registry.counter("serve.minutes", "minutes served").inc()
        if emitted:
            registry.counter("serve.alerts", "merged alerts emitted").inc(emitted)
        if unrouted:
            registry.counter(
                "serve.flows_unrouted", "flows dropped: unknown destination"
            ).inc(unrouted)
        registry.gauge(
            "serve.feed_loss_rate", "collector-observed export loss rate"
        ).set(loss_rate)
        registry.gauge(
            "serve.feed_degraded", "1 while the export feed is degraded"
        ).set(1.0 if degraded else 0.0)

    def tick(self, minute: int) -> list[OnlineAlert]:
        """Score one minute: drain/partition → ``_fan_out`` → ``_collect``
        → ``_merge`` → ``_record_minute`` → periodic ``checkpoint``.

        Must be called once per minute, monotonically — quiet minutes too
        (absence of traffic is signal).  Returns the minute's merged
        alerts (also available via :meth:`poll_alerts`).  A shard failure
        closes the engine and raises :class:`ShardFailure`.
        """
        self._check_open()
        if minute <= self._minute:
            raise ValueError(f"minutes must advance: got {minute} after {self._minute}")
        self._minute = minute
        self._minutes_observed += 1

        by_shard, unrouted = self._partition(self.collector.drain_batch())
        loss_rate = self.collector.feed_health().loss_rate
        degraded = loss_rate > DEGRADED_LOSS_RATE
        if degraded:
            self._degraded_minutes += 1
        # Queued incumbent alerts and mitigation ends go to all shards.
        cdet_alerts, self._pending_cdet = self._pending_cdet, []
        ends, self._pending_ends = self._pending_ends, []

        with trace("serve.tick"):
            dispatched, refused = self._fan_out(
                lambda shard: shard.submit_step(
                    minute, by_shard[shard.index], cdet_alerts, ends
                )
            )
            replies = self._collect(dispatched, refused, timed=True)
        alerts = self._merge(replies)
        if obs_enabled():
            self._record_minute(len(alerts), unrouted, loss_rate, degraded)
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
        """Liveness of every shard worker: all true while the engine
        serves; after a shard failure closed it, false names the shard."""
        return {shard.index: shard.healthy for shard in self.shards}

    def stats(self) -> dict:
        """Engine-level counters (the checkpointed subset plus the
        checkpoint and shard counts)."""
        return {
            "minute": self._minute,
            "minutes_observed": self._minutes_observed,
            "alerts_emitted": self._alerts_emitted,
            "degraded_minutes": self._degraded_minutes,
            "checkpoints_written": self._checkpoints_written,
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

    def checkpoint(self, root: str | Path | None = None) -> Path:
        """Snapshot the full engine + shard state to disk; returns the
        checkpoint directory.

        Every shard is asked for its snapshot before any is awaited (forked
        shards build theirs side by side).  A shard that fails closes the
        engine and raises :class:`ShardFailure`, after every other reply
        is collected and before anything is written."""
        self._check_open()
        root = root if root is not None else self.config.checkpoint_dir
        if root is None:
            raise ValueError("no checkpoint directory configured")
        dispatched, refused = self._fan_out(lambda shard: shard.submit("state"))
        states = self._collect(dispatched, refused)
        path = write_checkpoint(root, self._minute, states, self._engine_state())
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
        snapshot (another deployment, a malformed state) or dies raises
        :class:`~repro.serve.shard.ShardFailure` after earlier shards may
        have loaded theirs, so the engine closes first: it never serves a
        mix of restored and unrestored shards.
        """
        from ..synth.attacks import AttackType

        self._check_open()
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

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

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
