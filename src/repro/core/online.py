"""Streaming deployment mode (§2.6): Xatu on live data feeds.

The offline pipeline consumes a fully-materialized :class:`Trace`; a real
deployment instead receives sampled NetFlow continuously, plus alert and
mitigation-end notices from the incumbent defense.  :class:`OnlineXatu`
implements that loop:

* ``step(minute, batch)`` ingests one minute of sampled flows (a
  :class:`~repro.netflow.FlowBatch`) for all customers, tagging each
  flow's auxiliary source classes (blocklist membership, previous
  attackers, spoof check) and folding it into an internal
  :class:`~repro.netflow.TrafficMatrix`;
* ``ingest_cdet_alert`` / ``ingest_mitigation_end`` maintain the A2/A4/A5
  stores from the incumbent's feed (or from Xatu's own alerts);
* every minute, the survival score of each watched customer is refreshed
  and ``step`` returns the alerts that crossed the threshold.

There is one path per concern: every minute runs the same named stages —
``_ingest_batch`` → ``_evict_idle`` → ``_score`` → ``_decide`` →
``_evict_state`` → ``_record_minute``.  The differential suites compare
it against :class:`repro.testing.reference.ReferenceOnlineXatu`, which
swaps per-record ingest and per-customer scoring into two of those
stages.

Bounded memory: feature state older than the model lookback plus a safety
margin is discarded each minute.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..netflow.matrix import (
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    TrafficMatrix,
)
from ..netflow.customers import CustomerLookup
from ..netflow.records import FlowBatch
from ..netflow.routing import RouteTable
from ..nn import fused
from ..obs import get_registry, obs_enabled, trace
from ..signals.clustering import AttackerCustomerGraph
from ..signals.features import _CLASS_OF_GROUP, N_FEATURES, FeatureScaler, group_slices
from ..signals.history import AlertRecord, AttackHistoryStore, PreviousAttackerStore
from .model import XatuModel

__all__ = ["OnlineAlert", "OnlineConfig", "OnlineXatu"]

# Customers per stacked inference call.  Bounds the pooled staging stack and
# the LSTM's projection buffers (customers x sum-of-spans x 273 features in
# the inference dtype: ~60 MB per 256 customers at 108 steps in float64);
# every op in the fused pass is per-item bitwise stable, so the value cannot
# change results.
SCORE_CHUNK = 256

@dataclass(frozen=True, slots=True)
class OnlineAlert:
    """An early-detection alert emitted by the streaming detector."""

    customer_id: int
    minute: int
    survival: float

    @property
    def score(self) -> float:
        """The unified :class:`repro.detect.Alert` score (survival)."""
        return self.survival

    @property
    def detector(self) -> str:
        return "xatu"


@dataclass(frozen=True, slots=True)
class OnlineConfig:
    """Streaming-behaviour knobs for :class:`OnlineXatu`, as one typed
    config (re-exported from ``repro``).

    Attributes
    ----------
    threshold:
        Survival threshold in (0, 1): a customer alerts when its survival
        drops below it.
    history_decay_minutes / clustering_window:
        A4 decay horizon and A5 sliding-window width.
    rearm_after:
        Minutes a customer stays suppressed after alerting, absent an
        explicit mitigation-end notice.
    start_minute:
        First minute the detector will observe (its clock starts one
        before).  Lets a restored or mid-trace detector resume without
        fake catch-up calls.
    evict_margin_minutes:
        Traffic-matrix state older than ``lookback + margin`` is evicted
        each minute, keeping long-running detectors' memory bounded.
    watch_idle_minutes:
        When set, a watched customer that has received no flows for this
        many minutes is dropped from the per-minute scoring set (its
        hazard history goes with it); the next flow re-watches it.  With
        an analytic router over a huge address plan this is what keeps
        the watch set proportional to *active* customers instead of the
        universe.  ``None`` (default) keeps the historical
        watch-forever behaviour.
    """

    threshold: float = 0.5
    history_decay_minutes: float = 7 * 1440.0
    clustering_window: int = 60
    rearm_after: int = 10
    start_minute: int = 0
    evict_margin_minutes: int = 120
    watch_idle_minutes: int | None = None

    def validate(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if self.rearm_after < 0:
            raise ValueError("rearm_after must be >= 0")
        if self.evict_margin_minutes < 0:
            raise ValueError("evict_margin_minutes must be >= 0")
        if self.watch_idle_minutes is not None and self.watch_idle_minutes < 1:
            raise ValueError("watch_idle_minutes must be >= 1 (or None)")


class OnlineXatu:
    """Minute-driven streaming detector around a trained model.

    Parameters
    ----------
    model / scaler / threshold:
        The trained artefacts (e.g. from a
        :class:`~repro.core.registry.XatuModelRegistry` entry).  A given
        ``threshold`` overrides ``config.threshold``.
    customer_of:
        Maps destination address → customer id for incoming flows.
        Either a plain dict or an analytic router such as
        :class:`~repro.serve.ContiguousCustomerRouter` (anything with
        ``get``/``__len__``/``route_batch``).  Routers with
        ``lazy_watch = True`` start with an *empty* watch set that grows
        with observed traffic, so million-customer universes don't score
        every customer every minute.
    blocklist:
        The set of blocklisted source addresses (A1 membership).
    route_table:
        Spoof classification source (A3).
    base_rate_of:
        Customer id → baseline bytes/minute, for A4 severity bucketing.

    Inference precision
    -------------------
    ``inference_dtype`` (None | np.float32 | np.float64) is a plain
    class-level-default attribute, set per instance by the serving layer
    from :class:`~repro.serve.ServeConfig`.  Deliberately **not** part of
    :class:`OnlineConfig`, :meth:`state_dict` or :meth:`deployment_digest`:
    it is engine policy, so a restore may change it freely.
    """

    name = "xatu"

    inference_dtype = None

    def __init__(
        self,
        model: XatuModel,
        scaler: FeatureScaler,
        threshold: float | None = None,
        customer_of: dict[int, int] | None = None,
        blocklist=None,
        route_table: RouteTable | None = None,
        base_rate_of: dict[int, float] | None = None,
        config: OnlineConfig | None = None,
    ) -> None:
        config = config or OnlineConfig()
        if threshold is not None:
            config = replace(config, threshold=threshold)
        config.validate()
        self.config_online = config
        self.model = model
        self.scaler = scaler
        self.threshold = config.threshold
        self.customer_of = customer_of
        self.blocklist = blocklist
        self.route_table = route_table
        self.base_rate_of = base_rate_of or {}
        self._deployment: tuple[tuple, str] | None = None  # see _served_deployment
        self.rearm_after = config.rearm_after
        self._slices = group_slices()
        self.reset()

    def reset(self) -> None:
        """Return to the post-construction state (clock, stores, trackers)."""
        config = self.config_online
        self.matrix = TrafficMatrix()
        self.prev_attackers = PreviousAttackerStore()
        self.history = AttackHistoryStore(decay_minutes=config.history_decay_minutes)
        self.graph = AttackerCustomerGraph(window_minutes=config.clustering_window)
        self._minute = config.start_minute - 1
        self._hazards: dict[int, list[float]] = defaultdict(list)
        self._suppressed_until: dict[int, int] = {}
        if getattr(self.customer_of, "lazy_watch", False):
            # Router-backed routing over a huge universe: watch only the
            # customers that actually show up in traffic.
            self._watched: set[int] = set()
        else:
            self._watched = set(self.customer_of.values())
        self._last_seen: dict[int, int] = {}
        self._cells_staged = 0  # telemetry: matrix rows scaled this minute

    @property
    def current_minute(self) -> int:
        return self._minute

    def ingest_cdet_alert(self, alert: AlertRecord) -> None:
        """Feed one incumbent-defense (or Xatu self-) alert into the stores."""
        self.prev_attackers.add_alert(alert)
        self.history.add_alert(
            alert, self.base_rate_of.get(alert.customer_id, 1.0)
        )
        self.graph.add_alert(alert.detect_minute, alert.customer_id, alert.attackers)

    def ingest_mitigation_end(self, customer_id: int, minute: int) -> None:
        """CScrub mitigation-end notice: re-arm detection for the customer."""
        self._suppressed_until[customer_id] = minute

    # -- deployment context: routing and blocklist tables ------------
    @property
    def customer_of(self):
        """Destination address → customer id: a read-only view of the dict
        given (or the router itself).  Assign a new one to change it."""
        return self._lookup.mapping

    @customer_of.setter
    def customer_of(self, customer_of) -> None:
        self._lookup = CustomerLookup(customer_of)

    @property
    def blocklist(self) -> frozenset[int]:
        """A1 membership: a frozen copy of the set given.  Assign a new one
        to change it."""
        return self._blocklist

    @blocklist.setter
    def blocklist(self, blocklist) -> None:
        self._blocklist = frozenset(blocklist or ())
        self._blocklist_table = np.sort(
            np.fromiter(self._blocklist, dtype=np.int64, count=len(self._blocklist))
        )

    # -- stage 1: ingest (route, classify, fold) --------------------
    def _blocklist_mask(self, src: np.ndarray) -> np.ndarray:
        """Vectorized A1 membership over a source-address column."""
        table = self._blocklist_table
        if not len(table):
            return np.zeros(len(src), dtype=bool)
        slot = np.minimum(np.searchsorted(table, src), len(table) - 1)
        return table[slot] == src

    def _ingest_batch(self, batch: FlowBatch, minute: int) -> tuple[int, int]:
        """Route, classify and aggregate one minute's batch.

        Routing by ``customer_of``, the three auxiliary class masks, and
        one :meth:`TrafficMatrix.add_batch` fold, which rejects a corrupt
        batch before it writes anything: the detector's own state (the
        watch set, last-seen ``minute``) is committed after it.  A3 verdicts come straight from
        :meth:`RouteTable.spoofed_mask`.  Returns ``(ingested, unrouted)``
        counts.
        """
        if not len(batch):
            return 0, 0
        cust, routed = self._lookup.route(batch.array["dst_addr"].astype(np.int64))
        unrouted = int(len(batch) - np.count_nonzero(routed))
        if unrouted == len(batch):
            return 0, unrouted
        if unrouted:  # else: spare the copy of every 38-byte record
            cust = cust[routed]
            batch = batch.take(routed)
        arr = batch.array
        src = arr["src_addr"].astype(np.int64)
        seen = self.matrix.add_batch(
            cust,
            batch,
            {
                SOURCE_CLASS_BLOCKLIST: self._blocklist_mask(src),
                SOURCE_CLASS_PREV_ATTACKER: self.prev_attackers.batch_mask(
                    cust, src, arr["timestamp"].astype(np.int64)
                ),
                SOURCE_CLASS_SPOOFED: self.route_table.spoofed_mask(src),
            },
        )
        if self.config_online.watch_idle_minutes is None:
            self._watched.update(seen)
        else:
            for customer_id in seen:
                self._watched.add(customer_id)
                self._last_seen[customer_id] = minute
        return int(len(arr)), unrouted

    # -- stage 2: idle-watch eviction -------------------------------
    def _evict_idle(self, minute: int) -> None:
        """Stop scoring customers that went quiet: their survival has long
        recovered and keeping them watched makes every minute O(universe)
        instead of O(active)."""
        idle = self.config_online.watch_idle_minutes
        if idle is None:
            return
        cutoff = minute - idle
        stale = [
            customer_id
            for customer_id, last in self._last_seen.items()
            if last < cutoff
        ]
        for customer_id in stale:
            self._watched.discard(customer_id)
            self._last_seen.pop(customer_id, None)
            self._hazards.pop(customer_id, None)

    # -- stage 3: feature windows + chunked fused scoring -----------
    def feature_windows(
        self, customer_ids: Sequence[int], end_minute: int
    ) -> np.ndarray:
        """Stage several customers' windows at the model's resolution.

        Returns ``(len(customer_ids), sum of spans, N_FEATURES)`` in the
        inference dtype: the pooled sequences of ``model.config.timescales``,
        concatenated on the time axis in that order.  Row ``i`` is bit for
        bit ``np.concatenate(model.stage_pooled(w[None], dtype), axis=1)[0]``
        for the scaled dense window ``w`` of ``customer_ids[i]`` ending at
        ``end_minute`` (minutes before 0 are zero rows) that
        :class:`repro.testing.reference.ReferenceOnlineXatu` builds — but the
        dense ``(n, lookback, N_FEATURES)`` stack never exists.  Most of a
        window is empty minutes, whose scaled row is one constant, so only
        the matrix's non-empty rows per feature group — and the A4/A5 blocks
        of customers that have alerts at all — are scaled, pooled into the
        buckets they fall in, and scattered over a stack pre-filled with
        each timescale's pooled empty bucket.  A4/A5 are recomputed from the
        stores on every call, never cached, so an alert ingested with a past
        ``detect_minute`` needs no invalidation.  This is the staging step
        of :meth:`_score`, but is public API: any batch scorer can use it.
        """
        cfg = self.model.config
        lookback = cfg.lookback_minutes
        start = max(end_minute + 1 - lookback, 0)
        end = end_minute + 1
        pad = lookback - (end - start)
        # Cast the scaled float64 rows *before* pooling, as ``stage_pooled``
        # casts the scaled window: a float32 sum is not a rounded float64 sum.
        dtype = np.dtype(
            np.float64 if self.inference_dtype is None else self.inference_dtype
        )
        scale = self.scaler.transform
        zero = scale(np.zeros(N_FEATURES)).astype(dtype)
        steps = sum(ts.span for ts in cfg.timescales)
        # Gather and scale first, allocate the stack after: matrix reads grow
        # its row store, and a long-lived allocation made while the transient
        # stack is live pins a stack-sized hole in the heap.  Per group: the
        # column slice, and per non-empty row its customer's first row in the
        # flattened stack, its position in the dense window, its values.
        sparse: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]] = []
        for group, cls in _CLASS_OF_GROUP.items():
            origins: list[int] = []
            minute_parts: list[np.ndarray] = []
            row_parts: list[np.ndarray] = []
            for i, customer_id in enumerate(customer_ids):
                minutes, rows = self.matrix.rows_between(customer_id, cls, start, end)
                if len(minutes):
                    origins.append(i * steps)
                    minute_parts.append(minutes)
                    row_parts.append(rows)
            if row_parts:
                cols = self._slices[group]
                compact = np.concatenate(row_parts)
                self._cells_staged += len(compact)
                scale(compact, out=compact, columns=cols)
                sparse.append(
                    (
                        cols,
                        np.repeat(origins, [len(m) for m in minute_parts]),
                        np.concatenate(minute_parts) + (pad - start),
                        compact.astype(dtype, copy=False),
                    )
                )
        dense: list[tuple[int, slice, np.ndarray]] = []
        for group, store in (("A4", self.history), ("A5", self.graph)):
            cols = self._slices[group]
            for i, customer_id in enumerate(customer_ids):
                if store.has_alerts(customer_id):
                    block = store.feature_block(customer_id, start, end)
                    scale(block, out=block, columns=cols)
                    window = np.empty((lookback, block.shape[1]), dtype)
                    window[:pad] = zero[cols]
                    window[pad:] = block
                    dense.append((i, cols, window))

        # Every reduction below is ``pool_infer``'s own expression over a
        # materialised ``(·, window, features)`` block: summing a non-innermost
        # axis accumulates in window order exactly as pooling the dense
        # window does, where a stride-0 tile, a contiguous last-axis sum
        # (pairwise in numpy) or ``zero * w / w`` would round differently.
        # (Read off the module per call, like ``core.model`` does, so a
        # tracer that patches ``fused.pool_infer`` sees these calls too.)
        pool, mode = fused.pool_infer, cfg.pooling
        # The stack is filled by one broadcast of a ``(sum of spans,
        # N_FEATURES)`` template of the timescales' pooled empty buckets —
        # whole contiguous customer rows — and the pooled buckets go over it.
        empties = [
            pool(np.tile(zero, (1, ts.window, 1)), ts.window, mode)[0, 0]  # a real tile
            for ts in cfg.timescales
        ]
        template = np.repeat(empties, [ts.span for ts in cfg.timescales], axis=0)
        stack = np.empty((len(customer_ids), steps, N_FEATURES), dtype)
        stack[:] = template
        flat = stack.reshape(-1, N_FEATURES)
        base = 0
        for ts in cfg.timescales:
            w, span, off = ts.window, ts.span, lookback - ts.minutes
            for cols, origin, pos, rows in sparse:
                if off:  # minutes this timescale does not reach back to
                    keep = np.flatnonzero(pos >= off)
                    if not len(keep):
                        continue
                    origin, pos, rows = origin[keep], pos[keep], rows[keep]
                rel = pos - off
                if w == 1:
                    flat[origin + (base + rel), cols] = rows
                    continue
                step = rel // w
                at = origin + (base + step)  # the stack row each row pools into
                # Rows arrive by customer, then minute, so ``at`` never
                # decreases: a neighbour compare finds the buckets, no sort.
                first = np.concatenate(([True], at[1:] != at[:-1]))
                width = rows.shape[1]
                block = np.empty((np.count_nonzero(first), w, width), dtype)
                block[:] = zero[cols]
                block[np.cumsum(first) - 1, rel - step * w] = rows
                flat[at[first], cols] = pool(block.reshape(1, -1, width), w, mode)[0]
            for i, cols, window in dense:
                stack[i, base : base + span, cols] = pool(window[None, off:], w, mode)[0]
            base += span
        return stack

    def _score(self, customers: Sequence[int], minute: int) -> list[float]:
        """This minute's hazard for every customer, in order: one pooled
        :meth:`feature_windows` stack and one fused inference pass over its
        per-timescale views per :data:`SCORE_CHUNK` customers."""
        splits = np.cumsum([ts.span for ts in self.model.config.timescales])[:-1]
        out: list[float] = []
        for lo in range(0, len(customers), SCORE_CHUNK):
            x = self.feature_windows(customers[lo : lo + SCORE_CHUNK], minute)
            hazards = self.model.hazards_np_staged(
                np.split(x, splits, axis=1), dtype=self.inference_dtype
            )
            out.extend(float(h) for h in hazards[:, -1])
            # Release this chunk's stack before the next chunk gathers: two
            # live stacks double the peak, and row-store growth under a live
            # stack fragments the heap.
            del x
        return out

    # -- stage 4: per-customer decision -----------------------------
    def _push_hazard(self, customer_id: int, hazard: float) -> int:
        """Append one hazard sample; returns evicted-entry count."""
        history = self._hazards[customer_id]
        history.append(hazard)
        detect_window = self.model.config.detect_window
        # Keep bounded memory for the rolling survival computation.
        if len(history) > 4 * detect_window:
            evicted = len(history) - 2 * detect_window
            self._hazards[customer_id] = history[-2 * detect_window :]
            return evicted
        return 0

    def _survival(self, customer_id: int) -> float:
        window = self.model.config.detect_window
        recent = self._hazards[customer_id][-window:]
        return float(np.exp(-np.sum(recent))) if recent else 1.0

    def _decide(self, customer_id: int, minute: int) -> OnlineAlert | None:
        """Threshold/suppression decision for one customer."""
        if minute < self._suppressed_until.get(customer_id, -1):
            return None
        survival = self._survival(customer_id)
        if survival < self.threshold:
            # Suppress re-alerting until re-armed (CScrub notice or
            # rearm_after minutes, whichever first).
            self._suppressed_until[customer_id] = minute + self.rearm_after
            return OnlineAlert(customer_id, minute, survival)
        return None

    # -- stage 5: state eviction ------------------------------------
    def _evict_state(self, minute: int) -> int:
        """Bounded memory: matrix cells older than the model lookback (plus
        a safety margin) and expired clustering alerts are dead state.
        Returns the evicted-cell count."""
        margin = self.config_online.evict_margin_minutes
        lookback = self.model.config.lookback_minutes
        evicted_cells = self.matrix.evict_before(minute + 1 - lookback - margin)
        self.graph.prune_before(minute)
        return evicted_cells

    # -- stage 6: telemetry -----------------------------------------
    def _record_minute(
        self,
        flows: int,
        ingested: int,
        unrouted: int,
        alerts: int,
        evicted: int,
        evicted_cells: int,
        minute_start: float,
    ) -> None:
        registry = get_registry()
        registry.counter("online.minutes", "minutes observed").inc()
        registry.counter("online.flows", "flows ingested and attributed").inc(
            ingested
        )
        if unrouted:
            registry.counter(
                "online.flows_unrouted", "flows dropped: unknown destination"
            ).inc(unrouted)
        if alerts:
            registry.counter("online.alerts", "early-detection alerts emitted").inc(
                alerts
            )
        if evicted:
            registry.counter(
                "online.hazard_evictions", "hazard-history entries evicted"
            ).inc(evicted)
        if evicted_cells:
            registry.counter(
                "online.matrix_evictions", "traffic-matrix cells evicted"
            ).inc(evicted_cells)
        registry.gauge(
            "online.watched_customers", "customers currently scored each minute"
        ).set(len(self._watched))
        registry.counter(
            "online.cells_staged", "non-empty matrix rows gathered and scaled"
        ).inc(self._cells_staged)
        registry.gauge(
            "online.row_store_rows", "finalized rows held by the matrix row store"
        ).set(self.matrix.row_store_rows())
        registry.histogram(
            "online.minute_seconds", "wall time of one step call"
        ).observe(time.perf_counter() - minute_start)
        registry.ewma("online.flow_rate", "flows per observed minute").observe(
            float(flows)
        )

    # ------------------------------------------------------------------
    def step(self, minute: int, flows: FlowBatch) -> list[OnlineAlert]:
        """Ingest one minute of flows and return its alerts.

        ``minute`` must advance monotonically; quiet customers still get a
        hazard evaluation (absence of traffic is signal too).  The clock
        moves only once the fold has accepted ``flows``: a rejected batch
        leaves the detector as it was, so the same minute can be retried.
        """
        if minute <= self._minute:
            raise ValueError(
                f"minutes must advance: got {minute} after {self._minute}"
            )
        telemetry_on = obs_enabled()
        minute_start = time.perf_counter() if telemetry_on else 0.0
        self._cells_staged = 0
        alerts: list[OnlineAlert] = []
        evicted = 0
        with trace("online.observe_minute"):
            ingested, unrouted = self._ingest_batch(flows, minute)
            self._minute = minute
            self._evict_idle(minute)
            customers = sorted(self._watched)
            with trace("online.score_customers"):
                if customers:
                    score_start = time.perf_counter() if telemetry_on else 0.0
                    hazards = self._score(customers, minute)
                    for customer_id, hazard in zip(customers, hazards):
                        evicted += self._push_hazard(customer_id, hazard)
                        alert = self._decide(customer_id, minute)
                        if alert is not None:
                            alerts.append(alert)
                    if telemetry_on:
                        get_registry().histogram(
                            "online.batch_score_seconds",
                            "scoring latency (all watched customers, one minute)",
                        ).observe(time.perf_counter() - score_start)
        evicted_cells = self._evict_state(minute)
        if telemetry_on:
            self._record_minute(
                len(flows), ingested, unrouted, len(alerts), evicted,
                evicted_cells, minute_start,
            )
        return alerts

    # ------------------------------------------------------------------
    # durable state (repro.serve checkpoints)
    # ------------------------------------------------------------------
    def deployment_digest(self) -> str:
        """sha256 (hex) of the deployment this detector serves: what the
        detector factory supplies and serving never changes.

        Covers the model config and weights, the scaler statistics, every
        :class:`OnlineConfig` field, ``customer_of`` (sorted items, or the
        pickled router), ``base_rate_of``, the sorted blocklist and the
        route table's ``(lo, hi)`` ranges.  :meth:`state_dict` computes it
        once, and again after one of those pieces is reassigned (a piece
        edited in place goes unnoticed); :meth:`load_state_dict` always
        computes it afresh.
        """
        digest = hashlib.sha256()

        def feed(label: str, *parts) -> None:
            digest.update(label.encode())
            for part in parts:
                if isinstance(part, np.ndarray):
                    digest.update(f"{part.dtype.str}{part.shape}".encode())
                    part = np.ascontiguousarray(part)  # hashed in place
                elif not isinstance(part, bytes):
                    part = repr(part).encode()
                digest.update(memoryview(part).nbytes.to_bytes(8, "little"))
                digest.update(part)

        feed("model", self.model.config)
        for name, weights in sorted(self.model.state_dict().items()):
            feed(name, weights)
        feed("scaler", self.scaler.mean_, self.scaler.std_)
        feed("config", self.config_online)
        routing = self.customer_of
        if isinstance(routing, Mapping):
            feed("customer_of", *_sorted_items(routing, np.int64))
        else:
            feed("customer_of", pickle.dumps(routing, protocol=4))
        feed("base_rate_of", *_sorted_items(self.base_rate_of, np.float64))
        blocklist = self.blocklist
        feed("blocklist", np.sort(np.fromiter(blocklist, np.int64, len(blocklist))))
        table = self.route_table
        feed("route_table", *(() if table is None else table.ranges()))
        return digest.hexdigest()

    def state_dict(self) -> dict:
        """Canonical snapshot of what serving mutates: the clock, the
        traffic-matrix windows, the A2/A4/A5 stores, the hazard,
        suppression, watch and last-seen trackers — and, as
        ``deployment``, the :meth:`deployment_digest` it was served under.

        The deployment itself is not in it: every restore rebuilds the
        detector through the same factory, and :meth:`load_state_dict`
        refuses a snapshot written under another deployment.  All
        collections are emitted in sorted order, so equal states serialize
        to equal bytes (the serve-layer crash-equivalence guarantee).
        """
        return {
            "minute": self._minute,
            "matrix": self._matrix_state(),
            "prev_attackers": self.prev_attackers.state_dict(),
            "history": self.history.state_dict(),
            "graph": self.graph.state_dict(),
            "hazards": [
                [customer, list(values)]
                for customer, values in sorted(self._hazards.items())
                if values
            ],
            "suppressed_until": sorted(
                (customer, until) for customer, until in self._suppressed_until.items()
            ),
            "watched": sorted(self._watched),
            "last_seen": sorted(self._last_seen.items()),
            "deployment": self._served_deployment(),
        }

    def _served_deployment(self) -> str:
        """:meth:`deployment_digest`, memoised on the identity of every
        piece it covers: serving never changes one, and a reassigned piece
        (a routing table swapped mid-stream) recomputes it."""
        pieces = (
            self.model, self.scaler, self.config_online, self.customer_of,
            self.blocklist, self.route_table, self.base_rate_of,
        )
        held = self._deployment
        if held is None or any(a is not b for a, b in zip(held[0], pieces)):
            held = self._deployment = (pieces, self.deployment_digest())
        return held[1]

    def _matrix_state(self) -> dict:
        """The matrix snapshot; telemetry counts the cells it re-encoded."""
        state = self.matrix.state_dict()
        if obs_enabled():
            get_registry().counter(
                "online.snapshot_cells_encoded",
                "matrix cells re-encoded by checkpoint snapshots",
            ).inc(self.matrix.snapshot_cells_encoded())
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the serving state captured by :meth:`state_dict` into a
        detector built for the same deployment.

        A snapshot whose ``deployment`` digest is not this detector's
        raises ``ValueError`` naming both, and so does a malformed one: the
        digest is checked and the snapshot decoded in full before anything
        is assigned, so a refused snapshot leaves the detector as it was.
        """
        ours = self.deployment_digest()
        if state["deployment"] != ours:
            raise ValueError(
                f"snapshot was written for deployment {state['deployment']}, "
                f"this detector serves deployment {ours}: restore through the "
                "detector factory that wrote it"
            )

        def loaded(store, key: str):
            store.load_state_dict(state[key])
            return store

        fresh = {
            "matrix": loaded(TrafficMatrix(), "matrix"),
            "prev_attackers": loaded(PreviousAttackerStore(), "prev_attackers"),
            "history": loaded(AttackHistoryStore(), "history"),
            "graph": loaded(AttackerCustomerGraph(), "graph"),
            "_minute": int(state["minute"]),
            "_hazards": defaultdict(
                list, {int(c): [float(v) for v in values] for c, values in state["hazards"]}
            ),
            "_suppressed_until": {int(c): int(until) for c, until in state["suppressed_until"]},
            "_watched": {int(c) for c in state["watched"]},
            "_last_seen": {int(c): int(m) for c, m in state["last_seen"]},
        }
        for name, value in fresh.items():
            setattr(self, name, value)


def _sorted_items(mapping: Mapping, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A mapping's int keys (ascending) and its values, as two arrays."""
    keys = np.fromiter(mapping.keys(), np.int64, len(mapping))
    values = np.fromiter(mapping.values(), dtype, len(mapping))
    order = np.argsort(keys)
    return keys[order], values[order]
