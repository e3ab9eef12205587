"""Slow, obviously-correct reference kernels for differential testing.

Every function here re-implements a hot-path kernel of the nn/survival
stack as scalar Python loops over ``math`` primitives — no vectorization,
no shared code with the production implementations in :mod:`repro.nn`,
:mod:`repro.survival`, or :mod:`repro.detect`.  The differential tests in
``tests/test_reference_kernels.py`` drive both versions over randomized
shapes and seeds and require agreement within tight tolerances, so a
future vectorization or numerical "optimization" of a production kernel
that silently changes its math is caught immediately.

Arrays come in and go out as ``numpy.ndarray`` (for convenient comparison)
but every arithmetic step happens on Python floats.

The NetFlow layer's production path is columnar end to end
(:class:`~repro.netflow.FlowBatch`); its scalar oracles live here, one
:class:`~repro.netflow.FlowRecord` at a time: the 38-byte ``struct`` wire
codec (:func:`reference_encode_flow` / :func:`reference_decode_flow`, the
oracle of ``FlowBatch.to_bytes`` and the decoders), 1:N packet sampling
(:func:`reference_sample`, of ``sample_at_rates``), the per-flow matrix
fold (:func:`reference_add_flow`, of ``TrafficMatrix.add_batch``) and the
diversion-signature test (:func:`reference_matches`, of
``AttackSignature.match_mask``).

:class:`ReferenceOnlineXatu` is the one exception to "no shared code": it
*is* the production :class:`~repro.core.OnlineXatu` with two stages
swapped for slow, obviously-correct ones — per-record ingest, and
per-customer scoring over a dense window rebuilt and scaled whole — and its
checkpoint's matrix encoded cell by cell (:func:`reference_matrix_state`,
also the oracle of ``TrafficMatrix.state_dict`` on its own), so
the differential suites
(``tests/test_batched_equivalence.py``, ``tests/test_columnar.py``,
``tests/test_serve.py``) can demand byte-identical alerts and checkpoints.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace
from typing import Sequence

import numpy as np

from ..core.online import OnlineAlert, OnlineXatu
from ..netflow.matrix import (
    N_VOLUMETRIC,
    POPULAR_COUNTRIES,
    POPULAR_PORTS,
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    VOLUMETRIC_FEATURE_NAMES,
    TrafficMatrix,
    VolumetricAccumulator,
)
from ..netflow.records import FlowRecord, Protocol, TcpFlags
from ..signals.features import _CLASS_OF_GROUP, N_FEATURES

__all__ = [
    "reference_sigmoid",
    "reference_lstm_cell",
    "reference_lstm_sequence",
    "reference_avg_pool_1d",
    "reference_max_pool_1d",
    "reference_dense",
    "reference_adam_step",
    "reference_sgd_step",
    "reference_hazard_to_survival",
    "reference_safe_survival_loss",
    "reference_binary_cross_entropy",
    "reference_cusum_scores",
    "reference_encode_flow",
    "reference_decode_flow",
    "reference_sample",
    "reference_add_flow",
    "reference_merge_cell",
    "reference_matches",
    "ReferenceOnlineXatu",
    "reference_matrix_state",
    "max_abs_diff",
    "diff_summary",
]

_EPS = 1e-12  # mirrors repro.nn.losses._EPS


def reference_sigmoid(value: float) -> float:
    """Numerically stable scalar logistic function."""
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    e = math.exp(value)
    return e / (1.0 + e)


def reference_lstm_cell(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for a single example, one scalar at a time.

    Gate layout matches :class:`repro.nn.LSTM`: fused ``[i, f, g, o]``
    columns in ``w_x`` (features, 4H), ``w_h`` (H, 4H), ``bias`` (4H,).
    Returns ``(h_new, c_new)`` with shape ``(H,)``.
    """
    features = len(x_t)
    hidden = len(h_prev)
    gates = [0.0] * (4 * hidden)
    for j in range(4 * hidden):
        acc = float(bias[j])
        for k in range(features):
            acc += float(x_t[k]) * float(w_x[k, j])
        for k in range(hidden):
            acc += float(h_prev[k]) * float(w_h[k, j])
        gates[j] = acc
    h_new = np.zeros(hidden)
    c_new = np.zeros(hidden)
    for j in range(hidden):
        i_g = reference_sigmoid(gates[j])
        f_g = reference_sigmoid(gates[hidden + j])
        g_g = math.tanh(gates[2 * hidden + j])
        o_g = reference_sigmoid(gates[3 * hidden + j])
        c_val = f_g * float(c_prev[j]) + i_g * g_g
        c_new[j] = c_val
        h_new[j] = o_g * math.tanh(c_val)
    return h_new, c_new


def reference_lstm_sequence(
    x: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
) -> np.ndarray:
    """Unroll :func:`reference_lstm_cell` over a ``(batch, time, features)``
    input; returns the hidden sequence ``(batch, time, hidden)``."""
    batch, steps, _features = x.shape
    hidden = w_h.shape[0]
    outputs = np.zeros((batch, steps, hidden))
    for b in range(batch):
        h = np.zeros(hidden) if h0 is None else np.array(h0[b], dtype=np.float64)
        c = np.zeros(hidden) if c0 is None else np.array(c0[b], dtype=np.float64)
        for t in range(steps):
            h, c = reference_lstm_cell(x[b, t], h, c, w_x, w_h, bias)
            outputs[b, t] = h
    return outputs


def reference_avg_pool_1d(x: np.ndarray, window: int) -> np.ndarray:
    """Non-overlapping temporal mean over ``(batch, time, feat)``, scalar
    loops; a trailing partial window is averaged over its own length."""
    batch, steps, feat = x.shape
    n_windows = (steps + window - 1) // window
    out = np.zeros((batch, n_windows, feat))
    for b in range(batch):
        for w in range(n_windows):
            start = w * window
            stop = min(start + window, steps)
            for j in range(feat):
                acc = 0.0
                for t in range(start, stop):
                    acc += float(x[b, t, j])
                out[b, w, j] = acc / (stop - start)
    return out


def reference_max_pool_1d(x: np.ndarray, window: int) -> np.ndarray:
    """Non-overlapping temporal max over ``(batch, time, feat)``, scalar
    loops; the trailing partial window maxes over its own length."""
    batch, steps, feat = x.shape
    n_windows = (steps + window - 1) // window
    out = np.zeros((batch, n_windows, feat))
    for b in range(batch):
        for w in range(n_windows):
            start = w * window
            stop = min(start + window, steps)
            for j in range(feat):
                best = float(x[b, start, j])
                for t in range(start + 1, stop):
                    best = max(best, float(x[b, t, j]))
                out[b, w, j] = best
    return out


def _reference_activation(value: float, activation: str) -> float:
    if activation in ("linear", None):
        return value
    if activation == "sigmoid":
        return reference_sigmoid(value)
    if activation == "tanh":
        return math.tanh(value)
    if activation == "relu":
        return value if value > 0 else 0.0
    if activation == "softplus":
        # log(1 + e^v) computed stably: max(v, 0) + log1p(e^-|v|).
        return max(value, 0.0) + math.log1p(math.exp(-abs(value)))
    raise ValueError(f"unknown activation {activation!r}")


def reference_dense(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    activation: str = "linear",
) -> np.ndarray:
    """``act(x @ W + b)`` with explicit scalar loops; ``x`` is 2-D."""
    rows, in_features = x.shape
    out_features = weight.shape[1]
    out = np.zeros((rows, out_features))
    for r in range(rows):
        for j in range(out_features):
            acc = float(bias[j])
            for k in range(in_features):
                acc += float(x[r, k]) * float(weight[k, j])
            out[r, j] = _reference_activation(acc, activation)
    return out


def reference_adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step_count: int,
    lr: float = 1e-4,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Adam update on flat copies of ``param``/``m``/``v``.

    ``step_count`` is the 1-based step being taken (the value after the
    optimizer increments its counter).  Returns new ``(param, m, v)``.
    """
    b1, b2 = betas
    bc1 = 1.0 - b1**step_count
    bc2 = 1.0 - b2**step_count
    p_new = np.array(param, dtype=np.float64)
    m_new = np.array(m, dtype=np.float64)
    v_new = np.array(v, dtype=np.float64)
    flat_p = p_new.reshape(-1)
    flat_g = np.asarray(grad, dtype=np.float64).reshape(-1)
    flat_m = m_new.reshape(-1)
    flat_v = v_new.reshape(-1)
    for i in range(flat_p.size):
        g = float(flat_g[i])
        if weight_decay:
            g += weight_decay * float(flat_p[i])
        flat_m[i] = b1 * float(flat_m[i]) + (1.0 - b1) * g
        flat_v[i] = b2 * float(flat_v[i]) + (1.0 - b2) * g * g
        m_hat = float(flat_m[i]) / bc1
        v_hat = float(flat_v[i]) / bc2
        flat_p[i] = float(flat_p[i]) - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p_new, m_new, v_new


def reference_sgd_step(
    param: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float = 0.01,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One SGD(+momentum) update on flat copies; returns ``(param, velocity)``."""
    p_new = np.array(param, dtype=np.float64)
    v_new = np.array(velocity, dtype=np.float64)
    flat_p = p_new.reshape(-1)
    flat_g = np.asarray(grad, dtype=np.float64).reshape(-1)
    flat_v = v_new.reshape(-1)
    for i in range(flat_p.size):
        g = float(flat_g[i])
        if weight_decay:
            g += weight_decay * float(flat_p[i])
        if momentum:
            flat_v[i] = momentum * float(flat_v[i]) + g
            g = float(flat_v[i])
        flat_p[i] = float(flat_p[i]) - lr * g
    return p_new, v_new


def reference_hazard_to_survival(hazards: np.ndarray) -> np.ndarray:
    """``S_t = prod_{k<=t} exp(-h_k)`` along the last axis, scalar loops."""
    hazards = np.asarray(hazards, dtype=np.float64)
    flat = hazards.reshape(-1, hazards.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        running = 0.0
        for t in range(flat.shape[1]):
            running += float(flat[r, t])
            out[r, t] = math.exp(-running)
    return out.reshape(hazards.shape)


def reference_safe_survival_loss(
    hazards: np.ndarray,
    is_attack: np.ndarray,
    label_times: np.ndarray,
) -> float:
    """Scalar re-derivation of :func:`repro.nn.losses.safe_survival_loss`."""
    hazards = np.asarray(hazards, dtype=np.float64)
    batch, _steps = hazards.shape
    total = 0.0
    for i in range(batch):
        cum = 0.0
        for t in range(int(label_times[i]) + 1):
            cum += float(hazards[i, t])
        survival = math.exp(-cum)
        event_prob = min(max(1.0 - survival, _EPS), 1.0)
        censor_prob = min(max(survival, _EPS), 1.0)
        c = float(is_attack[i])
        total += -(c * math.log(event_prob) + (1.0 - c) * math.log(censor_prob))
    return total / batch


def reference_binary_cross_entropy(
    probs: np.ndarray, targets: np.ndarray
) -> float:
    """Mean BCE with the same clipping as the production loss."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    total = 0.0
    for p, t in zip(probs, targets):
        p = min(max(float(p), _EPS), 1.0 - _EPS)
        total += -(float(t) * math.log(p) + (1.0 - float(t)) * math.log(1.0 - p))
    return total / probs.size


def reference_cusum_scores(
    series: np.ndarray, mu: float, sigma: float, numstd: float = 1.0
) -> np.ndarray:
    """Scalar CUSUM statistic, mirroring :func:`repro.detect.cusum_scores`."""
    sigma = max(float(sigma), 1e-9)
    out = np.zeros(len(series))
    s = 0.0
    for i, value in enumerate(series):
        z = (float(value) - float(mu) - numstd * sigma) / sigma
        s = max(0.0, s + z)
        out[i] = s
    return out


# ----------------------------------------------------------------------
# NetFlow: one FlowRecord at a time
# ----------------------------------------------------------------------
# The 38-byte little-endian wire record, field by field: timestamp, src/dst
# address, src/dst port, protocol, tcp_flags, packets, bytes, sampling rate,
# two-byte country code, four reserved bytes.
_WIRE_RECORD = struct.Struct("<IIIHHBBIQH2sI")


def reference_encode_flow(flow: FlowRecord) -> bytes:
    """One record in its fixed-size wire form (``struct.pack``)."""
    return _WIRE_RECORD.pack(
        flow.timestamp, flow.src_addr, flow.dst_addr, flow.src_port,
        flow.dst_port, flow.protocol, flow.tcp_flags, flow.packets,
        flow.bytes_, flow.sampling_rate,
        flow.src_country.encode("ascii")[:2].ljust(2, b" "), 0,
    )


def reference_decode_flow(blob: bytes) -> FlowRecord:
    """One fixed-size wire record back as a :class:`FlowRecord`; a blank
    country code reads as "US"."""
    (timestamp, src, dst, src_port, dst_port, protocol, tcp_flags,
     packets, bytes_, rate, country, _reserved) = _WIRE_RECORD.unpack(blob)
    return FlowRecord(
        timestamp, src, dst, src_port, dst_port, protocol, packets, bytes_,
        tcp_flags, country.decode("ascii").strip() or "US", rate,
    )


def reference_sample(
    flow: FlowRecord, rate: int, rng: np.random.Generator
) -> FlowRecord | None:
    """1:``rate`` packet sampling of one flow, or None if no packet survives.

    Each packet is kept with probability ``1/rate`` (one scalar binomial
    draw; none at 1:1) and bytes scale with the kept packets, rounded
    half-to-even, at least 1.
    """
    if rate == 1:
        return replace(flow, sampling_rate=1)
    kept = int(rng.binomial(flow.packets, 1.0 / rate))
    if kept == 0:
        return None
    mean_packet = flow.bytes_ / flow.packets if flow.packets else 0.0
    return replace(
        flow, packets=kept, bytes_=max(1, int(round(kept * mean_packet))), sampling_rate=rate
    )


_PROTOCOL_NAMES = {Protocol.UDP: "udp", Protocol.TCP: "tcp", Protocol.ICMP: "icmp"}
_FEATURE_COLUMN = {name: i for i, name in enumerate(VOLUMETRIC_FEATURE_NAMES)}


def _counter_columns(flow: FlowRecord) -> list[tuple[int, int]]:
    """The (bytes, packets) feature columns of Table 1 one flow adds to,
    looked up by feature name."""
    names = []
    if flow.protocol in _PROTOCOL_NAMES:
        names.append(_PROTOCOL_NAMES[flow.protocol])
    if flow.src_port in POPULAR_PORTS:
        names.append(f"sport{flow.src_port}")
    if flow.dst_port in POPULAR_PORTS:
        names.append(f"dport{flow.dst_port}")
    if flow.protocol == Protocol.TCP:
        names += [f"flag_{bit.name.lower()}" for bit in TcpFlags if flow.tcp_flags & bit]
    if flow.src_country in POPULAR_COUNTRIES:
        names.append(f"cc_{flow.src_country}")
    return [(_FEATURE_COLUMN[f"{n}_bytes"], _FEATURE_COLUMN[f"{n}_packets"]) for n in names]


def reference_add_flow(
    matrix: TrafficMatrix,
    customer: int,
    flow: FlowRecord,
    source_classes: Sequence[str] = (),
) -> None:
    """Fold one flow destined to ``customer`` into ``matrix``: its "all"
    cell and one cell per source class, sampling-compensated.

    Each cell is read with ``matrix.cell``, folded in place and installed
    back with ``matrix.set_cell``: the public write, which keeps the
    roster, ``max_minute`` and the matrix's derived row stores in step
    (folded without it, the cell would be a write no store sees).
    """
    bytes_ = flow.bytes_ * flow.sampling_rate
    packets = flow.packets * flow.sampling_rate
    columns = _counter_columns(flow)
    for cls in (SOURCE_CLASS_ALL, *source_classes):
        cell = matrix.cell(customer, flow.timestamp, cls)
        if cell is None:
            cell = VolumetricAccumulator()
        cell.flow_count += 1
        cell.total_bytes += bytes_
        cell.total_packets += packets
        cell.max_bytes = max(cell.max_bytes, bytes_)
        cell.max_packets = max(cell.max_packets, packets)
        cell._sources = _with_source(cell.sources, flow.src_addr)
        for bytes_column, packets_column in columns:
            cell.vector[bytes_column] += bytes_
            cell.vector[packets_column] += packets
        matrix.set_cell(customer, flow.timestamp, cls, cell)


def _with_source(sources: np.ndarray, src: int) -> np.ndarray:
    """``sources`` (sorted, unique, read-only int64) with ``src`` inserted
    at its place, or ``sources`` itself if it is already there."""
    at = int(np.searchsorted(sources, src))
    if at < len(sources) and sources[at] == src:
        return sources
    out = np.insert(sources, at, src)
    out.flags.writeable = False
    return out


def reference_merge_cell(cell: VolumetricAccumulator, other: VolumetricAccumulator) -> None:
    """Fold ``other`` into ``cell`` in place: counts and sums add, maxima
    take the larger, sources unite (as Python sets, then sorted).  Merged
    into an empty cell, it copies a live one, which the tests then change
    and install with ``set_cell``."""
    cell.flow_count += other.flow_count
    cell.total_bytes += other.total_bytes
    cell.total_packets += other.total_packets
    cell.max_bytes = max(cell.max_bytes, other.max_bytes)
    cell.max_packets = max(cell.max_packets, other.max_packets)
    cell.vector += other.vector
    united = np.array(
        sorted(set(cell.sources.tolist()) | set(other.sources.tolist())), dtype=np.int64
    )
    united.flags.writeable = False
    cell._sources = united


def reference_matches(signature, flow: FlowRecord) -> bool:
    """Whether ``flow`` matches an ``AttackSignature``: destination and
    protocol, each port that is set, and any one bit of set ``tcp_flags``."""
    if flow.dst_addr != signature.dst_addr or flow.protocol != signature.protocol:
        return False
    if signature.src_port is not None and flow.src_port != signature.src_port:
        return False
    if signature.dst_port is not None and flow.dst_port != signature.dst_port:
        return False
    if signature.tcp_flags is not None and not flow.tcp_flags & signature.tcp_flags:
        return False
    return True


# ----------------------------------------------------------------------
# the streaming detector's oracles
# ----------------------------------------------------------------------
def reference_matrix_state(matrix: TrafficMatrix) -> dict:
    """:meth:`TrafficMatrix.state_dict` rebuilt cell by cell from
    :meth:`~TrafficMatrix.cells`, with none of the matrix's stores: the
    snapshot of the same cells must pickle to the same bytes."""
    cells = list(matrix.cells())
    classes = sorted({str(cls) for _customer, cls, _minute, _cell in cells})
    class_index = {cls: i for i, cls in enumerate(classes)}
    n = len(cells)
    keys: list[tuple[int, int, int]] = []
    counters: list[tuple[int, int, int, int, int]] = []
    vectors = np.empty((n, N_VOLUMETRIC))
    sources: list[int] = []
    offsets = [0]
    for row, (customer, cls, minute, cell) in enumerate(cells):
        keys.append((customer, class_index[cls], minute))
        counters.append(
            (cell.flow_count, cell.total_bytes, cell.total_packets,
             cell.max_bytes, cell.max_packets)
        )
        vectors[row] = cell.vector
        sources += sorted(cell.sources.tolist())
        offsets.append(len(sources))
    return {
        "max_minute": matrix.max_minute,
        "customers": matrix.customers(),
        "classes": classes,
        "keys": np.array(keys, dtype=np.int64).reshape(n, 3),
        "counters": np.array(counters, dtype=np.int64).reshape(n, 5),
        "vectors": vectors,
        "sources_flat": np.array(sources, dtype=np.int64),
        "sources_offsets": np.array(offsets, dtype=np.int64),
    }


class ReferenceOnlineXatu(OnlineXatu):
    """:class:`~repro.core.OnlineXatu` with scalar ingest, per-customer
    scoring and per-customer decisions: one :func:`reference_add_flow` per
    record; one dense window, one whole-window ``FeatureScaler.transform``
    and one model call per customer; one ``survival()`` per decision.

    Overrides the ``_ingest_batch``, ``_score`` and ``_decide`` stages, and
    snapshots its matrix through :func:`reference_matrix_state`; the minute
    loop, eviction, telemetry and ``state_dict`` are inherited, so a
    snapshot moves freely between the two classes.  The routing and
    blocklist tables are plain copies asked with ``dict.get`` / ``in``:
    nothing of production's sorted arrays is on this path.
    """

    def _matrix_state(self) -> dict:
        return reference_matrix_state(self.matrix)

    @property
    def customer_of(self):
        return self._plain_customer_of

    @customer_of.setter
    def customer_of(self, value) -> None:
        router = hasattr(value, "route_batch")
        self._plain_customer_of = value if router else dict(value or {})

    @property
    def blocklist(self):
        return self._plain_blocklist

    @blocklist.setter
    def blocklist(self, value) -> None:
        self._plain_blocklist = set(value or ())

    def _classify(self, customer_id: int, flow) -> list[str]:
        classes: list[str] = []
        if flow.src_addr in self.blocklist:
            classes.append(SOURCE_CLASS_BLOCKLIST)
        if self.prev_attackers.is_previous_attacker(
            customer_id, flow.src_addr, flow.timestamp
        ):
            classes.append(SOURCE_CLASS_PREV_ATTACKER)
        if self.route_table.is_spoofed(flow.src_addr):
            classes.append(SOURCE_CLASS_SPOOFED)
        return classes

    def _ingest_batch(self, batch, minute: int) -> tuple[int, int]:
        ingested = unrouted = 0
        for flow in batch.to_records():
            customer_id = self.customer_of.get(flow.dst_addr)
            if customer_id is None:
                unrouted += 1
                continue
            ingested += 1
            self._watched.add(customer_id)
            if self.config_online.watch_idle_minutes is not None:
                self._last_seen[customer_id] = minute
            reference_add_flow(
                self.matrix, customer_id, flow, self._classify(customer_id, flow)
            )
        return ingested, unrouted

    def _feature_window(self, customer_id: int, end_minute: int) -> np.ndarray:
        """One customer's raw dense ``(lookback, 273)`` window, rebuilt cell
        by cell (``finalize()`` per minute, so the matrix's row store is not
        on this path) and store by store."""
        lookback = self.model.config.lookback_minutes
        start = max(end_minute + 1 - lookback, 0)
        pad = lookback - (end_minute + 1 - start)
        block = np.zeros((lookback, N_FEATURES))
        for group, cls in _CLASS_OF_GROUP.items():
            for minute in range(start, end_minute + 1):
                cell = self.matrix.cell(customer_id, minute, cls)
                if cell is not None:
                    block[pad + minute - start, self._slices[group]] = cell.finalize()
        block[pad:, self._slices["A4"]] = self.history.feature_block(
            customer_id, start, end_minute + 1
        )
        block[pad:, self._slices["A5"]] = self.graph.feature_block(
            customer_id, start, end_minute + 1
        )
        return block

    def _pad_steps(self, customer_id: int, end_minute: int) -> list[int]:
        """Per timescale, its leading pooled steps that hold padding only:
        the minutes it sees before minute 0 and — for a customer with no
        A4/A5 alert — before the first of them with a cell of any class."""
        start = max(end_minute + 1 - self.model.config.lookback_minutes, 0)
        alerted = self.history.has_alerts(customer_id) or self.graph.has_alerts(customer_id)
        pads = []
        for ts in self.model.config.timescales:
            first = max(start, end_minute + 1 - ts.minutes)
            while not alerted and first <= end_minute and all(
                self.matrix.cell(customer_id, first, cls) is None
                for cls in _CLASS_OF_GROUP.values()
            ):
                first += 1
            pads.append((ts.minutes - (end_minute + 1 - first)) // ts.window)
        return pads

    def _score(self, customers, minute: int) -> list[float]:
        out: list[float] = []
        for customer_id in customers:
            window = self._feature_window(customer_id, minute)
            x = self.scaler.transform(window)[None, :, :]
            hazards = self.model.hazards_np(
                x, dtype=self.inference_dtype, pads=self._pad_steps(customer_id, minute)
            )[0]
            out.append(float(hazards[-1]))
        return out

    def _decide(self, customers, minute: int) -> list[OnlineAlert]:
        alerts = []
        for customer_id in customers:
            if minute < self._suppressed_until.get(customer_id, -1):
                continue
            survival = self.survival(customer_id)
            if survival < self.threshold:
                self._suppressed_until[customer_id] = minute + self.rearm_after
                alerts.append(OnlineAlert(customer_id, minute, survival))
        return alerts


# ----------------------------------------------------------------------
# diff helpers shared by the differential tests and the golden checker
# ----------------------------------------------------------------------
def max_abs_diff(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)))


def diff_summary(name: str, got: np.ndarray, want: np.ndarray) -> str:
    """One human-readable line locating the worst element-wise mismatch."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape mismatch {got.shape} vs {want.shape}"
    if got.size == 0:
        return f"{name}: empty, equal"
    delta = np.abs(got - want)
    idx = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return (
        f"{name}: max |Δ| {delta[idx]:.3e} at {tuple(int(i) for i in idx)} "
        f"(got {got[idx]:.6g}, want {want[idx]:.6g})"
    )
