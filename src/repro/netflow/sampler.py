"""Packet sampling and flow collection.

The paper's data is *sampled* NetFlow (1:1 to 1:10000, §5.1).
:func:`sample_at_rates` applies binomial packet sampling to a batch of
ground-truth flows, producing the (noisy) sampled records the exporters
would emit; the :class:`FlowCollector` gathers export datagrams from
multiple exporters and hands the decoded flows to a
:class:`~repro.netflow.matrix.TrafficMatrix`.

Both are columnar.  The collector retains decoded datagrams as
:class:`~repro.netflow.records.FlowBatch` chunks — one structured-array
view per datagram, never a per-record Python list — and hands them on via
:meth:`FlowCollector.drain_batch`.  Sampling makes **one** batched
``rng.binomial`` draw for the whole batch, in the same per-flow order as a
loop over :func:`repro.testing.reference.reference_sample`, so seeded
traces stay deterministic (``tests/test_columnar.py`` pins the outputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import obs_enabled
from .datagram import DatagramCodec, SequenceTracker
from .records import FlowBatch, FlowRecord, check_flow_columns, decode_flows_batch, encode_flows

__all__ = ["sample_at_rates", "FlowCollector", "FeedHealth"]


@dataclass(frozen=True, slots=True)
class FeedHealth:
    """Collector-side view of export-feed quality (gap accounting)."""

    datagrams_received: int
    records_received: int
    records_lost: int
    datagrams_reordered: int
    loss_rate: float


def _scaled_bytes(kept: np.ndarray, packets: np.ndarray, bytes_: np.ndarray) -> np.ndarray:
    """Vectorized ``max(1, int(round(kept * bytes/packets)))``.

    ``np.rint`` rounds half-to-even like Python's ``round``, and the
    float64 expression is evaluated in the same order as the scalar
    oracle's, so the results match bit for bit.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_packet = np.where(packets > 0, bytes_ / packets, 0.0)
    return np.maximum(1, np.rint(kept * mean_packet).astype(np.int64))


def sample_at_rates(
    batch: FlowBatch, rates: np.ndarray, rng: np.random.Generator
) -> tuple[FlowBatch, np.ndarray]:
    """Sample each flow at its own 1:N rate with one binomial draw.

    ``rates`` holds one N per flow.  Each packet of a flow is kept
    independently with probability ``1/N`` and bytes scale with the
    surviving packets; a flow whose every packet is dropped disappears —
    the visibility loss that makes the paper's auxiliary signals
    "incomplete".  Flows at 1:1 pass unchanged and draw nothing; the
    others take one elementwise ``rng.binomial`` over them in arrival
    order, the same stream as a
    :func:`~repro.testing.reference.reference_sample` loop sharing
    ``rng``.  Returns the sampled batch (arrival order kept, unseen flows
    dropped, ``sampling_rate`` stamped) and the indices of the input flows
    it kept.
    """
    rates = np.asarray(rates, dtype=np.int64)
    if rates.shape != (len(batch),):
        raise ValueError("rates must hold one sampling rate per flow")
    check_flow_columns({"sampling_rate": rates})
    packets = batch.array["packets"].astype(np.int64)
    bytes_ = batch.array["bytes"].astype(np.int64)
    drawn = np.flatnonzero(rates > 1)
    if len(drawn):
        kept = rng.binomial(packets[drawn], 1.0 / rates[drawn])
        bytes_[drawn] = _scaled_bytes(kept, packets[drawn], bytes_[drawn])
        packets[drawn] = kept
    seen = np.flatnonzero((packets > 0) | (rates == 1))
    out = batch.take(seen)
    out.array["packets"] = packets[seen]
    out.array["bytes"] = bytes_[seen]
    out.array["sampling_rate"] = rates[seen]
    return out, seen


class FlowCollector:
    """Receives export datagrams and yields decoded records.

    Retains flows as columnar :class:`FlowBatch` chunks (one per ingest
    call) and keeps simple counters so tests can assert on lossless
    collection.  Both entry points — headerless batches
    (:meth:`ingest_batch`) and v5-enveloped datagrams
    (:meth:`ingest_datagram_batch`) — feed the ``netflow.datagrams`` /
    ``netflow.records`` obs counters; only the headered path additionally
    runs sequence-gap accounting.
    """

    def __init__(self) -> None:
        self.records_received = 0
        self.datagrams_received = 0
        self._chunks: list[FlowBatch] = []
        self._tracker = SequenceTracker()

    # -- ingest ----------------------------------------------------------
    def ingest_batch(self, datagram: bytes) -> FlowBatch:
        """Decode one headerless export datagram as a columnar view."""
        batch = decode_flows_batch(datagram)
        self.datagrams_received += 1
        self.records_received += len(batch)
        self._chunks.append(batch)
        if obs_enabled():
            self._tracker._obs_datagrams.inc()
            self._tracker._obs_records.inc(len(batch))
        return batch

    def ingest_datagram_batch(self, blob: bytes) -> FlowBatch:
        """Decode one *headered* export datagram (v5-style envelope).

        Runs the flow-sequence gap accounting through the collector's
        :class:`~repro.netflow.datagram.SequenceTracker`, so datagram loss
        and reordering show up in :meth:`feed_health` (and, when telemetry
        is enabled, in the ``netflow.*`` obs counters).
        """
        header, batch = DatagramCodec.decode_batch(blob)
        self._tracker.observe(header)
        self.datagrams_received += 1
        self.records_received += len(batch)
        self._chunks.append(batch)
        return batch

    def ingest_datagram(self, blob: bytes) -> list[FlowRecord]:
        """Record-list shim over :meth:`ingest_datagram_batch`.

        Nothing in the package calls it; it stays while the e2e
        benchmark's tracer (``benchmarks/e2e/e2e_trace.py``) names it.
        """
        return self.ingest_datagram_batch(blob).to_records()

    def add_flows(self, batch: FlowBatch) -> int:
        """Retain already-decoded flows (bypasses the wire codec)."""
        if not isinstance(batch, FlowBatch):
            raise TypeError(
                f"add_flows takes a FlowBatch, got {type(batch).__name__}: "
                "convert records once with FlowBatch.from_records"
            )
        if len(batch):
            self._chunks.append(batch)
        self.records_received += len(batch)
        return len(batch)

    # -- health ----------------------------------------------------------
    def feed_health(self) -> FeedHealth:
        """Gap/reorder accounting over every headered datagram ingested."""
        tracker = self._tracker
        return FeedHealth(
            datagrams_received=self.datagrams_received,
            records_received=tracker.records_received,
            records_lost=tracker.records_lost,
            datagrams_reordered=tracker.out_of_order,
            loss_rate=tracker.loss_rate,
        )

    # -- drain -----------------------------------------------------------
    def drain_batch(self) -> FlowBatch:
        """Return and clear all retained flows as one columnar batch."""
        chunks, self._chunks = self._chunks, []
        return FlowBatch.concat(chunks)

    # -- durability --------------------------------------------------------
    def state_dict(self) -> dict:
        """Canonical snapshot: counters, sequence-tracker expectations, and
        any undrained records (wire-encoded, so the snapshot is plain
        bytes/ints only)."""
        tracker = self._tracker
        return {
            "records_received": self.records_received,
            "datagrams_received": self.datagrams_received,
            "pending": encode_flows(FlowBatch.concat(self._chunks)),
            "tracker": {
                "expected": sorted(
                    (int(engine), int(seq))
                    for engine, seq in tracker._expected.items()
                ),
                "records_received": tracker.records_received,
                "records_lost": tracker.records_lost,
                "out_of_order": tracker.out_of_order,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self.records_received = int(state["records_received"])
        self.datagrams_received = int(state["datagrams_received"])
        pending = decode_flows_batch(state["pending"])
        self._chunks = [pending] if len(pending) else []
        tracker_state = state["tracker"]
        tracker = SequenceTracker()
        tracker._expected = {
            int(engine): int(seq) for engine, seq in tracker_state["expected"]
        }
        tracker.records_received = int(tracker_state["records_received"])
        tracker.records_lost = int(tracker_state["records_lost"])
        tracker.out_of_order = int(tracker_state["out_of_order"])
        self._tracker = tracker

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)
