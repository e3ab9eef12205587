"""Packet sampling and flow export/collection.

The paper's data is *sampled* NetFlow (1:1 to 1:10000, §5.1).  The
:class:`PacketSampler` applies binomial packet sampling to a ground-truth
flow, producing the (noisy) sampled record an exporter would emit; the
:class:`FlowCollector` gathers records from multiple exporters, optionally
round-tripping them through the wire codec, and feeds a
:class:`~repro.netflow.matrix.TrafficMatrix`.

Columnar fast path
------------------
The collector retains decoded datagrams as
:class:`~repro.netflow.records.FlowBatch` chunks — one structured-array
view per datagram, never a per-record Python list — and hands them to the
aggregation layer via :meth:`FlowCollector.drain_batch`.
Sampling is vectorized the same way: :meth:`PacketSampler.sample_many`
makes **one** batched ``rng.binomial`` draw for the whole batch, in the
same per-flow order the scalar loop used, so seeded traces stay
deterministic (``tests/test_columnar.py`` pins the outputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..obs import obs_enabled
from .datagram import DatagramCodec, SequenceTracker
from .records import (
    FLOW_DTYPE,
    FlowBatch,
    FlowRecord,
    decode_flows_batch,
    encode_flows,
)

__all__ = ["PacketSampler", "FlowExporter", "FlowCollector", "FeedHealth"]


@dataclass(frozen=True, slots=True)
class FeedHealth:
    """Collector-side view of export-feed quality (gap accounting)."""

    datagrams_received: int
    records_received: int
    records_lost: int
    datagrams_reordered: int
    loss_rate: float


def _resampled(flow: FlowRecord, packets: int, bytes_: int, rate: int) -> FlowRecord:
    """``flow`` with the sampled counters: the record itself when nothing
    changes (it is frozen), a positional rebuild otherwise —
    ``dataclasses.replace`` costs ~3x that per record."""
    if flow.sampling_rate == rate and flow.packets == packets and flow.bytes_ == bytes_:
        return flow
    return FlowRecord(
        flow.timestamp, flow.src_addr, flow.dst_addr, flow.src_port, flow.dst_port,
        flow.protocol, packets, bytes_, flow.tcp_flags, flow.src_country, rate,
    )


class PacketSampler:
    """1:N binomial packet sampling of ground-truth flows.

    Each packet of a flow is kept independently with probability ``1/N``;
    bytes are scaled proportionally to the surviving packets.  Flows whose
    every packet is dropped disappear, exactly the visibility loss that makes
    the paper's auxiliary signals "incomplete".
    """

    def __init__(self, rate: int, rng: np.random.Generator | None = None) -> None:
        if rate < 1:
            raise ValueError("sampling rate is 1:N with N >= 1")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)

    def sample(self, flow: FlowRecord) -> FlowRecord | None:
        """Return the sampled record for ``flow``, or None if unseen."""
        if self.rate == 1:
            return _resampled(flow, flow.packets, flow.bytes_, 1)
        kept = int(self._rng.binomial(flow.packets, 1.0 / self.rate))
        if kept == 0:
            return None
        mean_packet = flow.bytes_ / flow.packets if flow.packets else 0.0
        return _resampled(
            flow, kept, max(1, int(round(kept * mean_packet))), self.rate
        )

    def _draw_kept(self, packets: np.ndarray) -> np.ndarray:
        """One batched binomial draw for a whole flow batch.

        ``Generator.binomial`` consumes the bitstream per element exactly
        as the equivalent sequence of scalar draws would, so the kept
        counts are identical to a per-flow loop over :meth:`sample` —
        seeded traces stay deterministic across the two paths.
        """
        return self._rng.binomial(packets.astype(np.int64), 1.0 / self.rate)

    @staticmethod
    def _scaled_bytes(kept: np.ndarray, packets: np.ndarray, bytes_: np.ndarray) -> np.ndarray:
        """Vectorized ``max(1, int(round(kept * bytes/packets)))``.

        ``np.rint`` rounds half-to-even like Python's ``round``, and the
        float64 expression is evaluated in the same order as the scalar
        path, so the results match bit for bit.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_packet = np.where(packets > 0, bytes_ / packets, 0.0)
        return np.maximum(1, np.rint(kept * mean_packet).astype(np.int64))

    def sample_many(self, flows: Iterable[FlowRecord]) -> list[FlowRecord]:
        """Sample a batch, dropping unseen flows (one vectorized draw)."""
        flows = list(flows)
        if self.rate == 1:
            return [_resampled(f, f.packets, f.bytes_, 1) for f in flows]
        if not flows:
            return []
        packets = np.array([flow.packets for flow in flows], dtype=np.int64)
        kept = self._draw_kept(packets)
        bytes_ = np.array([flow.bytes_ for flow in flows], dtype=np.int64)
        scaled = self._scaled_bytes(kept, packets, bytes_)
        return [
            _resampled(flow, k, b, self.rate)
            for flow, k, b in zip(flows, kept.tolist(), scaled.tolist())
            if k
        ]

    def sample_batch(self, batch: FlowBatch) -> FlowBatch:
        """Columnar :meth:`sample_many`: batch in, sampled batch out.

        Consumes the RNG identically to :meth:`sample_many` on the same
        flows (one draw per input record, in order), and keeps the same
        records with the same counters.
        """
        if self.rate == 1:
            out = batch.array.copy()
            out["sampling_rate"] = 1
            return FlowBatch(out)
        if not len(batch):
            return FlowBatch.empty()
        packets = batch.array["packets"].astype(np.int64)
        kept = self._draw_kept(packets)
        seen = np.flatnonzero(kept)
        out = batch.take(seen)
        out.array["packets"] = kept[seen]
        out.array["bytes"] = self._scaled_bytes(
            kept[seen], packets[seen], batch.array["bytes"].astype(np.int64)[seen]
        )
        out.array["sampling_rate"] = self.rate
        return out


@dataclass
class FlowExporter:
    """One exporting router: a sampler plus an export buffer.

    ``flush()`` emits the buffered records as an encoded export datagram,
    mimicking the one-minute exportation cadence of the paper's routers.
    """

    name: str
    sampler: PacketSampler

    def __post_init__(self) -> None:
        self._chunks: list[FlowBatch] = []

    def observe(self, flows: "FlowBatch | Iterable[FlowRecord]") -> int:
        """Sample ground-truth flows into the export buffer; return kept count."""
        if isinstance(flows, FlowBatch):
            sampled = self.sampler.sample_batch(flows)
        else:
            sampled = FlowBatch.from_records(self.sampler.sample_many(flows))
        if len(sampled):
            self._chunks.append(sampled)
        return len(sampled)

    def flush(self) -> bytes:
        """Encode and clear the export buffer."""
        datagram = encode_flows(FlowBatch.concat(self._chunks))
        self._chunks = []
        return datagram

    @property
    def pending(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)


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
        """Record-list shim over :meth:`ingest_datagram_batch`."""
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
