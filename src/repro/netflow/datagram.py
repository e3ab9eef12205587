"""NetFlow-v5-style export datagrams: header + fixed-size record block.

The bare :func:`~repro.netflow.records.encode_flows` batch format carries
only a count; real NetFlow v5 exports prepend a header with version,
record count, router uptime, export timestamp, and a flow sequence number
that lets collectors detect datagram loss.  :class:`DatagramCodec` adds
that envelope (and the loss accounting) on top of the record codec.

The columnar fast path is :meth:`DatagramCodec.decode_batch`: the whole
record block becomes one :class:`~repro.netflow.records.FlowBatch` view
over the datagram bytes (a single ``np.frombuffer``, no per-record
unpacking).  :meth:`DatagramCodec.decode` keeps the record-list shape for
existing callers by converting that view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..obs import get_registry, obs_enabled
from .records import FLOW_WIRE_SIZE, FlowBatch, FlowRecord, _as_batch, _ascii_countries

__all__ = ["DatagramHeader", "DatagramCodec", "SequenceTracker"]

_HEADER_STRUCT = struct.Struct("<HHIIII")
HEADER_SIZE = _HEADER_STRUCT.size
_VERSION = 5


@dataclass(frozen=True, slots=True)
class DatagramHeader:
    """The v5-style export header."""

    version: int
    count: int
    sys_uptime_ms: int
    unix_secs: int
    flow_sequence: int
    engine_id: int


class DatagramCodec:
    """Stateful exporter-side codec: stamps headers with running sequence."""

    def __init__(self, engine_id: int = 0) -> None:
        self.engine_id = engine_id
        self._sequence = 0

    def encode(
        self,
        flows: "FlowBatch | list[FlowRecord]",
        sys_uptime_ms: int = 0,
        unix_secs: int = 0,
    ) -> bytes:
        """Encode one export datagram, advancing the flow sequence.

        Accepts a record list or a :class:`FlowBatch`; a batch encodes
        straight from its array buffer.
        """
        batch = _as_batch(flows)
        header = _HEADER_STRUCT.pack(
            _VERSION,
            len(batch),
            sys_uptime_ms,
            unix_secs,
            self._sequence,
            self.engine_id,
        )
        self._sequence += len(batch)
        return header + batch.to_bytes()

    @staticmethod
    def decode_batch(blob: bytes) -> tuple[DatagramHeader, FlowBatch]:
        """Parse header + records columnar; validates version, length and
        country codes (``ValueError``, before any caller state changes).

        The returned batch is a zero-copy view over ``blob``.
        """
        if len(blob) < HEADER_SIZE:
            raise ValueError("datagram shorter than its header")
        version, count, uptime, secs, sequence, engine = _HEADER_STRUCT.unpack_from(blob, 0)
        if version != _VERSION:
            raise ValueError(f"unsupported datagram version {version}")
        expected = HEADER_SIZE + count * FLOW_WIRE_SIZE
        if len(blob) != expected:
            raise ValueError(
                f"datagram length mismatch: expected {expected}, got {len(blob)}"
            )
        batch = _ascii_countries(FlowBatch.from_buffer(blob, count=count, offset=HEADER_SIZE))
        header = DatagramHeader(version, count, uptime, secs, sequence, engine)
        return header, batch

    @staticmethod
    def decode(blob: bytes) -> tuple[DatagramHeader, list[FlowRecord]]:
        """Parse header + records; validates version and length."""
        header, batch = DatagramCodec.decode_batch(blob)
        return header, batch.to_records()


class SequenceTracker:
    """Collector-side flow-sequence gap accounting (per engine id).

    NetFlow's ``flow_sequence`` counts records, not datagrams: a gap between
    the expected and received sequence is the number of records lost in
    transit — the standard way collectors quantify export loss.

    The telemetry handles are resolved once at construction (metric objects
    survive ``MetricsRegistry.reset``), so the per-datagram hot path pays
    four attribute loads instead of four registry lookups.
    """

    def __init__(self) -> None:
        self._expected: dict[int, int] = {}
        self.records_received = 0
        self.records_lost = 0
        self.out_of_order = 0
        registry = get_registry()
        self._obs_datagrams = registry.counter(
            "netflow.datagrams", "export datagrams observed"
        )
        self._obs_records = registry.counter(
            "netflow.records", "flow records received"
        )
        self._obs_lost = registry.counter(
            "netflow.records_lost", "flow records lost (sequence gaps)"
        )
        self._obs_reordered = registry.counter(
            "netflow.datagrams_reordered", "datagrams arriving out of order"
        )
        self._obs_loss_rate = registry.gauge(
            "netflow.loss_rate", "fraction of exported records lost in transit"
        )

    def observe(self, header: DatagramHeader) -> int:
        """Account one datagram header; returns records lost before it."""
        expected = self._expected.get(header.engine_id)
        lost = 0
        reordered = False
        if expected is not None:
            if header.flow_sequence > expected:
                lost = header.flow_sequence - expected
                self.records_lost += lost
            elif header.flow_sequence < expected:
                self.out_of_order += 1
                reordered = True
        self._expected[header.engine_id] = header.flow_sequence + header.count
        self.records_received += header.count
        if obs_enabled():
            self._obs_datagrams.inc()
            self._obs_records.inc(header.count)
            if lost:
                self._obs_lost.inc(lost)
            if reordered:
                self._obs_reordered.inc()
            self._obs_loss_rate.set(self.loss_rate)
        return lost

    @property
    def loss_rate(self) -> float:
        total = self.records_received + self.records_lost
        return self.records_lost / total if total else 0.0
