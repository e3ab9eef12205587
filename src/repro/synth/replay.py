"""Replay a materialized trace as a live flow stream.

A :class:`Trace` stores per-minute aggregates, not raw flows; the replayer
reconstructs *equivalent* flows from each (customer, minute) cell — same
total bytes/packets, same source set, same per-protocol/port/flag/country
structure — so an :class:`~repro.core.OnlineXatu` (or any flow consumer)
can be driven from a saved trace.  Reconstruction is approximate at the
per-flow level but exact in every aggregate the 63 volumetric features
measure, which is all the downstream models see.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..netflow.matrix import (
    POPULAR_COUNTRIES,
    POPULAR_PORTS,
    SOURCE_CLASS_ALL,
    VOLUMETRIC_FEATURE_NAMES,
)
from ..netflow.records import FlowBatch, FlowRecord, Protocol, TcpFlags
from .scenario import AttackEvent, Trace
from .stream import MinuteSlice

__all__ = ["TraceReplayer"]

_NAME_INDEX = {name: i for i, name in enumerate(VOLUMETRIC_FEATURE_NAMES)}
_PROTO_OF = {
    "udp": int(Protocol.UDP),
    "tcp": int(Protocol.TCP),
    "icmp": int(Protocol.ICMP),
}
_FLAG_OF = {
    "fin": TcpFlags.FIN, "syn": TcpFlags.SYN, "rst": TcpFlags.RST,
    "psh": TcpFlags.PSH, "ack": TcpFlags.ACK, "urg": TcpFlags.URG,
}


class TraceReplayer:
    """Reconstructs per-minute flow lists from a trace's matrix cells."""

    def __init__(self, trace: Trace, seed: int = 0) -> None:
        self.trace = trace
        self._rng = np.random.default_rng(seed)
        self._cursor = 0
        self._events_by_onset: dict[int, list[AttackEvent]] = {}
        for event in trace.events:
            self._events_by_onset.setdefault(event.onset, []).append(event)
        self._events_by_end: dict[int, list[AttackEvent]] = {}
        for event in trace.events:
            self._events_by_end.setdefault(event.end, []).append(event)

    # ------------------------------------------------------------------
    def _cell_flows(self, customer_address: int, minute: int, cell) -> list[FlowRecord]:
        """Rebuild flows for one cell, matching its aggregate structure."""
        vector = cell.finalize()
        total_bytes = cell.total_bytes
        total_packets = max(1, cell.total_packets)
        sources = sorted(cell._sources)
        if not sources or total_bytes <= 0:
            return []

        # Split the cell by protocol; within each protocol pick the most
        # common src port / flags / country from the cell's counters.
        flows: list[FlowRecord] = []
        remaining_bytes = total_bytes
        remaining_packets = total_packets
        protocols = []
        for proto_name, proto_num in _PROTO_OF.items():
            b = vector[_NAME_INDEX[f"{proto_name}_bytes"]]
            p = vector[_NAME_INDEX[f"{proto_name}_packets"]]
            if b > 0:
                protocols.append((proto_num, b, max(1, int(p))))
        if not protocols:
            protocols = [(int(Protocol.TCP), total_bytes, total_packets)]

        def dominant(prefix: str, candidates, default):
            best, best_v = default, 0.0
            for c in candidates:
                v = vector[_NAME_INDEX[f"{prefix}{c}_bytes"]]
                if v > best_v:
                    best, best_v = c, v
            return best

        src_port = dominant("sport", POPULAR_PORTS, 0)
        dst_port = dominant("dport", POPULAR_PORTS, 0)
        country = dominant("cc_", POPULAR_COUNTRIES, "US")
        flags = 0
        for name, bit in _FLAG_OF.items():
            if vector[_NAME_INDEX[f"flag_{name}_bytes"]] > 0:
                flags |= int(bit)

        # One flow per source per protocol, bytes split proportionally.
        src_cursor = 0
        for proto_num, proto_bytes, proto_packets in protocols:
            n = max(1, int(round(len(sources) * proto_bytes / total_bytes)))
            picks = [sources[(src_cursor + i) % len(sources)] for i in range(n)]
            src_cursor += n
            per_flow_bytes = max(1, int(proto_bytes // n))
            per_flow_packets = max(1, int(proto_packets // n))
            for addr in picks:
                flows.append(
                    FlowRecord(
                        timestamp=minute,
                        src_addr=int(addr),
                        dst_addr=customer_address,
                        src_port=src_port if proto_num != int(Protocol.ICMP) else 0,
                        dst_port=dst_port if proto_num != int(Protocol.ICMP) else 0,
                        protocol=proto_num,
                        packets=min(per_flow_packets, remaining_packets) or 1,
                        bytes_=min(per_flow_bytes, remaining_bytes) or 1,
                        tcp_flags=flags if proto_num == int(Protocol.TCP) else 0,
                        src_country=country,
                    )
                )
                remaining_bytes = max(0, remaining_bytes - per_flow_bytes)
                remaining_packets = max(0, remaining_packets - per_flow_packets)
        return flows

    def minute_flows(self, minute: int) -> list[FlowRecord]:
        """All customers' reconstructed flows for one minute."""
        flows: list[FlowRecord] = []
        for customer in self.trace.world.customers:
            cell = self.trace.matrix.cell(customer.customer_id, minute, SOURCE_CLASS_ALL)
            if cell is not None:
                flows.extend(self._cell_flows(customer.address, minute, cell))
        return flows

    def replay(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[tuple[int, list[FlowRecord]]]:
        """Yield ``(minute, flows)`` pairs over a range."""
        end = end_minute if end_minute is not None else self.trace.horizon
        if not 0 <= start_minute <= end <= self.trace.horizon:
            raise ValueError("replay range outside the trace horizon")
        for minute in range(start_minute, end):
            yield minute, self.minute_flows(minute)

    # ------------------------------------------------------------------
    # TraceSource protocol
    @property
    def horizon(self) -> int:
        return self.trace.horizon

    def events_so_far(self) -> list[AttackEvent]:
        """Events whose onset the replay cursor has reached."""
        return [e for e in self.trace.events if e.onset < self._cursor]

    def iter_minutes(
        self, start_minute: int = 0, end_minute: int | None = None
    ) -> Iterator[MinuteSlice]:
        """Stream reconstructed minutes as :class:`MinuteSlice` objects.

        The records per minute are exactly :meth:`minute_flows` (same
        customer iteration order), so record-protocol consumers see the
        identical flow stream whether they use ``replay`` or the
        TraceSource lane.
        """
        end = end_minute if end_minute is not None else self.trace.horizon
        if not 0 <= start_minute <= end <= self.trace.horizon:
            raise ValueError("replay range outside the trace horizon")
        for minute in range(start_minute, end):
            records: list[FlowRecord] = []
            customer_ids: list[int] = []
            for customer in self.trace.world.customers:
                cell = self.trace.matrix.cell(
                    customer.customer_id, minute, SOURCE_CLASS_ALL
                )
                if cell is not None:
                    flows = self._cell_flows(customer.address, minute, cell)
                    records.extend(flows)
                    customer_ids.extend([customer.customer_id] * len(flows))
            self._cursor = max(self._cursor, minute + 1)
            yield MinuteSlice(
                minute,
                np.array(customer_ids, dtype=np.int64),
                FlowBatch.from_records(records),
                events_started=tuple(self._events_by_onset.get(minute, ())),
                events_ended=tuple(self._events_by_end.get(minute, ())),
            )
