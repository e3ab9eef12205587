"""Flow records, the columnar flow batch, and traffic constants.

A :class:`FlowRecord` is the reproduction's stand-in for one sampled NetFlow
v5/v9 record: the 5-tuple, byte/packet counters, TCP flags, a timestamp, and
the exporter's sampling rate.  The synthetic ISP world (:mod:`repro.synth`)
emits these; the feature extractor (:mod:`repro.signals`) consumes per-minute
aggregations of them.

Columnar fast path
------------------
:data:`FLOW_DTYPE` is a numpy structured dtype that mirrors the wire record
byte for byte, so a whole datagram's record block decodes as **one**
``np.frombuffer`` view — no per-record ``struct.unpack`` — wrapped in a
:class:`FlowBatch`.  Encoding goes the other way: the array's own buffer
*is* the wire payload.  The scalar :class:`FlowRecord` API survives as a
thin conversion shim (:meth:`FlowBatch.to_records` /
:meth:`FlowBatch.from_records`), so every list-of-records caller and every
golden fixture stands unchanged; the two paths are proven byte-identical
by the differential suite in ``tests/test_columnar.py``.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Protocol",
    "TcpFlags",
    "FlowRecord",
    "FlowBatch",
    "FLOW_DTYPE",
    "encode_flow",
    "decode_flow",
    "encode_flows",
    "decode_flows",
    "decode_flows_batch",
    "FLOW_WIRE_SIZE",
]


class Protocol(enum.IntEnum):
    """IP protocol numbers used by the six attack types in the dataset."""

    ICMP = 1
    TCP = 6
    UDP = 17


class TcpFlags(enum.IntFlag):
    """TCP header flag bits (subset relevant to attack signatures)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One sampled flow record.

    Attributes
    ----------
    timestamp:
        Export time in integer minutes since the start of the trace.  The
        paper's exporters have a one-minute exportation delay (§5.1), so the
        minute is the native time resolution throughout the reproduction.
    src_addr / dst_addr:
        IPv4 addresses as 32-bit integers.
    src_port / dst_port:
        Transport ports (0 for ICMP).
    protocol:
        IP protocol number.
    packets / bytes_:
        Sampled counters (multiply by ``sampling_rate`` to estimate the
        original traffic).
    tcp_flags:
        OR of all TCP flags seen on the flow (0 for non-TCP).
    src_country:
        Two-letter country code of the source (the paper's country features
        come from an IP-geo mapping; the synthetic world assigns countries
        directly to address blocks).
    sampling_rate:
        1:N packet sampling rate at the exporting router (1..10000, §5.1).
    """

    timestamp: int
    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    protocol: int
    packets: int
    bytes_: int
    tcp_flags: int = 0
    src_country: str = "US"
    sampling_rate: int = 1

    def __post_init__(self) -> None:
        if self.packets < 0 or self.bytes_ < 0:
            raise ValueError("flow counters must be non-negative")
        if not 0 <= self.src_port <= 0xFFFF or not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError("ports must fit in 16 bits")
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate is 1:N with N >= 1")

    @property
    def estimated_bytes(self) -> int:
        """Upscaled byte count compensating for packet sampling."""
        return self.bytes_ * self.sampling_rate

    @property
    def estimated_packets(self) -> int:
        """Upscaled packet count compensating for packet sampling."""
        return self.packets * self.sampling_rate


# Wire format: a fixed 38-byte little-endian layout per record, preceded in
# streams by a u32 record count.  This mimics the fixed-size record blocks of
# NetFlow v5 export datagrams.
_FLOW_STRUCT = struct.Struct("<IIIHHBBIQH2sI")
FLOW_WIRE_SIZE = _FLOW_STRUCT.size

# The same layout as a packed numpy structured dtype: field order, widths,
# and endianness line up with ``_FLOW_STRUCT`` exactly, so a record block
# views as an array (and an array's buffer is a record block) with zero
# re-serialization.
FLOW_DTYPE = np.dtype(
    [
        ("timestamp", "<u4"),
        ("src_addr", "<u4"),
        ("dst_addr", "<u4"),
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("protocol", "u1"),
        ("tcp_flags", "u1"),
        ("packets", "<u4"),
        ("bytes", "<u8"),
        ("sampling_rate", "<u2"),
        ("src_country", "S2"),
        ("reserved", "<u4"),
    ]
)
assert FLOW_DTYPE.itemsize == FLOW_WIRE_SIZE, "structured dtype must mirror the wire layout"


def _encode_country(country: str) -> bytes:
    return country.encode("ascii")[:2].ljust(2, b" ")


def _decode_country(raw: bytes) -> str:
    return raw.decode("ascii").strip() or "US"


class FlowBatch:
    """A column-oriented batch of flow records (one numpy structured array).

    The canonical in-memory form of the ingest fast path: datagram decode
    yields a ``FlowBatch`` view straight over the wire bytes, the collector
    retains batches, and :meth:`repro.netflow.TrafficMatrix.add_batch`
    aggregates them with vectorized group-bys.  Iteration and indexing fall
    back to :class:`FlowRecord` conversion so protocol-shaped consumers that
    expect record sequences keep working unmodified.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        if array.dtype != FLOW_DTYPE:
            raise TypeError(f"FlowBatch requires FLOW_DTYPE arrays, got {array.dtype}")
        if array.ndim != 1:
            raise ValueError("FlowBatch arrays must be one-dimensional")
        self.array = array

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls) -> "FlowBatch":
        return cls(np.empty(0, dtype=FLOW_DTYPE))

    @classmethod
    def from_records(cls, flows: Iterable[FlowRecord]) -> "FlowBatch":
        """Columnarize a record list (the scalar-API conversion shim).

        The one place a record list enters the columnar path: a value
        outside the 38-byte wire record's domain raises ``OverflowError``
        (a non-ASCII country ``UnicodeEncodeError``) here, before any
        consumer sees the batch.
        """
        flows = list(flows)
        array = np.empty(len(flows), dtype=FLOW_DTYPE)
        for i, f in enumerate(flows):
            array[i] = (
                f.timestamp,
                f.src_addr,
                f.dst_addr,
                f.src_port,
                f.dst_port,
                f.protocol,
                f.tcp_flags,
                f.packets,
                f.bytes_,
                f.sampling_rate,
                _encode_country(f.src_country),
                0,
            )
        return cls(array)

    @classmethod
    def from_buffer(cls, buffer, count: int | None = None, offset: int = 0) -> "FlowBatch":
        """Zero-copy view of a wire record block (no count prefix).

        ``buffer`` is any object exposing the buffer protocol; the returned
        batch aliases it (read-only when the source is immutable), so the
        caller must keep the buffer alive and unmodified while the batch is
        in use.
        """
        array = np.frombuffer(buffer, dtype=FLOW_DTYPE, count=-1 if count is None else count, offset=offset)
        return cls(array)

    @staticmethod
    def concat(batches: Sequence["FlowBatch"]) -> "FlowBatch":
        """Concatenate batches into one (copies; empty input allowed).

        The blocks are joined as bytes: ``np.concatenate`` of structured
        arrays copies field by field (~25x slower on this dtype).  A
        strided chunk (``batch[::2]``) is made contiguous first.
        """
        arrays = [b.array for b in batches if len(b.array)]
        if not arrays:
            return FlowBatch.empty()
        if len(arrays) == 1:
            return FlowBatch(arrays[0])
        blocks = [np.ascontiguousarray(a).view(np.uint8) for a in arrays]
        return FlowBatch(np.concatenate(blocks).view(FLOW_DTYPE))

    def take(self, indices) -> "FlowBatch":
        """The rows at ``indices`` as a fresh contiguous batch.

        ``indices`` is an integer index array (order and repeats kept) or
        a boolean mask over the batch (arrival order kept).  Same rows as
        ``array[indices]``, which copies each record field by field;
        ``ndarray.take`` moves it as one 38-byte block (~10x faster).
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != self.array.shape:
                raise IndexError(
                    f"mask of shape {indices.shape} over a batch of {len(self.array)}"
                )
            indices = np.flatnonzero(indices)
        elif not indices.size:
            indices = indices.astype(np.intp)  # ``[]`` arrives as float64
        return FlowBatch(self.array.take(indices))

    # -- wire -----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The raw record block (no count prefix); byte-identical to
        concatenating :func:`encode_flow` over :meth:`to_records`."""
        return self.array.tobytes()

    # -- record shim ------------------------------------------------------
    def to_records(self) -> list[FlowRecord]:
        """Materialize scalar :class:`FlowRecord` objects (plain-int fields)."""
        return [
            FlowRecord(
                timestamp=ts,
                src_addr=src,
                dst_addr=dst,
                src_port=sport,
                dst_port=dport,
                protocol=proto,
                packets=packets,
                bytes_=bytes_,
                tcp_flags=flags,
                src_country=_decode_country(country),
                sampling_rate=rate,
            )
            for ts, src, dst, sport, dport, proto, flags, packets, bytes_, rate, country, _ in self.array.tolist()
        ]

    # -- column accessors (copies cast for arithmetic safety) ------------
    def estimated_bytes(self) -> np.ndarray:
        """Sampling-compensated byte counts as int64 (exact for the wire
        domain; see ``TrafficMatrix.add_batch`` for the representability
        argument)."""
        return self.array["bytes"].astype(np.int64) * self.array["sampling_rate"].astype(np.int64)

    def estimated_packets(self) -> np.ndarray:
        """Sampling-compensated packet counts as int64."""
        return self.array["packets"].astype(np.int64) * self.array["sampling_rate"].astype(np.int64)

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.to_records())

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            row = self.array[int(key)]
            return FlowRecord(
                timestamp=int(row["timestamp"]),
                src_addr=int(row["src_addr"]),
                dst_addr=int(row["dst_addr"]),
                src_port=int(row["src_port"]),
                dst_port=int(row["dst_port"]),
                protocol=int(row["protocol"]),
                packets=int(row["packets"]),
                bytes_=int(row["bytes"]),
                tcp_flags=int(row["tcp_flags"]),
                src_country=_decode_country(bytes(row["src_country"])),
                sampling_rate=int(row["sampling_rate"]),
            )
        if isinstance(key, slice):
            return FlowBatch(self.array[key])
        return self.take(key)

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowBatch):
            return bool(np.array_equal(self.array, other.array))
        return NotImplemented

    def __repr__(self) -> str:
        return f"FlowBatch(n={len(self.array)})"


def _as_batch(flows: "FlowBatch | Sequence[FlowRecord]") -> FlowBatch:
    """Coerce either flow representation to a :class:`FlowBatch`."""
    if isinstance(flows, FlowBatch):
        return flows
    return FlowBatch.from_records(flows)


def encode_flow(flow: FlowRecord) -> bytes:
    """Serialize one record to its fixed-size wire form."""
    return _FLOW_STRUCT.pack(
        flow.timestamp,
        flow.src_addr,
        flow.dst_addr,
        flow.src_port,
        flow.dst_port,
        flow.protocol,
        flow.tcp_flags,
        flow.packets,
        flow.bytes_,
        flow.sampling_rate,
        _encode_country(flow.src_country),
        0,  # reserved
    )


def decode_flow(blob: bytes) -> FlowRecord:
    """Parse one fixed-size wire record back into a :class:`FlowRecord`."""
    (
        timestamp,
        src_addr,
        dst_addr,
        src_port,
        dst_port,
        protocol,
        tcp_flags,
        packets,
        bytes_,
        sampling_rate,
        country,
        _reserved,
    ) = _FLOW_STRUCT.unpack(blob)
    return FlowRecord(
        timestamp=timestamp,
        src_addr=src_addr,
        dst_addr=dst_addr,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        packets=packets,
        bytes_=bytes_,
        tcp_flags=tcp_flags,
        src_country=_decode_country(country),
        sampling_rate=sampling_rate,
    )


def encode_flows(flows: "FlowBatch | Sequence[FlowRecord]") -> bytes:
    """Serialize a batch: u32 count followed by fixed-size records.

    Accepts a :class:`FlowBatch` (encoded straight from its buffer) or a
    record list (columnarized first); the bytes are identical either way.
    """
    batch = _as_batch(flows)
    return struct.pack("<I", len(batch)) + batch.to_bytes()


def decode_flows_batch(blob: bytes) -> FlowBatch:
    """Parse a batch produced by :func:`encode_flows` as one columnar view.

    The returned batch aliases ``blob`` (zero copy, read-only); slice or
    ``concat`` it to detach.  A truncated blob or a non-ASCII country code
    raises ``ValueError``.
    """
    if len(blob) < 4:
        raise ValueError("truncated flow batch: missing count header")
    (count,) = struct.unpack_from("<I", blob, 0)
    expected = 4 + count * FLOW_WIRE_SIZE
    if len(blob) != expected:
        raise ValueError(
            f"truncated flow batch: expected {expected} bytes, got {len(blob)}"
        )
    return _ascii_countries(FlowBatch.from_buffer(blob, count=count, offset=4))


def _ascii_countries(batch: FlowBatch) -> FlowBatch:
    """``batch``, once every country code in it is ASCII.

    A non-ASCII code is what a corrupted record carries (no exporter
    writes one): the decoders refuse it with ``ValueError`` here, before a
    collector keeps the batch, so it never reaches a shard's fold.
    """
    codes = batch.array["src_country"].view("<u2")
    if np.bitwise_or.reduce(codes) & 0x8080:  # no temporary on the clean path
        first = int(np.flatnonzero(codes & 0x8080)[0])
        raise ValueError(
            f"record {first} has a non-ASCII country code "
            f"{bytes(batch.array['src_country'][first])!r}"
        )
    return batch


def decode_flows(blob: bytes) -> list[FlowRecord]:
    """Parse a batch produced by :func:`encode_flows` (record-list shim)."""
    return decode_flows_batch(blob).to_records()
