"""Per-minute, per-customer traffic aggregation.

The feature extractor of Table 1 needs, for every customer and every minute,
the 63 volumetric counters (unique sources, byte/packet totals per protocol,
popular ports, TCP flags, source countries) — and the same 63 counters
restricted to each auxiliary source class (blocklisted / previous attackers /
spoofed, the A1–A3 splits).  :class:`TrafficMatrix` maintains exactly that:
a dict of :class:`VolumetricAccumulator` keyed by (customer, source-class,
minute), and materializes dense ``(minutes, 63)`` numpy blocks on demand —
from a per-(customer, class) store of finalized rows that is kept as a
derived view of the cells (dirty on fold, flush on read); a second store of
the same kind keeps the cells encoded for the columnar snapshot.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

from .records import FlowBatch, Protocol, TcpFlags, _decode_country

__all__ = [
    "POPULAR_PORTS",
    "POPULAR_COUNTRIES",
    "SOURCE_CLASS_ALL",
    "SOURCE_CLASS_BLOCKLIST",
    "SOURCE_CLASS_PREV_ATTACKER",
    "SOURCE_CLASS_SPOOFED",
    "VOLUMETRIC_FEATURE_NAMES",
    "N_VOLUMETRIC",
    "VolumetricAccumulator",
    "TrafficMatrix",
]

# Appendix D: ports and countries that dominate the ISP's traffic.
POPULAR_PORTS: tuple[int, ...] = (0, 53, 80, 123, 443)
POPULAR_COUNTRIES: tuple[str, ...] = (
    "US", "IN", "SA", "CN", "GB", "NL", "FR", "DE", "BR", "CA",
)
_TCP_FLAG_BITS: tuple[TcpFlags, ...] = (
    TcpFlags.FIN, TcpFlags.SYN, TcpFlags.RST,
    TcpFlags.PSH, TcpFlags.ACK, TcpFlags.URG,
)

SOURCE_CLASS_ALL = "all"
SOURCE_CLASS_BLOCKLIST = "blocklist"
SOURCE_CLASS_PREV_ATTACKER = "prev_attacker"
SOURCE_CLASS_SPOOFED = "spoofed"


def _volumetric_feature_names() -> list[str]:
    names = ["unique_sources"]
    names += ["mean_bytes", "mean_packets", "max_bytes", "max_packets"]
    for proto in ("udp", "tcp", "icmp"):
        names += [f"{proto}_bytes", f"{proto}_packets"]
    for port in POPULAR_PORTS:
        names += [f"sport{port}_bytes", f"sport{port}_packets"]
    for port in POPULAR_PORTS:
        names += [f"dport{port}_bytes", f"dport{port}_packets"]
    for flag in _TCP_FLAG_BITS:
        names += [f"flag_{flag.name.lower()}_bytes", f"flag_{flag.name.lower()}_packets"]
    for country in POPULAR_COUNTRIES:
        names += [f"cc_{country}_bytes", f"cc_{country}_packets"]
    return names


VOLUMETRIC_FEATURE_NAMES: tuple[str, ...] = tuple(_volumetric_feature_names())
N_VOLUMETRIC = len(VOLUMETRIC_FEATURE_NAMES)
assert N_VOLUMETRIC == 63, "Table 1 specifies 63 volumetric features"

_PORT_INDEX = {p: i for i, p in enumerate(POPULAR_PORTS)}
_COUNTRY_INDEX = {c: i for i, c in enumerate(POPULAR_COUNTRIES)}

# Column offsets inside the 63-wide vector.
_OFF_UNIQUE = 0
_OFF_MEANMAX = 1          # mean_bytes, mean_packets, max_bytes, max_packets
_OFF_PROTO = 5            # 3 protocols x 2
_OFF_SPORT = 11           # 5 ports x 2
_OFF_DPORT = 21           # 5 ports x 2
_OFF_FLAGS = 31           # 6 flags x 2
_OFF_COUNTRY = 43         # 10 countries x 2

# ``add_batch`` scatters into rows ``_WIDTH`` wide: a record's bytes land on
# its slot's column and its packets one to the right, so a slot that has no
# counter points at the first of *two* spare columns past the 63 — one wide,
# the packets of a trash hit would spill into the next cell's column 0.
_SLOTS = 10               # protocol, sport, dport, six flags, country
_TRASH = N_VOLUMETRIC
_WIDTH = N_VOLUMETRIC + 2
_INVALID = 255            # country code that is not ASCII: the batch is rejected


def _column_tables() -> tuple[np.ndarray, ...]:
    """Field value → bytes-counter column: UDP/TCP/ICMP, a popular source or
    destination port, each TCP flag bit (on TCP flows only, which the fold
    applies), a popular country — every other value lands on the trash
    column.  Country codes go through ``_decode_country`` itself, on the
    bytes numpy hands out for each of the 65,536 two-byte codes."""
    proto = np.full(256, _TRASH, dtype=np.uint8)
    for i, value in enumerate((Protocol.UDP, Protocol.TCP, Protocol.ICMP)):
        proto[value] = _OFF_PROTO + 2 * i
    sport = np.full(65536, _TRASH, dtype=np.uint8)
    dport = np.full(65536, _TRASH, dtype=np.uint8)
    for port, i in _PORT_INDEX.items():
        sport[port] = _OFF_SPORT + 2 * i
        dport[port] = _OFF_DPORT + 2 * i
    bits = np.array([int(bit) for bit in _TCP_FLAG_BITS])
    flags = np.where(
        np.arange(256)[:, None] & bits, _OFF_FLAGS + 2 * np.arange(len(bits)), _TRASH
    ).astype(np.uint8)
    raws = np.arange(65536, dtype="<u2").view("S2").tolist()
    country = np.full(65536, _INVALID, dtype=np.uint8)
    for code in (hi << 8 | lo for hi in range(128) for lo in range(128)):  # ASCII
        idx = _COUNTRY_INDEX.get(_decode_country(raws[code]))
        country[code] = _TRASH if idx is None else _OFF_COUNTRY + 2 * idx
    tables = (proto, sport, dport, flags, country)
    for table in tables:
        table.flags.writeable = False
    return tables


# Built at import, not on first use: a forked shard never folds in the parent,
# so a lazy table would be rebuilt inside every engine's first served minute.
_PROTO_COLUMN, _SPORT_COLUMN, _DPORT_COLUMN, _FLAG_COLUMNS, _COUNTRY_COLUMN = (
    _column_tables()
)


class VolumetricAccumulator:
    """Accumulates flows of one (customer, source-class, minute) cell."""

    __slots__ = (
        "flow_count", "total_bytes", "total_packets", "max_bytes",
        "max_packets", "vector", "_sources",
    )

    def __init__(self) -> None:
        self.flow_count = 0
        self.total_bytes = 0
        self.total_packets = 0
        self.max_bytes = 0
        self.max_packets = 0
        self.vector = np.zeros(N_VOLUMETRIC)
        self._sources: set[int] = set()

    def add_aggregate(
        self,
        count: int,
        total_bytes: int,
        total_packets: int,
        max_bytes: int,
        max_packets: int,
        vector_row: np.ndarray,
        sources: Iterable[int],
    ) -> None:
        """Fold one pre-aggregated (vectorized) contribution into the cell.

        Equivalent to folding ``count`` flows one at a time whose
        sampling-compensated counters sum to the given totals: every counter
        is an integer sum, max, or set union, so as long as the partial and
        total sums are exactly representable in float64 (< 2**53 — far
        beyond any per-cell minute of ISP traffic) the result is
        bit-identical to the per-flow fold
        (:func:`repro.testing.reference.reference_add_flow`).
        ``tests/test_columnar.py`` proves it differentially.
        """
        self.flow_count += count
        self.total_bytes += total_bytes
        self.total_packets += total_packets
        if max_bytes > self.max_bytes:
            self.max_bytes = max_bytes
        if max_packets > self.max_packets:
            self.max_packets = max_packets
        self.vector += vector_row
        self._sources.update(sources)

    def merge(self, other: "VolumetricAccumulator") -> None:
        """Fold another cell into this one (same minute, different class).

        Used to recompute the A2 (previous-attacker) split from per-botnet
        provenance cells when the alert timeline that defines "previous
        attackers" changes (e.g. Xatu's autoregressive test mode, §5.3).
        """
        self.flow_count += other.flow_count
        self.total_bytes += other.total_bytes
        self.total_packets += other.total_packets
        self.max_bytes = max(self.max_bytes, other.max_bytes)
        self.max_packets = max(self.max_packets, other.max_packets)
        self.vector += other.vector
        self._sources |= other._sources

    def finalize(self) -> np.ndarray:
        """Return the completed 63-feature vector for this cell."""
        v = self.vector.copy()
        v[_OFF_UNIQUE] = len(self._sources)
        if self.flow_count:
            v[_OFF_MEANMAX + 0] = self.total_bytes / self.flow_count
            v[_OFF_MEANMAX + 1] = self.total_packets / self.flow_count
        v[_OFF_MEANMAX + 2] = self.max_bytes
        v[_OFF_MEANMAX + 3] = self.max_packets
        return v

    @property
    def unique_sources(self) -> int:
        return len(self._sources)


_NO_MINUTES = np.zeros(0, dtype=np.int64)
_NO_ROWS = np.zeros((0, N_VOLUMETRIC))
_NO_COUNTERS = np.zeros((0, 5), dtype=np.int64)


def _finalized(cell: VolumetricAccumulator) -> tuple:
    return (cell.finalize(),)


def _encoded(cell: VolumetricAccumulator) -> tuple:
    """One cell as the snapshot holds it: raw sums, the five counters, the
    source count and the sources ascending, as int64 bytes (one ``join``
    concatenates thousands of them far faster than ``np.concatenate``).  A
    counter beyond int64 raises ``OverflowError`` here, before the store is
    touched."""
    counters = np.array(
        (cell.flow_count, cell.total_bytes, cell.total_packets,
         cell.max_bytes, cell.max_packets),
        dtype=np.int64,
    )
    sources = np.fromiter(cell._sources, np.int64, len(cell._sources))
    sources.sort()
    return cell.vector, counters, len(sources), sources.tobytes()


# (shape of one row, dtype) per column of a store.
_FINALIZED = (((N_VOLUMETRIC,), np.float64),)
_ENCODED = (((N_VOLUMETRIC,), np.float64), ((5,), np.int64), ((), np.int64), ((), object))


class _RowStore:
    """The cells of one (customer, source-class), encoded one row per
    minute, in minute order.

    ``minutes[lo:hi]`` ascends and row ``k`` of every column is the encoding
    of ``cell(minutes[k])`` for every minute not in ``dirty``.  Appends go
    to the spare capacity behind ``hi`` and trims advance ``lo``, so the
    steady state of a streaming detector (one new minute, one evicted
    minute) copies nothing.  A new store holds no rows and every cell dirty.
    """

    __slots__ = ("minutes", "columns", "lo", "hi", "dirty")

    def __init__(self, cells: Mapping[int, VolumetricAccumulator], layout) -> None:
        capacity = len(cells)
        self.minutes = np.empty(capacity, dtype=np.int64)
        self.columns = [
            np.empty((capacity, *shape), dtype=dtype) for shape, dtype in layout
        ]
        self.lo = self.hi = 0
        self.dirty: set[int] = set(cells)

    def put(self, minute: int, row: tuple) -> None:
        """Overwrite, append or insert one minute's row (one value per column)."""
        lo, hi = self.lo, self.hi
        at = hi
        if hi > lo and minute <= self.minutes[hi - 1]:
            at = lo + int(np.searchsorted(self.minutes[lo:hi], minute))
            if self.minutes[at] == minute:
                for column, value in zip(self.columns, row):
                    column[at] = value
                return
        if hi == len(self.minutes):
            # Out of spare capacity: repack the live rows at the front, in
            # place when trims freed enough room, else in buffers half again
            # their size (most keys hold a handful of rows: no big minimum).
            # The column list is reused, not rebuilt: a new container per
            # repack counts toward the garbage collector's young-generation
            # threshold, and a collection set off inside the next fold walks
            # every source set it just grew (≈ 6 ms each on flood_ingest).
            minutes, live = self.minutes, hi - lo
            capacity = live + max(live // 2, 2)
            if capacity > len(minutes):
                self.minutes = np.empty(capacity, dtype=np.int64)
            self.minutes[:live] = minutes[lo:hi]
            for k, column in enumerate(self.columns):
                if capacity > len(column):
                    shape = (capacity, *column.shape[1:])
                    self.columns[k] = np.empty(shape, dtype=column.dtype)
                self.columns[k][:live] = column[lo:hi]
            self.lo = 0
            at, hi = at - lo, live
        if at < hi:  # a late record opened a cell in the middle
            self.minutes[at + 1 : hi + 1] = self.minutes[at:hi]
            for column in self.columns:
                column[at + 1 : hi + 1] = column[at:hi]
        self.minutes[at] = minute
        for column, value in zip(self.columns, row):
            column[at] = value
        self.hi = hi + 1

    def flush(self, cells: Mapping[int, VolumetricAccumulator], encode) -> int:
        """Re-encode the dirty minutes; return how many still held a cell."""
        live = sorted(self.dirty & cells.keys())  # evicted minutes drop out
        for minute in live:
            self.put(minute, encode(cells[minute]))
        self.dirty.clear()
        return len(live)

    def trim(self, minute: int) -> None:
        """Forget the rows older than ``minute``."""
        self.lo += int(np.searchsorted(self.minutes[self.lo : self.hi], minute))

    def between(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.searchsorted(self.minutes[self.lo : self.hi], (start, end)) + self.lo
        minutes, rows = self.minutes[i:j], self.columns[0][i:j]
        minutes.flags.writeable = rows.flags.writeable = False
        return minutes, rows


class _Series:
    """One (customer, source-class): its cells by minute and two stores of
    them — ``rows``, finalized for reads, from the key's first read on, and
    ``snapshot``, encoded for :meth:`TrafficMatrix.state_dict`, from the
    first snapshot on (each stays ``None`` until then).

    Both stores are derived state with one invariant: every write to a cell
    of the series marks that minute dirty in each store it has, and every
    read of a store flushes its dirt first.
    """

    __slots__ = ("key", "cells", "rows", "snapshot")

    def __init__(self, key: tuple[int, str]) -> None:
        self.key = key
        self.cells: dict[int, VolumetricAccumulator] = {}
        self.rows: _RowStore | None = None
        self.snapshot: _RowStore | None = None

    def flushed(self) -> _RowStore:
        """The row store with its dirty rows re-finalized."""
        rows = self.rows
        if rows is None:
            rows = self.rows = _RowStore(self.cells, _FINALIZED)
        if rows.dirty:
            rows.flush(self.cells, _finalized)
        return rows

    def encoded(self) -> tuple[_RowStore, int]:
        """The snapshot store with its dirty rows re-encoded, and how many
        cells that re-encoded."""
        if self.snapshot is None:
            self.snapshot = _RowStore(self.cells, _ENCODED)
        return self.snapshot, self.snapshot.flush(self.cells, _encoded)


def _column(state: dict, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """One array of a matrix snapshot, checked for dtype and shape."""
    column = np.asarray(state[name])
    if column.dtype != dtype or column.shape != shape:
        raise ValueError(
            f"matrix snapshot: {name} must be {np.dtype(dtype).name} {shape}, "
            f"got {column.dtype.name} {column.shape}"
        )
    return column


class TrafficMatrix:
    """Sparse (customer, source-class, minute) → volumetric-cell store.

    ``add_batch`` folds each flow into the "all" cell plus one cell per
    auxiliary source class it belongs to (masks computed by the caller —
    see :class:`repro.signals.SourceClassifier`).  ``feature_block``
    produces the dense per-minute matrix a model consumes; ``rows_between`` hands out the
    same rows compactly (non-empty minutes only).

    State is one :class:`_Series` per (customer, class).  Everything else —
    a series' finalized rows and snapshot rows, the per-minute eviction
    index, the cell count — is derived, and :meth:`_write` is the only place
    that creates a cell or touches any of it.  ``load_state_dict`` drops the
    stores, and ``state_dict`` encodes what its store does not yet hold, so
    checkpoints are the same bytes whether or not anything was ever read or
    snapshot.  Cells handed out by :meth:`cell` and :meth:`cells` are for
    reading only: a cell changed in place is a write no store sees.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[int, str], _Series] = {}
        self._customers: set[int] = set()
        self.max_minute = -1
        # minute -> the series with a cell there, and a lower bound on every
        # live cell's minute (a late record lowers it again): ``evict_before``
        # costs what it evicts.
        self._cells_at: dict[int, list[_Series]] = {}
        self._oldest = sys.maxsize
        self._n_cells = 0
        self._snapshot_encoded = 0

    def _write(
        self,
        customer: int,
        cls: str,
        minute: int,
        cell: VolumetricAccumulator | None = None,
    ) -> VolumetricAccumulator:
        """The cell a fold is about to write into, created if missing — or
        ``cell`` installed in its place."""
        series = self._series.get((customer, cls))
        if series is None:
            key = (customer, cls)
            series = self._series[key] = _Series(key)
        held = series.cells.get(minute)
        if held is None:
            self._cells_at.setdefault(minute, []).append(series)
            if minute < self._oldest:
                self._oldest = minute
            self._n_cells += 1
            if cell is None:
                cell = VolumetricAccumulator()
        if cell is not None:
            held = series.cells[minute] = cell
        if series.rows is not None:
            series.rows.dirty.add(minute)
        if series.snapshot is not None:
            series.snapshot.dirty.add(minute)
        return held

    def set_cell(
        self, customer: int, minute: int, source_class: str, cell: VolumetricAccumulator
    ) -> None:
        """Install a prebuilt cell (trace loading, checkpoint restore)."""
        self._customers.add(customer)
        if minute > self.max_minute:
            self.max_minute = minute
        self._write(customer, source_class, minute, cell)

    def add_batch(
        self,
        customer_ids: np.ndarray,
        flows: FlowBatch,
        class_masks: Mapping[str, np.ndarray] | None = None,
    ) -> list[int]:
        """Fold a whole columnar batch into the matrix.

        ``customer_ids`` carries the destination customer of each record
        (the caller routed already); ``class_masks`` maps each auxiliary
        source class to a boolean membership mask over the records.
        Returns the customers that received records, ascending.

        One pass: each record's ten counter columns come from the
        import-time lookup tables, the records are grouped by (customer,
        minute) once, and each source class is then one exact int64
        scatter-add per quantity into ``cell * width + column``, folded into
        the :class:`VolumetricAccumulator` cells — sums, maxes, and
        unique-source sets are exact integer arithmetic, so the resulting
        matrix is bit-identical to the scalar oracle
        :func:`repro.testing.reference.reference_add_flow` called per
        record in arrival order (proven by the differential property
        suite in ``tests/test_columnar.py``).  A rejected batch —
        misaligned ``customer_ids`` or mask, a non-ASCII country code —
        raises before anything is written.
        """
        arr = flows.array
        n = len(arr)
        if n == 0:
            return []
        customer_ids = np.asarray(customer_ids, dtype=np.int64)
        if customer_ids.shape != (n,):
            raise ValueError("customer_ids must align with the flow batch")
        masks: list[tuple[str, np.ndarray]] = []
        for cls, mask in (class_masks or {}).items():
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"class mask {cls!r} must align with the flow batch")
            masks.append((cls, mask))
        # Fields are read column-wise: indexing the 38-byte structured rows
        # (``arr[order]``, ``arr[mask]``) costs ~60x a single field's gather
        # — where whole rows must move, ``FlowBatch.take`` moves them as
        # bytes; ``take`` beats ``[]`` 2-4x on strided fields too.
        proto = arr["protocol"]
        country = _COUNTRY_COLUMN.take(arr["src_country"].view("<u2"))
        if country.max() == _INVALID:
            # Raise the UnicodeDecodeError that decoding this code raises.
            _decode_country(bytes(arr["src_country"][country.argmax()]))
        columns = np.empty((n, _SLOTS), dtype=np.uint8)
        columns[:, 0] = _PROTO_COLUMN.take(proto)
        columns[:, 1] = _SPORT_COLUMN.take(arr["src_port"])
        columns[:, 2] = _DPORT_COLUMN.take(arr["dst_port"])
        columns[:, 3:9] = _FLAG_COLUMNS.take(
            arr["tcp_flags"] * (proto == Protocol.TCP), axis=0
        )
        columns[:, 9] = country

        # Group by (customer, minute).  From here on every per-record array
        # is in cell order, so a class's records are a sub-sequence of it.
        minutes = arr["timestamp"].astype(np.int64)
        order = np.lexsort((minutes, customer_ids))
        sorted_cust = customer_ids[order]
        sorted_min = minutes[order]
        first = np.empty(n, dtype=bool)  # record opens a new cell
        first[0] = True
        first[1:] = (sorted_cust[1:] != sorted_cust[:-1]) | (
            sorted_min[1:] != sorted_min[:-1]
        )
        cell_cust = sorted_cust[first].tolist()
        cell_min = sorted_min[first].tolist()
        cell_of = np.cumsum(first) - 1
        rate = arr["sampling_rate"].astype(np.int64)
        est_bytes = (arr["bytes"].astype(np.int64) * rate)[order]
        est_packets = (arr["packets"].astype(np.int64) * rate)[order]
        slots = cell_of[:, None] * _WIDTH + columns.take(order, axis=0)
        pairs = cell_of << 32 | arr["src_addr"].astype(np.int64)[order]

        roster = list(dict.fromkeys(cell_cust))
        self._customers.update(roster)
        self.max_minute = max(self.max_minute, max(cell_min))
        classes: list[tuple[str, slice | np.ndarray]] = [(SOURCE_CLASS_ALL, slice(None))]
        classes += [(c, np.flatnonzero(m[order])) for c, m in masks if m.any()]
        for cls, rows in classes:
            in_cell = cell_of[rows]
            first = np.empty(len(in_cell), dtype=bool)
            first[0] = True
            first[1:] = in_cell[1:] != in_cell[:-1]
            starts = np.flatnonzero(first)
            cells = in_cell[starts]
            n_bytes, n_packets = est_bytes[rows], est_packets[rows]
            counts = np.diff(starts, append=len(in_cell)).tolist()
            tot_bytes = np.add.reduceat(n_bytes, starts).tolist()
            tot_packets = np.add.reduceat(n_packets, starts).tolist()
            max_bytes = np.maximum.reduceat(n_bytes, starts).tolist()
            max_packets = np.maximum.reduceat(n_packets, starts).tolist()
            # Per-cell contribution rows, int64 (exact): a record adds its
            # bytes at its ten slots and its packets one column to the right.
            vec = np.zeros(len(cell_cust) * _WIDTH, dtype=np.int64)
            at = slots[rows].ravel()
            np.add.at(vec, at, np.repeat(n_bytes, _SLOTS))
            np.add.at(vec[1:], at, np.repeat(n_packets, _SLOTS))
            vectors = vec.reshape(-1, _WIDTH)[cells, :N_VOLUMETRIC]
            # Per-cell unique sources: dedup the (cell, src) keys (equal keys
            # are one key: the sort need not be stable), slice per cell.
            keys = np.sort(pairs[rows])
            first[1:] = keys[1:] != keys[:-1]
            keys = keys[first]
            bounds = np.searchsorted(keys, cells << 32).tolist() + [len(keys)]
            sources = (keys & 0xFFFFFFFF).tolist()
            for k, cell in enumerate(cells.tolist()):
                self._write(cell_cust[cell], cls, cell_min[cell]).add_aggregate(
                    count=counts[k],
                    total_bytes=tot_bytes[k],
                    total_packets=tot_packets[k],
                    max_bytes=max_bytes[k],
                    max_packets=max_packets[k],
                    vector_row=vectors[k],
                    sources=sources[bounds[k] : bounds[k + 1]],
                )
        return roster

    def customers(self) -> list[int]:
        """All customers that received any traffic, sorted."""
        return sorted(self._customers)

    def cell(
        self, customer: int, minute: int, source_class: str = SOURCE_CLASS_ALL
    ) -> VolumetricAccumulator | None:
        series = self._series.get((customer, source_class))
        return None if series is None else series.cells.get(minute)

    def cells(self) -> Iterator[tuple[int, str, int, VolumetricAccumulator]]:
        """Every live cell as ``(customer, class, minute, cell)``, sorted."""
        for key in sorted(self._series):
            cells = self._series[key].cells
            for minute in sorted(cells):
                yield (*key, minute, cells[minute])

    def rows_between(
        self,
        customer: int,
        source_class: str,
        start_minute: int,
        end_minute: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The non-empty minutes in ``[start, end)``, ascending, and their
        finalized ``(n, 63)`` rows: ``feature_block`` without the zeros.

        Both arrays are read-only views into the row store, valid until the
        next write to the matrix.
        """
        series = self._series.get((customer, source_class))
        if series is None:
            return _NO_MINUTES, _NO_ROWS
        return series.flushed().between(start_minute, end_minute)

    def feature_block(
        self,
        customer: int,
        start_minute: int,
        end_minute: int,
        source_class: str = SOURCE_CLASS_ALL,
    ) -> np.ndarray:
        """Dense ``(end-start, 63)`` feature block for one source class.

        Minutes with no traffic yield zero rows — absence of traffic is
        itself signal.
        """
        if end_minute < start_minute:
            raise ValueError("end_minute must be >= start_minute")
        block = np.zeros((end_minute - start_minute, N_VOLUMETRIC))
        minutes, rows = self.rows_between(
            customer, source_class, start_minute, end_minute
        )
        block[minutes - start_minute] = rows
        return block

    def evict_before(self, minute: int) -> int:
        """Drop all cells older than ``minute``; return the eviction count.

        Keeps the streaming detectors' memory bounded: feature windows only
        ever read the trailing model lookback, so anything older is dead
        state.  ``max_minute`` and the customer roster are preserved.
        """
        if minute <= self._oldest:
            return 0
        span: Iterable[int] = range(self._oldest, minute)
        if len(span) > len(self._cells_at):  # a clock gap wider than the index
            span = [m for m in self._cells_at if m < minute]
        self._oldest = minute
        evicted = 0
        thinned: set[_Series] = set()
        for m in span:
            for series in self._cells_at.pop(m, ()):
                del series.cells[m]
                thinned.add(series)
                evicted += 1
        for series in thinned:
            if not series.cells:
                del self._series[series.key]
                continue
            for store in (series.rows, series.snapshot):
                if store is not None:
                    store.trim(minute)
        self._n_cells -= evicted
        return evicted

    def state_dict(self) -> dict:
        """Canonical columnar snapshot — the one matrix codec (checkpoints
        pickle it, :func:`repro.synth.save_trace` writes its arrays).

        Row ``r`` of every column is the ``r``-th cell of :meth:`cells`:
        ``keys[r]`` = (customer, index into the sorted ``classes``, minute),
        ``counters[r]`` = (flow_count, total_bytes, total_packets, max_bytes,
        max_packets), ``vectors[r]`` the raw sums, ``sources_flat`` between
        ``sources_offsets[r]`` and ``[r + 1]`` the cell's sources, ascending.
        The arrays are built fresh: equal states pickle to equal bytes,
        nothing aliases a cell; a counter beyond int64 raises ``OverflowError``.

        Each series keeps its cells encoded between snapshots (its
        ``snapshot`` store, built on the first call), so a call re-encodes
        the cells written since the last one and concatenates per series:
        O(written + series), not O(cells).
        """
        keys = sorted(self._series)
        classes = sorted({str(cls) for _customer, cls in self._series})
        class_index = {cls: i for i, cls in enumerate(classes)}
        self._snapshot_encoded = 0
        # Per series, the live slice of minutes and of each store column —
        # led by an empty one, so a matrix without cells concatenates to the
        # right dtypes and shapes.
        parts = [(_NO_MINUTES, _NO_ROWS, _NO_COUNTERS, _NO_MINUTES, ())]
        for key in keys:
            store, encoded = self._series[key].encoded()
            self._snapshot_encoded += encoded
            at = slice(store.lo, store.hi)
            parts.append((store.minutes[at], *(column[at] for column in store.columns)))
        minutes, vectors, counters, sizes, sources = zip(*parts)
        lengths = [len(span) for span in minutes[1:]]
        n = self._n_cells
        keys_column = np.empty((n, 3), dtype=np.int64)
        # The class index is filled per series, never stored: a newly seen
        # class shifts every index after it.
        keys_column[:, 0] = np.repeat([customer for customer, _ in keys], lengths)
        keys_column[:, 1] = np.repeat([class_index[cls] for _, cls in keys], lengths)
        np.concatenate(minutes, out=keys_column[:, 2])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(sizes), out=offsets[1:])
        return {
            "max_minute": self.max_minute,
            "customers": sorted(self._customers),
            "classes": classes,
            "keys": keys_column,
            "counters": np.concatenate(counters),
            "vectors": np.concatenate(vectors),
            "sources_flat": np.frombuffer(
                b"".join(chain.from_iterable(sources)), dtype=np.int64
            ).copy(),
            "sources_offsets": offsets,
        }

    def load_state_dict(self, state: dict) -> None:
        """Replace the matrix with a :meth:`state_dict` snapshot.  The
        columns are validated before the first write: a malformed snapshot
        raises ``ValueError`` and leaves the matrix as it was."""
        classes = [str(cls) for cls in state["classes"]]
        customers = {int(c) for c in state["customers"]}
        max_minute = int(state["max_minute"])
        n = len(state["keys"])
        keys = _column(state, "keys", np.int64, (n, 3))
        counters = _column(state, "counters", np.int64, (n, 5))
        vectors = _column(state, "vectors", np.float64, (n, N_VOLUMETRIC))
        offsets = _column(state, "sources_offsets", np.int64, (n + 1,))
        flat = _column(state, "sources_flat", np.int64, (int(offsets[-1]),))
        if classes != sorted(set(classes)):
            raise ValueError("matrix snapshot: classes must be sorted and distinct")
        if n and not (0 <= keys[:, 1].min() and keys[:, 1].max() < len(classes)):
            raise ValueError("matrix snapshot: class index out of range")
        a, b = keys[:-1], keys[1:]
        ahead = b[:, 2] > a[:, 2]
        for column in (1, 0):  # lexicographic (customer, class, minute)
            ahead = (b[:, column] > a[:, column]) | ((b[:, column] == a[:, column]) & ahead)
        if not ahead.all():
            raise ValueError("matrix snapshot: keys must be strictly ascending")
        if offsets[0] != 0 or (np.diff(offsets) < 0).any():
            raise ValueError("matrix snapshot: sources_offsets must rise from 0")

        self.__init__()
        self._customers = customers
        self.max_minute = max_minute
        bounds = offsets.tolist()
        sources = flat.tolist()
        for row, ((customer, cls, minute), counts) in enumerate(
            zip(keys.tolist(), counters.tolist())
        ):
            cell = VolumetricAccumulator()
            (cell.flow_count, cell.total_bytes, cell.total_packets,
             cell.max_bytes, cell.max_packets) = counts
            cell.vector = vectors[row].copy()  # never a view of the snapshot
            cell._sources = set(sources[bounds[row] : bounds[row + 1]])
            self.set_cell(customer, minute, classes[cls], cell)

    def total_bytes(
        self,
        customer: int,
        start_minute: int,
        end_minute: int,
        source_class: str = SOURCE_CLASS_ALL,
    ) -> float:
        """Sum of sampling-compensated bytes over a minute range."""
        return float(
            self.bytes_series(customer, start_minute, end_minute, source_class).sum()
        )

    def bytes_series(
        self,
        customer: int,
        start_minute: int,
        end_minute: int,
        source_class: str = SOURCE_CLASS_ALL,
    ) -> np.ndarray:
        """Per-minute byte series (sampling-compensated)."""
        out = np.zeros(end_minute - start_minute)
        series = self._series.get((customer, source_class))
        if series is not None:
            for minute, cell in series.cells.items():
                if start_minute <= minute < end_minute:
                    out[minute - start_minute] = cell.total_bytes
        return out

    def row_store_rows(self) -> int:
        """Finalized rows currently held for reads (telemetry)."""
        return sum(
            series.rows.hi - series.rows.lo
            for series in self._series.values()
            if series.rows is not None
        )

    def snapshot_cells_encoded(self) -> int:
        """Cells the last :meth:`state_dict` re-encoded (telemetry): those
        written since the snapshot before it, or every cell on the first."""
        return self._snapshot_encoded

    def __len__(self) -> int:
        return self._n_cells
