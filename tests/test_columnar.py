"""Differential proof that the columnar ingest path is bit-identical.

The columnar lane (``FlowBatch`` / ``decode_batch`` / ``add_batch`` /
``sample_at_rates``) is the only production path: one ``np.frombuffer``
view per datagram and one sorted group-by per minute instead of a Python
loop per record.  Its contract is *bitwise* equivalence with the scalar
oracles of :mod:`repro.testing.reference` —
same wire bytes, same sampled records, same traffic-matrix cells down to
the pickle bytes, same alerts out of :class:`OnlineXatu` — because the
matrix feeds checkpointed state and any drift would break the serve
engine's crash-equivalence guarantee.

Three layers of differential tests on the PR-1 shrinking property runner:

* **codec level** — ``encode_flows``/``decode_flows_batch`` vs the
  per-record ``struct`` oracle (``reference_encode_flow`` /
  ``reference_decode_flow``) over random record lists, plus the error
  paths (truncated block, bad version, zero-record datagrams);
* **aggregation level** — ``TrafficMatrix.add_batch`` vs a
  ``reference_add_flow``-per-record loop over random batches and class masks,
  compared by ``pickle``-byte-identical ``state_dict``; and the matrix's
  row store (what ``feature_block``/``rows_between`` read) vs
  ``finalize()`` of every cell under random write/evict/restore/read
  interleavings;
* **detector level** — ``OnlineXatu.step(minute, FlowBatch)`` vs the
  per-record oracle ``ReferenceOnlineXatu`` on the twin driver
  (:mod:`repro.testing.twin`; blocklist, previous-attacker and
  spoofed-source classes all active), asserting identical alerts and
  pickle-identical state.

The satellite regressions live here too: the vectorized
``sample_at_rates`` draw-order pin against ``reference_sample``, the
unified ``netflow.*`` obs accounting across both collector entry points,
and feed-health accounting for out-of-order and duplicated datagrams.
"""

import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core import OnlineConfig, OnlineXatu
from repro.netflow import (
    FLOW_DTYPE,
    FLOW_WIRE_SIZE,
    DatagramCodec,
    FlowBatch,
    FlowCollector,
    FlowRecord,
    RouteTable,
    TrafficMatrix,
    decode_flows_batch,
    encode_flows,
)
from repro.netflow.datagram import HEADER_SIZE
from repro.netflow.matrix import (
    POPULAR_COUNTRIES,
    POPULAR_PORTS,
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    VolumetricAccumulator,
)
from repro.netflow.sampler import sample_at_rates
from repro.obs import get_registry, set_enabled
from repro.testing.props import choices, integers, run_property
from repro.testing.reference import (
    reference_add_flow,
    reference_decode_flow,
    reference_encode_flow,
    reference_matrix_state,
    reference_sample,
)
from repro.testing.twin import (
    alert_keys,
    build_detector,
    build_twins,
    checkpoint_bytes,
    drive_twins,
    twin_context,
    twin_stream,
)

COUNTRIES = ["US", "CN", "DE", "BR", "RU", "XX", ""]


def _random_records(rng: np.random.Generator, n: int, minutes: int = 30) -> list[FlowRecord]:
    """Random wire-domain records (full field ranges, padded countries)."""
    return [
        FlowRecord(
            timestamp=int(rng.integers(0, minutes)),
            src_addr=int(rng.integers(1, 2**32)),
            dst_addr=int(rng.integers(1, 2**32)),
            src_port=int(rng.integers(0, 2**16)),
            dst_port=int(rng.integers(0, 2**16)),
            protocol=int(rng.choice([1, 6, 17, 47])),
            packets=int(rng.integers(1, 5_000)),
            bytes_=int(rng.integers(40, 10**7)),
            tcp_flags=int(rng.integers(0, 256)),
            src_country=str(rng.choice(COUNTRIES)) or "US",
            sampling_rate=int(rng.choice([1, 100, 1000])),
        )
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# codec level: one frombuffer view == per-record struct unpacking
# ----------------------------------------------------------------------
def _scalar_records(block: bytes) -> list[FlowRecord]:
    """A wire record block, record by record through the ``struct`` oracle."""
    return [
        reference_decode_flow(block[at : at + FLOW_WIRE_SIZE])
        for at in range(0, len(block), FLOW_WIRE_SIZE)
    ]


def test_flow_dtype_mirrors_wire_layout():
    assert FLOW_DTYPE.itemsize == FLOW_WIRE_SIZE
    record = _random_records(np.random.default_rng(0), 1)[0]
    assert FlowBatch.from_records([record]).to_bytes() == reference_encode_flow(record)


def test_codec_paths_byte_identical():
    def round_trips(seed, n):
        records = _random_records(np.random.default_rng(seed), n)
        batch = FlowBatch.from_records(records)
        # encode: count + array buffer == per-record struct packing
        wire = encode_flows(batch)
        assert wire == struct.pack("<I", n) + b"".join(map(reference_encode_flow, records))
        # decode: the columnar view materializes the same records
        assert _scalar_records(wire[4:]) == records
        decoded = decode_flows_batch(wire)
        assert decoded.to_records() == records
        assert np.array_equal(decoded.array, batch.array)

    run_property(round_trips, integers(0, 10**6), choices([0, 1, 3, 50]), runs=12, seed=31)


def test_datagram_decode_batch_matches_scalar_decode():
    records = _random_records(np.random.default_rng(5), 17)
    blob = DatagramCodec(engine_id=3).encode(FlowBatch.from_records(records))
    header, batch = DatagramCodec.decode_batch(blob)
    assert (header.count, header.engine_id, header.flow_sequence) == (17, 3, 0)
    assert batch.to_records() == _scalar_records(blob[HEADER_SIZE:]) == records


def test_datagram_encode_accepts_batches_and_advances_sequence():
    records = _random_records(np.random.default_rng(6), 9)
    codec = DatagramCodec(engine_id=1)
    block = b"".join(map(reference_encode_flow, records))
    for k in range(3):  # the sequence advances by the record count
        blob = codec.encode(FlowBatch.from_records(records))
        assert blob[HEADER_SIZE:] == block
        assert DatagramCodec.decode_batch(blob)[0].flow_sequence == 9 * k


def test_decode_batch_is_zero_copy():
    records = _random_records(np.random.default_rng(7), 4)
    blob = DatagramCodec(engine_id=1).encode(FlowBatch.from_records(records))
    _header, batch = DatagramCodec.decode_batch(blob)
    # the batch aliases the datagram bytes: no copy was made
    assert batch.array.base is blob
    assert memoryview(batch.array).readonly


class TestColumnarDecoderErrorPaths:
    def test_zero_record_datagram_decodes(self):
        blob = DatagramCodec(engine_id=1).encode(FlowBatch.empty())
        header, batch = DatagramCodec.decode_batch(blob)
        assert header.count == 0 and len(batch) == 0

    def test_truncated_record_block_rejected(self):
        records = _random_records(np.random.default_rng(8), 3)
        blob = DatagramCodec(engine_id=1).encode(FlowBatch.from_records(records))
        with pytest.raises(ValueError, match="length mismatch"):
            DatagramCodec.decode_batch(blob[:-1])

    def test_oversized_record_block_rejected(self):
        records = _random_records(np.random.default_rng(8), 3)
        blob = DatagramCodec(engine_id=1).encode(FlowBatch.from_records(records))
        with pytest.raises(ValueError, match="length mismatch"):
            DatagramCodec.decode_batch(blob + b"\x00")

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="shorter than its header"):
            DatagramCodec.decode_batch(b"\x05\x00")

    def test_bad_version_rejected(self):
        blob = bytearray(DatagramCodec(engine_id=1).encode(FlowBatch.empty()))
        struct.pack_into("<H", blob, 0, 9)
        with pytest.raises(ValueError, match="unsupported datagram version"):
            DatagramCodec.decode_batch(bytes(blob))

    def test_headerless_truncations_rejected(self):
        records = _random_records(np.random.default_rng(9), 2)
        wire = encode_flows(FlowBatch.from_records(records))
        with pytest.raises(ValueError, match="missing count header"):
            decode_flows_batch(wire[:3])
        with pytest.raises(ValueError, match="truncated flow batch"):
            decode_flows_batch(wire[:-5])

    def test_batch_requires_flow_dtype_and_one_dim(self):
        with pytest.raises(TypeError):
            FlowBatch(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            FlowBatch(np.zeros((2, 2), dtype=FLOW_DTYPE))


def test_batch_sequence_protocol():
    records = _random_records(np.random.default_rng(10), 6)
    batch = FlowBatch.from_records(records)
    assert len(batch) == 6
    assert list(batch) == records
    assert batch[2] == records[2]
    assert batch[1:4].to_records() == records[1:4]
    assert FlowBatch.concat([batch[:2], FlowBatch.empty(), batch[2:]]) == batch


def test_row_movement_matches_the_structured_forms():
    """``concat`` / ``take`` move 38-byte rows as bytes; the forms they
    replaced (``np.concatenate`` of structured arrays, ``arr[mask]``,
    ``arr[index_array]``) are the reference, compared by ``tobytes()``."""

    def moves_match(seed, n):
        rng = np.random.default_rng(seed)
        batch = FlowBatch.from_records(_random_records(rng, n))
        read_only = FlowBatch.from_buffer(batch.to_bytes())
        strided = batch[::2]  # ``view(np.uint8)`` raises on this one as it is
        assert not read_only.array.flags.writeable
        assert n < 3 or not strided.array.flags.c_contiguous
        for chunks in (
            [],
            [read_only],
            [batch, FlowBatch.empty(), read_only],
            [strided, batch, FlowBatch.empty(), strided, read_only],
        ):
            expected = np.concatenate([FlowBatch.empty().array] + [c.array for c in chunks])
            assert FlowBatch.concat(chunks).to_bytes() == expected.tobytes()
        if n:  # a single datagram's minute is handed on, not copied
            assert FlowBatch.concat([FlowBatch.empty(), read_only]).array is read_only.array

        mask = rng.random(n) < 0.5
        index = rng.integers(-n, n, size=2 * n) if n else np.zeros(0, dtype=np.int64)
        for source in (batch, read_only, strided):
            m, i = mask[: len(source)], index[np.abs(index) < len(source)]
            for key in (m, ~m | m, m & ~m, i, i.tolist(), i[:0], []):
                expected = source.array[key].tobytes()
                taken = source.take(key)
                assert taken.to_bytes() == expected
                assert source[key].to_bytes() == expected
                assert taken.array.flags.c_contiguous and taken.array.flags.writeable
        with pytest.raises(IndexError):
            batch.take(np.zeros(n + 1, dtype=bool))
        with pytest.raises(IndexError):
            batch.take([n])

    run_property(moves_match, integers(0, 10**6), choices([0, 1, 2, 7, 60]), runs=12, seed=53)


# ----------------------------------------------------------------------
# sampler: one batched binomial draw == the scalar per-flow loop
# ----------------------------------------------------------------------
class TestVectorizedSampler:
    def test_constant_rate_matches_scalar_draws(self):
        def draws_match(seed, n, rate):
            records = _random_records(np.random.default_rng(seed), n)
            scalar = np.random.default_rng(seed)
            expected = [
                kept for kept in (reference_sample(r, rate, scalar) for r in records)
                if kept is not None
            ]
            rng = np.random.default_rng(seed)
            out, _rows = sample_at_rates(FlowBatch.from_records(records), np.full(n, rate), rng)
            assert out.to_records() == expected
            assert rng.integers(2**62) == scalar.integers(2**62)

        run_property(
            draws_match,
            integers(0, 10**6),
            choices([0, 1, 7, 200]),
            choices([1, 10, 100, 1000]),
            runs=12,
            seed=47,
        )

    def test_per_flow_rates_match_a_shared_rng_scalar_loop(self):
        """``sample_at_rates`` (one elementwise draw over the flows whose
        rate is above 1) keeps what a ``reference_sample`` loop sharing one
        RNG keeps, and leaves that RNG at the same next draw."""

        def draws_match(seed, n, pops):
            records = _random_records(np.random.default_rng(seed), n)
            rates = np.random.default_rng(seed + 1).choice(pops, size=n)
            shared = np.random.default_rng(seed)
            expected, kept_rows = [], []
            for i, (record, rate) in enumerate(zip(records, rates.tolist())):
                kept = reference_sample(record, rate, shared)
                if kept is not None:
                    expected.append(kept)
                    kept_rows.append(i)
            rng = np.random.default_rng(seed)
            out, rows = sample_at_rates(FlowBatch.from_records(records), rates, rng)
            assert out.to_records() == expected
            assert rows.tolist() == kept_rows
            assert rng.integers(2**62) == shared.integers(2**62)

        run_property(
            draws_match,
            integers(0, 10**6),
            choices([0, 1, 9, 150]),
            choices([(1,), (10,), (1, 10), (1, 4, 100), (7, 1000)]),
            runs=16,
            seed=48,
        )

    def test_rate_one_is_identity_with_rate_stamped(self):
        records = _random_records(np.random.default_rng(11), 5)
        records += [replace(records[0], sampling_rate=1), replace(records[1], sampling_rate=100)]
        records += [replace(records[2], packets=0, bytes_=0)]  # kept: nothing is drawn
        rng = np.random.default_rng(0)
        # nothing to draw: each record re-stamped, the RNG untouched
        stamped = [replace(r, sampling_rate=1) for r in records]
        assert [reference_sample(r, 1, rng) for r in records] == stamped
        out, rows = sample_at_rates(FlowBatch.from_records(records), np.ones(len(records)), rng)
        assert out.to_records() == stamped
        assert rows.tolist() == list(range(len(records)))
        assert rng.integers(2**62) == np.random.default_rng(0).integers(2**62)

    def test_seeded_output_is_pinned(self):
        """Regression pin: the vectorized draw order must never drift.

        These exact counters came from the scalar per-flow loop; a change
        here means seeded traces are no longer reproducible across
        releases.
        """
        rng = np.random.default_rng(1234)
        records = [
            FlowRecord(
                timestamp=0,
                src_addr=i + 1,
                dst_addr=99,
                src_port=1000 + i,
                dst_port=443,
                protocol=6,
                packets=int(rng.integers(1, 4_000)),
                bytes_=int(rng.integers(40, 2_000_000)),
            )
            for i in range(8)
        ]
        sampled, _rows = sample_at_rates(
            FlowBatch.from_records(records), np.full(8, 100), np.random.default_rng(42)
        )
        assert [(s.packets, s.bytes_) for s in sampled.to_records()] == [
            (46, 22_940), (28, 5_389), (4, 10_767), (9, 11_216),
            (7, 8_050), (25, 2_754), (30, 4_558), (27, 5_471),
        ]


# ----------------------------------------------------------------------
# aggregation level: add_batch == reference_add_flow per record, bit for bit
# ----------------------------------------------------------------------
def _scalar_matrix(records, customers, blocklisted) -> TrafficMatrix:
    matrix = TrafficMatrix()
    for customer_id, record, hot in zip(customers, records, blocklisted):
        reference_add_flow(matrix, customer_id, record, [SOURCE_CLASS_BLOCKLIST] if hot else [])
    return matrix


AUX_CLASSES = (SOURCE_CLASS_BLOCKLIST, SOURCE_CLASS_PREV_ATTACKER, SOURCE_CLASS_SPOOFED)
EDGE_PORTS = sorted(
    {q for p in POPULAR_PORTS for q in (p - 1, p, p + 1) if q >= 0} | {1024, 65535}
)
# Raw wire codes: listed, unlisted, lower-case, and every padding the decode
# normalizes (trailing blanks and NULs go, an empty code means "US") or does
# not (a leading NUL stays).
EDGE_COUNTRIES = [c.encode() for c in POPULAR_COUNTRIES] + [
    b"RU", b"XX", b"us", b"cN", b"U ", b" U", b"  ", b"\0\0", b"U\0", b"\0U",
    b"S\0", b"C ", b"??",
]


def _edge_batch(rng: np.random.Generator, n: int, minutes: int) -> FlowBatch:
    """Wire-domain records aimed at what the fold's lookup tables encode: a
    deterministic block with every ``tcp_flags`` byte on a TCP and on a UDP
    record, every protocol number, ports on / next to / off the popular
    list, every edge country code — then ``n`` random draws from the same
    pools.  Few distinct sources (high addresses included), so the
    per-cell unique-source sets really deduplicate."""
    block = len(EDGE_COUNTRIES) * 2
    arr = np.zeros(512 + 256 + len(EDGE_PORTS) + block + n, dtype=FLOW_DTYPE)
    total = len(arr)
    arr["timestamp"] = rng.integers(0, minutes, size=total)
    arr["src_addr"] = rng.choice(
        [1, 2, 2**31 - 1, 2**31, 2**32 - 1, *rng.integers(1, 2**32, size=12)], size=total
    )
    arr["dst_addr"] = rng.integers(1, 2**32, size=total)
    arr["src_port"] = rng.choice(EDGE_PORTS, size=total)
    arr["dst_port"] = rng.choice(EDGE_PORTS, size=total)
    arr["protocol"] = rng.choice([1, 6, 6, 17, 17, 0, 2, 47, 255], size=total)
    arr["tcp_flags"] = rng.integers(0, 256, size=total)
    arr["packets"] = rng.integers(1, 5_000, size=total)
    arr["bytes"] = rng.integers(40, 10**7, size=total)
    arr["sampling_rate"] = rng.choice([1, 100, 1000], size=total)
    arr["src_country"] = rng.choice(EDGE_COUNTRIES, size=total)
    arr["tcp_flags"][:512] = np.repeat(np.arange(256), 2)
    arr["protocol"][:512] = np.tile([6, 17], 256)
    arr["protocol"][512:768] = np.arange(256)
    arr["src_port"][768 : 768 + len(EDGE_PORTS)] = EDGE_PORTS
    arr["dst_port"][768 : 768 + len(EDGE_PORTS)] = EDGE_PORTS[::-1]
    arr["src_country"][-block - n : total - n] = EDGE_COUNTRIES * 2
    arr["protocol"][-block - n : total - n] = np.repeat([6, 17], len(EDGE_COUNTRIES))
    return FlowBatch(arr)


def test_add_batch_bit_identical_to_add_flow(monkeypatch):
    """The fold against the per-record oracle (``to_records`` +
    ``reference_add_flow``),
    on everything its tables and group-by encode: all three class masks at
    once and overlapping (one of them sometimes empty), several minutes per
    batch, chunks that each reach behind ``max_minute``, and keys whose row
    store is live when the next chunk lands (dirty marking).  The kind of
    the (cell, source) sort must not matter: equal keys are deduplicated."""
    sort = np.sort

    def matrices_match(seed, n, n_customers, chunks, pair_sort):
        monkeypatch.setattr(np, "sort", lambda a, **kw: sort(a, kind=pair_sort, **kw))
        rng = np.random.default_rng(seed)
        minutes = 6
        batch = _edge_batch(rng, n, minutes)
        total = len(batch)
        customers = rng.integers(0, n_customers, size=total).astype(np.int64) * 250
        masks = {cls: rng.random(total) < 0.3 for cls in AUX_CLASSES}
        masks[AUX_CLASSES[seed % 3]] &= rng.random() < 0.7  # sometimes empty

        scalar = TrafficMatrix()
        for i, (customer_id, record) in enumerate(zip(customers.tolist(), batch.to_records())):
            reference_add_flow(
                scalar, customer_id, record, [cls for cls in AUX_CLASSES if masks[cls][i]]
            )

        columnar = TrafficMatrix()
        for bounds in np.array_split(np.arange(total), chunks):
            sub = slice(int(bounds[0]), int(bounds[-1]) + 1)
            roster = columnar.add_batch(
                customers[sub], batch[sub], {cls: mask[sub] for cls, mask in masks.items()}
            )
            assert roster == sorted(set(customers[sub].tolist()))
            for customer_id in roster[::2]:  # open row stores the next chunk dirties
                columnar.feature_block(customer_id, 0, minutes, AUX_CLASSES[seed % 3])
                columnar.feature_block(customer_id, 0, minutes)
        assert pickle.dumps(columnar.state_dict()) == pickle.dumps(scalar.state_dict())
        for customer_id in scalar.customers():
            for cls in ("all", *AUX_CLASSES):
                got = columnar.feature_block(customer_id, 0, minutes, cls)
                assert got.tobytes() == scalar.feature_block(customer_id, 0, minutes, cls).tobytes()

    run_property(
        matrices_match,
        integers(0, 10**6),
        choices([0, 40, 400]),
        choices([1, 4]),
        choices([1, 3]),
        choices(["quicksort", "stable"]),
        runs=10,
        seed=59,
    )


def test_column_tables_agree_with_the_scalar_lane():
    """Exhaustive: each of the 65,536 two-byte country codes and each of the
    256 ``tcp_flags`` bytes (TCP and not) selects the counters that
    ``_decode_country`` + ``reference_add_flow`` select."""
    from repro.netflow import matrix as mx
    from repro.netflow.records import _decode_country

    def counters(**fields) -> set[int]:
        probe = dict(
            timestamp=0, src_addr=1, dst_addr=2, src_port=7, dst_port=7,
            protocol=47, packets=1, bytes_=1, src_country="XX",
        )
        matrix = TrafficMatrix()
        reference_add_flow(matrix, 0, FlowRecord(**{**probe, **fields}))
        return set(np.flatnonzero(matrix.cell(0, 0).vector).tolist())

    def columns(entries) -> set[int]:
        return {c + k for c in np.atleast_1d(entries).tolist() if c != mx._TRASH for k in (0, 1)}

    assert not counters()  # the probe record alone selects nothing
    tcp_only = counters(protocol=6)
    for flags in range(256):
        assert columns(mx._FLAG_COLUMNS[flags]) == counters(protocol=6, tcp_flags=flags) - tcp_only
        assert not counters(tcp_flags=flags)  # non-TCP: the fold zeroes the byte
    by_name: dict[str, set[int]] = {}
    raws = np.arange(65536, dtype="<u2").view("S2").tolist()
    assert raws[0x5355] == b"US" and raws[0x0055] == b"U"  # as numpy hands codes out
    for code, raw in enumerate(raws):
        try:
            name = _decode_country(raw)
        except UnicodeDecodeError:
            assert mx._COUNTRY_COLUMN[code] == mx._INVALID
            continue
        if name not in by_name:
            by_name[name] = counters(src_country=name)
        assert columns(mx._COUNTRY_COLUMN[code]) == by_name[name], raw
    assert sum(bool(v) for v in by_name.values()) == len(POPULAR_COUNTRIES)
    for port in range(65536):
        hit = port in POPULAR_PORTS
        assert (mx._SPORT_COLUMN[port] != mx._TRASH) == hit == (mx._DPORT_COLUMN[port] != mx._TRASH)
    for table, field in ((mx._SPORT_COLUMN, "src_port"), (mx._DPORT_COLUMN, "dst_port")):
        for port in EDGE_PORTS:
            assert columns(table[port]) == counters(**{field: port})
    for proto in range(256):
        assert columns(mx._PROTO_COLUMN[proto]) == counters(protocol=proto)


def _matrix_fingerprint(matrix: TrafficMatrix) -> dict:
    """Everything a matrix holds, derived state included — the one place a
    test reads ``TrafficMatrix``'s private layout."""
    return {
        "state": pickle.dumps(matrix.state_dict()),
        "rows": matrix.row_store_rows(),
        "dirty": {
            key: sorted(series.rows.dirty)
            for key, series in matrix._series.items()
            if series.rows is not None
        },
        "series": sorted(matrix._series),
        "cells_at": {
            minute: sorted(series.key for series in held)
            for minute, held in matrix._cells_at.items()
        },
        "oldest": matrix._oldest,
        "count": len(matrix),
    }


def test_add_batch_empty_and_misaligned_inputs():
    """An empty batch is a no-op.  Misaligned ``customer_ids``, a misaligned class mask and a non-ASCII
    country byte all raise before the first write: cells, roster,
    ``max_minute``, row stores and their dirty sets stay as they were."""
    rng = np.random.default_rng(13)
    matrix = TrafficMatrix()
    matrix.add_batch(np.empty(0, dtype=np.int64), FlowBatch.empty())
    assert matrix.customers() == []
    first = _edge_batch(rng, 50, minutes=4)
    matrix.add_batch(rng.integers(0, 3, size=len(first)), first)
    matrix.feature_block(0, 0, 4)  # a clean row store
    matrix.add_batch(np.ones(3, dtype=np.int64), first[:3])  # ...and a dirty one
    before = _matrix_fingerprint(matrix)

    batch = FlowBatch(_edge_batch(rng, 20, minutes=9).array.copy())  # minutes past max_minute
    n = len(batch)
    customers = rng.integers(0, 7, size=n).astype(np.int64)  # customers not yet in the roster
    good = {SOURCE_CLASS_BLOCKLIST: rng.random(n) < 0.5}
    bad_country = FlowBatch(batch.array.copy())
    bad_country.array["src_country"][n // 2] = b"\xc3\xa9"
    for exc, match, args in (
        (ValueError, "customer_ids", (customers[:-1], batch, good)),
        (ValueError, "customer_ids", (customers[:, None], batch, good)),
        (ValueError, "class mask", (customers, batch, {**good, SOURCE_CLASS_SPOOFED: np.zeros(n - 1, bool)})),
        (UnicodeDecodeError, "ascii", (customers, bad_country, good)),
    ):
        with pytest.raises(exc, match=match):
            matrix.add_batch(*args)
        assert _matrix_fingerprint(matrix) == before
    matrix.add_batch(customers, batch, good)  # the same batch, uncorrupted, folds
    assert _matrix_fingerprint(matrix) != before


def test_feature_blocks_identical_across_lanes():
    rng = np.random.default_rng(17)
    records = _random_records(rng, 300, minutes=10)
    customers = rng.integers(0, 4, size=300).astype(np.int64)
    scalar = _scalar_matrix(records, customers.tolist(), [False] * 300)
    columnar = TrafficMatrix()
    columnar.add_batch(customers, FlowBatch.from_records(records))
    for customer in scalar.customers():
        a = scalar.feature_block(customer, 0, 10)
        b = columnar.feature_block(customer, 0, 10)
        assert a.tobytes() == b.tobytes()


class _FullScanMatrix(TrafficMatrix):
    """``evict_before`` as a row mask over the public snapshot: no index, no
    watermark, nothing of the production bookkeeping — the never-read twin.
    Through pickle, so it also restores where the other matrix does not."""

    def evict_before(self, minute):
        state = pickle.loads(pickle.dumps(self.state_dict(), 4))
        keep = state["keys"][:, 2] >= minute
        sizes = np.diff(state["sources_offsets"])
        for name in ("keys", "counters", "vectors"):
            state[name] = state[name][keep]
        state["sources_flat"] = state["sources_flat"][np.repeat(keep, sizes)]
        state["sources_offsets"] = np.concatenate(([0], np.cumsum(sizes[keep])))
        self.load_state_dict(state)  # ``classes`` may now list a class no row uses
        return int(len(keep) - keep.sum())


def _cell_keys(matrix: TrafficMatrix) -> list[tuple[int, str, int]]:
    return [(customer, cls, minute) for customer, cls, minute, _cell in matrix.cells()]


def test_row_store_is_a_derived_view_of_the_cells():
    """``feature_block``/``rows_between`` read a store of finalized rows that
    is kept by "dirty on fold, flush on read".  Two matrices take the same
    random writes — late and future-stamped minutes, evictions, restores,
    clock gaps — and only one is ever read: after every op its reads equal a
    fresh build from its own snapshot and ``finalize()`` of each cell, and
    the two snapshots stay the same bytes.  The unread twin evicts by full
    scan, so the same run pins the minute-indexed ``evict_before`` (late
    records reopen cells behind its watermark): counts, surviving keys and
    snapshots agree, ``len`` counts the cells, and the index, the watermark
    and the series hold what the cells say (``docs/TESTING.md`` lists the
    mutations this kills).  Restores go through the pickled columnar
    snapshot, and must have met an empty matrix, one that lost a whole
    series to an eviction, and one holding a late cell behind an eviction."""
    classes = ("all", SOURCE_CLASS_BLOCKLIST)
    seen: set = set()

    def store_tracks_cells(seed, n_ops):
        rng = np.random.default_rng(seed)
        reader, blind = TrafficMatrix(), _FullScanMatrix()
        now = evicted_to = 0
        dropped: set = set()  # series that lost their last cell to an eviction
        for _ in range(n_ops):
            op = str(rng.choice(["add_flow", "add_batch", "evict", "restore", "reinstall", "tick"]))
            if op in ("add_flow", "add_batch"):
                n = int(rng.integers(1, 12))
                records = [
                    replace(r, timestamp=max(0, now + int(rng.choice([-4, -1, 0, 0, 0, 1, 3]))))
                    for r in _random_records(rng, n, minutes=1)
                ]
                customers = rng.integers(0, 3, size=n).astype(np.int64)
                mask = rng.random(n) < 0.4
                for matrix in (reader, blind):
                    if op == "add_batch":
                        matrix.add_batch(
                            customers,
                            FlowBatch.from_records(records),
                            {SOURCE_CLASS_BLOCKLIST: mask},
                        )
                        continue
                    for customer, record, hot in zip(customers.tolist(), records, mask.tolist()):
                        reference_add_flow(
                            matrix, customer, record, [SOURCE_CLASS_BLOCKLIST] if hot else []
                        )
            elif op == "evict":
                cutoff = now - int(rng.integers(0, 8))
                series = {key[:2] for key in _cell_keys(reader)}
                assert reader.evict_before(cutoff) == blind.evict_before(cutoff)
                evicted_to = max(evicted_to, cutoff)
                dropped |= series - {key[:2] for key in _cell_keys(reader)}
                assert reader.evict_before(cutoff) == 0
                assert cutoff <= _matrix_fingerprint(reader)["oldest"]  # the next scan starts here
            elif op == "restore":
                keys = _cell_keys(reader)
                if not keys:
                    seen.add("restored empty")
                if any(minute < evicted_to for _customer, _cls, minute in keys):
                    seen.add("restored a late cell behind an eviction")
                if dropped:
                    seen.add("restored after a series was evicted")
                for matrix in (reader, blind):
                    matrix.load_state_dict(pickle.loads(pickle.dumps(matrix.state_dict(), 4)))
            elif op == "reinstall":
                if len(reader):  # set_cell over a live key: indexed once, not twice
                    customer, cls, minute = _cell_keys(reader)[int(rng.integers(len(reader)))]
                    for matrix in (reader, blind):
                        cell = VolumetricAccumulator()
                        cell.merge(matrix.cell(customer, minute, cls))
                        cell.total_bytes += 1  # ...and it is the new cell that is read
                        matrix.set_cell(customer, minute, cls, cell)
                        assert matrix.cell(customer, minute, cls) is cell
            else:
                now += int(rng.choice([1, 2, 3, 1000]))  # 1000: a clock gap
            keys = _cell_keys(reader)
            assert keys == _cell_keys(blind)
            assert len(reader) == len(blind) == len(keys)
            held = _matrix_fingerprint(reader)
            assert held["series"] == sorted({key[:2] for key in keys})
            assert held["oldest"] <= min((key[2] for key in keys), default=held["oldest"])
            assert sorted(
                (minute, *key) for minute, at in held["cells_at"].items() for key in at
            ) == sorted((minute, customer, cls) for customer, cls, minute in keys)

            # A restored matrix pickles like one that never round-tripped.
            snapshot = pickle.dumps(reader.state_dict(), 4)
            assert snapshot == pickle.dumps(reference_matrix_state(reader), 4)
            fresh = TrafficMatrix()
            fresh.load_state_dict(pickle.loads(snapshot))
            assert pickle.dumps(fresh.state_dict(), 4) == snapshot
            start = max(0, now - int(rng.integers(0, 12)))
            end = start + int(rng.integers(0, 16))
            for customer in range(3):
                for cls in classes:
                    if rng.random() < 0.4:
                        continue  # leave this key's dirt for a later op
                    got = reader.feature_block(customer, start, end, cls)
                    want = fresh.feature_block(customer, start, end, cls)
                    assert got.tobytes() == want.tobytes(), (op, customer, cls)
                    minutes, rows = reader.rows_between(customer, cls, start, end)
                    assert minutes.tolist() == [
                        m for m in range(start, end) if reader.cell(customer, m, cls)
                    ]
                    for minute, row in zip(minutes.tolist(), rows):
                        cell = reader.cell(customer, minute, cls)
                        assert row.tobytes() == cell.finalize().tobytes()
                    assert not _matrix_fingerprint(reader)["dirty"].get((customer, cls))
            assert snapshot == pickle.dumps(blind.state_dict(), 4)
        assert blind.row_store_rows() == 0

    run_property(store_tracks_cells, integers(0, 10**6), choices([10, 60]), runs=12, seed=83)
    assert seen == {
        "restored empty",
        "restored a late cell behind an eviction",
        "restored after a series was evicted",
    }


def test_snapshot_store_is_a_derived_view_of_the_cells():
    """``state_dict`` keeps every series' cells encoded between snapshots,
    by the row store's scheme ("dirty on write, flush on snapshot").  One
    matrix takes random writes — late and future-stamped records, a class
    first seen after a snapshot, ``set_cell`` over a live key, evictions
    that empty a series, restores (which drop the store), row-store reads
    in between — and at random points its snapshot must pickle to the bytes
    of ``reference_matrix_state``, the per-cell rebuild, and must have
    re-encoded exactly the live cells written since the snapshot before
    (every cell on the first one after a restore): O(written)."""
    seen: set = set()

    def snapshot_tracks_cells(seed, n_ops):
        rng = np.random.default_rng(seed)
        matrix = TrafficMatrix()
        now = 0
        written: set | None = None  # cells written since the last snapshot; None: no store
        snapshot_classes: set = set()
        for step in range(n_ops):
            op = str(rng.choice(["add_flow", "add_batch", "evict", "restore", "reinstall", "read", "tick"]))
            if op in ("add_flow", "add_batch"):
                n = int(rng.integers(1, 12))
                records = [
                    replace(r, timestamp=max(0, now + int(rng.choice([-4, -1, 0, 0, 1, 3]))))
                    for r in _random_records(rng, n, minutes=1)
                ]
                customers = rng.integers(0, 3, size=n).astype(np.int64)
                masks = {SOURCE_CLASS_BLOCKLIST: rng.random(n) < 0.4}
                if step > n_ops // 3:
                    masks[SOURCE_CLASS_SPOOFED] = rng.random(n) < 0.3
                keys = set()
                for i, (customer, record) in enumerate(zip(customers.tolist(), records)):
                    classes = [cls for cls, mask in masks.items() if mask[i]]
                    keys |= {(customer, cls, record.timestamp) for cls in ("all", *classes)}
                    if record.timestamp < matrix.max_minute:
                        seen.add("late")
                    if record.timestamp > now:
                        seen.add("future-stamped")
                    if op == "add_flow":
                        reference_add_flow(matrix, customer, record, classes)
                if op == "add_batch":
                    matrix.add_batch(customers, FlowBatch.from_records(records), masks)
                if written is not None:
                    if {cls for _c, cls, _m in keys} - snapshot_classes:
                        seen.add("class first seen after a snapshot")
                    written |= keys
            elif op == "evict":
                series = {key[:2] for key in _cell_keys(matrix)}
                matrix.evict_before(now - int(rng.integers(0, 8)))
                if series - {key[:2] for key in _cell_keys(matrix)}:
                    seen.add("eviction emptied a series")
            elif op == "restore":
                matrix.load_state_dict(pickle.loads(pickle.dumps(reference_matrix_state(matrix), 4)))
                written = None
                seen.add("restored")
            elif op == "reinstall" and len(matrix):
                customer, cls, minute = _cell_keys(matrix)[int(rng.integers(len(matrix)))]
                cell = VolumetricAccumulator()
                cell.merge(matrix.cell(customer, minute, cls))
                cell.total_bytes += 1
                matrix.set_cell(customer, minute, cls, cell)
                if written is not None:
                    written.add((customer, cls, minute))
                    seen.add("set_cell over a live key")
            elif op == "read":
                start = max(0, now - int(rng.integers(0, 12)))
                for customer in range(3):
                    matrix.feature_block(customer, start, start + 12, SOURCE_CLASS_BLOCKLIST)
                    matrix.feature_block(customer, start, start + 12)
            elif op == "tick":
                now += int(rng.choice([1, 2, 3, 1000]))  # 1000: a clock gap
            if rng.random() < 0.3 or step == n_ops - 1:
                state = pickle.dumps(matrix.state_dict(), 4)
                live = set(_cell_keys(matrix))
                want = len(live) if written is None else len(written & live)
                assert matrix.snapshot_cells_encoded() == want, op
                assert state == pickle.dumps(reference_matrix_state(matrix), 4), op
                written = set()
                snapshot_classes = {cls for _c, cls, _m in live}

    run_property(snapshot_tracks_cells, integers(0, 10**6), choices([10, 60]), runs=12, seed=89)
    assert seen == {
        "late",
        "future-stamped",
        "class first seen after a snapshot",
        "eviction emptied a series",
        "restored",
        "set_cell over a live key",
    }


def _written_out_of_order(seed: int) -> TrafficMatrix:
    """A matrix whose insertion order is nobody's sort order — customers and
    minutes descending, the spoofed class before the blocklist one — with a
    read (row stores) and a fold after it (dirt) on top."""
    rng = np.random.default_rng(seed)
    matrix = TrafficMatrix()
    records = sorted(_random_records(rng, 90, minutes=6), key=lambda r: -r.timestamp)
    for i, record in enumerate(records):
        classes = [SOURCE_CLASS_SPOOFED] if i < 30 else [SOURCE_CLASS_BLOCKLIST] * (i % 2)
        reference_add_flow(matrix, 3 - i % 4, record, classes)
    matrix.feature_block(0, 0, 6)
    reference_add_flow(matrix, 0, records[0])
    return matrix


_COLUMNS = ("keys", "counters", "vectors", "sources_flat", "sources_offsets")


def test_snapshot_columns_follow_the_cells():
    """The columnar snapshot against ``cells()``: sorted class names, rows in
    (customer, class name, minute) order whatever the insertion order was,
    each cell's sources ascending between its two offsets — and the shapes
    of an empty matrix."""
    matrix = _written_out_of_order(41)
    state = matrix.state_dict()
    n = len(matrix)
    assert list(state) == ["max_minute", "customers", "classes", *_COLUMNS]
    assert state["classes"] == ["all", SOURCE_CLASS_BLOCKLIST, SOURCE_CLASS_SPOOFED]
    assert state["customers"] == [0, 1, 2, 3] and state["max_minute"] == 5
    assert {name: (state[name].dtype, state[name].shape) for name in _COLUMNS} == {
        "keys": (np.int64, (n, 3)),
        "counters": (np.int64, (n, 5)),
        "vectors": (np.float64, (n, 63)),
        "sources_flat": (np.int64, (state["sources_offsets"][-1],)),
        "sources_offsets": (np.int64, (n + 1,)),
    }
    named = [(c, state["classes"][k], m) for c, k, m in state["keys"].tolist()]
    assert named == sorted(named) == _cell_keys(matrix) and len(set(named)) == n > 40
    assert state["sources_offsets"][0] == 0
    for row, (_customer, _cls, _minute, cell) in enumerate(matrix.cells()):
        lo, hi = state["sources_offsets"][row : row + 2]
        assert state["sources_flat"][lo:hi].tolist() == sorted(cell._sources)
        assert state["counters"][row].tolist() == [
            cell.flow_count, cell.total_bytes, cell.total_packets,
            cell.max_bytes, cell.max_packets,
        ]
        assert state["vectors"][row].tobytes() == cell.vector.tobytes()

    empty = TrafficMatrix().state_dict()
    assert [empty[name].shape for name in _COLUMNS] == [(0, 3), (0, 5), (0, 63), (0,), (1,)]
    assert empty["sources_offsets"].tolist() == [0] and empty["classes"] == []
    restored = TrafficMatrix()
    restored.load_state_dict(pickle.loads(pickle.dumps(empty, 4)))
    assert pickle.dumps(restored.state_dict(), 4) == pickle.dumps(empty, 4)


def test_snapshot_and_matrix_alias_nothing():
    """Writing into a returned snapshot does not reach the matrix, folding
    into a restored matrix does not reach the snapshot it came from, and no
    two cells' vectors share memory (``vectors[row]`` is copied on load)."""
    matrix = _written_out_of_order(43)
    snapshot = matrix.state_dict()
    frozen = pickle.dumps(snapshot, 4)
    for name in _COLUMNS:
        snapshot[name][...] = 7
    snapshot["classes"].clear()
    snapshot["customers"].clear()
    assert pickle.dumps(matrix.state_dict(), 4) == frozen

    state = pickle.loads(frozen)
    restored = TrafficMatrix()
    restored.load_state_dict(state)
    vectors = [cell.vector for _customer, _cls, _minute, cell in restored.cells()]
    assert all(v.base is None and v.flags.owndata for v in vectors)
    assert not any(np.shares_memory(v, state["vectors"]) for v in vectors)
    rng = np.random.default_rng(5)
    batch = _edge_batch(rng, 60, minutes=6)
    restored.add_batch(
        rng.integers(0, 4, size=len(batch)),
        batch,
        {SOURCE_CLASS_SPOOFED: rng.random(len(batch)) < 0.5},
    )
    restored.evict_before(2)
    assert pickle.dumps(state, 4) == frozen
    held = pickle.dumps(restored.state_dict(), 4)
    for name in _COLUMNS:
        state[name][...] = 7
    assert pickle.dumps(restored.state_dict(), 4) == held != frozen


def test_malformed_snapshot_is_rejected_before_the_first_write():
    """``load_state_dict`` checks the columns before it resets anything:
    cells, roster, clock, row stores and their dirt stay as they were."""
    matrix = _written_out_of_order(47)
    before = _matrix_fingerprint(matrix)
    assert before["rows"] and before["dirty"][(0, "all")]
    good = TrafficMatrix()
    good.load_state_dict(pickle.loads(before["state"]))
    record = _random_records(np.random.default_rng(1), 1)[0]
    reference_add_flow(good, 9, record)  # not ``matrix``'s state

    def edit(name, change):
        def apply(state):
            state[name] = change(state[name].copy())
        return apply

    def poke(index, value):
        def change(column):
            column[index] = value
            return column
        return change

    n = len(good)
    breaks = {
        "keys must be strictly ascending": [
            edit("keys", lambda keys: keys[::-1]),
            edit("keys", poke(1, good.state_dict()["keys"][0])),  # a cell twice
            edit("keys", poke((n // 2, 2), -1)),  # one minute out of order
        ],
        "class index out of range": [
            edit("keys", poke((n - 1, 1), 3)),
            edit("keys", poke((0, 1), -1)),
        ],
        "classes must be sorted": [lambda state: state["classes"].reverse()],
        "sources_offsets must rise": [
            edit("sources_offsets", poke(0, 1)),
            edit("sources_offsets", poke(n // 2, 10**6)),
        ],
        "must be": [
            edit("counters", lambda counters: counters[:-1]),
            edit("vectors", lambda vectors: vectors.astype(np.float32)),
            edit("vectors", lambda vectors: vectors[:, :62]),
            edit("sources_offsets", lambda offsets: offsets[:-1]),
            edit("sources_flat", lambda flat: flat.astype(np.uint32)),
            edit("sources_offsets", poke(-1, 10**6)),  # past the end of sources_flat
            edit("sources_flat", lambda flat: flat[:-1]),
            edit("keys", lambda keys: keys.ravel()),
        ],
    }
    for message, edits in breaks.items():
        for apply in edits:
            state = good.state_dict()
            apply(state)
            with pytest.raises(ValueError, match=message):
                matrix.load_state_dict(state)
            assert _matrix_fingerprint(matrix) == before
    state = good.state_dict()
    del state["counters"]
    with pytest.raises(KeyError):
        matrix.load_state_dict(state)
    assert _matrix_fingerprint(matrix) == before
    matrix.load_state_dict(good.state_dict())  # the same snapshot, unbroken, loads
    assert _matrix_fingerprint(matrix)["state"] == pickle.dumps(good.state_dict())


def test_counter_beyond_int64_fails_the_snapshot():
    """Cells count in Python ints; the columns are int64.  The largest int64
    round-trips, one more raises at snapshot time instead of wrapping — and
    again at the next snapshot, while feature reads never raise — and the
    refused cell, a late one inserted in front of its series, leaves the
    snapshot store whole: once it is replaced, the snapshot is the per-cell
    rebuild's.  Counters come in through ``set_cell`` as a bumped copy of a
    live cell: cells handed out are for reading only, and the snapshot
    store, built here by the first ``state_dict``, would not see one
    changed in place."""
    matrix = _written_out_of_order(53)
    matrix.evict_before(1)
    matrix.state_dict()
    customer, cls, minute, held = next(matrix.cells())

    def install(at, total_bytes):
        cell = VolumetricAccumulator()
        cell.merge(held)
        cell.total_bytes = total_bytes
        matrix.set_cell(customer, at, cls, cell)

    install(minute, 2**63 - 1)
    restored = TrafficMatrix()
    restored.load_state_dict(matrix.state_dict())
    assert restored.cell(customer, minute, cls).total_bytes == 2**63 - 1
    install(minute - 1, 2**63)
    matrix.feature_block(customer, 0, 6, cls)
    for _ in range(2):
        with pytest.raises(OverflowError):
            matrix.state_dict()
    install(minute - 1, 2**63 - 1)
    assert pickle.dumps(matrix.state_dict(), 4) == pickle.dumps(
        reference_matrix_state(matrix), 4
    )


# ----------------------------------------------------------------------
# collector: unified accounting across both entry points
# ----------------------------------------------------------------------
class TestCollectorAccounting:
    def setup_method(self):
        self._previous = set_enabled(True)
        get_registry().reset()

    def teardown_method(self):
        set_enabled(self._previous)
        get_registry().reset()

    @staticmethod
    def _counters():
        registry = get_registry()
        return (
            registry.counter("netflow.datagrams").value(),
            registry.counter("netflow.records").value(),
        )

    def test_headerless_ingest_feeds_the_same_counters(self):
        batch = FlowBatch.from_records(_random_records(np.random.default_rng(19), 5))
        collector = FlowCollector()
        collector.ingest_batch(encode_flows(batch))
        assert self._counters() == (1, 5)
        collector.ingest_datagram(DatagramCodec(engine_id=1).encode(batch))
        assert self._counters() == (2, 10)
        assert collector.datagrams_received == 2
        assert collector.records_received == 10

    def test_drain_batch_matches_ingest_order(self):
        """Headerless and headered chunks drain as one batch, in arrival
        order, and the two ingest calls return what they retained."""
        records = _random_records(np.random.default_rng(23), 12)
        collector = FlowCollector()
        head = collector.ingest_batch(encode_flows(FlowBatch.from_records(records[:7])))
        tail = collector.ingest_datagram_batch(
            DatagramCodec(engine_id=1).encode(FlowBatch.from_records(records[7:]))
        )
        assert head.to_records() == records[:7]
        assert tail.to_records() == records[7:]
        assert len(collector) == 12
        assert collector.drain_batch().to_records() == records
        assert len(collector) == 0 and collector.drain_batch() == FlowBatch.empty()

    def test_drain_batch_on_empty_collector(self):
        collector = FlowCollector()
        batch = collector.drain_batch()
        assert batch == FlowBatch.empty() and len(batch) == 0
        # an empty drain is not an ingest event and changes no accounting
        assert collector.datagrams_received == 0
        assert collector.records_received == 0
        # ...and does not wedge the collector: later ingests still flow
        records = _random_records(np.random.default_rng(31), 3)
        collector.ingest_batch(encode_flows(FlowBatch.from_records(records)))
        assert collector.drain_batch().to_records() == records

    def test_drain_batch_partial_drains_never_redeliver(self):
        records = _random_records(np.random.default_rng(41), 10)
        collector = FlowCollector()
        collector.ingest_batch(encode_flows(FlowBatch.from_records(records[:6])))
        assert collector.drain_batch().to_records() == records[:6]
        # flows ingested after a drain come out alone — no re-delivery of
        # the already-drained chunk, and counters stay cumulative
        collector.ingest_batch(encode_flows(FlowBatch.from_records(records[6:])))
        assert collector.drain_batch().to_records() == records[6:]
        assert collector.records_received == 10
        assert len(collector) == 0 and collector.drain_batch() == FlowBatch.empty()

    def test_state_round_trip_preserves_pending_chunks(self):
        records = _random_records(np.random.default_rng(29), 9)
        collector = FlowCollector()
        collector.ingest_batch(encode_flows(FlowBatch.from_records(records[:4])))
        collector.ingest_batch(encode_flows(FlowBatch.from_records(records[4:])))
        state = collector.state_dict()
        restored = FlowCollector()
        restored.load_state_dict(state)
        # pending chunks coalesce on snapshot, so the restored snapshot
        # round-trips byte-identically from here on
        assert pickle.dumps(restored.state_dict()) == pickle.dumps(state)
        assert restored.drain_batch().to_records() == records


class TestFeedHealthSequenceAnomalies:
    """Out-of-order and duplicated datagrams through the columnar path."""

    @staticmethod
    def _datagrams(n, per=3):
        codec = DatagramCodec(engine_id=1)
        rng = np.random.default_rng(37)
        return [codec.encode(FlowBatch.from_records(_random_records(rng, per))) for _ in range(n)]

    def test_out_of_order_counts_without_loss(self):
        first, second, third = self._datagrams(3)
        collector = FlowCollector()
        collector.ingest_datagram(first)
        collector.ingest_datagram(third)  # skips ahead: 3 records lost
        collector.ingest_datagram(second)  # late arrival: reordered
        health = collector.feed_health()
        assert health.datagrams_received == 3
        assert health.records_received == 9
        assert health.records_lost == 3
        assert health.datagrams_reordered == 1

    def test_duplicate_datagram_flags_reorder_not_loss(self):
        first, second = self._datagrams(2)
        collector = FlowCollector()
        collector.ingest_datagram(first)
        collector.ingest_datagram(second)
        collector.ingest_datagram(second)  # duplicated in transit
        health = collector.feed_health()
        assert health.records_lost == 0
        assert health.datagrams_reordered == 1
        # duplicates still deliver records; the collector counts them
        assert health.records_received == 9

    def test_lossless_feed_is_clean(self):
        collector = FlowCollector()
        for blob in self._datagrams(4):
            collector.ingest_datagram(blob)
        health = collector.feed_health()
        assert health.records_lost == 0
        assert health.datagrams_reordered == 0
        assert health.loss_rate == 0.0


# ----------------------------------------------------------------------
# detector level: OnlineXatu's columnar ingest == the per-record oracle
# ----------------------------------------------------------------------
def test_columnar_detector_lane_matches_scalar_lane():
    """``step(minute, FlowBatch)`` against the per-record oracle on the twin
    stream, under the default :class:`OnlineConfig` (wire-domain records,
    unrouted destinations, all three auxiliary masks)."""

    def lanes_match(seed, minutes):
        customer_of, blocklist = twin_context(4)
        scalar, columnar = build_twins(
            seed % 97, customer_of, blocklist, threshold=0.5, config=OnlineConfig()
        )
        drive_twins(scalar, columnar, twin_stream(seed, customer_of, blocklist, minutes))

    run_property(lanes_match, integers(0, 10**6), choices([3, 8]), runs=4, seed=71)


def test_a_changed_route_table_refuses_the_snapshot_in_both_lanes():
    """A3 verdicts are a pure function of the route table, which is
    deployment context: neither lane remembers one, a snapshot written
    under one table is refused — naming both digests — by a detector that
    holds another, and under the table it was written with it resumes."""
    old, new = 2**31 + 5, 2**31 + 6  # both above the announced half: spoofed
    flow = FlowRecord(
        timestamp=0, src_addr=old, dst_addr=50_000, src_port=1, dst_port=2,
        protocol=17, packets=1, bytes_=100,
    )
    minute_1 = [replace(flow, timestamp=1), replace(flow, timestamp=1, src_addr=new)]
    lanes = build_twins(1, {50_000: 0})
    minute_1 = FlowBatch.from_records(minute_1)
    for detector in lanes:
        detector.step(0, FlowBatch.from_records([flow]))
        state = detector.state_dict()
        written_under = detector.route_table
        detector.route_table = RouteTable()
        detector.route_table.announce((0, 2**32 - 1), origin_asn=1)  # now all routed
        with pytest.raises(ValueError, match=rf"deployment {state['deployment']}\b.*deployment [0-9a-f]{{64}}"):
            detector.load_state_dict(state)
        detector.step(1, minute_1)
        assert detector.matrix.cell(0, 1, SOURCE_CLASS_SPOOFED) is None
        detector.route_table = written_under
        detector.load_state_dict(state)
        detector.step(1, minute_1)
        assert detector.matrix.cell(0, 1, SOURCE_CLASS_SPOOFED).unique_sources == 2
    assert pickle.dumps(lanes[0].state_dict()) == pickle.dumps(lanes[1].state_dict())


def test_reassigning_a_deployment_piece_changes_the_next_snapshot():
    """``state_dict`` computes the deployment digest once per detector, so
    every piece a deployment can swap mid-stream must invalidate it when
    reassigned: the next snapshot carries the digest of the pieces it was
    served under, and assigning the old piece back brings the old one."""
    from repro.signals.features import FeatureScaler

    customer_of, blocklist = twin_context(3)
    detector = build_detector(OnlineXatu, 2, customer_of, blocklist)
    detector.step(0, FlowBatch.empty())
    first = detector.state_dict()["deployment"]
    assert detector.state_dict()["deployment"] == first == detector.deployment_digest()
    scaler = FeatureScaler()
    scaler.mean_, scaler.std_ = detector.scaler.mean_ + 1.0, detector.scaler.std_
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    changes = {
        "customer_of": {**customer_of, max(customer_of) + 1: 0},
        "blocklist": {*blocklist, 2**31 + 7},
        "route_table": route_table,
        "scaler": scaler,
    }
    for name, value in changes.items():
        held = getattr(detector, name)
        setattr(detector, name, value)
        changed = detector.state_dict()["deployment"]
        assert changed != first, name
        assert changed == detector.deployment_digest(), name
        setattr(detector, name, held)
        assert detector.state_dict()["deployment"] == first, name


def test_rejected_minute_leaves_the_detector_state_untouched():
    """A corrupt country byte fails the minute loudly, and before the
    detector commits anything the fold would have justified: no matrix
    cell, no watch refresh."""
    customer_of, blocklist = twin_context(4)
    detector = build_detector(OnlineXatu, 3, customer_of, blocklist)
    *trace, hostile = (
        step.flows for step in twin_stream(29, dict(customer_of), set(), 4)
    )
    for minute, flows in enumerate(trace):
        detector.step(minute, FlowBatch.from_records(flows))

    def fingerprint():
        return (
            _matrix_fingerprint(detector.matrix),
            set(detector._watched),
            dict(detector._last_seen),
        )

    before = fingerprint()
    batch = FlowBatch.from_records(hostile)
    routed = [i for i, f in enumerate(hostile) if f.dst_addr in customer_of]
    batch.array["src_country"][routed[-1]] = b"\xff\xfe"
    with pytest.raises(UnicodeDecodeError):
        detector.step(len(trace), batch)
    assert fingerprint() == before


def test_a_rejected_minute_is_retried_like_a_clean_run():
    """The clock moves only once the fold has accepted the batch: after a
    rejected minute the same minute is retried with the good batch, and the
    detector emits the alerts and checkpoint bytes of a twin that never saw
    the bad one."""
    customer_of, blocklist = twin_context(4)
    detector, clean = (build_detector(OnlineXatu, 3, customer_of, blocklist) for _ in range(2))
    steps = list(twin_stream(29, dict(customer_of), set(), 8))
    for i, step in enumerate(steps):
        batch = FlowBatch.from_records(step.flows)
        if i == 5:
            hostile = FlowBatch(batch.array.copy())
            routed = [j for j, f in enumerate(step.flows) if f.dst_addr in customer_of]
            hostile.array["src_country"][routed[-1]] = b"\xff\xfe"
            with pytest.raises(UnicodeDecodeError):
                detector.step(step.minute, hostile)
            assert detector.current_minute == steps[i - 1].minute
        got, want = (lane.step(step.minute, batch) for lane in (detector, clean))
        assert alert_keys(got) == alert_keys(want)
    assert checkpoint_bytes(detector) == checkpoint_bytes(clean)


def test_rejected_snapshot_leaves_the_detector_state_untouched():
    """``OnlineXatu.load_state_dict`` checks the deployment digest and
    decodes the whole snapshot before it assigns anything: a malformed
    matrix or collection, or a snapshot of another deployment, raises, and
    the detector — matrix row stores included — is bit for bit what it was
    and goes on scoring like a twin that never tried."""
    customer_of, blocklist = twin_context(4)
    detector, twin = (build_detector(OnlineXatu, 3, customer_of, blocklist) for _ in range(2))
    steps = list(twin_stream(29, dict(customer_of), set(), 8))
    for step in steps[:5]:
        for lane in (detector, twin):
            lane.step(step.minute, FlowBatch.from_records(step.flows))
    good = checkpoint_bytes(detector)
    before = _matrix_fingerprint(detector.matrix)
    assert before["rows"]

    def reverse(*path):
        def apply(state):
            *parents, last = path
            for key in parents:
                state = state[key]
            state[last] = state[last][::-1]
        return apply

    other = build_detector(OnlineXatu, 4, customer_of, blocklist)  # other weights
    breaks = [
        reverse("matrix", "keys"),
        lambda state: state.pop("watched"),
        lambda state: state["hazards"].append([1]),
        lambda state: state.update(deployment=other.deployment_digest()),
    ]
    for apply in breaks:
        state = pickle.loads(good)
        apply(state)
        with pytest.raises((ValueError, KeyError)):
            detector.load_state_dict(state)
        assert checkpoint_bytes(detector) == good
        assert _matrix_fingerprint(detector.matrix) == before
    for step in steps[5:]:
        got, want = (
            lane.step(step.minute, FlowBatch.from_records(step.flows)) for lane in (detector, twin)
        )
        assert alert_keys(got) == alert_keys(want)
    assert checkpoint_bytes(detector) == checkpoint_bytes(twin)


def test_a_restored_detector_pickles_like_one_that_never_stopped():
    """Pickle memoizes strings by identity, and a detector's state says
    "blocklist" and "spoofed" twice — as matrix class names and as dict keys.
    A detector that never round-tripped holds the interned literals; one
    restored from bytes must share them the same way, whoever named the
    class (here: a name built at run time)."""
    customer_of, blocklist = twin_context(4)
    fresh = build_detector(OnlineXatu, 7, customer_of, blocklist)
    for step in twin_stream(31, dict(customer_of), set(), 6):
        for alert in step.alerts:
            fresh.ingest_cdet_alert(alert)
        fresh.step(step.minute, FlowBatch.from_records(step.flows))
    classes = {cls for _customer, cls, _minute, _cell in fresh.matrix.cells()}
    assert classes >= {SOURCE_CLASS_BLOCKLIST, SOURCE_CLASS_SPOOFED}
    late = fresh.matrix.max_minute
    record = _random_records(np.random.default_rng(3), 1, late + 1)[0]
    reference_add_flow(fresh.matrix, 0, record, ["".join(["block", "list"])])
    snapshot = checkpoint_bytes(fresh)
    restored = build_detector(OnlineXatu, 7, customer_of, blocklist)
    restored.load_state_dict(pickle.loads(snapshot))
    assert checkpoint_bytes(restored) == snapshot


def test_checkpoint_telemetry_counts_the_cells_written():
    """``online.snapshot_cells_encoded`` reads what a checkpoint re-encoded:
    every cell the first time, none when nothing was written since, and
    after one more served minute that minute's writes — fewer than the
    cells held."""
    customer_of, _blocklist = twin_context(4)
    detector = build_detector(OnlineXatu, 7, customer_of)
    stream = list(twin_stream(31, dict(customer_of), set(), 12))
    previous = set_enabled(True)
    get_registry().reset()
    try:
        counter = get_registry().counter("online.snapshot_cells_encoded")
        for step in stream[:-1]:
            detector.step(step.minute, FlowBatch.from_records(step.flows))
        detector.state_dict()
        assert counter.value() == len(detector.matrix) > 0
        detector.state_dict()
        assert counter.value() == len(detector.matrix)
        held = counter.value()
        detector.step(stream[-1].minute, FlowBatch.from_records(stream[-1].flows))
        detector.state_dict()
        written = detector.matrix.snapshot_cells_encoded()
        assert counter.value() - held == written
        assert 0 < written < len(detector.matrix)
    finally:
        set_enabled(previous)
        get_registry().reset()


def test_columnar_lane_exercises_all_auxiliary_classes():
    """The differential pass is only meaningful if every mask fires."""
    customer_of, blocklist = twin_context(4)
    twins = build_twins(5, customer_of, blocklist)
    seen = drive_twins(*twins, twin_stream(3, customer_of, blocklist, 12))
    assert seen >= {
        "all", SOURCE_CLASS_BLOCKLIST, SOURCE_CLASS_PREV_ATTACKER, SOURCE_CLASS_SPOOFED
    }, seen
