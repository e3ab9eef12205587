"""Tests for the v5-style export datagram codec and sequence tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import DatagramCodec, DatagramHeader, FlowBatch, SequenceTracker
from tests.test_netflow import make_flow


def decode(blob):
    """``(header, records)`` of one datagram, through the columnar decoder."""
    header, batch = DatagramCodec.decode_batch(blob)
    return header, batch.to_records()


def batch_of(flows):
    return FlowBatch.from_records(flows)


class TestDatagramCodec:
    def test_roundtrip(self):
        codec = DatagramCodec(engine_id=7)
        flows = [make_flow(timestamp=i) for i in range(5)]
        header, decoded = decode(
            codec.encode(batch_of(flows), sys_uptime_ms=1234, unix_secs=99)
        )
        assert decoded == flows
        assert header.version == 5
        assert header.count == 5
        assert header.sys_uptime_ms == 1234
        assert header.unix_secs == 99
        assert header.engine_id == 7

    def test_sequence_advances_by_record_count(self):
        codec = DatagramCodec()
        h1, _ = decode(codec.encode(batch_of([make_flow()] * 3)))
        h2, _ = decode(codec.encode(batch_of([make_flow()] * 2)))
        assert h1.flow_sequence == 0
        assert h2.flow_sequence == 3

    def test_empty_datagram(self):
        codec = DatagramCodec()
        header, flows = decode(codec.encode(batch_of([])))
        assert flows == [] and header.count == 0

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            decode(b"\x05\x00")

    def test_wrong_version_rejected(self):
        codec = DatagramCodec()
        blob = bytearray(codec.encode(batch_of([make_flow()])))
        blob[0] = 9
        with pytest.raises(ValueError, match="version"):
            decode(bytes(blob))

    def test_length_mismatch_rejected(self):
        codec = DatagramCodec()
        blob = codec.encode(batch_of([make_flow()]))
        with pytest.raises(ValueError, match="length mismatch"):
            decode(blob[:-4])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 10), engine=st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, n, engine):
        codec = DatagramCodec(engine_id=engine)
        flows = [make_flow(timestamp=i) for i in range(n)]
        header, decoded = decode(codec.encode(batch_of(flows)))
        assert decoded == flows and header.engine_id == engine


class TestSequenceTracker:
    def headers(self, codec, sizes):
        result = []
        for n in sizes:
            header, _ = decode(codec.encode(batch_of([make_flow()] * n)))
            result.append(header)
        return result

    def test_no_loss_contiguous(self):
        tracker = SequenceTracker()
        for header in self.headers(DatagramCodec(), [3, 2, 4]):
            assert tracker.observe(header) == 0
        assert tracker.records_lost == 0
        assert tracker.records_received == 9
        assert tracker.loss_rate == 0.0

    def test_dropped_datagram_counted(self):
        tracker = SequenceTracker()
        headers = self.headers(DatagramCodec(), [3, 2, 4])
        tracker.observe(headers[0])
        # Datagram with 2 records lost in transit.
        lost = tracker.observe(headers[2])
        assert lost == 2
        assert tracker.records_lost == 2
        assert tracker.loss_rate == pytest.approx(2 / 9)

    def test_out_of_order_flagged(self):
        tracker = SequenceTracker()
        headers = self.headers(DatagramCodec(), [3, 2])
        tracker.observe(headers[1])
        tracker.observe(headers[0])
        assert tracker.out_of_order == 1

    def test_engines_tracked_independently(self):
        tracker = SequenceTracker()
        a = self.headers(DatagramCodec(engine_id=1), [5])
        b = self.headers(DatagramCodec(engine_id=2), [5])
        assert tracker.observe(a[0]) == 0
        assert tracker.observe(b[0]) == 0
        assert tracker.records_lost == 0
