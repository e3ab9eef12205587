"""Unit tests for packet sampling, export/collect, and the traffic matrix.

Every column-semantics test drives production: ``sample_at_rates`` at a
constant rate, and ``TrafficMatrix.add_batch`` on one-record batches.
"""

import numpy as np
import pytest

from repro.netflow import (
    FlowBatch,
    FlowCollector,
    Protocol,
    TcpFlags,
    TrafficMatrix,
    N_VOLUMETRIC,
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    VOLUMETRIC_FEATURE_NAMES,
    encode_flows,
)
from repro.netflow.sampler import sample_at_rates
from repro.testing.reference import reference_merge_cell
from tests.test_netflow import make_flow


def sample(flow, rate, copies, rng):
    """``copies`` of ``flow`` sampled at 1:``rate`` in one batch."""
    return sample_at_rates(FlowBatch.from_records([flow] * copies), np.full(copies, rate), rng)


def add(matrix, customer, flow, classes=()):
    """Fold ``flow`` into ``matrix`` as a one-record batch."""
    matrix.add_batch(
        np.array([customer]),
        FlowBatch.from_records([flow]),
        {cls: np.ones(1, dtype=bool) for cls in classes},
    )


def cell_of(*flows):
    """The "all" cell that ``flows`` (one minute, one customer) fold into."""
    matrix = TrafficMatrix()
    for flow in flows:
        add(matrix, 0, flow)
    return matrix.cell(0, flows[0].timestamp)


def features(*flows) -> dict[str, float]:
    return dict(zip(VOLUMETRIC_FEATURE_NAMES, cell_of(*flows).finalize()))


class TestPacketSampler:
    def test_rate_one_is_identity(self, rng):
        flow = make_flow()
        out, kept = sample(flow, 1, 1, rng)
        assert out.to_records() == [flow]
        assert kept.tolist() == [0]

    def test_sampling_preserves_expected_volume(self, rng):
        out, _kept = sample(make_flow(packets=1000, bytes_=100000), 10, 200, rng)
        assert out.estimated_bytes().sum() / 200 == pytest.approx(100000, rel=0.05)

    def test_small_flows_sometimes_invisible(self, rng):
        out, _kept = sample(make_flow(packets=1, bytes_=100), 1000, 500, rng)
        assert 500 - len(out) > 400

    def test_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            sample(make_flow(), 0, 1, rng)

    def test_batch_drops_unseen(self, rng):
        out, kept = sample(make_flow(packets=1, bytes_=60), 50, 100, rng)
        assert len(out) == len(kept) < 50
        assert (np.diff(kept) > 0).all()


class TestExporterCollector:
    def test_lossless_at_rate_one(self, rng):
        flows = [make_flow(timestamp=i) for i in range(7)]
        exported, _kept = sample_at_rates(FlowBatch.from_records(flows), np.ones(7), rng)
        collector = FlowCollector()
        received = collector.ingest_batch(encode_flows(exported))
        assert received.to_records() == flows
        assert collector.records_received == 7
        assert collector.datagrams_received == 1

    def test_drain_clears(self):
        collector = FlowCollector()
        collector.ingest_batch(encode_flows(FlowBatch.from_records([make_flow()])))
        assert len(collector.drain_batch()) == 1
        assert len(collector) == 0


class TestVolumetricAccumulator:
    def test_feature_vector_width(self):
        assert N_VOLUMETRIC == 63
        assert len(VOLUMETRIC_FEATURE_NAMES) == 63

    def test_counts_protocol_and_ports(self):
        names = features(make_flow(protocol=int(Protocol.UDP), src_port=53, bytes_=1000, packets=2))
        assert names["udp_bytes"] == 1000
        assert names["udp_packets"] == 2
        assert names["sport53_bytes"] == 1000
        assert names["unique_sources"] == 1

    def test_tcp_flags_counted_per_bit(self):
        names = features(
            make_flow(
                protocol=int(Protocol.TCP),
                tcp_flags=int(TcpFlags.SYN | TcpFlags.ACK),
                bytes_=500,
                packets=5,
                src_port=9999,
            )
        )
        assert names["flag_syn_bytes"] == 500
        assert names["flag_ack_bytes"] == 500
        assert names["flag_rst_bytes"] == 0

    def test_mean_max_over_flows(self):
        names = features(make_flow(bytes_=100, packets=1), make_flow(bytes_=300, packets=3))
        assert names["mean_bytes"] == 200
        assert names["max_bytes"] == 300
        assert names["max_packets"] == 3

    def test_country_attribution(self):
        names = features(make_flow(src_country="DE", bytes_=700))
        assert names["cc_DE_bytes"] == 700
        assert names["cc_US_bytes"] == 0

    def test_unknown_country_ignored(self):
        vec = cell_of(make_flow(src_country="ZZ")).finalize()
        country_cols = [i for i, n in enumerate(VOLUMETRIC_FEATURE_NAMES) if n.startswith("cc_")]
        assert all(vec[i] == 0 for i in country_cols)

    def test_sampling_compensation(self):
        names = features(make_flow(bytes_=100, packets=1, sampling_rate=100))
        assert names["udp_bytes"] == 10000

    def test_merge_combines_sources_and_max(self):
        a = cell_of(make_flow(src_addr=1, bytes_=100, packets=1))
        b = cell_of(make_flow(src_addr=2, bytes_=300, packets=3))
        reference_merge_cell(a, b)
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, a.finalize()))
        assert names["unique_sources"] == 2
        assert names["max_bytes"] == 300
        assert names["mean_bytes"] == 200


class TestTrafficMatrix:
    def test_feature_block_zero_for_quiet_minutes(self):
        matrix = TrafficMatrix()
        add(matrix, 0, make_flow(timestamp=5))
        block = matrix.feature_block(0, 0, 10)
        assert block.shape == (10, 63)
        assert block[5].sum() > 0
        assert block[[0, 1, 2, 3, 4, 6, 7, 8, 9]].sum() == 0

    def test_source_classes_split(self):
        matrix = TrafficMatrix()
        add(matrix, 0, make_flow(timestamp=1, bytes_=100), [SOURCE_CLASS_BLOCKLIST])
        add(matrix, 0, make_flow(timestamp=1, bytes_=200))
        all_block = matrix.feature_block(0, 1, 2, SOURCE_CLASS_ALL)
        bl_block = matrix.feature_block(0, 1, 2, SOURCE_CLASS_BLOCKLIST)
        names_all = dict(zip(VOLUMETRIC_FEATURE_NAMES, all_block[0]))
        names_bl = dict(zip(VOLUMETRIC_FEATURE_NAMES, bl_block[0]))
        assert names_all["udp_bytes"] == 300
        assert names_bl["udp_bytes"] == 100

    def test_bytes_series_and_total(self):
        matrix = TrafficMatrix()
        add(matrix, 3, make_flow(timestamp=0, bytes_=100))
        add(matrix, 3, make_flow(timestamp=2, bytes_=50))
        series = matrix.bytes_series(3, 0, 3)
        assert list(series) == [100.0, 0.0, 50.0]
        assert matrix.bytes_series(3, 0, 3).sum() == 150.0

    def test_customers_sorted(self):
        matrix = TrafficMatrix()
        add(matrix, 5, make_flow())
        add(matrix, 1, make_flow())
        assert matrix.customers() == [1, 5]

    def test_inverted_range_raises(self):
        matrix = TrafficMatrix()
        with pytest.raises(ValueError):
            matrix.feature_block(0, 5, 4)

    def test_max_minute_tracked(self):
        matrix = TrafficMatrix()
        add(matrix, 0, make_flow(timestamp=42))
        assert matrix.max_minute == 42
