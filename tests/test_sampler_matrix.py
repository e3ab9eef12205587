"""Unit tests for packet sampling, export/collect, and the traffic matrix."""

import numpy as np
import pytest

from repro.netflow import (
    FlowCollector,
    FlowExporter,
    FlowRecord,
    PacketSampler,
    Protocol,
    TcpFlags,
    TrafficMatrix,
    VolumetricAccumulator,
    N_VOLUMETRIC,
    POPULAR_COUNTRIES,
    POPULAR_PORTS,
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    VOLUMETRIC_FEATURE_NAMES,
)
from tests.test_netflow import make_flow


class TestPacketSampler:
    def test_rate_one_is_identity(self):
        flow = make_flow()
        sampled = PacketSampler(1).sample(flow)
        assert sampled == flow

    def test_sampling_preserves_expected_volume(self, rng):
        sampler = PacketSampler(10, rng=rng)
        flow = make_flow(packets=1000, bytes_=100000)
        totals = []
        for _ in range(200):
            s = sampler.sample(flow)
            totals.append(s.estimated_bytes if s else 0)
        assert np.mean(totals) == pytest.approx(100000, rel=0.05)

    def test_small_flows_sometimes_invisible(self, rng):
        sampler = PacketSampler(1000, rng=rng)
        flow = make_flow(packets=1, bytes_=100)
        outcomes = [sampler.sample(flow) for _ in range(500)]
        assert sum(1 for o in outcomes if o is None) > 400

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            PacketSampler(0)

    def test_sample_many_drops_unseen(self, rng):
        sampler = PacketSampler(50, rng=rng)
        flows = [make_flow(packets=1, bytes_=60)] * 100
        kept = sampler.sample_many(flows)
        assert len(kept) < 50


class TestExporterCollector:
    def test_lossless_at_rate_one(self):
        exporter = FlowExporter("pop1", PacketSampler(1))
        collector = FlowCollector()
        flows = [make_flow(timestamp=i) for i in range(7)]
        exporter.observe(flows)
        assert exporter.pending == 7
        received = collector.ingest_batch(exporter.flush())
        assert received.to_records() == flows
        assert exporter.pending == 0
        assert collector.records_received == 7
        assert collector.datagrams_received == 1

    def test_drain_clears(self):
        exporter = FlowExporter("pop1", PacketSampler(1))
        collector = FlowCollector()
        exporter.observe([make_flow()])
        collector.ingest_batch(exporter.flush())
        assert len(collector.drain_batch()) == 1
        assert len(collector) == 0


class TestVolumetricAccumulator:
    def test_feature_vector_width(self):
        assert N_VOLUMETRIC == 63
        assert len(VOLUMETRIC_FEATURE_NAMES) == 63

    def test_counts_protocol_and_ports(self):
        acc = VolumetricAccumulator()
        acc.add(make_flow(protocol=int(Protocol.UDP), src_port=53, bytes_=1000, packets=2))
        vec = acc.finalize()
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, vec))
        assert names["udp_bytes"] == 1000
        assert names["udp_packets"] == 2
        assert names["sport53_bytes"] == 1000
        assert names["unique_sources"] == 1

    def test_tcp_flags_counted_per_bit(self):
        acc = VolumetricAccumulator()
        acc.add(
            make_flow(
                protocol=int(Protocol.TCP),
                tcp_flags=int(TcpFlags.SYN | TcpFlags.ACK),
                bytes_=500,
                packets=5,
                src_port=9999,
            )
        )
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, acc.finalize()))
        assert names["flag_syn_bytes"] == 500
        assert names["flag_ack_bytes"] == 500
        assert names["flag_rst_bytes"] == 0

    def test_mean_max_over_flows(self):
        acc = VolumetricAccumulator()
        acc.add(make_flow(bytes_=100, packets=1))
        acc.add(make_flow(bytes_=300, packets=3))
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, acc.finalize()))
        assert names["mean_bytes"] == 200
        assert names["max_bytes"] == 300
        assert names["max_packets"] == 3

    def test_country_attribution(self):
        acc = VolumetricAccumulator()
        acc.add(make_flow(src_country="DE", bytes_=700))
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, acc.finalize()))
        assert names["cc_DE_bytes"] == 700
        assert names["cc_US_bytes"] == 0

    def test_unknown_country_ignored(self):
        acc = VolumetricAccumulator()
        acc.add(make_flow(src_country="ZZ"))
        vec = acc.finalize()
        country_cols = [i for i, n in enumerate(VOLUMETRIC_FEATURE_NAMES) if n.startswith("cc_")]
        assert all(vec[i] == 0 for i in country_cols)

    def test_sampling_compensation(self):
        acc = VolumetricAccumulator()
        acc.add(make_flow(bytes_=100, packets=1, sampling_rate=100))
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, acc.finalize()))
        assert names["udp_bytes"] == 10000

    def test_merge_combines_sources_and_max(self):
        a = VolumetricAccumulator()
        b = VolumetricAccumulator()
        a.add(make_flow(src_addr=1, bytes_=100, packets=1))
        b.add(make_flow(src_addr=2, bytes_=300, packets=3))
        a.merge(b)
        names = dict(zip(VOLUMETRIC_FEATURE_NAMES, a.finalize()))
        assert names["unique_sources"] == 2
        assert names["max_bytes"] == 300
        assert names["mean_bytes"] == 200


class TestTrafficMatrix:
    def test_feature_block_zero_for_quiet_minutes(self):
        matrix = TrafficMatrix()
        matrix.add_flow(0, make_flow(timestamp=5))
        block = matrix.feature_block(0, 0, 10)
        assert block.shape == (10, 63)
        assert block[5].sum() > 0
        assert block[[0, 1, 2, 3, 4, 6, 7, 8, 9]].sum() == 0

    def test_source_classes_split(self):
        matrix = TrafficMatrix()
        matrix.add_flow(0, make_flow(timestamp=1, bytes_=100), [SOURCE_CLASS_BLOCKLIST])
        matrix.add_flow(0, make_flow(timestamp=1, bytes_=200))
        all_block = matrix.feature_block(0, 1, 2, SOURCE_CLASS_ALL)
        bl_block = matrix.feature_block(0, 1, 2, SOURCE_CLASS_BLOCKLIST)
        names_all = dict(zip(VOLUMETRIC_FEATURE_NAMES, all_block[0]))
        names_bl = dict(zip(VOLUMETRIC_FEATURE_NAMES, bl_block[0]))
        assert names_all["udp_bytes"] == 300
        assert names_bl["udp_bytes"] == 100

    def test_bytes_series_and_total(self):
        matrix = TrafficMatrix()
        matrix.add_flow(3, make_flow(timestamp=0, bytes_=100))
        matrix.add_flow(3, make_flow(timestamp=2, bytes_=50))
        series = matrix.bytes_series(3, 0, 3)
        assert list(series) == [100.0, 0.0, 50.0]
        assert matrix.total_bytes(3, 0, 3) == 150.0

    def test_customers_sorted(self):
        matrix = TrafficMatrix()
        matrix.add_flow(5, make_flow())
        matrix.add_flow(1, make_flow())
        assert matrix.customers() == [1, 5]

    def test_inverted_range_raises(self):
        matrix = TrafficMatrix()
        with pytest.raises(ValueError):
            matrix.feature_block(0, 5, 4)

    def test_max_minute_tracked(self):
        matrix = TrafficMatrix()
        matrix.add_flow(0, make_flow(timestamp=42))
        assert matrix.max_minute == 42
