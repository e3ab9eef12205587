"""Tests for the trace → live-flow replay bridge."""

import numpy as np
import pytest

from repro.netflow import FlowBatch
from repro.synth import TraceReplayer


@pytest.fixture(scope="module")
def replayer(trace):
    return trace, TraceReplayer(trace)


class TestReplay:
    def test_bytes_preserved_per_customer_minute(self, replayer):
        trace, rp = replayer
        minute = trace.horizon // 2
        flows = rp.minute_flows(minute)
        by_customer: dict[int, int] = {}
        for flow in flows:
            by_customer[flow.dst_addr] = by_customer.get(flow.dst_addr, 0) + flow.bytes_
        for customer in trace.world.customers:
            cell = trace.matrix.cell(customer.customer_id, minute)
            if cell is None:
                assert customer.address not in by_customer
            else:
                replayed = by_customer.get(customer.address, 0)
                assert replayed == pytest.approx(cell.total_bytes, rel=0.05)

    def test_sources_subset_of_cell_sources(self, replayer):
        trace, rp = replayer
        minute = trace.horizon // 3
        for flow in rp.minute_flows(minute):
            customer = trace.world.customer_by_address(flow.dst_addr)
            cell = trace.matrix.cell(customer.customer_id, minute)
            assert flow.src_addr in cell._sources

    def test_timestamps_match_minute(self, replayer):
        _trace, rp = replayer
        for flow in rp.minute_flows(10):
            assert flow.timestamp == 10

    def test_replay_iterator_covers_range(self, replayer):
        trace, rp = replayer
        minutes = [m for m, _flows in rp.replay(5, 10)]
        assert minutes == [5, 6, 7, 8, 9]

    def test_bad_range_rejected(self, replayer):
        trace, rp = replayer
        with pytest.raises(ValueError):
            list(rp.replay(-1, 5))
        with pytest.raises(ValueError):
            list(rp.replay(0, trace.horizon + 1))

    def test_attack_minute_dominated_by_attack_protocol(self, replayer):
        """During a flood, the replayed flows carry the attack protocol."""
        trace, rp = replayer
        event = max(trace.events, key=lambda e: e.anomalous_bytes.max())
        peak = event.onset + int(np.argmax(event.anomalous_bytes))
        flows = [
            f for f in rp.minute_flows(peak)
            if f.dst_addr == event.customer_address
        ]
        assert flows
        proto_bytes: dict[int, int] = {}
        for f in flows:
            proto_bytes[f.protocol] = proto_bytes.get(f.protocol, 0) + f.bytes_
        dominant = max(proto_bytes, key=proto_bytes.get)
        assert dominant == event.signature.protocol

    def test_online_detector_consumes_replay(self, replayer):
        """End-to-end: replayed flows drive OnlineXatu without errors."""
        from repro.core import OnlineXatu, XatuModel
        from repro.signals import FeatureScaler
        from tests.conftest import small_model_config

        trace, rp = replayer
        scaler = FeatureScaler()
        scaler.mean_ = np.zeros(273)
        scaler.std_ = np.ones(273)
        blocklist = set()
        for botnet in trace.world.botnets:
            blocklist.update(int(a) for a in botnet.blocklisted_members)
        online = OnlineXatu(
            model=XatuModel(small_model_config()),
            scaler=scaler,
            threshold=0.5,
            customer_of={c.address: c.customer_id for c in trace.world.customers},
            blocklist=blocklist,
            route_table=trace.world.route_table,
        )
        lo = trace.horizon // 2
        for minute, flows in rp.replay(lo, lo + 5):
            online.step(minute, FlowBatch.from_records(flows))
        assert online.current_minute == lo + 4
        assert len(online.matrix) > 0
