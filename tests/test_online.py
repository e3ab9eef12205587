"""Tests for the streaming deployment mode (OnlineXatu)."""

import numpy as np
import pytest

from repro.core import (
    OnlineConfig,
    OnlineXatu,
    TrainConfig,
    XatuModel,
    alerts_to_records,
)
from repro.detect import NetScoutDetector
from repro.netflow import FlowBatch, RouteTable
from repro.signals import AlertRecord, FeatureScaler
from repro.synth import AttackType
from tests.conftest import small_model_config


@pytest.fixture(scope="module")
def online_setup(trace):
    """An OnlineXatu around an untrained (cold) model on the shared trace."""
    cfg = small_model_config()
    model = XatuModel(cfg)
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(273)
    scaler.std_ = np.ones(273)
    customer_of = {c.address: c.customer_id for c in trace.world.customers}
    blocklist = set()
    for botnet in trace.world.botnets:
        blocklist.update(int(a) for a in botnet.blocklisted_members)
    return trace, model, scaler, customer_of, blocklist


def make_online(setup, threshold=0.5, **kwargs):
    trace, model, scaler, customer_of, blocklist = setup
    return OnlineXatu(
        model=model,
        scaler=scaler,
        threshold=threshold,
        customer_of=customer_of,
        blocklist=blocklist,
        route_table=trace.world.route_table,
        base_rate_of={c.customer_id: c.base_rate_bytes for c in trace.world.customers},
        **kwargs,
    )


def minute_flows(trace, minute):
    """Reconstruct one minute of flows from the trace's benign generator.

    The trace doesn't retain raw flows, so streaming tests synthesize a
    small replay through the benign model.
    """
    from repro.synth import BenignConfig, BenignTrafficModel

    benign = BenignTrafficModel(
        trace.world.benign_clients,
        trace.world.country_of,
        BenignConfig(minutes_per_day=trace.config.minutes_per_day),
        rng=np.random.default_rng(minute),
    )
    flows = []
    for customer in trace.world.customers[:3]:
        flows.extend(benign.flows_at(customer, minute))
    return FlowBatch.from_records(flows)


class TestOnlineXatu:
    def test_threshold_validated(self, online_setup):
        with pytest.raises(ValueError):
            make_online(online_setup, threshold=1.0)

    def test_threshold_overrides_config(self, online_setup):
        """The trained threshold rides beside model/scaler; every other
        streaming knob comes from the config."""
        online = make_online(
            online_setup,
            threshold=0.25,
            config=OnlineConfig(threshold=0.75, rearm_after=4),
        )
        assert online.threshold == online.config_online.threshold == 0.25
        assert online.rearm_after == 4
        assert make_online(
            online_setup, threshold=None, config=OnlineConfig(threshold=0.75)
        ).threshold == 0.75

    def test_minutes_must_advance(self, online_setup):
        online = make_online(online_setup)
        trace = online_setup[0]
        online.step(0, minute_flows(trace, 0))
        with pytest.raises(ValueError, match="advance"):
            online.step(0, FlowBatch.empty())

    def test_cold_model_stays_quiet(self, online_setup):
        """The cold-initialized model's survival stays near 1 — no alerts."""
        online = make_online(online_setup, threshold=0.1)
        trace = online_setup[0]
        for minute in range(5):
            alerts = online.step(minute, minute_flows(trace, minute))
            assert alerts == []
        assert online.current_minute == 4

    def test_flows_for_unknown_destinations_ignored(self, online_setup):
        online = make_online(online_setup)
        from tests.test_netflow import make_flow

        stray = make_flow(timestamp=0, dst_addr=123456)
        online.step(0, FlowBatch.from_records([stray]))
        assert len(online.matrix) == 0

    def test_classification_tags_blocklisted(self, online_setup):
        trace, *_ = online_setup
        online = make_online(online_setup)
        botnet = next(
            b for b in trace.world.botnets if len(b.blocklisted_members)
        )
        listed = int(botnet.blocklisted_members[0])
        customer = trace.world.customers[0]
        from tests.test_netflow import make_flow

        flow = make_flow(timestamp=0, src_addr=listed, dst_addr=customer.address)
        online.step(0, FlowBatch.from_records([flow]))
        from repro.netflow import SOURCE_CLASS_BLOCKLIST

        assert online.matrix.bytes_series(
            customer.customer_id, 0, 1, SOURCE_CLASS_BLOCKLIST
        ).sum() > 0

    def test_cdet_alert_feeds_a2_tagging(self, online_setup):
        trace, *_ = online_setup
        online = make_online(online_setup)
        customer = trace.world.customers[0]
        attacker = 777777
        online.ingest_cdet_alert(
            AlertRecord(
                customer_id=customer.customer_id,
                attack_type=AttackType.UDP_FLOOD,
                detect_minute=0,
                end_minute=1,
                peak_bytes=1e9,
                attackers=frozenset({attacker}),
            )
        )
        from tests.test_netflow import make_flow
        from repro.netflow import SOURCE_CLASS_PREV_ATTACKER

        flow = make_flow(timestamp=2, src_addr=attacker, dst_addr=customer.address)
        online.step(2, FlowBatch.from_records([flow]))
        assert online.matrix.bytes_series(
            customer.customer_id, 2, 3, SOURCE_CLASS_PREV_ATTACKER
        ).sum() > 0

    def test_hot_model_alerts_and_suppresses(self, online_setup):
        """Force a hot hazard head: alerts fire, then suppress, then re-arm."""
        trace, model, scaler, customer_of, blocklist = online_setup
        hot = XatuModel(model.config)
        hot.combine.bias.data[...] = 3.0  # softplus(3) ~ 3.05 hazard/min
        online = OnlineXatu(
            model=hot, scaler=scaler, threshold=0.5,
            customer_of=customer_of, blocklist=blocklist,
            route_table=trace.world.route_table,
            config=OnlineConfig(rearm_after=3),
        )
        first = online.step(0, minute_flows(trace, 0))
        assert first, "hot model must alert immediately"
        alerted = {a.customer_id for a in first}
        # Suppressed during the re-arm window.
        second = online.step(1, minute_flows(trace, 1))
        assert not ({a.customer_id for a in second} & alerted)
        # Re-armed after the window.
        third = online.step(3, minute_flows(trace, 3))
        assert {a.customer_id for a in third} & alerted

    def test_mitigation_end_rearms_early(self, online_setup):
        trace, model, scaler, customer_of, blocklist = online_setup
        hot = XatuModel(model.config)
        hot.combine.bias.data[...] = 3.0
        online = OnlineXatu(
            model=hot, scaler=scaler, threshold=0.5,
            customer_of=customer_of, blocklist=blocklist,
            route_table=trace.world.route_table,
            config=OnlineConfig(rearm_after=100),
        )
        first = online.step(0, minute_flows(trace, 0))
        cid = first[0].customer_id
        online.ingest_mitigation_end(cid, minute=1)
        second = online.step(1, minute_flows(trace, 1))
        assert cid in {a.customer_id for a in second}

    def test_alerts_leave_with_their_step(self, online_setup):
        """``step`` is the only way out for an alert: the detector keeps no
        queue of them, so its snapshot carries none."""
        trace, model, scaler, customer_of, blocklist = online_setup
        hot = XatuModel(model.config)
        hot.combine.bias.data[...] = 3.0
        online = OnlineXatu(
            model=hot, scaler=scaler, threshold=0.5,
            customer_of=customer_of, blocklist=blocklist,
            route_table=trace.world.route_table,
        )
        assert online.step(0, minute_flows(trace, 0))
        assert not hasattr(online, "poll_alerts")
        assert "pending" not in online.state_dict()

    def test_hazard_memory_bounded(self, online_setup):
        trace, *_ = online_setup
        online = make_online(online_setup, threshold=0.01)
        window = online.model.config.detect_window
        for minute in range(5 * window):
            online.step(minute, FlowBatch.empty())
        for series in online._hazards.values():
            assert len(series) <= 4 * window
