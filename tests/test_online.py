"""Tests for the streaming deployment mode (OnlineXatu)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# the served lane's cold-start knowledge and decision pass, against the
# per-customer oracle (``ReferenceOnlineXatu``)
# ----------------------------------------------------------------------
def _decision_detectors(detect_window: int):
    """A production detector and its oracle around a model with
    ``detect_window``; the decision stage never runs the model."""
    from repro.core.model import TimescaleSpec, XatuModelConfig
    from repro.testing.reference import ReferenceOnlineXatu
    from repro.testing.twin import twin_route_table, twin_scaler

    model = XatuModel(
        XatuModelConfig(
            hidden_size=2, dense_size=2, detect_window=detect_window,
            timescales=(TimescaleSpec("short", 1, detect_window),),
        )
    )
    scaler = twin_scaler(np.random.default_rng(0))
    return tuple(
        cls(model=model, scaler=scaler, threshold=0.5, customer_of={},
            route_table=twin_route_table(), config=OnlineConfig(rearm_after=3))
        for cls in (ReferenceOnlineXatu, OnlineXatu)
    )


def test_batched_survivals_equal_survival_by_bytes():
    """``_decide`` computes every unsuppressed customer's survival in one
    pass, grouped by history length: each must be ``survival()``'s bytes —
    at every history length up to twice the detection window, before and
    after ``_push_hazard`` trims, at 1 to 1,000 customers — and the alerts
    and suppressions the per-customer loop's."""
    seen: set[str] = set()

    @settings(max_examples=24)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 2, 7, 48, 1000]),
        st.sampled_from([4, 30]),
    )
    def survivals_match(seed, batch, detect_window):
        rng = np.random.default_rng(seed)
        reference, production = _decision_detectors(detect_window)
        customers = list(range(batch))
        for customer in customers:
            pushes = int(rng.choice([rng.integers(0, 2 * detect_window + 1),
                                     rng.integers(4 * detect_window + 1, 5 * detect_window + 1)]))
            scale = rng.choice([1e-4, 0.02, 0.3])
            hazards = rng.exponential(scale, pushes)
            hazards[rng.random(pushes) < 0.3] = 0.0
            for hazard in hazards.astype(rng.choice([np.float32, np.float64])).tolist():
                for detector in (reference, production):
                    detector._push_hazard(customer, hazard)
            held = len(production._hazards.get(customer, ()))
            seen.add("trimmed" if held < pushes else f"history {min(held, 2 * detect_window)}")
        minute = 20
        for customer in customers:
            until = int(rng.choice([-1, minute, minute + 1]))  # expired or live
            for detector in (reference, production):
                detector._suppressed_until[customer] = until
        got = production._survivals(customers)
        want = [production.survival(customer) for customer in customers]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        alerts = [d._decide(customers, minute) for d in (reference, production)]
        assert [(a.customer_id, a.survival) for a in alerts[0]] == [
            (a.customer_id, a.survival) for a in alerts[1]
        ]
        assert reference._suppressed_until == production._suppressed_until
        if any(until > minute for until in production._suppressed_until.values()):
            seen.add("suppressed")
        seen.update({f"batch {batch}"} | ({"alerted"} if alerts[1] else set()))

    survivals_match()
    assert seen >= {
        "history 0", "history 1", "history 8", "history 60", "trimmed",
        "suppressed", "alerted", "batch 1", "batch 2", "batch 7", "batch 48", "batch 1000",
    }, seen


def _mixed_age_steps(seed: int, minutes: int):
    """A lazily watched fleet whose customers start at different ages:
    customer 0 sends from minute 0, 1 from 17, 2 from 50; 3 at minutes
    0-5, goes idle past ``watch_idle_minutes`` and comes back at 30; 4 is
    alerted by the incumbent at minute 8 (A4/A5) and sends from 20."""
    from repro.netflow import FlowRecord
    from repro.testing.twin import BASE_ADDRESS, SOURCE_POOL, TwinStep

    rng = np.random.default_rng(seed)
    active = {0: 0, 1: 17, 2: 50, 3: 0, 4: 20}
    for minute in range(minutes):
        flows = []
        for customer, first in active.items():
            if minute < first or (customer == 3 and 5 < minute < 30):
                continue
            for _ in range(int(rng.integers(1, 4))):
                packets = int(rng.integers(1, 900))
                flows.append(
                    FlowRecord(
                        timestamp=minute,
                        src_addr=int(rng.choice(SOURCE_POOL)),
                        dst_addr=BASE_ADDRESS + customer,
                        src_port=int(rng.choice([53, 123, 4444])),
                        dst_port=443,
                        protocol=int(rng.choice([6, 17])),
                        packets=packets,
                        bytes_=packets * int(rng.integers(60, 1400)),
                        tcp_flags=int(rng.integers(0, 64)),
                    )
                )
        alerts = []
        if minute == 8:
            alerts.append(
                AlertRecord(
                    customer_id=4, attack_type=AttackType.UDP_FLOOD, detect_minute=8,
                    end_minute=10, peak_bytes=5e6,
                    attackers=frozenset(SOURCE_POOL[:3]),
                )
            )
        yield TwinStep(minute, flows, alerts, [], None, None, False, set())


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_mixed_age_fleet_serves_the_oracles_bytes(monkeypatch, dtype):
    """Per-customer pad counts: customers first seen at minutes 0, 17 and
    50, one re-watched after idle eviction and one with A4/A5 history share
    each minute's batch, so the counts differ item by item, and the served
    lane must still equal the oracle — given the same counts — in every
    alert, hazard bit and checkpoint byte, on whatever BLAS kernel runs."""
    from repro.core.model import TimescaleSpec
    from repro.obs import telemetry
    from repro.serve import ContiguousCustomerRouter
    from repro.testing.twin import BASE_ADDRESS, SOURCE_POOL, build_twins, drive_twins

    staged = XatuModel.hazards_np_staged
    mixed: list[bool] = []

    def spy(self, sequences, dtype=None, pads=None, chains=None):
        mixed.append(any(len(set(np.asarray(p).tolist())) > 1 for p in pads))
        return staged(self, sequences, dtype, pads, chains)

    monkeypatch.setattr(XatuModel, "hazards_np_staged", spy)
    reference, production = build_twins(
        13,
        ContiguousCustomerRouter(BASE_ADDRESS, 5, stride=1),
        SOURCE_POOL[::3],
        dtype=dtype,
        timescales=(
            TimescaleSpec("short", 1, 24),
            TimescaleSpec("medium", 4, 12),
            TimescaleSpec("long", 12, 5),
        ),
        config=OnlineConfig(rearm_after=3, watch_idle_minutes=4),
    )
    with telemetry() as registry:
        skipped = registry.counter("nn.lstm_prefix_steps_skipped")
        before = skipped.value()
        seen = drive_twins(reference, production, _mixed_age_steps(13, 70))
        assert skipped.value() > before  # the pad chains served
    assert seen >= {"idle-evicted", "re-watched", "A4+A5"}, seen
    assert any(mixed)


def test_reassigned_scaler_and_reloaded_weights_serve_the_next_minute():
    """The empty-window constants and the pad chains are derived state: a
    scaler assigned between minutes, weights loaded in place into the
    served model, or a new inference dtype must be what the very next
    minute scores with — equal to the oracle, which derives nothing, and
    not what the detector scores without that change."""
    from dataclasses import replace

    from repro.core.model import TimescaleSpec
    from repro.testing.reference import ReferenceOnlineXatu
    from repro.testing.twin import (
        BASE_ADDRESS, SOURCE_POOL, build_detector, build_twins, drive_twins, twin_scaler,
    )

    customer_of = {BASE_ADDRESS + i: i for i in range(5)}
    options = dict(
        timescales=(TimescaleSpec("short", 1, 24), TimescaleSpec("long", 12, 5)),
        config=OnlineConfig(rearm_after=3),
    )
    steps = list(_mixed_age_steps(5, 8))
    scaler = twin_scaler(np.random.default_rng(99))
    other = XatuModel(replace(build_detector(OnlineXatu, 5, {}).model.config, seed=77))
    changes = (
        lambda d: setattr(d, "scaler", scaler),
        lambda d: d.model.load_state_dict(other.state_dict()),
        lambda d: setattr(d, "inference_dtype", np.dtype(np.float32)),
    )

    def served(minutes: int, applied: int) -> OnlineXatu:
        """A fresh detector through ``minutes`` steps, given the first
        ``applied`` changes before minutes 5, 6, ..."""
        detector = build_detector(OnlineXatu, 5, customer_of, SOURCE_POOL[::3], **options)
        for step in steps[:minutes]:
            if 5 <= step.minute < 5 + applied:
                changes[step.minute - 5](detector)
            for alert in step.alerts:
                detector.ingest_cdet_alert(alert)
            detector.step(step.minute, FlowBatch.from_records(step.flows))
        return detector

    def staged_like_the_oracle(minute: int) -> None:
        ids = sorted(production._watched)
        got = production.feature_windows(ids, minute)
        for i, customer in enumerate(ids):
            dense = production.scaler.transform(
                ReferenceOnlineXatu._feature_window(production, customer, minute)
            )
            pooled = production.model.stage_pooled(dense[None], production.inference_dtype)
            assert got[i].tobytes() == np.concatenate(pooled, axis=1)[0].tobytes()

    reference, production = build_twins(5, customer_of, SOURCE_POOL[::3], **options)
    drive_twins(reference, production, steps[:5])
    for k, (change, step) in enumerate(zip(changes, steps[5:])):
        for detector in (reference, production):
            change(detector)
        staged_like_the_oracle(step.minute - 1)  # the constants, alone
        drive_twins(reference, production, [step])
        without = served(step.minute + 1, applied=k)
        assert all(
            production._hazards[c][-1] != without._hazards[c][-1] for c in production._watched
        ), step.minute


def test_idle_eviction_drops_expired_suppressions_only():
    """A customer that alerted, went idle and was evicted leaves no
    suppression entry behind once it has expired — in memory and in the
    checkpoint — and decides every later minute as a detector that kept the
    entry does (an expired entry decides as an absent one).  A future-dated
    entry, from a mitigation-end notice, survives the eviction."""
    from repro.serve import ContiguousCustomerRouter
    from repro.testing.twin import BASE_ADDRESS, SOURCE_POOL, build_detector

    class KeepsSuppressions(OnlineXatu):
        def _evict_idle(self, minute):
            kept = dict(self._suppressed_until)
            super()._evict_idle(minute)
            self._suppressed_until.update(kept)

    for future in (None, 100):
        lanes = [
            build_detector(
                cls, 3, ContiguousCustomerRouter(BASE_ADDRESS, 5, stride=1),
                SOURCE_POOL[::3], threshold=0.999,
                config=OnlineConfig(rearm_after=2, watch_idle_minutes=4),
            )
            for cls in (OnlineXatu, KeepsSuppressions)
        ]
        streams = [[], []]
        for step in _mixed_age_steps(3, 40):  # customer 3 is quiet at minutes 6-29
            for lane, alerts in zip(lanes, streams):
                if future is not None and step.minute == 6:
                    lane.ingest_mitigation_end(3, future)
                for alert in step.alerts:
                    lane.ingest_cdet_alert(alert)
                got = lane.step(step.minute, FlowBatch.from_records(step.flows))
                alerts.extend((a.minute, a.customer_id, a.survival) for a in got)
            if step.minute == 20:
                evicting, keeping = (dict(lane.state_dict()["suppressed_until"]) for lane in lanes)
                assert 3 not in lanes[0]._watched
                assert 3 in keeping  # it alerted before going idle
                assert evicting.get(3) == future
        assert streams[0] == streams[1]
        realerted = any(c == 3 and minute >= 30 for minute, c, _s in streams[0])
        assert realerted == (future is None)  # the re-watched customer is decided
