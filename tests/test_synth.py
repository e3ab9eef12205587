"""Unit tests for the synthetic ISP world, campaigns, and trace generation."""

import numpy as np
import pytest

from repro.netflow import FlowBatch, is_bogon
from repro.synth import (
    ATTACK_TYPE_MIX,
    TYPE_TRANSITIONS,
    AttackType,
    BenignConfig,
    BenignTrafficModel,
    Campaign,
    CampaignConfig,
    IspWorld,
    ScenarioConfig,
    TraceGenerator,
    WorldConfig,
    generate_attack_flows,
    schedule_campaigns,
    signature_for,
)
from repro.testing.reference import reference_matches


class TestWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return IspWorld(WorldConfig(n_customers=6, n_botnets=3, botnet_size=50, seed=1))

    def test_population_sizes(self, world):
        assert len(world.customers) == 6
        assert len(world.botnets) == 3
        assert all(b.size == 50 for b in world.botnets)

    def test_customer_prefixes_routed(self, world):
        for customer in world.customers:
            entry = world.route_table.lookup(customer.address)
            assert entry is not None
            assert entry.origin_asn == customer.asn

    def test_botnet_members_routed_not_spoofed(self, world):
        botnet = world.botnets[0]
        for addr in botnet.members[:10]:
            assert not world.route_table.is_spoofed(int(addr))

    def test_blocklisted_members_subset(self, world):
        for botnet in world.botnets:
            assert set(botnet.blocklisted_members) <= set(botnet.members)

    def test_bogon_pool_is_bogon(self, world):
        for addr in world.bogon_pool(20):
            assert is_bogon(int(addr))

    def test_unrouted_pool_unrouted(self, world):
        for addr in world.unrouted_pool(20):
            assert world.route_table.lookup(int(addr)) is None

    def test_resolvers_not_blocklisted(self, world):
        listed = set()
        for botnet in world.botnets:
            listed.update(int(a) for a in botnet.blocklisted_members)
        assert not (set(int(a) for a in world.resolvers) & listed)

    def test_customer_by_address(self, world):
        c = world.customers[2]
        assert world.customer_by_address(c.address) is c
        assert world.customer_by_address(12345) is None


class TestBenign:
    @pytest.fixture(scope="class")
    def model(self):
        world = IspWorld(WorldConfig(n_customers=2, seed=2))
        return world, BenignTrafficModel(
            world.benign_clients,
            world.country_of,
            BenignConfig(minutes_per_day=120, burst_probability=0.0),
            rng=np.random.default_rng(4),
        )

    def test_rate_positive(self, model):
        world, benign = model
        assert benign.rate_at(world.customers[0], 10) > 0

    def test_diurnal_variation_present(self, model):
        world, benign = model
        customer = world.customers[0]
        rates = [benign.rate_at(customer, m) for m in range(120)]
        assert max(rates) / min(rates) > 1.2

    def test_flows_target_customer(self, model):
        world, benign = model
        customer = world.customers[1]
        for flow in benign.flows_at(customer, 5):
            assert flow.dst_addr == customer.address
            assert flow.timestamp == 5

    def test_burst_multiplies_rate(self):
        world = IspWorld(WorldConfig(n_customers=1, seed=2))
        cfg = BenignConfig(minutes_per_day=120, burst_probability=1.0, burst_multiplier=50.0, noise_sigma=0.0)
        benign = BenignTrafficModel(world.benign_clients, world.country_of, cfg, rng=np.random.default_rng(1))
        burst = benign.rate_at(world.customers[0], 0)
        cfg2 = BenignConfig(minutes_per_day=120, burst_probability=0.0, noise_sigma=0.0)
        calm_model = BenignTrafficModel(world.benign_clients, world.country_of, cfg2, rng=np.random.default_rng(1))
        calm = calm_model.rate_at(world.customers[0], 0)
        assert burst == pytest.approx(50.0 * calm)

    def test_empty_client_pool_rejected(self):
        with pytest.raises(ValueError):
            BenignTrafficModel(np.empty(0, dtype=np.int64), {})


class TestAttackTypes:
    def test_mix_sums_to_one(self):
        assert sum(ATTACK_TYPE_MIX.values()) == pytest.approx(1.0)

    def test_transitions_rows_normalizable(self):
        for row in TYPE_TRANSITIONS.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=0.05)

    def test_same_type_transition_dominates(self):
        for attack_type, row in TYPE_TRANSITIONS.items():
            assert row[attack_type] > 0.9

    def test_signature_matches_own_flows(self, rng):
        for attack_type in AttackType:
            sig = signature_for(attack_type, dst_addr=999)
            flows = generate_attack_flows(
                attack_type, minute=0, dst_addr=999,
                sources=np.arange(10), total_bytes=1e6, rng=rng,
            )
            assert flows, attack_type
            assert sig.match_mask(flows).all()

    def test_match_mask_agrees_with_matches(self, rng):
        flows = FlowBatch.concat(
            [
                generate_attack_flows(t, 0, dst, np.arange(6), 1e5, rng)
                for t in AttackType
                for dst in (999, 1000)
            ]
        )
        for attack_type in AttackType:
            sig = signature_for(attack_type, dst_addr=999)
            assert sig.match_mask(flows).tolist() == [reference_matches(sig, f) for f in flows]

    def test_signature_rejects_other_destination(self, rng):
        sig = signature_for(AttackType.UDP_FLOOD, dst_addr=999)
        flows = generate_attack_flows(
            AttackType.UDP_FLOOD, 0, dst_addr=1000,
            sources=np.arange(5), total_bytes=1e5, rng=rng,
        )
        assert not sig.match_mask(flows).any()

    def test_flow_volume_approximates_request(self, rng):
        flows = generate_attack_flows(
            AttackType.UDP_FLOOD, 0, 999, np.arange(50), 1e7, rng,
        )
        total = sum(f.bytes_ for f in flows)
        assert total == pytest.approx(1e7, rel=0.2)

    def test_empty_sources_yield_nothing(self, rng):
        flows = generate_attack_flows(AttackType.TCP_SYN, 0, 1, np.array([]), 1e6, rng)
        assert isinstance(flows, FlowBatch) and len(flows) == 0


class TestCampaigns:
    def make_campaigns(self, **cfg_overrides):
        world = IspWorld(WorldConfig(n_customers=6, n_botnets=2, botnet_size=50, seed=5))
        cfg = CampaignConfig(prep_days=1, minutes_per_day=100, **cfg_overrides)
        rng = np.random.default_rng(5)
        return schedule_campaigns(world.botnets, world.customers, 2000, cfg, rng)

    def test_attacks_within_horizon(self):
        for campaign in self.make_campaigns():
            for attack in campaign.attacks:
                assert 0 <= attack.onset < attack.end <= 2000

    def test_prep_precedes_each_attack(self):
        for campaign in self.make_campaigns():
            real_preps = [p for p in campaign.preps if not p.aborted]
            assert len(real_preps) == len(campaign.attacks)
            for prep, attack in zip(real_preps, campaign.attacks):
                assert prep.end == attack.onset
                assert prep.start < prep.end

    def test_targets_within_group(self):
        for campaign in self.make_campaigns():
            group = {t.customer_id for t in campaign.targets}
            for attack in campaign.attacks:
                assert attack.customer_id in group

    def test_ramp_rate_range_respected(self):
        for campaign in self.make_campaigns(ramp_rate_range=(1.5, 1.5)):
            for attack in campaign.attacks:
                assert attack.ramp_rate == 1.5

    def test_rate_at_outside_window_zero(self):
        campaigns = self.make_campaigns()
        attack = next(a for c in campaigns for a in c.attacks)
        assert attack.rate_at(attack.onset - 1) == 0.0
        assert attack.rate_at(attack.end) == 0.0

    def test_rate_ramps_to_peak(self):
        campaigns = self.make_campaigns(ramp_rate_range=(1.0, 1.0))
        attack = max(
            (a for c in campaigns for a in c.attacks), key=lambda a: a.duration
        )
        rates = [attack.rate_at(m) for m in range(attack.onset, attack.end)]
        assert rates[0] == pytest.approx(attack.peak_bytes / 16.0)
        if attack.duration > attack.ramp_minutes:
            assert max(rates) == pytest.approx(attack.peak_bytes)
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


class TestTraceGeneration:
    @pytest.fixture(scope="class")
    def small_trace(self):
        cfg = ScenarioConfig(
            total_days=8, minutes_per_day=100, prep_days=1.5,
            n_customers=5, n_botnets=2, botnet_size=60, seed=9,
        )
        return TraceGenerator(cfg).materialize()

    def test_events_have_anomalous_traffic(self, small_trace):
        assert small_trace.events
        for event in small_trace.events:
            assert event.anomalous_bytes.shape[0] == event.duration
            assert event.anomalous_bytes.sum() > 0

    def test_attackers_recorded(self, small_trace):
        for event in small_trace.events:
            assert len(event.attackers) > 0

    def test_anomalous_subset_of_customer_series(self, small_trace):
        event = small_trace.events[0]
        series = small_trace.matrix.bytes_series(
            event.customer_id, event.onset, event.end
        )
        assert (event.anomalous_bytes <= series + 1e-6).all()

    def test_blocklist_class_populated(self, small_trace):
        from repro.netflow import SOURCE_CLASS_BLOCKLIST
        total = sum(
            small_trace.matrix.bytes_series(
                c.customer_id, 0, small_trace.horizon, SOURCE_CLASS_BLOCKLIST
            ).sum()
            for c in small_trace.world.customers
        )
        assert total > 0

    def test_prev_attacker_class_populated_after_first_attack(self, small_trace):
        from repro.netflow import SOURCE_CLASS_PREV_ATTACKER
        events = sorted(small_trace.events, key=lambda e: e.onset)
        repeat_customers = {
            e.customer_id for i, e in enumerate(events)
            if any(e2.customer_id == e.customer_id for e2 in events[:i])
        }
        if not repeat_customers:
            pytest.skip("no repeat-attack customer in this seed")
        total = sum(
            small_trace.matrix.bytes_series(
                cid, 0, small_trace.horizon, SOURCE_CLASS_PREV_ATTACKER
            ).sum()
            for cid in repeat_customers
        )
        assert total > 0

    def test_events_sorted_ids_match_index(self, small_trace):
        for i, event in enumerate(small_trace.events):
            assert event.event_id == i

    def test_rampup_volume_scale_reduces_ramp_traffic(self):
        base_cfg = ScenarioConfig(
            total_days=8, minutes_per_day=100, prep_days=1.5,
            n_customers=5, n_botnets=2, botnet_size=60, seed=9,
        )
        import dataclasses
        scaled_cfg = dataclasses.replace(base_cfg, rampup_volume_scale=0.2)
        base = TraceGenerator(base_cfg).materialize()
        scaled = TraceGenerator(scaled_cfg).materialize()
        # Same campaign schedule (same seed), smaller ramp traffic.
        assert len(base.events) == len(scaled.events)
        base_total = sum(e.anomalous_bytes.sum() for e in base.events)
        scaled_total = sum(e.anomalous_bytes.sum() for e in scaled.events)
        assert scaled_total < base_total

    def test_duration_classes(self, small_trace):
        for event in small_trace.events:
            cls = event.duration_class()
            if event.duration < 5:
                assert cls == "short"
            elif event.duration < 20:
                assert cls == "medium"
            else:
                assert cls == "long"

    def test_horizon_and_flow_counters(self, small_trace):
        assert small_trace.horizon == 800
        assert small_trace.total_flows >= small_trace.sampled_flows > 0
