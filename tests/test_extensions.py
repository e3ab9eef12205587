"""Tests for the extension features: heterogeneous sampling, §8 evasion
scenarios, and the entropy detector."""

import dataclasses

import numpy as np
import pytest

from repro.detect import EntropyDetector, distribution_entropy
from repro.netflow import N_VOLUMETRIC
from repro.synth import ScenarioConfig, TraceGenerator
from tests.conftest import small_scenario


def mini_scenario(**overrides):
    base = ScenarioConfig(
        total_days=8, minutes_per_day=100, prep_days=1.5,
        n_customers=5, n_botnets=2, botnet_size=60, seed=9,
    )
    return dataclasses.replace(base, **overrides)


class TestHeterogeneousSampling:
    def test_rates_assigned_round_robin(self):
        gen = TraceGenerator(mini_scenario(sampling_rates=(1, 10)))
        rates = gen.sampling_rates_of([c.customer_id for c in gen.world.customers])
        assert rates.tolist() == [1, 10, 1, 10, 1]

    def test_sampled_flow_count_drops_with_rate(self):
        dense = TraceGenerator(mini_scenario()).materialize()
        sparse = TraceGenerator(mini_scenario(sampling_rates=(100,))).materialize()
        assert sparse.sampled_flows < dense.sampled_flows * 0.6

    def test_compensated_volume_roughly_preserved(self):
        """Sampling-compensated byte totals stay in the right ballpark."""
        dense = TraceGenerator(mini_scenario()).materialize()
        sparse = TraceGenerator(mini_scenario(sampling_rates=(10,))).materialize()
        d = sum(dense.matrix.bytes_series(c.customer_id, 0, dense.horizon).sum()
                for c in dense.world.customers)
        s = sum(sparse.matrix.bytes_series(c.customer_id, 0, sparse.horizon).sum()
                for c in sparse.world.customers)
        assert s == pytest.approx(d, rel=0.35)

    def test_single_rate_fallback(self):
        gen = TraceGenerator(mini_scenario(sampling_rate=5))
        rates = gen.sampling_rates_of([c.customer_id for c in gen.world.customers])
        assert rates.tolist() == [5] * len(gen.world.customers)


@pytest.mark.slow
class TestEvasionScenarios:
    def test_fresh_sources_defeat_a2_tagging(self):
        from repro.netflow import SOURCE_CLASS_PREV_ATTACKER

        trace = TraceGenerator(mini_scenario(fresh_sources=True)).materialize()
        assert trace.events
        # No attacker ever repeats, so the A2 class stays (nearly) empty —
        # only benign sources matching old signatures can land in it.
        events = sorted(trace.events, key=lambda e: e.onset)
        seen: dict[int, set] = {}
        for event in events:
            prior = seen.get(event.customer_id, set())
            overlap = len(event.attackers & prior) / max(1, len(event.attackers))
            assert overlap < 0.2
            seen.setdefault(event.customer_id, set()).update(event.attackers)

    def test_fresh_sources_not_blocklisted(self):
        gen = TraceGenerator(mini_scenario(fresh_sources=True))
        trace = gen.materialize()
        listed = gen.blocklisted_addrs
        for event in trace.events:
            frac = sum(1 for a in event.attackers if a in listed) / max(1, len(event.attackers))
            assert frac < 0.2

    def test_skip_preparation_mutes_prep_traffic(self):
        noisy = TraceGenerator(mini_scenario()).materialize()
        quiet = TraceGenerator(mini_scenario(skip_preparation=True)).materialize()
        # Same schedule (same seed); the quiet trace carries fewer flows.
        assert quiet.total_flows < noisy.total_flows

    def test_evasion_trace_still_trains(self):
        """§8: evasion degrades Xatu but nothing crashes end to end."""
        from repro.core import PipelineConfig, TrainConfig, XatuPipeline
        from tests.conftest import small_model_config

        scenario = dataclasses.replace(
            small_scenario(seed=5), fresh_sources=True, skip_preparation=True
        )
        config = PipelineConfig(
            scenario=scenario,
            model=small_model_config(),
            train=TrainConfig(epochs=2, batch_size=8, learning_rate=3e-3),
            overhead_bound=0.5,
        )
        result = XatuPipeline(config).run()
        assert 0.0 <= result.effectiveness.median <= 1.0


class TestEntropyDetector:
    def test_distribution_entropy_bounds(self, rng):
        row = np.zeros(N_VOLUMETRIC)
        assert distribution_entropy(row) == 0.0
        row[5] = 100.0  # all mass on one bucket
        assert distribution_entropy(row) == 0.0
        row[7] = 100.0  # two equal buckets -> 1 bit
        assert distribution_entropy(row) == pytest.approx(1.0)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            distribution_entropy(np.zeros(10))

    def test_entropy_shifts_under_attack(self, trace):
        detector = EntropyDetector()
        event = max(trace.events, key=lambda e: e.anomalous_bytes.sum())
        series = detector.entropy_series(trace, event.customer_id)
        quiet = series[max(0, event.onset - 60):event.onset - 5]
        during = series[event.onset:event.end]
        if len(during) < 2 or len(quiet) < 10:
            pytest.skip("event too short for entropy comparison")
        # A flood concentrates traffic structure: entropy moves away from
        # the quiet profile in one direction or the other.
        assert abs(np.median(during) - np.median(quiet)) > 0.05

    def test_detector_produces_well_formed_alerts(self, trace):
        alerts = EntropyDetector().detect(trace)
        for a in alerts:
            assert 0 <= a.detect_minute < a.end_minute <= trace.horizon

    def test_detector_catches_some_attacks(self, trace):
        alerts = EntropyDetector().detect(trace)
        matched = {a.event_id for a in alerts if a.event_id >= 0}
        assert matched, "entropy deviation should catch at least one flood"
