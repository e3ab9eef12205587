"""Tests for bootstrap CIs and scenario config files."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import BootstrapCI, bootstrap_ci, bootstrap_median_ci
from repro.synth import (
    ScenarioConfig,
    load_scenario_file,
    save_scenario_file,
    scenario_from_json,
    scenario_to_json,
)


class TestBootstrap:
    def test_ci_contains_true_median_for_tight_sample(self, rng):
        values = rng.normal(loc=5.0, scale=0.01, size=200)
        ci = bootstrap_median_ci(values, seed=1)
        assert ci.contains(5.0)
        assert ci.width < 0.01

    def test_wider_ci_for_smaller_samples(self, rng):
        big = bootstrap_median_ci(rng.normal(size=400), seed=2)
        small = bootstrap_median_ci(rng.normal(size=8), seed=2)
        assert small.width > big.width

    def test_estimate_is_plain_statistic(self, rng):
        values = rng.uniform(size=50)
        ci = bootstrap_ci(values, lambda v: float(v.mean()), seed=3)
        assert ci.estimate == pytest.approx(values.mean())

    def test_deterministic_given_seed(self, rng):
        values = rng.normal(size=30)
        a = bootstrap_median_ci(values, seed=7)
        b = bootstrap_median_ci(values, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([])

    def test_bad_confidence_rejected(self, rng):
        with pytest.raises(ValueError):
            bootstrap_median_ci(rng.normal(size=5), confidence=1.0)

    def test_bad_resamples_rejected(self, rng):
        with pytest.raises(ValueError):
            bootstrap_median_ci(rng.normal(size=5), n_resamples=0)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 200))
    def test_ci_brackets_estimate(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.exponential(size=40)
        ci = bootstrap_median_ci(values, seed=seed)
        assert ci.low <= ci.estimate <= ci.high


class TestScenarioConfigIo:
    def test_roundtrip_defaults(self):
        config = ScenarioConfig()
        assert scenario_from_json(scenario_to_json(config)) == config

    def test_roundtrip_with_tuples_and_knobs(self):
        config = ScenarioConfig(
            total_days=5, prep_days=1, sampling_rates=(1, 100), ramp_rate=1.5,
            fresh_sources=True,
        )
        restored = scenario_from_json(scenario_to_json(config))
        assert restored == config
        assert isinstance(restored.sampling_rates, tuple)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            scenario_from_json('{"bogus_field": 1}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            scenario_from_json("[1, 2]")

    def test_file_roundtrip(self, tmp_path):
        config = ScenarioConfig(total_days=3, prep_days=0.5, n_customers=4)
        path = save_scenario_file(config, tmp_path / "scenario.json")
        assert load_scenario_file(path) == config

    def test_cli_accepts_config_file(self, tmp_path, capsys):
        from repro.cli import main

        config = ScenarioConfig(
            total_days=8, minutes_per_day=100, prep_days=1.5,
            n_customers=5, n_botnets=2, botnet_size=60, seed=9,
        )
        path = save_scenario_file(config, tmp_path / "s.json")
        rc = main(["census", "--config", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "800 minutes" in out  # 8 days x 100 min


class TestMatrixClassDominance:
    """Property: every auxiliary class's byte columns are dominated by 'all'."""

    @settings(max_examples=10)
    @given(start=st.integers(0, 1800))
    def test_class_blocks_dominated_by_all(self, start, trace):
        from repro.netflow import (
            SOURCE_CLASS_ALL,
            SOURCE_CLASS_BLOCKLIST,
            SOURCE_CLASS_PREV_ATTACKER,
            SOURCE_CLASS_SPOOFED,
        )

        end = min(trace.horizon, start + 40)
        if end <= start:
            return
        cid = trace.world.customers[start % len(trace.world.customers)].customer_id
        all_block = trace.matrix.feature_block(cid, start, end, SOURCE_CLASS_ALL)
        # Columns 5.. are additive byte/packet counters; unique/mean/max
        # (cols 0-4) are not additive across classes.
        for cls in (
            SOURCE_CLASS_BLOCKLIST, SOURCE_CLASS_PREV_ATTACKER, SOURCE_CLASS_SPOOFED,
        ):
            sub = trace.matrix.feature_block(cid, start, end, cls)
            assert (sub[:, 5:] <= all_block[:, 5:] + 1e-6).all()
