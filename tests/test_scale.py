"""Tests for the scenario compression / model scaling helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import PAPER_SCENARIO, compress_scenario, scale_model_for
from repro.synth import ScenarioConfig


class TestCompressScenario:
    def test_identity_at_factor_one(self):
        out = compress_scenario(PAPER_SCENARIO, time_factor=1.0)
        assert out == PAPER_SCENARIO

    def test_prep_ratio_preserved(self):
        out = compress_scenario(PAPER_SCENARIO, time_factor=12.0)
        assert out.prep_days == PAPER_SCENARIO.prep_days
        assert out.total_days == PAPER_SCENARIO.total_days
        # Ratio of prep window to full horizon is unchanged.
        paper_ratio = PAPER_SCENARIO.prep_minutes / PAPER_SCENARIO.horizon_minutes
        replica_ratio = out.prep_minutes / out.horizon_minutes
        assert replica_ratio == pytest.approx(paper_ratio)

    def test_size_factor_scales_populations(self):
        out = compress_scenario(PAPER_SCENARIO, time_factor=1.0, size_factor=50.0)
        assert out.n_customers == 20
        assert out.botnet_size == 40

    def test_minutes_floor_respected(self):
        out = compress_scenario(PAPER_SCENARIO, time_factor=10_000.0)
        assert out.minutes_per_day >= 30

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            compress_scenario(PAPER_SCENARIO, time_factor=0.5)

    @settings(max_examples=20)
    @given(factor=st.floats(1.0, 100.0))
    def test_horizon_shrinks_monotonically(self, factor):
        out = compress_scenario(PAPER_SCENARIO, time_factor=factor)
        assert out.horizon_minutes <= PAPER_SCENARIO.horizon_minutes


class TestScaleModelFor:
    def test_valid_config_for_bench_scenario(self):
        scenario = ScenarioConfig(
            total_days=16, minutes_per_day=120, prep_days=2,
        )
        config = scale_model_for(scenario)
        config.validate()
        assert config.lookback_minutes <= max(scenario.prep_minutes, 30) + 1

    def test_long_scale_spans_lookback(self):
        scenario = ScenarioConfig(total_days=16, minutes_per_day=120, prep_days=2)
        config = scale_model_for(scenario)
        assert config.timescales[-1].minutes >= scenario.prep_minutes * 0.5

    def test_first_scale_is_minutewise(self):
        config = scale_model_for(ScenarioConfig(minutes_per_day=120, prep_days=2))
        assert config.timescales[0].window == 1
        assert config.timescales[0].span >= config.detect_window

    def test_single_scale_variant(self):
        config = scale_model_for(
            ScenarioConfig(minutes_per_day=120, prep_days=2), n_scales=1
        )
        assert len(config.timescales) == 1
        config.validate()

    def test_paper_scale_config_valid(self):
        config = scale_model_for(PAPER_SCENARIO, hidden_size=200, detect_window=30)
        config.validate()
        assert config.detect_window == 30
        assert config.hidden_size == 200

    def test_zero_scales_rejected(self):
        with pytest.raises(ValueError):
            scale_model_for(PAPER_SCENARIO, n_scales=0)

    def test_model_trains_on_scaled_config(self, rng):
        """End-to-end: a scaled config produces a working model."""
        from repro.core import XatuModel

        scenario = ScenarioConfig(total_days=8, minutes_per_day=60, prep_days=1)
        config = scale_model_for(scenario, hidden_size=4, dense_size=4)
        model = XatuModel(config)
        x = rng.normal(size=(2, config.lookback_minutes, config.n_features))
        hazards = model.hazards_np(x)
        assert hazards.shape == (2, config.detect_window)
