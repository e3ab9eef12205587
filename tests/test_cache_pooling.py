"""Tests for the pooling ablation knob."""

import numpy as np
import pytest

from repro.core import XatuModel, XatuModelConfig, TimescaleSpec


class TestPoolingKnob:
    def make_config(self, pooling):
        return XatuModelConfig(
            n_features=6, hidden_size=4, dense_size=4, detect_window=5,
            timescales=(
                TimescaleSpec("short", 1, 20),
                TimescaleSpec("long", 5, 8),
            ),
            pooling=pooling,
        )

    def test_invalid_pooling_rejected(self):
        with pytest.raises(ValueError, match="pooling"):
            XatuModel(self.make_config("median"))

    def test_avg_and_max_differ(self, rng):
        x = rng.normal(size=(2, 40, 6))
        avg_model = XatuModel(self.make_config("avg"))
        max_model = XatuModel(self.make_config("max"))
        # Same weights, different pooling.
        max_model.load_state_dict(avg_model.state_dict())
        a = avg_model.hazards_np(x)
        b = max_model.hazards_np(x)
        assert not np.allclose(a, b)

    def test_max_pooling_trains(self, rng):
        from repro.core import TrainConfig, XatuTrainer
        from tests.test_core_model import TestTrainer

        cfg = self.make_config("max")
        model = XatuModel(cfg)
        data = TestTrainer().make_toy_set(rng, cfg)
        result = XatuTrainer(model, TrainConfig(epochs=4, learning_rate=5e-3)).fit(data)
        assert result.train_losses[-1] < result.train_losses[0]
