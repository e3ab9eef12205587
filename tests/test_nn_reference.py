"""Cross-checks of the nn substrate against independent reference math.

The LSTM layer is validated against a hand-rolled, loop-only numpy
implementation of the standard LSTM equations, and the survival loss
against direct probability computations — independent re-derivations, not
the library's own code paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, Tensor, hazard_to_survival, safe_survival_loss


def reference_lstm(x, w_x, w_h, bias, hidden_size):
    """Textbook LSTM forward, one scalar op at a time."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    batch, steps, _features = x.shape
    h = np.zeros((batch, hidden_size))
    c = np.zeros((batch, hidden_size))
    outputs = np.zeros((batch, steps, hidden_size))
    for t in range(steps):
        gates = x[:, t, :] @ w_x + h @ w_h + bias
        i = sigmoid(gates[:, 0:hidden_size])
        f = sigmoid(gates[:, hidden_size : 2 * hidden_size])
        g = np.tanh(gates[:, 2 * hidden_size : 3 * hidden_size])
        o = sigmoid(gates[:, 3 * hidden_size : 4 * hidden_size])
        c = f * c + i * g
        h = o * np.tanh(c)
        outputs[:, t, :] = h
    return outputs


class TestLstmAgainstReference:
    @settings(max_examples=10)
    @given(
        batch=st.integers(1, 3),
        steps=st.integers(1, 6),
        features=st.integers(1, 4),
        hidden=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_forward_matches(self, batch, steps, features, hidden, seed):
        rng = np.random.default_rng(seed)
        lstm = LSTM(features, hidden, rng=rng)
        x = rng.normal(size=(batch, steps, features))
        ours, _state = lstm(Tensor(x))
        reference = reference_lstm(
            x, lstm.w_x.numpy(), lstm.w_h.numpy(), lstm.bias.numpy(), hidden
        )
        assert ours.numpy() == pytest.approx(reference, abs=1e-10)

    def test_long_sequence_stable(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        x = rng.normal(size=(1, 500, 3))
        out, _ = lstm(Tensor(x))
        assert np.isfinite(out.numpy()).all()


class TestSurvivalAgainstDirectProbability:
    @settings(max_examples=25)
    @given(steps=st.integers(1, 10), seed=st.integers(0, 1000))
    def test_survival_is_product_of_step_survivals(self, steps, seed):
        """S_t factorizes: exp(-sum h) == prod exp(-h)."""
        rng = np.random.default_rng(seed)
        h = rng.uniform(0, 2, size=(1, steps))
        s = hazard_to_survival(Tensor(h)).numpy()[0]
        direct = np.cumprod(np.exp(-h[0]))
        assert s == pytest.approx(direct)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 1000))
    def test_loss_equals_bernoulli_nll_of_event(self, seed):
        """For one series, the SAFE loss is the NLL of the event indicator
        under probability 1 - S_{t_i}."""
        rng = np.random.default_rng(seed)
        steps = int(rng.integers(2, 8))
        label = int(rng.integers(0, steps))
        is_attack = bool(rng.integers(0, 2))
        h = rng.uniform(0.05, 1.0, size=(1, steps))
        s_label = float(np.exp(-h[0, : label + 1].sum()))
        p_event = 1.0 - s_label
        expected = -np.log(p_event) if is_attack else -np.log(s_label)
        loss = safe_survival_loss(
            Tensor(h), np.array([float(is_attack)]), np.array([label])
        )
        assert loss.item() == pytest.approx(expected)


class TestPipelineGuards:
    def test_quiet_scenario_raises_clear_error(self):
        """A trace whose CDet finds nothing fails fast with guidance."""
        from repro.core import PipelineConfig, TrainConfig, XatuPipeline
        from repro.detect import NetScoutDetector
        from repro.synth import ScenarioConfig
        from tests.conftest import small_model_config

        config = PipelineConfig(
            scenario=ScenarioConfig(
                total_days=4, minutes_per_day=60, prep_days=0.5,
                n_customers=3, n_botnets=1, botnet_size=30, seed=1,
            ),
            model=small_model_config(),
            train=TrainConfig(epochs=1),
        )
        # An absurdly conservative detector produces no labels.
        pipeline = XatuPipeline(config, cdet=NetScoutDetector(sustain=10_000))
        with pytest.raises(RuntimeError, match="no labeled alerts"):
            pipeline.run()
