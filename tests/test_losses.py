"""Unit tests for BCE and the SAFE survival loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Tensor,
    binary_cross_entropy,
    gradcheck,
    hazard_to_survival,
    safe_survival_loss,
)


class TestBCE:
    def test_perfect_predictions_near_zero_loss(self):
        probs = Tensor(np.array([0.999999, 0.000001]))
        loss = binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert loss.item() < 1e-4

    def test_uniform_prediction_is_log2(self):
        probs = Tensor(np.full(10, 0.5))
        loss = binary_cross_entropy(probs, np.zeros(10))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_matches_manual_formula(self, rng):
        p = rng.uniform(0.05, 0.95, size=8)
        y = rng.integers(0, 2, size=8).astype(float)
        manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert binary_cross_entropy(Tensor(p), y).item() == pytest.approx(manual)

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=6), requires_grad=True)
        y = rng.integers(0, 2, size=6).astype(float)
        gradcheck(lambda t: binary_cross_entropy(t.sigmoid(), y), [logits])

    def test_extreme_probs_clipped_finite(self):
        probs = Tensor(np.array([0.0, 1.0]))
        loss = binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())


class TestHazardToSurvival:
    def test_matches_exp_cumsum(self, rng):
        h = np.abs(rng.normal(size=(3, 5)))
        s = hazard_to_survival(Tensor(h)).numpy()
        assert s == pytest.approx(np.exp(-np.cumsum(h, axis=-1)))

    def test_monotone_non_increasing(self, rng):
        h = np.abs(rng.normal(size=(2, 10)))
        s = hazard_to_survival(Tensor(h)).numpy()
        assert (np.diff(s, axis=-1) <= 1e-12).all()

    def test_zero_hazard_survival_one(self):
        s = hazard_to_survival(Tensor(np.zeros((1, 4)))).numpy()
        assert s == pytest.approx(np.ones((1, 4)))


class TestSafeSurvivalLoss:
    def test_matches_closed_form(self):
        """loss = -c*log(1-S) - (1-c)*log(S) with S = exp(-sum lambda)."""
        h = np.array([[0.1, 0.2, 0.3], [0.05, 0.05, 0.05]])
        c = np.array([1.0, 0.0])
        t = np.array([2, 2])
        s = np.exp(-h.sum(axis=1))
        expected = np.mean([-np.log(1 - s[0]), -np.log(s[1])])
        loss = safe_survival_loss(Tensor(h), c, t)
        assert loss.item() == pytest.approx(expected)

    def test_label_time_truncates_hazard_sum(self):
        h = np.array([[1.0, 1.0, 100.0]])  # huge hazard after the label
        loss_at_1 = safe_survival_loss(Tensor(h), np.array([0.0]), np.array([1]))
        assert loss_at_1.item() == pytest.approx(2.0)  # sum of first two

    def test_attack_series_prefers_high_hazard(self):
        low = safe_survival_loss(
            Tensor(np.full((1, 5), 0.01)), np.array([1.0]), np.array([4])
        )
        high = safe_survival_loss(
            Tensor(np.full((1, 5), 2.0)), np.array([1.0]), np.array([4])
        )
        assert high.item() < low.item()

    def test_non_attack_series_prefers_low_hazard(self):
        low = safe_survival_loss(
            Tensor(np.full((1, 5), 0.01)), np.array([0.0]), np.array([4])
        )
        high = safe_survival_loss(
            Tensor(np.full((1, 5), 2.0)), np.array([0.0]), np.array([4])
        )
        assert low.item() < high.item()

    def test_bad_label_time_raises(self):
        h = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="out of range"):
            safe_survival_loss(h, np.array([1.0, 0.0]), np.array([0, 3]))

    def test_mismatched_batch_raises(self):
        h = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="batch"):
            safe_survival_loss(h, np.array([1.0]), np.array([0, 1]))

    def test_gradcheck_through_softplus(self, rng):
        raw = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = np.array([1.0, 0.0, 1.0])
        t = np.array([3, 3, 1])
        gradcheck(lambda r: safe_survival_loss(r.softplus(), c, t), [raw])

    def test_zero_hazard_attack_loss_finite(self):
        """Attack with S=1 exactly hits the epsilon clip, not -inf."""
        loss = safe_survival_loss(
            Tensor(np.zeros((1, 3))), np.array([1.0]), np.array([2])
        )
        assert np.isfinite(loss.item())


@settings(max_examples=30)
@given(
    steps=st.integers(2, 8),
    label=st.integers(0, 7),
    is_attack=st.booleans(),
    seed=st.integers(0, 999),
)
def test_loss_gradient_sign_property(steps, label, is_attack, seed):
    """Gradient pushes hazards up for attacks, down for non-attacks.

    For steps <= label the SAFE loss gradient w.r.t. lambda is negative for
    attack series (increase hazard -> lower loss) and positive for
    non-attack series.
    """
    label = min(label, steps - 1)
    rng = np.random.default_rng(seed)
    h = Tensor(rng.uniform(0.05, 0.5, size=(1, steps)), requires_grad=True)
    loss = safe_survival_loss(h, np.array([float(is_attack)]), np.array([label]))
    loss.backward()
    grads = h.grad[0, : label + 1]
    if is_attack:
        assert (grads < 0).all()
    else:
        assert (grads > 0).all()
    # Steps after the label never receive gradient.
    assert (h.grad[0, label + 1 :] == 0).all()
