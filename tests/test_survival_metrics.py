"""Unit tests for survival analysis, calibration, and metric primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import auc, percentile_summary, roc_curve
from repro.survival import (
    ThresholdCalibrator,
    detection_time_from_survival,
    hazards_to_survival_np,
    survival_to_event_prob,
)


class TestSurvivalMath:
    def test_survival_matches_formula(self, rng):
        h = np.abs(rng.normal(size=(4, 6)))
        s = hazards_to_survival_np(h)
        assert s == pytest.approx(np.exp(-np.cumsum(h, axis=-1)))

    def test_negative_hazards_rejected(self):
        with pytest.raises(ValueError):
            hazards_to_survival_np(np.array([-0.1, 0.2]))

    def test_event_probs_sum_to_one_minus_final_survival(self, rng):
        h = np.abs(rng.normal(size=8))
        s = hazards_to_survival_np(h)
        p = survival_to_event_prob(s)
        assert p.sum() == pytest.approx(1.0 - s[-1])
        assert (p >= -1e-12).all()

    def test_detection_time_first_crossing(self):
        s = np.array([0.9, 0.8, 0.4, 0.3])
        assert detection_time_from_survival(s, threshold=0.5) == 2

    def test_detection_time_none_when_above(self):
        s = np.array([0.9, 0.8, 0.7])
        assert detection_time_from_survival(s, threshold=0.5) is None

    def test_detection_time_requires_1d(self):
        with pytest.raises(ValueError):
            detection_time_from_survival(np.ones((2, 2)), 0.5)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 500), steps=st.integers(1, 20))
    def test_survival_monotone_property(self, seed, steps):
        rng = np.random.default_rng(seed)
        s = hazards_to_survival_np(np.abs(rng.normal(size=steps)))
        assert (np.diff(s) <= 1e-12).all()
        assert (0 < s).all() and (s <= 1).all()


class TestThresholdCalibrator:
    @staticmethod
    def toy_evaluate(threshold: float) -> tuple[float, np.ndarray]:
        """Higher threshold -> earlier detection -> more eff, more overhead."""
        effectiveness = min(1.0, 0.4 + threshold)
        overheads = np.full(8, threshold * 0.2)
        return effectiveness, overheads

    def test_picks_best_feasible(self):
        result = ThresholdCalibrator().calibrate(self.toy_evaluate, overhead_bound=0.05)
        assert result.feasible
        assert result.overhead_p75 <= 0.05
        # Best feasible threshold is the largest with 0.2*thr <= 0.05.
        assert result.threshold <= 0.25 + 1e-9
        assert result.threshold >= 0.2

    def test_infeasible_returns_min_overhead(self):
        def impossible(threshold):
            return 1.0, np.full(4, 10.0 + threshold)

        result = ThresholdCalibrator().calibrate(impossible, overhead_bound=0.1)
        assert not result.feasible

    def test_custom_grid_respected(self):
        calls = []

        def spy(threshold):
            calls.append(threshold)
            return 1.0, np.zeros(2)

        ThresholdCalibrator(thresholds=[0.1, 0.5, 0.9]).calibrate(spy, 1.0)
        assert calls == [0.1, 0.5, 0.9]

    def test_grid_bounds_validated(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(thresholds=[0.0, 0.5])
        with pytest.raises(ValueError):
            ThresholdCalibrator(thresholds=[0.5, 1.0])

    def test_tie_break_prefers_lower_overhead(self):
        """Among equally-effective thresholds, the cheaper one wins."""

        def evaluate(threshold):
            return 0.8, np.full(3, threshold * 0.1)

        result = ThresholdCalibrator(thresholds=[0.2, 0.5, 0.8]).calibrate(evaluate, 1.0)
        assert result.threshold == 0.2

    def test_monotone_bound_monotone_threshold(self):
        """Property: looser bounds never pick smaller effectiveness."""
        results = [
            ThresholdCalibrator().calibrate(self.toy_evaluate, bound)
            for bound in (0.01, 0.05, 0.2)
        ]
        effs = [r.effectiveness for r in results]
        assert effs == sorted(effs)


class TestPercentileSummary:
    def test_known_values(self):
        summary = percentile_summary(np.arange(101), 10, 90)
        assert summary.low == pytest.approx(10.0)
        assert summary.median == pytest.approx(50.0)
        assert summary.high == pytest.approx(90.0)
        assert summary.n == 101

    def test_empty_sample(self):
        summary = percentile_summary([])
        assert summary.n == 0
        assert summary.as_tuple() == (0.0, 0.0, 0.0)

    def test_quartile_convention(self):
        summary = percentile_summary([1, 2, 3, 4, 5], 25, 75)
        assert summary.low == 2.0
        assert summary.high == 4.0


class TestRoc:
    def test_perfect_classifier(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        fpr, tpr, _ = roc_curve(scores, labels)
        assert auc(fpr, tpr) == pytest.approx(1.0)

    def test_random_classifier_half_auc(self, rng):
        scores = rng.uniform(size=2000)
        labels = rng.integers(0, 2, size=2000)
        fpr, tpr, _ = roc_curve(scores, labels)
        assert auc(fpr, tpr) == pytest.approx(0.5, abs=0.06)

    def test_inverted_classifier_below_half(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([1, 1, 0, 0])
        fpr, tpr, _ = roc_curve(scores, labels)
        assert auc(fpr, tpr) == pytest.approx(0.0)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([0.5, 0.6]), np.array([1, 1]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.zeros(3), np.zeros(4))

    def test_curve_starts_origin_ends_corner(self, rng):
        scores = rng.uniform(size=50)
        labels = rng.integers(0, 2, size=50)
        fpr, tpr, _ = roc_curve(scores, labels)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_tied_scores_collapsed(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0])
        fpr, tpr, _ = roc_curve(scores, labels)
        assert len(fpr) == 2  # origin + one point
