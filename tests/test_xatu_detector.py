"""Direct unit tests for XatuDetector's online sliding evaluation and the
diversion rule it shares with the threshold sweeps and the RF baseline
(match_event / divert / windows_from_hazards)."""

import numpy as np
import pytest

from repro.core import DetectorConfig, XatuDetector, XatuModel
from repro.core.detector import DetectionOutput, divert, match_event, windows_from_hazards
from repro.signals import FeatureExtractor, FeatureScaler
from tests.conftest import small_model_config


def identity_scaler():
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(273)
    scaler.std_ = np.ones(273)
    return scaler


def make_model(bias: float):
    model = XatuModel(small_model_config())
    model.combine.bias.data[...] = bias
    return model


@pytest.fixture(scope="module")
def cold_run(trace):
    """A run with the cold model: survival ~1, no alerts expected."""
    detector = XatuDetector(
        trace, FeatureExtractor(trace), make_model(-6.0), identity_scaler(),
        DetectorConfig(threshold=0.3),
    )
    lo = trace.horizon - 240
    return trace, detector, detector.run((lo, trace.horizon)), lo


class TestColdDetector:
    def test_no_alerts_when_survival_high(self, cold_run):
        _trace, _det, output, _lo = cold_run
        assert output.alerts == []
        assert output.windows == []

    def test_hazard_series_cover_range(self, cold_run):
        trace, _det, output, lo = cold_run
        for cid, series in output.hazard_series.items():
            assert len(series) == trace.horizon - lo
            assert (series >= 0).all()

    def test_all_customers_scored(self, cold_run):
        trace, _det, output, _lo = cold_run
        assert set(output.hazard_series) == {
            c.customer_id for c in trace.world.customers
        }


class TestHotDetector:
    @pytest.fixture(scope="class")
    def hot_run(self, trace):
        detector = XatuDetector(
            trace, FeatureExtractor(trace), make_model(2.0), identity_scaler(),
            DetectorConfig(threshold=0.3, max_fp_diversion=5, autoregressive=False),
        )
        lo = trace.horizon - 120
        return trace, detector, detector.run((lo, trace.horizon)), lo

    def test_alerts_fire(self, hot_run):
        _trace, _det, output, _lo = hot_run
        assert output.alerts

    def test_alert_survival_below_threshold(self, hot_run):
        _trace, _det, output, _lo = hot_run
        for alert in output.alerts:
            assert alert.survival < 0.3

    def test_no_alert_during_active_diversion(self, hot_run):
        _trace, _det, output, _lo = hot_run
        by_customer: dict[int, list] = {}
        for window in output.windows:
            by_customer.setdefault(window.customer_id, []).append(window)
        for windows in by_customer.values():
            windows.sort(key=lambda w: w.start)
            for a, b in zip(windows, windows[1:]):
                assert b.start >= a.end

    def test_unmatched_diversions_capped(self, hot_run):
        trace, _det, output, _lo = hot_run
        for window, alert in zip(output.windows, output.alerts):
            if alert.event_id < 0:
                assert window.end - window.start <= 5

    def test_block_loop_matches_stored_hazard_rule(self, hot_run):
        """Re-applying the rule to the run's hazards reproduces its windows."""
        trace, _det, output, lo = hot_run
        swept = windows_from_hazards(
            trace, output.hazard_series, (lo, trace.horizon), 10, 0.3, max_fp_diversion=5
        )
        assert len(swept) == len(output.windows)
        assert set(swept) == set(output.windows)

    def test_windows_align_with_alerts(self, hot_run):
        _trace, _det, output, _lo = hot_run
        assert len(output.windows) == len(output.alerts)
        for window, alert in zip(output.windows, output.alerts):
            assert window.start == alert.minute
            assert window.customer_id == alert.customer_id


class TestAutoregressiveFeedback:
    def test_alerts_feed_history_store(self, trace):
        extractor = FeatureExtractor(trace)
        detector = XatuDetector(
            trace, extractor, make_model(2.0), identity_scaler(),
            DetectorConfig(threshold=0.3, autoregressive=True),
        )
        lo = trace.horizon - 120
        output = detector.run((lo, trace.horizon))
        matched = [a for a in output.alerts if a.event_id >= 0]
        if not matched:
            pytest.skip("no matched alerts in this slice")
        # The history store saw at least the matched alerts.
        total_after = sum(
            extractor.history.alerts_before(c.customer_id, trace.horizon)
            for c in trace.world.customers
        )
        assert total_after >= len({a.event_id for a in matched})

    def test_non_autoregressive_leaves_stores_untouched(self, trace):
        extractor = FeatureExtractor(trace)
        detector = XatuDetector(
            trace, extractor, make_model(2.0), identity_scaler(),
            DetectorConfig(threshold=0.3, autoregressive=False),
        )
        lo = trace.horizon - 120
        detector.run((lo, trace.horizon))
        total = sum(
            extractor.history.alerts_before(c.customer_id, trace.horizon)
            for c in trace.world.customers
        )
        assert total == 0


class TestMatchEvent:
    def test_matches_within_event(self, trace):
        event = trace.events[0]
        assert match_event(
            trace, event.customer_id, event.onset + 1, window=10
        ) == event.event_id

    def test_matches_early_within_window(self, trace):
        event = trace.events[0]
        assert match_event(
            trace, event.customer_id, event.onset - 5, window=10
        ) == event.event_id

    def test_no_match_too_early(self, trace):
        event = trace.events[0]
        prior = [
            e for e in trace.events
            if e.customer_id == event.customer_id and e.end <= event.onset - 50
        ]
        if prior:
            pytest.skip("an earlier event overlaps the probe minute")
        assert match_event(
            trace, event.customer_id, event.onset - 50, window=10
        ) == -1

    def test_no_match_wrong_customer(self, trace):
        event = trace.events[0]
        other = next(
            c.customer_id for c in trace.world.customers
            if c.customer_id != event.customer_id
        )
        overlapping = [
            e for e in trace.events
            if e.customer_id == other and e.onset - 10 <= event.onset < e.end
        ]
        if overlapping:
            pytest.skip("another event overlaps on the probe customer")
        assert match_event(trace, other, event.onset, window=10) == -1

    def test_most_recent_event_wins(self, trace):
        """Overlap resolution prefers the event with the latest onset."""
        by_customer = {}
        for e in trace.events:
            by_customer.setdefault(e.customer_id, []).append(e)
        for events in by_customer.values():
            events.sort(key=lambda e: e.onset)
            for prev_event, next_event in zip(events, events[1:]):
                if prev_event.end > next_event.onset - 10:
                    got = match_event(
                        trace, next_event.customer_id, next_event.onset, window=10
                    )
                    assert got == next_event.event_id
                    return
        pytest.skip("no overlapping event pair in this seed")


class TestWindowsFromHazards:
    def test_zero_hazards_no_windows(self, trace):
        series = {0: np.zeros(100)}
        windows = windows_from_hazards(trace, series, (0, 100), 10, threshold=0.5)
        assert windows == []

    def test_high_hazards_divert(self, trace):
        series = {0: np.full(100, 2.0)}
        windows = windows_from_hazards(trace, series, (0, 100), 10, threshold=0.5)
        assert windows
        for w in windows:
            assert 0 <= w.start < w.end <= 100

    def test_fp_diversions_capped(self, trace):
        """Where no events exist, each diversion lasts max_fp minutes."""
        quiet_customer = None
        for c in trace.world.customers:
            if not any(e.customer_id == c.customer_id for e in trace.events):
                quiet_customer = c.customer_id
                break
        if quiet_customer is None:
            pytest.skip("every customer is attacked in this seed")
        series = {quiet_customer: np.full(60, 5.0)}
        windows = windows_from_hazards(
            trace, series, (0, 60), 10, threshold=0.5, max_fp_diversion=7
        )
        assert all(w.end - w.start <= 7 for w in windows)

    def test_matched_diversion_runs_to_event_end(self, trace):
        event = trace.events[0]
        lo = max(0, event.onset - 20)
        hi = min(trace.horizon, event.end + 20)
        hazards = np.zeros(hi - lo)
        hazards[event.onset - lo] = 10.0  # spike exactly at onset
        windows = windows_from_hazards(
            trace, {event.customer_id: hazards}, (lo, hi), 10, threshold=0.5
        )
        covering = [w for w in windows if w.start <= event.onset < w.end]
        assert covering
        assert covering[0].end >= min(hi, event.end)
        # The RF alarm (score >= threshold) on the same alarm minutes goes
        # through the same rule to the same windows.
        survival = DetectionOutput(hazard_series={0: hazards}).survival_series(0, 10)
        scores = (survival < 0.5).astype(np.float64)
        rf_windows = [
            w for w, _ in divert(
                trace, event.customer_id, lambda m: scores[m - lo] >= 0.5, (lo, hi), 10
            )
        ]
        assert rf_windows == windows

    def test_matches_detector_rolling_rule(self, trace, rng):
        """The window rule agrees with DetectionOutput.survival_series."""
        hazards = np.abs(rng.normal(size=80)) * 0.3
        output = DetectionOutput(hazard_series={0: hazards})
        survival = output.survival_series(0, 10)
        threshold = 0.4
        windows = windows_from_hazards(
            trace, {0: hazards}, (0, 80), 10, threshold, max_fp_diversion=1
        )
        # With 1-minute FP diversions and no event matches for customer 0
        # in [0, 80): alert minutes == survival-below-threshold minutes.
        has_event = any(
            e.customer_id == 0 and e.onset - 10 <= m < e.end
            for e in trace.events for m in range(80)
        )
        if has_event:
            pytest.skip("customer 0 has early events in this seed")
        alert_minutes = {w.start for w in windows}
        expected = {int(i) for i in np.nonzero(survival < threshold)[0]}
        assert alert_minutes == expected
