"""Online detection: sliding survival windows over the test period.

At each minute the deployed Xatu computes the hazard ``lambda_t`` and the
survival probability over the current detection window; an alert fires when
``S_t`` drops below the calibrated threshold.  Operation is auto-regressive
(§5.3): Xatu's own alerts feed the A2/A4/A5 stores going forward, making
the test phase independent of the incumbent CDet.

For evaluation efficiency the detector runs one forward pass per
``detect_window`` minutes per customer (each pass yields hazards for all
minutes of the window), then applies the rolling-sum survival alarm per
minute — numerically identical to a per-minute evaluation of ``S_t`` over
the trailing window.  :func:`divert` is the one rule that turns alarm
minutes into diversion windows, for the block loop, for threshold
re-sweeps over stored hazards, and for the RF baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..scrub.center import DiversionWindow
from ..signals.features import FeatureExtractor, FeatureScaler
from ..signals.history import AlertRecord
from ..synth.scenario import Trace
from .model import XatuModel

__all__ = [
    "XatuAlert", "DetectorConfig", "XatuDetector", "divert", "match_event",
    "windows_from_hazards",
]


def match_event(trace: Trace, customer_id: int, minute: int, window: int) -> int:
    """Ground-truth event matching an alert minute (-1 = none).

    An alert matches an event if it fires between (onset - window) and the
    event end — early detections shortly before onset count as hits on that
    event (exactly the "detect prior to the attack" behaviour the paper's
    survival formulation rewards).
    """
    best = -1
    best_onset = -1
    for event in trace.events:
        if event.customer_id != customer_id:
            continue
        if event.onset - window <= minute < event.end:
            if event.onset > best_onset:
                best = event.event_id
                best_onset = event.onset
    return best


def divert(
    trace: Trace,
    customer_id: int,
    alarm: Callable[[int], bool],
    minute_range: tuple[int, int],
    detect_window: int,
    max_fp_diversion: int = 10,
    scan: tuple[int, int] | None = None,
) -> list[tuple[DiversionWindow, int]]:
    """The diversion rule: one customer's alarm minutes → CScrub windows.

    Walks ``scan`` (default: all of ``minute_range``) and reads
    ``alarm(minute)`` at every minute not already under diversion.  An
    alarm matched to a ground-truth event (:func:`match_event`) diverts
    until the event's mitigation end, an unmatched one for
    ``max_fp_diversion`` minutes, both clipped to the range end.  Returns
    ``(window, matched event id or -1)`` per alarm; a window may run past
    the scan's stop, which is how a block-wise caller carries an active
    diversion into its next block.  This is the only code that turns
    alarms into diversion windows: Xatu's survival rule
    (:func:`windows_from_hazards`, :meth:`XatuDetector.run`) and the RF
    baseline's score rule both call it.
    """
    hi = minute_range[1]
    minute, stop = scan if scan is not None else minute_range
    diversions: list[tuple[DiversionWindow, int]] = []
    while minute < stop:
        if not alarm(minute):
            minute += 1
            continue
        event_id = match_event(trace, customer_id, minute, detect_window)
        if event_id >= 0:
            end = min(hi, max(trace.events[event_id].end, minute + 1))
        else:
            end = min(hi, minute + max_fp_diversion)
        diversions.append((DiversionWindow(customer_id, minute, end), event_id))
        minute = max(end, minute + 1)
    return diversions


def _survival(csum: np.ndarray, i: int, detect_window: int) -> float:
    """``S_t`` at offset ``i`` of a hazard series, from its prefix sums."""
    return float(np.exp(-(csum[i + 1] - csum[max(0, i + 1 - detect_window)])))


def _prefix_sums(hazards: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(hazards)])


def _survival_alarm(
    csum: np.ndarray, lo: int, detect_window: int, threshold: float
) -> Callable[[int], bool]:
    """Xatu's alarm at a minute: ``S_t < threshold`` (hazards start at ``lo``)."""
    return lambda minute: _survival(csum, minute - lo, detect_window) < threshold


def windows_from_hazards(
    trace: Trace,
    hazard_series: dict[int, np.ndarray],
    minute_range: tuple[int, int],
    detect_window: int,
    threshold: float,
    max_fp_diversion: int = 10,
) -> list[DiversionWindow]:
    """Apply the survival alert rule to stored hazards → diversion windows.

    The alarm is the paper's: the rolling survival over the trailing
    ``detect_window`` minutes drops below ``threshold``; :func:`divert`
    turns alarms into windows.  A threshold re-sweep over one detector
    run's ``hazard_series`` therefore never re-runs the model forwards.
    """
    lo = minute_range[0]
    windows: list[DiversionWindow] = []
    for cid, hazards in hazard_series.items():
        alarm = _survival_alarm(_prefix_sums(hazards), lo, detect_window, threshold)
        windows += [
            window
            for window, _ in divert(
                trace, cid, alarm, minute_range, detect_window, max_fp_diversion
            )
        ]
    return windows


@dataclass(frozen=True, slots=True)
class XatuAlert:
    """One early-detection alert emitted by Xatu."""

    customer_id: int
    minute: int
    survival: float
    event_id: int  # matched ground-truth event, -1 for false positives


@dataclass
class DetectorConfig:
    """Online-operation knobs.

    ``thresholds_by_key`` overrides ``threshold`` per model key when the
    detector serves per-attack-type models (§5.3: each typed model gets its
    own validation-calibrated threshold); keys missing from the mapping
    fall back to ``threshold``.
    """

    threshold: float = 0.5
    max_fp_diversion: int = 10  # minutes a false-positive diversion lasts
    autoregressive: bool = True
    thresholds_by_key: dict[str, float] | None = None


@dataclass
class DetectionOutput:
    """Everything the evaluation needs from one detector run."""

    alerts: list[XatuAlert] = field(default_factory=list)
    windows: list[DiversionWindow] = field(default_factory=list)
    # per (customer, minute): hazard — used for ROC-style sweeps.
    hazard_series: dict[int, np.ndarray] = field(default_factory=dict)

    def survival_series(self, customer_id: int, detect_window: int) -> np.ndarray:
        """Rolling ``S_t`` over the trailing window, from stored hazards."""
        csum = _prefix_sums(self.hazard_series[customer_id])
        rolling = csum[detect_window:] - csum[:-detect_window]
        head = csum[1:detect_window]  # partial windows at the start
        return np.exp(-np.concatenate([head, rolling]))


class XatuDetector:
    """Runs trained models over a minute range of a trace."""

    def __init__(
        self,
        trace: Trace,
        extractor: FeatureExtractor,
        model: XatuModel | dict[str, XatuModel],
        scaler: FeatureScaler | dict[str, FeatureScaler],
        config: DetectorConfig | None = None,
    ) -> None:
        self.trace = trace
        self.extractor = extractor
        self.config = config or DetectorConfig()
        if isinstance(model, dict) != isinstance(scaler, dict):
            raise ValueError("model and scaler must both be single or per-type")
        self._models = model
        self._scalers = scaler

    # ------------------------------------------------------------------
    def serving_key(self, customer_id: int) -> str:
        """The model key serving a customer (its most recent attack type).

        With per-type models the deployed system runs all of them in
        parallel; for evaluation we use the model of the customer's most
        recent attack type, falling back to the pooled ``_default``.
        """
        if not isinstance(self._models, dict):
            return "_single"
        last_type: str | None = None
        for event in self.trace.events:
            if event.customer_id == customer_id:
                last_type = event.attack_type.value
        return last_type if last_type in self._models else "_default"

    def _model_for(self, customer_id: int) -> tuple[XatuModel, FeatureScaler]:
        """Pick the (model, scaler) pair for a customer."""
        if not isinstance(self._models, dict):
            return self._models, self._scalers  # type: ignore[return-value]
        key = self.serving_key(customer_id)
        return self._models[key], self._scalers[key]

    def threshold_for(self, customer_id: int) -> float:
        """The alert threshold applying to a customer's serving model."""
        overrides = self.config.thresholds_by_key
        if overrides:
            key = self.serving_key(customer_id)
            if key in overrides:
                return overrides[key]
        return self.config.threshold

    def _detect_window(self) -> int:
        model = (
            self._models["_default"]
            if isinstance(self._models, dict)
            else self._models
        )
        return model.config.detect_window

    # ------------------------------------------------------------------
    def run(
        self,
        minute_range: tuple[int, int],
        customers: list[int] | None = None,
    ) -> DetectionOutput:
        """Detect over ``[lo, hi)`` for the given customers (default: all).

        Processing is chronological in blocks of ``detect_window`` minutes
        across all customers, so autoregressive alert feedback from one
        customer is visible to others' A5 features within the same run.
        """
        lo, hi = minute_range
        cfg = self.config
        window = self._detect_window()
        if customers is None:
            customers = [c.customer_id for c in self.trace.world.customers]

        hazard_series = {cid: np.zeros(hi - lo) for cid in customers}
        alerts: list[XatuAlert] = []
        windows: list[DiversionWindow] = []
        # Per customer: the first minute not under an active diversion.
        free_from: dict[int, int] = {cid: lo for cid in customers}

        for block_start in range(lo, hi, window):
            block_end = min(block_start + window, hi)
            for cid in customers:
                model, scaler = self._model_for(cid)
                feat_end = block_start + window  # model emits last `window` steps
                feat_start = feat_end - model.config.lookback_minutes
                if feat_start < 0:
                    continue
                raw = self.extractor.window(cid, feat_start, feat_end)
                x = scaler.transform(raw)[None, :, :]
                hazards = model.hazards_np(x)[0]
                n_keep = block_end - block_start
                hazard_series[cid][block_start - lo : block_end - lo] = hazards[:n_keep]

            # Alert pass for this block (after all hazards are in).
            for cid in customers:
                csum = _prefix_sums(hazard_series[cid][: block_end - lo])
                alarm = _survival_alarm(csum, lo, window, self.threshold_for(cid))
                scan = (max(block_start, free_from[cid]), block_end)
                for diversion, event_id in divert(
                    self.trace, cid, alarm, minute_range, window,
                    cfg.max_fp_diversion, scan,
                ):
                    minute, end = diversion.start, diversion.end
                    alerts.append(
                        XatuAlert(cid, minute, _survival(csum, minute - lo, window), event_id)
                    )
                    windows.append(diversion)
                    free_from[cid] = max(end, minute + 1)
                    if cfg.autoregressive and event_id >= 0:
                        event = self.trace.events[event_id]
                        self.extractor.add_alert(
                            AlertRecord(
                                customer_id=cid,
                                attack_type=event.attack_type,
                                detect_minute=minute,
                                end_minute=end,
                                peak_bytes=event.peak_bytes,
                                attackers=frozenset(event.attackers),
                            )
                        )
        return DetectionOutput(alerts=alerts, windows=windows, hazard_series=hazard_series)
