"""Figures 8, 9 and 10: the headline comparison of CDet, RF and Xatu.

One :class:`HeadlineExperiment` generates a trace, trains Xatu and the RF
baseline once, then sweeps the scrubbing-overhead bound, re-calibrating the
alert thresholds per bound (this is how Figure 8 varies its x axis).
Per-attack-type breakdowns (Figure 10) and the ROC comparison (Figure 9)
reuse the same trained artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.dataset import DatasetBuilder
from ..core.detector import DetectorConfig, XatuDetector, divert, windows_from_hazards
from ..core.model import XatuModel
from ..core.pipeline import PipelineConfig, alerts_to_records
from ..core.trainer import XatuTrainer
from ..detect.detectors import DetectionAlert, FastNetMonDetector, NetScoutDetector, TraceDetector
from ..metrics.core import auc, roc_curve
from ..scrub.center import DiversionWindow, ScrubbingCenter
from ..scrub.summary import summarize_report
from ..signals.features import FeatureExtractor
from ..survival.calibration import ThresholdCalibrator
from ..synth.attacks import AttackType
from ..synth.scenario import Trace, TraceGenerator
from .rf_baseline import RFBaseline, rf_features_from_window

__all__ = ["SystemMetrics", "HeadlineExperiment", "RocPoint"]


@dataclass(frozen=True, slots=True)
class SystemMetrics:
    """One system's metrics at one overhead bound (one Figure 8 bar)."""

    system: str
    overhead_bound: float
    effectiveness_p10: float
    effectiveness_median: float
    effectiveness_p90: float
    delay_p10: float
    delay_median: float
    delay_p90: float
    overhead_p25: float
    overhead_median: float
    overhead_p75: float
    n_events: int


@dataclass(frozen=True, slots=True)
class RocPoint:
    system: str
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


class HeadlineExperiment:
    """Trains once, evaluates CDet / FNM / RF / Xatu across bounds."""

    def __init__(self, config: PipelineConfig, trace: Trace | None = None) -> None:
        self.config = config
        self.trace = trace or TraceGenerator(config.scenario).materialize()
        self._prepared = False

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Generate labels, train Xatu and RF, precompute test scores."""
        if self._prepared:
            return
        cfg = self.config
        trace = self.trace
        (self.train_rng, self.val_rng, self.test_rng) = cfg.split.bounds(trace.horizon)

        self.netscout = NetScoutDetector()
        self.fastnetmon = FastNetMonDetector()
        self.ns_alerts = self.netscout.detect(trace)
        self.fnm_alerts = self.fastnetmon.detect(trace)
        self.entropy_alerts = None  # computed lazily (extension baseline)
        labeled = [a for a in self.ns_alerts if a.event_id >= 0]
        self.labeled = labeled

        extractor = FeatureExtractor(
            trace,
            alerts=alerts_to_records(trace, labeled),
            enabled_groups=cfg.enabled_groups,
        )
        self.extractor = extractor
        builder = DatasetBuilder(trace, extractor, cfg.model, rng=np.random.default_rng(cfg.seed))
        self.train_set = builder.build(labeled, self.train_rng)
        self.val_set = builder.build(labeled, self.val_rng, scaler=self.train_set.scaler)

        self.model = XatuModel(cfg.model)
        XatuTrainer(self.model, cfg.train).fit(self.train_set, validation=self.val_set)
        self.rf = RFBaseline.train(self.train_set, cfg.model, seed=cfg.seed)

        # Hazard series on validation and test (threshold-independent).
        self._val_output = XatuDetector(
            trace, extractor, self.model, self.train_set.scaler,
            DetectorConfig(autoregressive=False),
        ).run(self.val_rng)
        self._test_output = XatuDetector(
            trace, extractor, self.model, self.train_set.scaler
        ).run(self.test_rng)

        # RF per-minute scores on validation and test.
        customers = [c.customer_id for c in trace.world.customers]
        self._rf_val = {
            cid: self.rf.score_series(
                trace, extractor, self.train_set.scaler, cid, self.val_rng, stride=3
            )
            for cid in customers
        }
        self._rf_test = {
            cid: self.rf.score_series(
                trace, extractor, self.train_set.scaler, cid, self.test_rng, stride=3
            )
            for cid in customers
        }
        stab = int((self.test_rng[1] - self.test_rng[0]) * self.config.stabilization_fraction)
        self.eval_range = (self.test_rng[0] + stab, self.test_rng[1])
        self._center = ScrubbingCenter(trace)
        self._prepared = True

    # ------------------------------------------------------------------
    def _xatu_windows(
        self, output, minute_range: tuple[int, int], threshold: float
    ) -> list[DiversionWindow]:
        return windows_from_hazards(
            self.trace,
            output.hazard_series,
            minute_range,
            self.model.config.detect_window,
            threshold,
        )

    def _rf_windows(
        self, scores: dict[int, np.ndarray], minute_range: tuple[int, int], threshold: float
    ) -> list[DiversionWindow]:
        """The RF alarm (``score >= threshold``) through the one diversion rule."""
        lo = minute_range[0]
        return [
            window
            for cid, series in scores.items()
            for window, _ in divert(
                self.trace, cid, lambda minute, s=series: s[minute - lo] >= threshold,
                minute_range, self.model.config.detect_window,
            )
        ]

    def _metrics(
        self,
        system: str,
        windows: list[DiversionWindow],
        bound: float,
        minute_range: tuple[int, int],
        types: set[AttackType] | None = None,
    ) -> SystemMetrics:
        summary = summarize_report(
            self.trace, self._center.account(windows), minute_range,
            self.config.model.detect_window, types,
        )
        return SystemMetrics(
            system, bound,
            *summary.effectiveness.as_tuple(),
            *summary.delay.as_tuple(),
            *summary.overhead.as_tuple(),
            summary.n_events,
        )

    def _calibrate_xatu(self, bound: float) -> float:
        def evaluate(threshold: float) -> tuple[float, np.ndarray]:
            windows = self._xatu_windows(self._val_output, self.val_rng, threshold)
            return self._center.account(windows).operating_point(self.val_rng)

        return ThresholdCalibrator().calibrate(evaluate, bound).threshold

    def _calibrate_rf(self, bound: float) -> float:
        # RF scores are probabilities with "alert when >= thr": invert grid.
        grid = np.linspace(0.05, 0.95, 19)
        best_thr, best_eff = 0.95, -1.0
        for thr in grid[::-1]:
            windows = self._rf_windows(self._rf_val, self.val_rng, float(thr))
            eff, overheads = self._center.account(windows).operating_point(self.val_rng)
            p75 = float(np.percentile(overheads, 75)) if len(overheads) else 0.0
            if p75 <= bound and eff > best_eff:
                best_eff, best_thr = eff, float(thr)
        return best_thr

    # ------------------------------------------------------------------
    def cdet_windows(self, alerts: list[DetectionAlert]) -> list[DiversionWindow]:
        return [
            DiversionWindow(a.customer_id, a.detect_minute, a.end_minute)
            for a in alerts
        ]

    def sweep(
        self,
        overhead_bounds: list[float],
        types: set[AttackType] | None = None,
        include_entropy: bool = False,
    ) -> list[SystemMetrics]:
        """Figure 8 (types=None) / Figure 10 (one bound, per type).

        ``include_entropy`` adds the statistical entropy-deviation baseline
        (an extension beyond the paper's three comparison systems).
        """
        self.prepare()
        rows: list[SystemMetrics] = []
        ns_windows = self.cdet_windows(self.ns_alerts)
        fnm_windows = self.cdet_windows(self.fnm_alerts)
        if include_entropy and self.entropy_alerts is None:
            from ..detect.entropy import EntropyDetector

            self.entropy_alerts = EntropyDetector().detect(self.trace)
        for bound in overhead_bounds:
            rows.append(self._metrics("netscout", ns_windows, bound, self.eval_range, types))
            rows.append(self._metrics("fastnetmon", fnm_windows, bound, self.eval_range, types))
            if include_entropy:
                rows.append(self._metrics(
                    "entropy", self.cdet_windows(self.entropy_alerts),
                    bound, self.eval_range, types,
                ))
            rf_thr = self._calibrate_rf(bound)
            rf_windows = self._rf_windows(self._rf_test, self.test_rng, rf_thr)
            rows.append(self._metrics("rf", rf_windows, bound, self.eval_range, types))
            xatu_thr = self._calibrate_xatu(bound)
            xatu_windows = self._xatu_windows(self._test_output, self.test_rng, xatu_thr)
            rows.append(self._metrics("xatu", xatu_windows, bound, self.eval_range, types))
        return rows

    def per_type(
        self, overhead_bound: float = 0.1, min_events: int = 2
    ) -> dict[str, list[SystemMetrics]]:
        """Figure 10: per-attack-type metrics at one bound."""
        self.prepare()
        lo, hi = self.eval_range
        out: dict[str, list[SystemMetrics]] = {}
        for attack_type in AttackType:
            n = sum(
                1 for e in self.trace.events
                if lo <= e.onset < hi and e.attack_type is attack_type
            )
            if n < min_events:
                continue
            out[attack_type.value] = self.sweep([overhead_bound], types={attack_type})
        return out

    # ------------------------------------------------------------------
    def roc(self) -> list[RocPoint]:
        """Figure 9: per-sample ROC of Xatu vs RF on held-out windows.

        Samples are the balanced validation windows (attack = NetScout-
        labeled, as the paper treats NetScout as ground truth for ROC).
        Xatu's score is the event probability 1 - S at the label step; the
        RF's is its classifier probability.
        """
        self.prepare()
        x, c, _t = self.val_set.arrays()
        labels = c.astype(bool)
        xatu_scores = 1.0 - self.model.survival_np(x)[:, -1]
        rf_rows = np.stack(
            [rf_features_from_window(s.features, self.config.model) for s in self.val_set.samples]
        )
        rf_scores = self.rf.forest.predict_proba(rf_rows)
        points = []
        for name, scores in (("xatu", xatu_scores), ("rf", rf_scores)):
            fpr, tpr, _thr = roc_curve(scores, labels)
            points.append(RocPoint(name, fpr, tpr, auc(fpr, tpr)))
        return points
