"""End-to-end pipeline: trace → CDet labels → train → calibrate → detect.

This reproduces the full experimental procedure of §6:

1. generate (or accept) a synthetic trace,
2. run the incumbent CDet (NetScout by default) to obtain the alert stream
   used as labels,
3. split the horizon chronologically 50/20/30 into training / validation /
   testing,
4. build balanced survival datasets and train the multi-timescale LSTM,
5. calibrate the alert threshold on validation under a scrubbing-overhead
   bound (75th percentile of customers ≤ bound),
6. run online detection over the test period (auto-regressive feature
   feedback) and account effectiveness / overhead / delay via CScrub.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..detect.detectors import DetectionAlert, NetScoutDetector, TraceDetector
from ..metrics.core import PercentileSummary
from ..scrub.center import ScrubbingCenter, ScrubbingReport
from ..scrub.summary import summarize_report
from ..signals.features import FeatureExtractor
from ..signals.history import AlertRecord
from ..survival.calibration import CalibrationResult, ThresholdCalibrator
from ..synth.scenario import ScenarioConfig, Trace, TraceGenerator
from .dataset import DatasetBuilder
from .detector import DetectorConfig, DetectionOutput, XatuDetector, windows_from_hazards
from .model import XatuModel, XatuModelConfig
from .trainer import TrainConfig, XatuTrainer

__all__ = ["SplitSpec", "PipelineConfig", "PipelineResult", "XatuPipeline", "alerts_to_records"]


@dataclass(frozen=True, slots=True)
class SplitSpec:
    """Chronological split fractions (paper: 50/20/30 days of 100)."""

    train: float = 0.5
    validation: float = 0.2
    test: float = 0.3

    def __post_init__(self) -> None:
        total = self.train + self.validation + self.test
        if abs(total - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")

    def bounds(self, horizon: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        a = int(horizon * self.train)
        b = int(horizon * (self.train + self.validation))
        return (0, a), (a, b), (b, horizon)


@dataclass
class PipelineConfig:
    """Everything configurable about one pipeline run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    model: XatuModelConfig = field(default_factory=XatuModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    overhead_bound: float = 0.1  # fraction (0.1 = 10%); Fig 8 sweeps this
    enabled_groups: frozenset[str] | None = None  # feature ablation mask
    stabilization_fraction: float = 0.33  # head of test excluded from metrics
    # §5.3: "Xatu trains separate models for each attack type".  With
    # per_type=True, a XatuModelRegistry trains one model per type with at
    # least ``min_events_per_type`` labeled training events plus a pooled
    # fallback; each customer is served by its most recent attack type's
    # model at detection time.
    per_type: bool = False
    min_events_per_type: int = 4
    seed: int = 0


@dataclass
class PipelineResult:
    """Outputs of one full run."""

    trace: Trace
    cdet_alerts: list[DetectionAlert]
    calibration: CalibrationResult
    detection: DetectionOutput
    report: ScrubbingReport
    effectiveness: PercentileSummary
    overhead: PercentileSummary
    delay: PercentileSummary
    test_range: tuple[int, int]
    eval_range: tuple[int, int]
    train_losses: list[float]

    def summary(self) -> dict[str, float]:
        return {
            "effectiveness_median": self.effectiveness.median,
            "overhead_p75": self.overhead.high,
            "delay_median": self.delay.median,
            "threshold": self.calibration.threshold,
        }


def alerts_to_records(
    trace: Trace, alerts: list[DetectionAlert]
) -> list[AlertRecord]:
    """Convert CDet alerts into the records the feature stores consume."""
    records = []
    for alert in alerts:
        attackers: frozenset[int] = frozenset()
        if alert.event_id >= 0:
            attackers = frozenset(trace.events[alert.event_id].attackers)
        records.append(
            AlertRecord(
                customer_id=alert.customer_id,
                attack_type=alert.attack_type,
                detect_minute=alert.detect_minute,
                end_minute=alert.end_minute,
                peak_bytes=alert.peak_bytes,
                attackers=attackers,
            )
        )
    return records


class XatuPipeline:
    """Orchestrates the full §6 procedure."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        trace: Trace | None = None,
        cdet: TraceDetector | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.trace = trace or TraceGenerator(self.config.scenario).materialize()
        self.cdet = cdet or NetScoutDetector()
        self._rng = np.random.default_rng(self.config.seed)
        self._trained_model: XatuModel | None = None
        self._trained_scaler = None
        self._calibrated_threshold: float | None = None

    def save_artifacts(self, directory) -> None:
        """Persist the trained model(s), scaler(s), and threshold(s).

        Per-type runs save the whole registry; single-model runs save one
        ``_default`` entry in the same registry layout, so
        :meth:`XatuModelRegistry.load` restores either.
        """
        from .registry import TypedModelEntry, XatuModelRegistry

        if hasattr(self, "registry"):
            self.registry.save(directory)
            return
        if self._trained_model is None or self._calibrated_threshold is None:
            raise RuntimeError("run() the pipeline before saving artifacts")
        registry = XatuModelRegistry(self.config.model, self.config.train)
        registry.entries["_default"] = TypedModelEntry(
            model=self._trained_model,
            scaler=self._trained_scaler,
            threshold=self._calibrated_threshold,
        )
        registry.save(directory)

    # ------------------------------------------------------------------
    def _build_extractor(self, alerts: list[DetectionAlert]) -> FeatureExtractor:
        return FeatureExtractor(
            self.trace,
            alerts=alerts_to_records(self.trace, alerts),
            enabled_groups=self.config.enabled_groups,
        )

    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute the full pipeline and return every artefact."""
        cfg = self.config
        trace = self.trace
        (train_lo, train_hi), (val_lo, val_hi), (test_lo, test_hi) = cfg.split.bounds(
            trace.horizon
        )

        # 1. Incumbent CDet labels.
        cdet_alerts = self.cdet.detect(trace)
        labeled = [a for a in cdet_alerts if a.event_id >= 0]
        n_train_labels = sum(
            1 for a in labeled if train_lo <= a.detect_minute < train_hi
        )
        if n_train_labels == 0:
            raise RuntimeError(
                "the CDet produced no labeled alerts in the training split — "
                "the scenario is too quiet (or the detector too conservative) "
                "to train on; increase attacks_per_campaign / campaigns, or "
                "lower the detector's thresholds"
            )

        # 2. Feature extractor fed by CDet alerts (train/val phases).
        extractor = self._build_extractor(labeled)

        # 3/4. Datasets and training: one pooled model, or the per-type
        # registry (§5.3).
        if cfg.per_type:
            from .registry import XatuModelRegistry

            registry = XatuModelRegistry(cfg.model, cfg.train)
            registry.train(
                trace, extractor, labeled,
                (train_lo, train_hi), (val_lo, val_hi),
                min_events_per_type=cfg.min_events_per_type,
                seed=cfg.seed,
            )
            model = registry.models_dict()
            scaler = registry.scalers_dict()
            default_entry = registry.entries["_default"]
            train_result = default_entry.train_result
            self.registry = registry
        else:
            builder = DatasetBuilder(trace, extractor, cfg.model, rng=self._rng)
            train_set = builder.build(labeled, (train_lo, train_hi))
            val_set = builder.build(
                labeled, (val_lo, val_hi), scaler=train_set.scaler
            )
            single_model = XatuModel(cfg.model)
            trainer = XatuTrainer(single_model, cfg.train)
            train_result = trainer.fit(train_set, validation=val_set)
            model = single_model
            scaler = train_set.scaler
            self._trained_model = single_model
            self._trained_scaler = scaler

        # 5. Calibrate on validation: one detector run, then every candidate
        # threshold re-applies the diversion rule to its stored hazards.
        cal_detector = XatuDetector(
            trace, extractor, model, scaler, DetectorConfig(autoregressive=False)
        )
        val_range = (val_lo, val_hi)
        val_hazards = cal_detector.run(val_range).hazard_series
        center = ScrubbingCenter(trace)

        def evaluate(threshold: float, customers: list[int] | None = None):
            hazards = val_hazards
            if customers is not None:
                hazards = {c: h for c, h in val_hazards.items() if c in customers}
            windows = windows_from_hazards(
                trace, hazards, val_range, cfg.model.detect_window, threshold,
                cal_detector.config.max_fp_diversion,
            )
            return center.account(windows).operating_point(val_range, customers)

        calibrator = ThresholdCalibrator()
        calibration = calibrator.calibrate(evaluate, overhead_bound=cfg.overhead_bound)
        self._calibrated_threshold = calibration.threshold
        thresholds_by_key: dict[str, float] | None = None
        if cfg.per_type:
            # Per-type thresholds (§5.3): each typed model is calibrated on
            # the validation customers it serves; keys with no validation
            # customers inherit the global threshold.
            thresholds_by_key = {}
            by_key: dict[str, list[int]] = {}
            for customer in trace.world.customers:
                key = cal_detector.serving_key(customer.customer_id)
                by_key.setdefault(key, []).append(customer.customer_id)
            for key, customer_ids in by_key.items():
                result_k = calibrator.calibrate(
                    lambda thr, ids=customer_ids: evaluate(thr, ids),
                    overhead_bound=cfg.overhead_bound,
                )
                thresholds_by_key[key] = result_k.threshold
                self.registry.set_threshold(key, result_k.threshold)

        # 6. Test-phase detection: fresh extractor seeded with alerts known
        # before the test split; autoregressive from there (§5.3).
        test_extractor = self._build_extractor(
            [a for a in labeled if a.end_minute <= test_lo]
        )
        test_detector = XatuDetector(
            trace,
            test_extractor,
            model,
            scaler,
            DetectorConfig(
                threshold=calibration.threshold,
                thresholds_by_key=thresholds_by_key,
            ),
        )
        detection = test_detector.run((test_lo, test_hi))
        report = center.account(detection.windows)

        # 7. Metrics after the stabilization period.
        stab = int((test_hi - test_lo) * cfg.stabilization_fraction)
        eval_range = (test_lo + stab, test_hi)
        summary = summarize_report(trace, report, eval_range, cfg.model.detect_window)

        return PipelineResult(
            trace=trace,
            cdet_alerts=cdet_alerts,
            calibration=calibration,
            detection=detection,
            report=report,
            effectiveness=summary.effectiveness,
            overhead=summary.overhead,
            delay=summary.delay,
            test_range=(test_lo, test_hi),
            eval_range=eval_range,
            train_losses=train_result.train_losses,
        )
