"""Figures 12 and 17 plus the ML-design ablations: what each piece adds.

Each ablation variant trains its own model (the paper: "we train a separate
model for each bar") on the same trace and alert stream, differing in:

* enabled feature groups (no-aux = V only; +A1, +A2, ... per Figure 12;
  per-blocklist-category for Figure 17),
* loss (survival vs binary cross-entropy — "Xatu w/o survival model"),
* timescales (full multi-timescale vs LSTM_short only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.dataset import DatasetBuilder
from ..core.detector import DetectorConfig, XatuDetector, windows_from_hazards
from ..core.model import XatuModel, XatuModelConfig
from ..core.pipeline import PipelineConfig, alerts_to_records
from ..core.trainer import TrainConfig, XatuTrainer
from ..detect.detectors import NetScoutDetector
from ..scrub.center import ScrubbingCenter
from ..scrub.summary import summarize_report
from ..signals.features import FeatureExtractor
from ..survival.calibration import ThresholdCalibrator
from ..synth.attacks import AttackType
from ..synth.scenario import Trace, TraceGenerator

__all__ = ["AblationVariant", "AblationResult", "AblationExperiment"]


@dataclass(frozen=True, slots=True)
class AblationVariant:
    """One bar of Figure 12 / 17 / 18."""

    name: str
    enabled_groups: frozenset[str] | None = None  # None = all groups
    loss: str = "survival"
    timescales_subset: tuple[int, ...] | None = None  # indices, None = all


@dataclass(frozen=True, slots=True)
class AblationResult:
    variant: str
    effectiveness_p10: float
    effectiveness_median: float
    effectiveness_p90: float
    delay_median: float
    n_events: int


STANDARD_VARIANTS: tuple[AblationVariant, ...] = (
    AblationVariant("no_aux", enabled_groups=frozenset({"V"})),
    AblationVariant("V+A1", enabled_groups=frozenset({"V", "A1"})),
    AblationVariant("V+A2", enabled_groups=frozenset({"V", "A2"})),
    AblationVariant("V+A3", enabled_groups=frozenset({"V", "A3"})),
    AblationVariant("V+A4+A5", enabled_groups=frozenset({"V", "A4", "A5"})),
    AblationVariant("no_survival", loss="bce"),
    AblationVariant("short_only", timescales_subset=(0,)),
    AblationVariant("xatu_full"),
)


class AblationExperiment:
    """Shared trace + labels; per-variant train/calibrate/evaluate."""

    def __init__(self, config: PipelineConfig, trace: Trace | None = None) -> None:
        self.config = config
        self.trace = trace or TraceGenerator(config.scenario).materialize()
        self.train_rng, self.val_rng, self.test_rng = config.split.bounds(
            self.trace.horizon
        )
        self.labeled = [
            a for a in NetScoutDetector().detect(self.trace) if a.event_id >= 0
        ]
        stab = int((self.test_rng[1] - self.test_rng[0]) * config.stabilization_fraction)
        self.eval_range = (self.test_rng[0] + stab, self.test_rng[1])
        self._center = ScrubbingCenter(self.trace)

    # ------------------------------------------------------------------
    def _variant_model_config(self, variant: AblationVariant) -> XatuModelConfig:
        cfg = self.config.model
        if variant.timescales_subset is None:
            return cfg
        scales = tuple(cfg.timescales[i] for i in variant.timescales_subset)
        return replace(cfg, timescales=scales)

    # ------------------------------------------------------------------
    def run_variant(
        self,
        variant: AblationVariant,
        attack_types: set[AttackType] | None = None,
    ) -> AblationResult:
        """Train, calibrate and evaluate one ablation variant."""
        cfg = self.config
        model_cfg = self._variant_model_config(variant)
        extractor = FeatureExtractor(
            self.trace,
            alerts=alerts_to_records(self.trace, self.labeled),
            enabled_groups=variant.enabled_groups,
        )
        builder = DatasetBuilder(
            self.trace, extractor, model_cfg, rng=np.random.default_rng(cfg.seed)
        )
        type_names = (
            {t.value for t in attack_types} if attack_types is not None else None
        )
        train_set = builder.build(self.labeled, self.train_rng, attack_types=type_names)
        val_set = builder.build(
            self.labeled, self.val_rng, attack_types=type_names, scaler=train_set.scaler
        )
        model = XatuModel(model_cfg)
        train_cfg = replace(cfg.train, loss=variant.loss)
        XatuTrainer(model, train_cfg).fit(train_set, validation=val_set)

        val_hazards = XatuDetector(
            self.trace, extractor, model, train_set.scaler,
            DetectorConfig(autoregressive=False),
        ).run(self.val_rng).hazard_series

        def evaluate(threshold: float) -> tuple[float, np.ndarray]:
            windows = windows_from_hazards(
                self.trace, val_hazards, self.val_rng, model_cfg.detect_window, threshold
            )
            return self._center.account(windows).operating_point(self.val_rng)

        threshold = (
            ThresholdCalibrator()
            .calibrate(evaluate, self.config.overhead_bound)
            .threshold
        )

        test_output = XatuDetector(
            self.trace, extractor, model, train_set.scaler,
            DetectorConfig(threshold=threshold, autoregressive=False),
        ).run(self.test_rng)
        summary = summarize_report(
            self.trace, self._center.account(test_output.windows), self.eval_range,
            model_cfg.detect_window, attack_types,
        )
        return AblationResult(
            variant.name,
            *summary.effectiveness.as_tuple(),
            delay_median=summary.delay.median,
            n_events=summary.n_events,
        )

    def run(
        self,
        variants: tuple[AblationVariant, ...] = STANDARD_VARIANTS,
        attack_types: set[AttackType] | None = None,
    ) -> list[AblationResult]:
        return [self.run_variant(v, attack_types) for v in variants]
