"""The random-forest baseline (RF in §6).

The paper trains an RF binary classifier per attack type "using the same
feature set from the same three timescales".  Here each sample minute is
summarized as the concatenation of the 273-feature vector averaged over the
short / medium / long timescale windows ending at that minute (3 x 273
columns), and the forest's attack probability drives a thresholded detector
(alarm when the score reaches the threshold, diverted by the same rule as
Xatu, :func:`repro.core.detector.divert`) that is calibrated under the same
overhead bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dataset import SampleSet
from ..core.model import XatuModelConfig
from ..forest.ensemble import RandomForestClassifier
from ..signals.features import FeatureExtractor
from ..synth.scenario import Trace

__all__ = ["RFBaseline", "rf_features_from_window"]


def rf_features_from_window(
    window: np.ndarray, model_config: XatuModelConfig
) -> np.ndarray:
    """Collapse a (lookback, 273) window into the RF's 3x273 summary row."""
    parts = []
    for ts in model_config.timescales:
        span = min(ts.minutes, window.shape[0])
        parts.append(window[-span:].mean(axis=0))
    return np.concatenate(parts)


@dataclass
class RFBaseline:
    """Forest + the detection threshold chosen during calibration."""

    forest: RandomForestClassifier
    model_config: XatuModelConfig
    threshold: float = 0.5

    @classmethod
    def train(
        cls,
        train_set: SampleSet,
        model_config: XatuModelConfig,
        n_estimators: int = 30,
        max_depth: int = 10,
        seed: int = 0,
    ) -> "RFBaseline":
        """Fit on the same (already scaled) sample windows Xatu trains on."""
        x = np.stack(
            [rf_features_from_window(s.features, model_config) for s in train_set.samples]
        )
        y = np.array([s.is_attack for s in train_set.samples], dtype=np.float64)
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed
        )
        forest.fit(x, y)
        return cls(forest=forest, model_config=model_config)

    # ------------------------------------------------------------------
    def score_series(
        self,
        trace: Trace,
        extractor: FeatureExtractor,
        scaler,
        customer_id: int,
        minute_range: tuple[int, int],
        stride: int = 1,
    ) -> np.ndarray:
        """Per-minute attack probability for one customer over a range.

        Consecutive windows overlap by lookback-1 minutes, so the range's
        features are extracted once, densely, and each scored minute's
        window is a slice of that block.
        """
        lo, hi = minute_range
        lookback = self.model_config.lookback_minutes
        first = max(0, lo + 1 - lookback)
        dense = extractor.window(customer_id, first, hi)
        scores = np.zeros(hi - lo)
        last = 0.0
        for minute in range(lo, hi):
            if (minute - lo) % stride == 0:
                start = minute + 1 - lookback
                if start < 0:
                    scores[minute - lo] = 0.0
                    continue
                raw = dense[start - first : minute + 1 - first]
                row = rf_features_from_window(scaler.transform(raw), self.model_config)
                last = float(self.forest.predict_proba(row[None, :])[0])
            scores[minute - lo] = last
        return scores
