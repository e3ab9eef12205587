"""Validation-phase threshold calibration (§4.2 / §5.3).

After training, Xatu picks the alert threshold on ``S_t`` by searching the
validation data for the value that *maximizes mitigation effectiveness
while keeping the scrubbing overhead for 75% of customers below a given
bound*.  :class:`ThresholdCalibrator` implements that search generically:
the caller supplies a function that maps a candidate threshold to the
(median effectiveness, 75th-percentile overhead) pair measured on
validation, and the calibrator scans a threshold grid.

Lower thresholds mean *later* detection (S_t must fall further), hence less
overhead; higher thresholds detect earlier at more overhead.  The search
therefore walks candidate thresholds from high to low and keeps the best
feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["CalibrationResult", "ThresholdCalibrator"]


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Outcome of a calibration sweep."""

    threshold: float
    effectiveness: float
    overhead_p75: float
    overhead_bound: float
    feasible: bool
    evaluations: int


class ThresholdCalibrator:
    """Grid search over survival thresholds under an overhead bound.

    Parameters
    ----------
    thresholds:
        Candidate thresholds on ``S_t``; defaults to a log-ish grid over
        (0, 1).  The alert rule is "alert when S_t < threshold".
    overhead_percentile:
        Which customer-overhead percentile the bound constrains (75 in the
        paper: "keeping the scrubbing overhead for 75% of customers below a
        given bound").
    """

    def __init__(
        self,
        thresholds: Sequence[float] | None = None,
        overhead_percentile: float = 75.0,
    ) -> None:
        if thresholds is None:
            thresholds = np.concatenate(
                [
                    np.geomspace(1e-4, 0.1, 8),
                    np.linspace(0.15, 0.95, 17),
                    np.array([0.99, 0.999]),
                ]
            )
        self.thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
        if ((self.thresholds <= 0) | (self.thresholds >= 1)).any():
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        self.overhead_percentile = overhead_percentile

    def calibrate(
        self,
        evaluate: Callable[[float], tuple[float, np.ndarray]],
        overhead_bound: float,
    ) -> CalibrationResult:
        """Run the sweep.

        ``evaluate(threshold)`` must return ``(median_effectiveness,
        per_customer_overheads)`` measured on the validation split with that
        threshold.  Returns the feasible threshold with the best
        effectiveness; ties are broken toward the *lower* measured overhead
        (equally effective but cheaper — and less likely to blow the bound
        on test data).  When *no* threshold is feasible, returns the one
        with the smallest overhead percentile, flagged infeasible.
        """
        best: CalibrationResult | None = None
        fallback: CalibrationResult | None = None
        evaluations = 0
        for threshold in self.thresholds:
            effectiveness, overheads = evaluate(float(threshold))
            evaluations += 1
            p = (
                float(np.percentile(overheads, self.overhead_percentile))
                if len(overheads)
                else 0.0
            )
            feasible = p <= overhead_bound
            candidate = CalibrationResult(
                threshold=float(threshold),
                effectiveness=float(effectiveness),
                overhead_p75=p,
                overhead_bound=overhead_bound,
                feasible=feasible,
                evaluations=evaluations,
            )
            if feasible:
                if (
                    best is None
                    or candidate.effectiveness > best.effectiveness
                    or (
                        candidate.effectiveness == best.effectiveness
                        and candidate.overhead_p75 < best.overhead_p75
                    )
                ):
                    best = candidate
            if fallback is None or candidate.overhead_p75 < fallback.overhead_p75:
                fallback = candidate
        if best is not None:
            return CalibrationResult(
                best.threshold,
                best.effectiveness,
                best.overhead_p75,
                overhead_bound,
                True,
                evaluations,
            )
        assert fallback is not None
        return CalibrationResult(
            fallback.threshold,
            fallback.effectiveness,
            fallback.overhead_p75,
            overhead_bound,
            False,
            evaluations,
        )
