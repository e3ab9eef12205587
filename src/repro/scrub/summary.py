"""Report summarization: turn a ScrubbingReport into headline statistics.

Shared by the CLI and the evaluation harness so that "median effectiveness
/ overhead p75 / median delay over a minute range" is computed exactly one
way everywhere.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from ..metrics.core import PercentileSummary, percentile_summary
from ..synth.attacks import AttackType
from ..synth.scenario import Trace
from .center import ScrubbingReport

__all__ = ["ReportSummary", "summarize_report"]


@dataclass(frozen=True, slots=True)
class ReportSummary:
    """The paper's three metrics over one evaluation range."""

    effectiveness: PercentileSummary
    overhead: PercentileSummary
    delay: PercentileSummary
    n_events: int
    n_detected: int

    @property
    def detection_rate(self) -> float:
        return self.n_detected / self.n_events if self.n_events else 0.0


def summarize_report(
    trace: Trace,
    report: ScrubbingReport,
    minute_range: tuple[int, int] | None = None,
    missed_delay: int = 30,
    types: Collection[AttackType] | None = None,
) -> ReportSummary:
    """Summarize a scrubbing report over ``minute_range`` (default: all).

    Effectiveness and delay are per-event over events whose onset falls in
    the range (and, given ``types``, of those attack types); missed events
    contribute ``missed_delay``.  Overhead is the cumulative per-customer
    metric (25/75 percentiles, §6 convention).
    """
    minute_range = minute_range if minute_range is not None else (0, trace.horizon)
    return ReportSummary(
        effectiveness=percentile_summary(report.effectiveness_values(minute_range, types), 10, 90),
        overhead=percentile_summary(report.overhead_values(), 25, 75),
        delay=percentile_summary(report.delay_values(missed_delay, minute_range, types), 10, 90),
        n_events=len(report.select(minute_range, types)),
        n_detected=len(report.delay_values(None, minute_range, types)),
    )
