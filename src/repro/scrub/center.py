"""The scrubbing center (CScrub) and its cost accounting.

CScrub receives diverted traffic matching an alert signature, filters it,
and charges by volume handled (§2.1).  For evaluation, what matters is the
*accounting* of Figure 2:

* **Area A** — anomalous traffic over the ground-truth attack window,
* **Area B** — the part of A that was actually diverted (effectiveness = B/A),
* **Area C** — extraneous traffic diverted outside the attack window
  (overhead = C/A, cumulative per customer across attacks, §2.4).

:class:`ScrubbingCenter` turns a set of diversion windows (from any
detector, or from Xatu's early alerts) plus ground truth into a
:class:`ScrubbingReport`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..obs import get_registry, obs_enabled, trace as obs_trace
from ..synth.attacks import AttackType
from ..synth.scenario import AttackEvent, Trace

__all__ = ["DiversionWindow", "ScrubbingCenter", "ScrubbingReport"]


@dataclass(frozen=True, slots=True)
class DiversionWindow:
    """Traffic diversion for one customer over ``[start, end)`` minutes."""

    customer_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("diversion window is inverted")


@dataclass
class ScrubbingReport:
    """Per-event and per-customer accounting of a scrubbing run.

    The ``*_values`` readers are the one split evaluator: each takes the
    same optional filters — events whose onset lies in ``minute_range``,
    of ``types``, on ``customers`` — so validation calibration and every
    per-range / per-type summary read the same accounting the same way.
    """

    # per event_id: (anomalous A, diverted-anomalous B)
    event_area: dict[int, tuple[float, float]] = field(default_factory=dict)
    # per customer: cumulative extraneous bytes C and cumulative anomalous A
    customer_extraneous: dict[int, float] = field(default_factory=dict)
    customer_anomalous: dict[int, float] = field(default_factory=dict)
    # per event_id: detection delay in minutes (None = never diverted)
    detection_delay: dict[int, int | None] = field(default_factory=dict)
    # the accounted ground-truth events, in event-id order
    events: list[AttackEvent] = field(default_factory=list, repr=False)

    def select(
        self,
        minute_range: tuple[int, int] | None = None,
        types: Collection[AttackType] | None = None,
        customers: Collection[int] | None = None,
    ) -> list[AttackEvent]:
        """Accounted events passing every given filter (None = no filter)."""
        lo, hi = minute_range if minute_range is not None else (-np.inf, np.inf)
        return [
            e for e in self.events
            if lo <= e.onset < hi
            and (types is None or e.attack_type in types)
            and (customers is None or e.customer_id in customers)
        ]

    def effectiveness(self, event_id: int) -> float:
        """B/A for one event (0 when A is 0)."""
        a, b = self.event_area.get(event_id, (0.0, 0.0))
        return b / a if a > 0 else 0.0

    def effectiveness_values(
        self,
        minute_range: tuple[int, int] | None = None,
        types: Collection[AttackType] | None = None,
        customers: Collection[int] | None = None,
    ) -> np.ndarray:
        """B/A per selected event (filters as in :meth:`select`)."""
        return np.array([
            self.effectiveness(e.event_id)
            for e in self.select(minute_range, types, customers)
        ])

    def overhead(self, customer_id: int) -> float:
        """Cumulative C/A for one customer (§2.4)."""
        a = self.customer_anomalous.get(customer_id, 0.0)
        c = self.customer_extraneous.get(customer_id, 0.0)
        return c / a if a > 0 else 0.0

    def overhead_values(self, customers: Sequence[int] | None = None) -> np.ndarray:
        """C/A per customer: the given ones, or every attacked or diverted one."""
        if customers is None:
            customers = sorted(
                set(self.customer_anomalous) | set(self.customer_extraneous)
            )
        return np.array([self.overhead(c) for c in customers])

    def delay_values(
        self,
        missed_value: int | None = None,
        minute_range: tuple[int, int] | None = None,
        types: Collection[AttackType] | None = None,
        customers: Collection[int] | None = None,
    ) -> np.ndarray:
        """Detection delays per selected event; missed events map to
        ``missed_value`` (or drop)."""
        values = []
        for event in self.select(minute_range, types, customers):
            delay = self.detection_delay.get(event.event_id)
            if delay is not None:
                values.append(delay)
            elif missed_value is not None:
                values.append(missed_value)
        return np.array(values, dtype=np.float64)

    def operating_point(
        self, minute_range: tuple[int, int], customers: Sequence[int] | None = None
    ) -> tuple[float, np.ndarray]:
        """(median effectiveness, per-customer overheads) over a split: the
        pair :meth:`ThresholdCalibrator.calibrate` scores a threshold by."""
        eff = self.effectiveness_values(minute_range, customers=customers)
        return (float(np.median(eff)) if len(eff) else 0.0, self.overhead_values(customers))


class ScrubbingCenter:
    """Accounts diverted traffic against ground truth."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._series_cache: dict[int, np.ndarray] = {}

    def _customer_series(self, customer_id: int) -> np.ndarray:
        series = self._series_cache.get(customer_id)
        if series is None:
            series = self.trace.matrix.bytes_series(customer_id, 0, self.trace.horizon)
            self._series_cache[customer_id] = series
        return series

    def account(self, windows: list[DiversionWindow]) -> ScrubbingReport:
        """Compute the Figure 2 areas for a set of diversion windows.

        Anomalous traffic per minute comes from each event's ground-truth
        ``anomalous_bytes``; extraneous traffic is everything else diverted
        (benign traffic during diversion, and any diversion outside attack
        windows).
        """
        with obs_trace("scrub.account"):
            return self._account(windows)

    def _account(self, windows: list[DiversionWindow]) -> ScrubbingReport:
        trace = self.trace
        report = ScrubbingReport(events=trace.events)
        horizon = trace.horizon

        # Diverted-minute masks per customer.
        diverted: dict[int, np.ndarray] = {}
        for window in windows:
            mask = diverted.get(window.customer_id)
            if mask is None:
                mask = np.zeros(horizon, dtype=bool)
                diverted[window.customer_id] = mask
            mask[max(0, window.start) : min(horizon, window.end)] = True

        # Anomalous-byte series per customer (sum over its events).
        anomalous: dict[int, np.ndarray] = defaultdict(lambda: np.zeros(horizon))
        for event in trace.events:
            span = min(event.end, horizon) - event.onset
            if span > 0:
                anomalous[event.customer_id][event.onset : event.onset + span] += (
                    event.anomalous_bytes[:span]
                )

        # Per-event A and B; per-event delay.
        for event in trace.events:
            span = min(event.end, horizon) - event.onset
            series = event.anomalous_bytes[:span]
            area_a = float(series.sum())
            mask = diverted.get(event.customer_id)
            if mask is None:
                area_b = 0.0
                delay = None
            else:
                window_mask = mask[event.onset : event.onset + span]
                area_b = float(series[window_mask].sum())
                hit = np.nonzero(mask[: min(event.end, horizon)])[0]
                # Delay = first diverted minute at/after which the event is
                # covered, relative to onset; diversion already active at
                # onset counts as delay <= 0.
                covering = hit[hit < event.end] if len(hit) else hit
                covering = covering[covering >= 0]
                relevant = covering[covering >= event.onset]
                if mask[event.onset]:
                    # Find when this continuous diversion started.
                    start = event.onset
                    while start > 0 and mask[start - 1]:
                        start -= 1
                    delay = start - event.onset
                elif len(relevant):
                    delay = int(relevant[0]) - event.onset
                else:
                    delay = None
            report.event_area[event.event_id] = (area_a, area_b)
            report.detection_delay[event.event_id] = delay
            report.customer_anomalous[event.customer_id] = (
                report.customer_anomalous.get(event.customer_id, 0.0) + area_a
            )

        # Per-customer extraneous bytes C: diverted total minus diverted
        # anomalous.
        for customer_id, mask in diverted.items():
            total_diverted = float(self._customer_series(customer_id)[mask].sum())
            anomalous_diverted = float(anomalous[customer_id][mask].sum())
            report.customer_extraneous[customer_id] = max(
                0.0, total_diverted - anomalous_diverted
            )
            report.customer_anomalous.setdefault(customer_id, 0.0)

        if obs_enabled():
            registry = get_registry()
            registry.counter(
                "scrub.diversion_windows", "diversion windows accounted"
            ).inc(len(windows))
            registry.counter(
                "scrub.diverted_minutes", "customer-minutes under diversion"
            ).inc(int(sum(int(m.sum()) for m in diverted.values())))
            registry.counter(
                "scrub.anomalous_bytes_diverted", "area B: anomalous bytes scrubbed"
            ).inc(int(sum(b for _, b in report.event_area.values())))
            registry.counter(
                "scrub.extraneous_bytes", "area C: extraneous bytes diverted"
            ).inc(int(sum(report.customer_extraneous.values())))
        return report
