"""CDet simulators: NetScout-style and FastNetMon-style detection.

Both are *reactive, conservative, volumetric* detectors (§2.1/§2.3): they
watch the per-minute byte series toward each customer and fire only after a
sustained excursion over a per-customer threshold.  The two differ in how
the threshold is set:

* :class:`NetScoutDetector` — static per-customer profile thresholds (the
  "forced alert thresholds for profiled detection" approach) with a long
  sustain requirement, producing the late-but-low-false-positive behaviour
  the paper quantifies (median detection delay around 11 minutes).
* :class:`FastNetMonDetector` — dynamic thresholds from an EWMA band over
  recent traffic ("best dynamic thresholds in production", §6), reacting a
  bit faster at somewhat higher sensitivity.

Detectors also emit the coarse alert signature for the dominant protocol
at detection time, which is what gets diverted to scrubbing.

Both detectors run in two modes sharing one sustain/release engine:

* **offline** — :meth:`detect(trace)` sweeps a materialized trace (the
  evaluation path; thresholds may profile over the whole window at once);
* **streaming** — the :class:`repro.detect.api.Detector` contract
  (``step(minute, batch) -> alerts`` / ``reset``): thresholds are built
  causally, so NetScout stays silent until its profile window completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol as TypingProtocol, runtime_checkable

import numpy as np

from ..netflow.customers import CustomerLookup
from ..netflow.records import FlowBatch
from ..synth.attacks import AttackType
from ..synth.scenario import AttackEvent, Trace
from .api import StreamAlert

__all__ = [
    "DetectionAlert",
    "TraceDetector",
    "NetScoutDetector",
    "FastNetMonDetector",
]


@dataclass(frozen=True, slots=True)
class DetectionAlert:
    """One alert from a CDet run against a trace."""

    customer_id: int
    detect_minute: int
    end_minute: int
    attack_type: AttackType
    event_id: int  # ground-truth event this alert corresponds to (-1 = FP)
    peak_bytes: float


@runtime_checkable
class TraceDetector(TypingProtocol):
    """Anything that turns a materialized trace into an alert list.

    The *offline* counterpart of the streaming
    :class:`repro.detect.api.Detector` protocol.
    """

    name: str

    def detect(self, trace: Trace) -> list[DetectionAlert]:  # pragma: no cover
        ...


def _match_alert_to_event(
    events: list[AttackEvent], customer_id: int, minute: int
) -> AttackEvent | None:
    """The ground-truth event active (or just past) at an alert minute."""
    best: AttackEvent | None = None
    for event in events:
        if event.customer_id != customer_id:
            continue
        if event.onset <= minute < event.end + 5:
            if best is None or event.onset > best.onset:
                best = event
    return best


class _SustainedThresholdDetector:
    """Shared engine: fire when the series exceeds a threshold for
    ``sustain`` consecutive minutes; alert ends when it drops back under for
    ``release`` minutes (the CScrub mitigation-end notice)."""

    name = "cdet"

    def __init__(
        self, sustain: int, release: int, customer_of: dict[int, int] | None = None
    ) -> None:
        self.sustain = sustain
        self.release = release
        # Streaming mode: destination address -> customer id.  Without a
        # map, destination addresses are treated as customer keys directly.
        self._lookup = CustomerLookup(customer_of) if customer_of else None
        self.reset()

    def _threshold_series(
        self, series: np.ndarray, trace: Trace, customer_id: int
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # streaming contract (repro.detect.api.Detector)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the post-construction streaming state."""
        self._minute = -1
        self._runs: dict[int, int] = {}
        self._active: dict[int, int] = {}  # customer -> consecutive quiet minutes
        self._reset_thresholds()

    def _reset_thresholds(self) -> None:
        """Clear subclass threshold state (override alongside
        :meth:`_stream_threshold`)."""

    def _stream_threshold(
        self, customer_id: int, observed_bytes: float
    ) -> float | None:  # pragma: no cover - abstract
        """Causal per-minute threshold for one customer, or ``None`` while
        the detector is still profiling (no detection possible yet).

        Called exactly once per customer per observed minute; implementations
        update their own running state (profiles, EWMA bands).
        """
        raise NotImplementedError

    @property
    def current_minute(self) -> int:
        return self._minute

    def _observed_bytes(self, flows: FlowBatch) -> dict[int, float]:
        """Sampling-compensated bytes per customer, each total summed in
        arrival order (``bincount`` adds its weights one by one)."""
        dst = flows.array["dst_addr"].astype(np.int64)
        estimated = flows.estimated_bytes()
        if self._lookup is None:
            customers = dst
        else:
            customers, routed = self._lookup.route(dst)
            customers, estimated = customers[routed], estimated[routed]
        keys, slot = np.unique(customers, return_inverse=True)
        totals = np.bincount(slot, weights=estimated, minlength=len(keys))
        return dict(zip(keys.tolist(), totals.tolist()))

    def step(self, minute: int, flows: FlowBatch) -> list[StreamAlert]:
        """Ingest one minute of sampled flows; return its alerts.

        The per-customer byte totals drive the same sustain/release engine
        the offline sweep uses, against causally-built thresholds.
        """
        if minute <= self._minute:
            raise ValueError(
                f"minutes must advance: got {minute} after {self._minute}"
            )
        self._minute = minute
        observed = self._observed_bytes(flows)
        alerts: list[StreamAlert] = []
        watched = set(self._runs) | set(self._active) | set(observed)
        for customer_id in sorted(watched):
            bytes_ = observed.get(customer_id, 0.0)
            threshold = self._stream_threshold(customer_id, bytes_)
            over = threshold is not None and bytes_ > threshold
            if customer_id in self._active:
                # An alert is in progress: wait for `release` quiet minutes
                # (the mitigation-end condition) before re-arming.
                quiet = 0 if over else self._active[customer_id] + 1
                if quiet >= self.release:
                    del self._active[customer_id]
                    self._runs[customer_id] = 0
                else:
                    self._active[customer_id] = quiet
                continue
            run = self._runs.get(customer_id, 0) + 1 if over else 0
            self._runs[customer_id] = run
            if run >= self.sustain:
                alerts.append(
                    StreamAlert(
                        customer_id=customer_id,
                        minute=minute,
                        score=float(bytes_ / threshold) if threshold else 0.0,
                        detector=self.name,
                    )
                )
                self._active[customer_id] = 0
                self._runs[customer_id] = 0
        return alerts

    # ------------------------------------------------------------------
    # offline sweep
    # ------------------------------------------------------------------
    def detect(self, trace: Trace) -> list[DetectionAlert]:
        alerts: list[DetectionAlert] = []
        horizon = trace.horizon
        for customer in trace.world.customers:
            cid = customer.customer_id
            series = trace.matrix.bytes_series(cid, 0, horizon)
            thresholds = self._threshold_series(series, trace, cid)
            over = series > thresholds
            t = 0
            while t < horizon:
                if not over[t]:
                    t += 1
                    continue
                run_start = t
                while t < horizon and over[t]:
                    t += 1
                run_len = t - run_start
                if run_len < self.sustain:
                    continue
                detect = run_start + self.sustain - 1
                # Extend the alert until traffic stays low for `release` min.
                end = t
                quiet = 0
                while end < horizon and quiet < self.release:
                    quiet = quiet + 1 if not over[end] else 0
                    end += 1
                event = _match_alert_to_event(trace.events, cid, detect)
                alerts.append(
                    DetectionAlert(
                        customer_id=cid,
                        detect_minute=detect,
                        end_minute=end,
                        attack_type=event.attack_type if event else AttackType.UDP_FLOOD,
                        event_id=event.event_id if event else -1,
                        peak_bytes=float(series[run_start:end].max()) if end > run_start else 0.0,
                    )
                )
                t = end
        return alerts


class NetScoutDetector(_SustainedThresholdDetector):
    """Conservative profile-threshold CDet (the paper's NetScout stand-in).

    The per-customer threshold is a high quantile of a *profiling window* of
    benign-ish traffic times a headroom multiplier; detection additionally
    requires the excursion to persist ``sustain`` minutes.  Defaults are
    calibrated so the detector is accurate but late — the §2.3 behaviour.
    """

    name = "netscout"

    def __init__(
        self,
        sustain: int = 4,
        release: int = 3,
        profile_quantile: float = 0.99,
        headroom: float = 2.0,
        profile_window: int | None = None,
        customer_of: dict[int, int] | None = None,
    ) -> None:
        self.profile_quantile = profile_quantile
        self.headroom = headroom
        self.profile_window = profile_window
        super().__init__(sustain=sustain, release=release, customer_of=customer_of)

    def _threshold_series(
        self, series: np.ndarray, trace: Trace, customer_id: int
    ) -> np.ndarray:
        window = self.profile_window or trace.config.minutes_per_day
        window = min(window, len(series))
        profile = np.quantile(series[:window], self.profile_quantile)
        return np.full_like(series, profile * self.headroom)

    # Streaming mode is causal: the profile accumulates per customer and
    # the threshold freezes once the window is full — no detection (and no
    # lookahead) before that, unlike the offline whole-trace sweep.
    def _reset_thresholds(self) -> None:
        self._profiles: dict[int, list[float]] = {}
        self._frozen: dict[int, float] = {}

    def _stream_threshold(
        self, customer_id: int, observed_bytes: float
    ) -> float | None:
        frozen = self._frozen.get(customer_id)
        if frozen is not None:
            return frozen
        window = self.profile_window or 1440
        profile = self._profiles.setdefault(customer_id, [])
        profile.append(float(observed_bytes))
        if len(profile) < window:
            return None
        threshold = float(
            np.quantile(np.asarray(profile), self.profile_quantile) * self.headroom
        )
        self._frozen[customer_id] = threshold
        del self._profiles[customer_id]
        return threshold


class FastNetMonDetector(_SustainedThresholdDetector):
    """Dynamic-threshold CDet: EWMA mean + k·EWMA-deviation band.

    Faster than NetScout on ramping attacks (shorter sustain, adaptive
    band) but still reactive and volumetric-only.
    """

    name = "fastnetmon"

    def __init__(
        self,
        sustain: int = 3,
        release: int = 3,
        alpha: float = 0.02,
        k: float = 6.0,
        floor_multiplier: float = 1.5,
        customer_of: dict[int, int] | None = None,
    ) -> None:
        self.alpha = alpha
        self.k = k
        self.floor_multiplier = floor_multiplier
        super().__init__(sustain=sustain, release=release, customer_of=customer_of)

    def _threshold_series(
        self, series: np.ndarray, trace: Trace, customer_id: int
    ) -> np.ndarray:
        alpha = self.alpha
        mean = series[0] if len(series) else 0.0
        dev = 0.0
        thresholds = np.empty_like(series)
        for i, x in enumerate(series):
            thresholds[i] = max(
                mean + self.k * dev, self.floor_multiplier * max(mean, 1.0)
            )
            # EWMA updates lag the threshold (today's traffic cannot raise
            # today's bar), and large excursions are clamped so an ongoing
            # attack does not poison the baseline.
            bounded = min(x, thresholds[i])
            dev = (1 - alpha) * dev + alpha * abs(bounded - mean)
            mean = (1 - alpha) * mean + alpha * bounded
        return thresholds

    # The EWMA band is already causal, so the streaming thresholds are the
    # exact per-minute values the offline sweep computes.
    def _reset_thresholds(self) -> None:
        self._bands: dict[int, tuple[float, float]] = {}

    def _stream_threshold(
        self, customer_id: int, observed_bytes: float
    ) -> float | None:
        x = float(observed_bytes)
        mean, dev = self._bands.get(customer_id, (x, 0.0))
        threshold = max(
            mean + self.k * dev, self.floor_multiplier * max(mean, 1.0)
        )
        bounded = min(x, threshold)
        dev = (1 - self.alpha) * dev + self.alpha * abs(bounded - mean)
        mean = (1 - self.alpha) * mean + self.alpha * bounded
        self._bands[customer_id] = (mean, dev)
        return threshold
