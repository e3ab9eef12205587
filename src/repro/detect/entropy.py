"""Entropy-based statistical detection — an extra baseline from §7.

The paper's related work includes statistical detectors that compare the
entropy of packet-header feature distributions against a normal-traffic
profile (Feinstein et al., cited as [21]).  DDoS floods collapse the
source-address entropy toward the flood sources (many packets, few "real"
senders) while dispersing destination-port entropy (or vice versa for
randomized-source floods), so a large entropy *deviation* from the profile
signals an attack.

This detector works on the per-minute volumetric feature cells already
stored in the :class:`~repro.netflow.TrafficMatrix`: the distribution
entropy is computed over the per-protocol/port/country byte shares of each
minute, and deviations are tracked with an EWMA profile plus a sustained-
excursion rule, mirroring the other CDet simulators' alerting contract.
"""

from __future__ import annotations

import numpy as np

from ..netflow.matrix import N_VOLUMETRIC
from ..synth.attacks import AttackType
from ..synth.scenario import Trace
from .detectors import DetectionAlert, _match_alert_to_event

__all__ = ["distribution_entropy", "EntropyDetector"]

# Columns of the 63-wide volumetric vector that form a "distribution" over
# traffic structure: protocol bytes, src-port bytes, dst-port bytes,
# flag bytes, country bytes (the even offsets of each 2-wide pair).
_DIST_COLUMNS = (
    [5, 7, 9]                                   # udp/tcp/icmp bytes
    + list(range(11, 21, 2))                    # src-port bytes
    + list(range(21, 31, 2))                    # dst-port bytes
    + list(range(31, 43, 2))                    # tcp-flag bytes
    + list(range(43, 63, 2))                    # country bytes
)


def distribution_entropy(volumetric_row: np.ndarray) -> float:
    """Shannon entropy (bits) of one minute's traffic-structure distribution.

    ``volumetric_row`` is a 63-wide minute vector from the traffic matrix;
    zero-traffic minutes return 0.
    """
    if volumetric_row.shape[-1] != N_VOLUMETRIC:
        raise ValueError(f"expected a {N_VOLUMETRIC}-wide volumetric row")
    masses = np.maximum(volumetric_row[_DIST_COLUMNS], 0.0)
    total = masses.sum()
    if total <= 0:
        return 0.0
    p = masses / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class EntropyDetector:
    """Alert on sustained entropy deviation from an EWMA profile.

    Same alert contract as the other CDet simulators: an alert carries a
    detect minute, an end minute (release rule), and the matched event.
    """

    name = "entropy"

    def __init__(
        self,
        alpha: float = 0.02,
        k: float = 3.0,
        sustain: int = 3,
        release: int = 3,
        min_dev: float = 0.2,
    ) -> None:
        self.alpha = alpha
        self.k = k
        self.sustain = sustain
        self.release = release
        self.min_dev = min_dev

    def entropy_series(self, trace: Trace, customer_id: int) -> np.ndarray:
        """Per-minute structure entropy for one customer."""
        series = np.zeros(trace.horizon)
        for minute in range(trace.horizon):
            cell = trace.matrix.cell(customer_id, minute)
            if cell is not None:
                series[minute] = distribution_entropy(cell.finalize())
        return series

    def _deviation_flags(self, entropy: np.ndarray) -> np.ndarray:
        """True where |entropy - profile| exceeds the adaptive band."""
        mean = entropy[0] if len(entropy) else 0.0
        dev = 0.0
        flags = np.zeros(len(entropy), dtype=bool)
        for i, value in enumerate(entropy):
            band = max(self.k * dev, self.min_dev)
            flags[i] = abs(value - mean) > band
            if not flags[i]:
                dev = (1 - self.alpha) * dev + self.alpha * abs(value - mean)
                mean = (1 - self.alpha) * mean + self.alpha * value
        return flags

    def detect(self, trace: Trace) -> list[DetectionAlert]:
        alerts: list[DetectionAlert] = []
        horizon = trace.horizon
        for customer in trace.world.customers:
            cid = customer.customer_id
            entropy = self.entropy_series(trace, cid)
            over = self._deviation_flags(entropy)
            bytes_series = trace.matrix.bytes_series(cid, 0, horizon)
            t = 0
            while t < horizon:
                if not over[t]:
                    t += 1
                    continue
                run_start = t
                while t < horizon and over[t]:
                    t += 1
                if t - run_start < self.sustain:
                    continue
                detect = run_start + self.sustain - 1
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
                        peak_bytes=float(bytes_series[run_start:end].max()) if end > run_start else 0.0,
                    )
                )
                t = end
        return alerts
