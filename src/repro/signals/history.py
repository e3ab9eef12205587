"""Attack-history stores: the A2/A4 signal state.

These stores are fed from an *alert timeline* — in training/validation that
timeline comes from CDet (NetScout) alerts, and in Xatu's autoregressive
test mode from Xatu's own detections (§5.3).  They answer two questions:

* :class:`PreviousAttackerStore` (A2): which sources have attacked this
  customer before minute ``t``?
* :class:`AttackHistoryStore` (A4): what attack types, of what severity,
  has this customer suffered, recency-weighted?  This yields the 18
  "attack severity (low, medium, high) for each attack type" features of
  Table 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..synth.attacks import AttackType

__all__ = [
    "SEVERITIES",
    "AlertRecord",
    "PreviousAttackerStore",
    "AttackHistoryStore",
    "severity_of",
]

SEVERITIES: tuple[str, ...] = ("low", "medium", "high")
_TYPE_ORDER: tuple[AttackType, ...] = tuple(AttackType)
_TYPE_INDEX = {t: i for i, t in enumerate(_TYPE_ORDER)}


@dataclass(frozen=True, slots=True)
class AlertRecord:
    """One detection alert on the timeline driving the history stores."""

    customer_id: int
    attack_type: AttackType
    detect_minute: int
    end_minute: int
    peak_bytes: float
    attackers: frozenset[int]


def severity_of(peak_bytes: float, base_rate: float) -> str:
    """Bucket an attack's severity by its peak relative to the baseline."""
    if base_rate <= 0:
        return "high"
    ratio = peak_bytes / base_rate
    if ratio < 5.0:
        return "low"
    if ratio < 20.0:
        return "medium"
    return "high"


class PreviousAttackerStore:
    """Time-aware per-customer attacker sets (the A2 membership).

    ``add_alert`` records attackers effective *after* the alert's end minute
    (you only learn who attacked once the event completes).  ``members_at``
    returns the union of attacker sets from alerts that ended by ``minute``.
    """

    def __init__(self) -> None:
        # per customer: sorted list of (effective_minute, attacker frozenset)
        self._timeline: dict[int, list[tuple[int, frozenset[int]]]] = {}

    def add_alert(self, alert: AlertRecord) -> None:
        entries = self._timeline.setdefault(alert.customer_id, [])
        entries.append((alert.end_minute, alert.attackers))
        entries.sort(key=lambda pair: pair[0])

    def members_at(self, customer_id: int, minute: int) -> set[int]:
        """All sources known (by ``minute``) to have attacked the customer."""
        members: set[int] = set()
        for effective, attackers in self._timeline.get(customer_id, []):
            if effective > minute:
                break
            members |= attackers
        return members

    def is_previous_attacker(self, customer_id: int, addr: int, minute: int) -> bool:
        for effective, attackers in self._timeline.get(customer_id, []):
            if effective > minute:
                break
            if addr in attackers:
                return True
        return False

    def batch_mask(
        self,
        customer_ids: np.ndarray,
        addrs: np.ndarray,
        minutes: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`is_previous_attacker` over aligned arrays.

        Loops only over the (customer, minute) pairs that actually have
        timeline entries — the all-quiet common case costs one dict check —
        and resolves membership per pair with one sorted ``searchsorted``
        pass, so a whole minute's flow batch classifies without a
        per-record Python call.
        """
        out = np.zeros(len(addrs), dtype=bool)
        if not self._timeline:
            return out
        for customer in np.unique(customer_ids).tolist():
            if not self._timeline.get(int(customer)):
                continue
            rows = np.flatnonzero(customer_ids == customer)
            for minute in np.unique(minutes[rows]).tolist():
                members = self.members_at(int(customer), int(minute))
                if not members:
                    continue
                sub = rows[minutes[rows] == minute]
                table = np.fromiter(members, dtype=np.int64, count=len(members))
                table.sort()
                slot = np.minimum(np.searchsorted(table, addrs[sub]), len(table) - 1)
                out[sub] = table[slot] == addrs[sub]
        return out

    def state_dict(self) -> dict:
        """Canonical snapshot (customers and attacker sets sorted)."""
        return {
            "timeline": [
                [customer, [[eff, sorted(attackers)] for eff, attackers in entries]]
                for customer, entries in sorted(self._timeline.items())
            ]
        }

    def load_state_dict(self, state: dict) -> None:
        self._timeline = {
            int(customer): [
                (int(eff), frozenset(int(a) for a in attackers))
                for eff, attackers in entries
            ]
            for customer, entries in state["timeline"]
        }


class AttackHistoryStore:
    """Recency-weighted (type, severity) history per customer — 18 features.

    ``features_at`` returns, per (attack type, severity) pair, the
    exponentially decayed count of prior alerts:

        f = sum over past alerts of  exp(-(t - t_alert) / tau)

    with ``tau`` the decay horizon in minutes.  Decayed counts rather than a
    raw indicator give the LSTM the "how recently and how often" view that
    makes the A4 signal predictive of serial same-type attacks (Fig 4b).
    """

    N_FEATURES = len(_TYPE_ORDER) * len(SEVERITIES)

    def __init__(self, decay_minutes: float = 7 * 1440.0) -> None:
        if decay_minutes <= 0:
            raise ValueError("decay_minutes must be positive")
        self.decay_minutes = decay_minutes
        # per customer: list of (end_minute, type_idx, severity_idx)
        self._alerts: dict[int, list[tuple[int, int, int]]] = {}

    def add_alert(self, alert: AlertRecord, base_rate: float) -> None:
        severity = severity_of(alert.peak_bytes, base_rate)
        self._alerts.setdefault(alert.customer_id, []).append(
            (alert.end_minute, _TYPE_INDEX[alert.attack_type], SEVERITIES.index(severity))
        )
        self._alerts[alert.customer_id].sort(key=lambda rec: rec[0])

    def has_alerts(self, customer_id: int) -> bool:
        """False means the customer's A4 features are zero at every minute."""
        return bool(self._alerts.get(customer_id))

    def features_at(self, customer_id: int, minute: int) -> np.ndarray:
        """The 18-wide A4 vector at ``minute``."""
        features = np.zeros(self.N_FEATURES)
        for end_minute, type_idx, sev_idx in self._alerts.get(customer_id, []):
            if end_minute > minute:
                break
            age = minute - end_minute
            features[type_idx * len(SEVERITIES) + sev_idx] += np.exp(
                -age / self.decay_minutes
            )
        return features

    def feature_block(
        self, customer_id: int, start_minute: int, end_minute: int
    ) -> np.ndarray:
        """Dense ``(minutes, 18)`` A4 block over a range.

        Computed incrementally (decay is multiplicative per step) so a
        10-day window does not cost 10 days × alerts work.
        """
        steps = end_minute - start_minute
        block = np.zeros((steps, self.N_FEATURES))
        alerts = self._alerts.get(customer_id, [])
        if not alerts:
            return block
        decay_step = np.exp(-1.0 / self.decay_minutes)
        current = self.features_at(customer_id, start_minute)
        idx = bisect_left([a[0] for a in alerts], start_minute + 1)
        for t in range(steps):
            minute = start_minute + t
            if t > 0:
                current = current * decay_step
                while idx < len(alerts) and alerts[idx][0] <= minute:
                    _end, type_idx, sev_idx = alerts[idx]
                    age = minute - alerts[idx][0]
                    current[type_idx * len(SEVERITIES) + sev_idx] += np.exp(
                        -age / self.decay_minutes
                    )
                    idx += 1
            block[t] = current
        return block

    def alerts_before(self, customer_id: int, minute: int) -> int:
        return sum(1 for end, *_ in self._alerts.get(customer_id, []) if end <= minute)

    def state_dict(self) -> dict:
        """Canonical snapshot of the per-customer alert tuples."""
        return {
            "decay_minutes": self.decay_minutes,
            "alerts": [
                [customer, [list(rec) for rec in records]]
                for customer, records in sorted(self._alerts.items())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.decay_minutes = float(state["decay_minutes"])
        self._alerts = {
            int(customer): [tuple(int(v) for v in rec) for rec in records]
            for customer, records in state["alerts"]
        }
