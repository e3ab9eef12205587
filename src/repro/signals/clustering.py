"""Bipartite clustering coefficients — the A5 (correlated attacks) signal.

Table 1 lists "three techniques (dot, min, max) to obtain clustering
coefficient" from the bipartite attacker-group / customer graph, following
Latapy, Magnien & Del Vecchio's notions for two-mode networks (cited as [43]
in the paper).  For a node ``u`` and each node ``v`` at distance 2 (sharing
at least one neighbour), the pairwise coefficients are

    cc_dot(u, v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|      (Jaccard)
    cc_min(u, v) = |N(u) ∩ N(v)| / min(|N(u)|, |N(v)|)
    cc_max(u, v) = |N(u) ∩ N(v)| / max(|N(u)|, |N(v)|)

and the node coefficient is the mean over those neighbours-of-neighbours.
Here ``u`` is a customer and ``N(u)`` the set of attacker /24 groups seen
attacking it in a sliding window — so a rising coefficient means "the groups
hitting me are increasingly the groups hitting other customers too"
(Figure 16 shows exactly this rise approaching detection).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..netflow.addressing import subnet24

__all__ = ["bipartite_clustering", "AttackerCustomerGraph"]


def _pairwise(
    n_u: frozenset, n_v: frozenset
) -> tuple[float, float, float]:
    inter = len(n_u & n_v)
    if inter == 0:
        return 0.0, 0.0, 0.0
    union = len(n_u | n_v)
    return (
        inter / union,
        inter / min(len(n_u), len(n_v)),
        inter / max(len(n_u), len(n_v)),
    )


def bipartite_clustering(
    neighbors: dict[int, frozenset],
) -> dict[int, tuple[float, float, float]]:
    """Per-node (cc_dot, cc_min, cc_max) for one side of a bipartite graph.

    ``neighbors`` maps each node (customer) to its neighbour set on the
    other side (attacker groups).  Nodes with no distance-2 neighbours get
    (0, 0, 0) — the Figure 16 convention of "customers with some overlapping
    attacker groups" is applied by callers filtering zeros.
    """
    # Invert: which customers touch each attacker group.
    by_group: dict = defaultdict(set)
    for node, groups in neighbors.items():
        for g in groups:
            by_group[g].add(node)

    result: dict[int, tuple[float, float, float]] = {}
    for node, groups in neighbors.items():
        if not groups:
            result[node] = (0.0, 0.0, 0.0)
            continue
        others: set = set()
        for g in groups:
            others |= by_group[g]
        others.discard(node)
        if not others:
            result[node] = (0.0, 0.0, 0.0)
            continue
        dots, mins, maxs = [], [], []
        for other in others:
            d, mn, mx = _pairwise(groups, neighbors[other])
            dots.append(d)
            mins.append(mn)
            maxs.append(mx)
        result[node] = (
            float(np.mean(dots)),
            float(np.mean(mins)),
            float(np.mean(maxs)),
        )
    return result


@dataclass(frozen=True, slots=True)
class _WindowAlert:
    minute: int
    customer_id: int
    groups: frozenset


class AttackerCustomerGraph:
    """Sliding-window bipartite graph fed by the alert timeline.

    Each alert contributes edges (customer → attacker /24 groups) that stay
    in the graph for ``window_minutes``.  ``features_at`` returns the
    3-vector of clustering coefficients for one customer — the A5 columns of
    Table 1.
    """

    N_FEATURES = 3

    def __init__(self, window_minutes: int = 60) -> None:
        if window_minutes <= 0:
            raise ValueError("window_minutes must be positive")
        self.window_minutes = window_minutes
        self._alerts: list[_WindowAlert] = []

    def add_alert(
        self, minute: int, customer_id: int, attackers: frozenset[int] | set[int]
    ) -> None:
        """Record an alert's attacker set (widened to /24 groups)."""
        groups = frozenset(subnet24(a) for a in attackers)
        if groups:
            self._alerts.append(_WindowAlert(minute, customer_id, groups))

    def has_alerts(self, customer_id: int) -> bool:
        """False means the customer's A5 features are zero at every minute."""
        return any(a.customer_id == customer_id for a in self._alerts)

    def _neighbors_at(self, minute: int) -> dict[int, frozenset]:
        lo = minute - self.window_minutes
        merged: dict[int, set] = defaultdict(set)
        for alert in self._alerts:
            if lo < alert.minute <= minute:
                merged[alert.customer_id] |= alert.groups
        return {c: frozenset(g) for c, g in merged.items()}

    def features_at(self, customer_id: int, minute: int) -> np.ndarray:
        """(cc_dot, cc_min, cc_max) for ``customer_id`` at ``minute``."""
        neighbors = self._neighbors_at(minute)
        if customer_id not in neighbors:
            return np.zeros(self.N_FEATURES)
        coeffs = bipartite_clustering(neighbors)
        return np.array(coeffs[customer_id])

    def feature_block(
        self, customer_id: int, start_minute: int, end_minute: int, stride: int = 10
    ) -> np.ndarray:
        """Dense ``(minutes, 3)`` A5 block; recomputed every ``stride`` minutes.

        The bipartite graph changes only when alerts enter/leave the window,
        so sub-stride minutes reuse the last value (the paper's A5 features
        move on the tens-of-minutes timescale, Fig 16).
        """
        steps = end_minute - start_minute
        block = np.zeros((steps, self.N_FEATURES))
        if not self.has_alerts(customer_id):
            return block
        last = np.zeros(self.N_FEATURES)
        for t in range(steps):
            if t % stride == 0:
                last = self.features_at(customer_id, start_minute + t)
            block[t] = last
        return block

    def clustering_snapshot(self, minute: int) -> dict[int, tuple[float, float, float]]:
        """All customers' coefficients at ``minute`` (for Figure 16)."""
        return bipartite_clustering(self._neighbors_at(minute))

    def prune_before(self, minute: int) -> int:
        """Drop alerts that can no longer enter any window at ``minute`` or
        later; returns the number pruned (bounded-memory serving)."""
        cutoff = minute - self.window_minutes
        kept = [a for a in self._alerts if a.minute > cutoff]
        pruned = len(self._alerts) - len(kept)
        self._alerts = kept
        return pruned

    def state_dict(self) -> dict:
        """Canonical snapshot (alert order preserved, groups sorted)."""
        return {
            "window_minutes": self.window_minutes,
            "alerts": [
                [a.minute, a.customer_id, sorted(a.groups)] for a in self._alerts
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.window_minutes = int(state["window_minutes"])
        self._alerts = [
            _WindowAlert(int(minute), int(customer), frozenset(int(g) for g in groups))
            for minute, customer, groups in state["alerts"]
        ]
