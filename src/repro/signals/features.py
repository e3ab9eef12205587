"""Assembly of the 273-feature input of Table 1.

Feature layout (columns of the per-minute matrix):

====== ======= ============================================================
offset width   group
====== ======= ============================================================
0      63      V   — volumetric counters over *all* traffic
63     63      A1  — the same counters restricted to blocklisted sources
126    63      A2  — restricted to previous attackers of this customer
189    63      A3  — restricted to spoofed sources
252    18      A4  — recency-weighted (attack type × severity) history
270    3       A5  — bipartite clustering coefficients (dot / min / max)
====== ======= ============================================================

:class:`FeatureExtractor` materializes ``(window, 273)`` blocks from a
:class:`~repro.synth.Trace` plus an alert timeline; :class:`FeatureScaler`
learns a log1p + standardize transform on training data (the raw counters
span ten orders of magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netflow.matrix import (
    N_VOLUMETRIC,
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    VOLUMETRIC_FEATURE_NAMES,
)
from ..synth.scenario import Trace
from .clustering import AttackerCustomerGraph
from .history import AlertRecord, AttackHistoryStore

__all__ = [
    "N_FEATURES",
    "FEATURE_GROUPS",
    "feature_names",
    "group_slices",
    "FeatureExtractor",
    "FeatureScaler",
]

FEATURE_GROUPS: tuple[tuple[str, int], ...] = (
    ("V", N_VOLUMETRIC),
    ("A1", N_VOLUMETRIC),
    ("A2", N_VOLUMETRIC),
    ("A3", N_VOLUMETRIC),
    ("A4", AttackHistoryStore.N_FEATURES),
    ("A5", AttackerCustomerGraph.N_FEATURES),
)
N_FEATURES = sum(width for _name, width in FEATURE_GROUPS)
assert N_FEATURES == 273, "Table 1 specifies 273 features"


def group_slices() -> dict[str, slice]:
    """Column slice of each feature group inside the 273-wide matrix."""
    slices: dict[str, slice] = {}
    offset = 0
    for name, width in FEATURE_GROUPS:
        slices[name] = slice(offset, offset + width)
        offset += width
    return slices


def feature_names() -> list[str]:
    """All 273 column names, prefixed by group."""
    names: list[str] = []
    for group, width in FEATURE_GROUPS:
        if width == N_VOLUMETRIC:
            names.extend(f"{group}.{n}" for n in VOLUMETRIC_FEATURE_NAMES)
        elif group == "A4":
            from .history import SEVERITIES
            from ..synth.attacks import AttackType

            names.extend(
                f"A4.{t.value}.{s}" for t in AttackType for s in SEVERITIES
            )
        else:
            names.extend(f"A5.cc_{kind}" for kind in ("dot", "min", "max"))
    return names


_CLASS_OF_GROUP = {
    "V": SOURCE_CLASS_ALL,
    "A1": SOURCE_CLASS_BLOCKLIST,
    "A2": SOURCE_CLASS_PREV_ATTACKER,
    "A3": SOURCE_CLASS_SPOOFED,
}


class FeatureExtractor:
    """Builds model inputs from a trace and an alert timeline.

    The alert timeline drives the A4 and A5 groups (and, in the deployed
    system, the A2 membership — here A2 splits were tagged during trace
    generation from completed attacks, a faithful proxy for any detector
    whose alerts carry the correct signature; see DESIGN.md).

    ``enabled_groups`` masks feature groups to zero — this powers the
    Figure 12 / Figure 13 ablations ("Xatu w/o aux signals" keeps only V).
    """

    def __init__(
        self,
        trace: Trace,
        alerts: list[AlertRecord] | None = None,
        history_decay_minutes: float | None = None,
        clustering_window: int | None = None,
        enabled_groups: frozenset[str] | None = None,
    ) -> None:
        self.trace = trace
        cfg = trace.config
        self.enabled_groups = (
            frozenset(g for g, _w in FEATURE_GROUPS)
            if enabled_groups is None
            else frozenset(enabled_groups)
        )
        unknown = self.enabled_groups - {g for g, _w in FEATURE_GROUPS}
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        self._slices = group_slices()

        decay = history_decay_minutes or 7.0 * cfg.minutes_per_day
        window = clustering_window or max(30, cfg.minutes_per_day // 4)
        self.history = AttackHistoryStore(decay_minutes=decay)
        self.graph = AttackerCustomerGraph(window_minutes=window)
        self._base_rate = {
            c.customer_id: c.base_rate_bytes for c in trace.world.customers
        }
        for alert in alerts or []:
            self.add_alert(alert)

    def add_alert(self, alert: AlertRecord) -> None:
        """Feed one detection alert into the history/graph stores.

        In training the timeline comes from CDet; in Xatu's autoregressive
        test mode (§5.3) the caller feeds Xatu's own alerts here as they
        are emitted.
        """
        self.history.add_alert(alert, self._base_rate.get(alert.customer_id, 1.0))
        self.graph.add_alert(alert.detect_minute, alert.customer_id, alert.attackers)

    # ------------------------------------------------------------------
    def window(
        self, customer_id: int, start_minute: int, end_minute: int
    ) -> np.ndarray:
        """Materialize the ``(end-start, 273)`` feature block."""
        if end_minute <= start_minute:
            raise ValueError("feature window must be non-empty")
        steps = end_minute - start_minute
        block = np.zeros((steps, N_FEATURES))
        matrix = self.trace.matrix
        for group in ("V", "A1", "A2", "A3"):
            if group not in self.enabled_groups:
                continue
            block[:, self._slices[group]] = matrix.feature_block(
                customer_id, start_minute, end_minute, _CLASS_OF_GROUP[group]
            )
        if "A4" in self.enabled_groups:
            block[:, self._slices["A4"]] = self.history.feature_block(
                customer_id, start_minute, end_minute
            )
        if "A5" in self.enabled_groups:
            block[:, self._slices["A5"]] = self.graph.feature_block(
                customer_id, start_minute, end_minute
            )
        return block


class FeatureScaler:
    """log1p + per-column standardization, fit on training windows.

    Byte counters span many orders of magnitude; the clustering
    coefficients are already in [0, 1].  ``log1p`` compresses the former
    without hurting the latter, and standardization uses training-set
    statistics only (no test leakage).
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, blocks: list[np.ndarray]) -> "FeatureScaler":
        if not blocks:
            raise ValueError("cannot fit scaler on zero blocks")
        stacked = np.concatenate([np.log1p(np.maximum(b, 0.0)) for b in blocks], axis=0)
        self.mean_ = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std[std < 1e-9] = 1.0  # constant columns pass through centred
        self.std_ = std
        return self

    def transform(
        self,
        block: np.ndarray,
        out: np.ndarray | None = None,
        columns: slice | None = None,
    ) -> np.ndarray:
        """Scale ``block``; with ``out`` (may alias ``block``) the work runs
        through preallocated storage, and with ``columns`` the block holds
        only that slice of the 273 feature columns.  Each element goes
        through the same op chain every way (max → log1p → subtract →
        divide), so all of them are bitwise identical — the serving lane
        relies on that to scale only the non-empty rows of each feature
        group instead of every customer's dense window.
        """
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fit before transform")
        mean, std = self.mean_, self.std_
        if columns is not None:
            mean, std = mean[columns], std[columns]
        if out is None:
            return (np.log1p(np.maximum(block, 0.0)) - mean) / std
        np.maximum(block, 0.0, out=out)
        np.log1p(out, out=out)
        out -= mean
        out /= std
        return out

    def fit_transform(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        self.fit(blocks)
        return [self.transform(b) for b in blocks]

    def state_dict(self) -> dict[str, np.ndarray]:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("scaler must be fit before serialization")
        return {"mean": self.mean_.copy(), "std": self.std_.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.mean_ = np.asarray(state["mean"], dtype=np.float64)
        self.std_ = np.asarray(state["std"], dtype=np.float64)
