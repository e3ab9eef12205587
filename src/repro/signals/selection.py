"""Feature selection utilities (Appendix D).

The paper selects the ports and source countries that cover >95% of the
ISP's traffic as the volumetric feature dimensions.  These helpers compute
the same coverage analysis on a synthetic trace — useful both to verify
the hard-coded :data:`~repro.netflow.matrix.POPULAR_PORTS` /
:data:`~repro.netflow.matrix.POPULAR_COUNTRIES` choices against a given
world and to re-derive them for custom scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..netflow.records import FlowBatch, _decode_country

__all__ = ["CoverageReport", "coverage_by_key", "select_covering"]


@dataclass(frozen=True, slots=True)
class CoverageReport:
    """Ranked traffic shares for one key (port / country / protocol)."""

    key_name: str
    ranked: tuple[tuple[object, float], ...]  # (key value, byte share) desc
    total_bytes: float

    def coverage_of(self, values) -> float:
        """Combined byte share of the given key values."""
        wanted = set(values)
        return sum(share for value, share in self.ranked if value in wanted)

    def top(self, n: int) -> list[object]:
        return [value for value, _share in self.ranked[:n]]


def coverage_by_key(batch: FlowBatch, key) -> CoverageReport:
    """Sampling-compensated byte shares of ``batch`` grouped by ``key``.

    ``key`` is a column name ("src_port", "dst_port", "src_country",
    "protocol"; countries come out as decoded codes) or an array of one key
    value per flow.  Values are ranked by share, descending; equal shares
    keep the order in which their first flow arrives.
    """
    if isinstance(key, str):
        name, keys = key, batch.array[key]
        if key == "src_country":
            codes, at = np.unique(keys, return_inverse=True)
            keys = np.array([_decode_country(bytes(c)) for c in codes], dtype=object)[at]
    else:
        name, keys = "custom", np.asarray(key)
        if keys.shape != (len(batch),):
            raise ValueError("key must hold one value per flow")
    weights = batch.estimated_bytes()
    grand_total = int(weights.sum())
    if grand_total <= 0:
        return CoverageReport(name, (), 0.0)
    values, first, at = np.unique(keys, return_index=True, return_inverse=True)
    totals = np.zeros(len(values), dtype=np.int64)
    np.add.at(totals, at, weights)
    order = np.lexsort((first, -totals))
    ranked = tuple(
        (value, total / grand_total)
        for value, total in zip(values[order].tolist(), totals[order].tolist())
    )
    return CoverageReport(name, ranked, float(grand_total))


def select_covering(report: CoverageReport, target: float = 0.95) -> list[object]:
    """Smallest prefix of ranked key values whose shares reach ``target``.

    Mirrors the Appendix D selection rule ("prevalent ... take up over 95%
    of traffic").  Returns all values if the target is unreachable.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must be in (0, 1]")
    chosen: list[object] = []
    covered = 0.0
    for value, share in report.ranked:
        if covered >= target:
            break
        chosen.append(value)
        covered += share
    return chosen
