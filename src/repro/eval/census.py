"""Signal censuses: Figures 4a, 4b, 4c/16, 15 and Table 2.

These experiments do not train anything — they measure the empirical
regularities in the (synthetic) trace that motivate each auxiliary signal:

* **Fig 4a** — per attack, the fraction of its attackers that previously
  appeared on blocklists / attacked the same customer / were spoofed.
* **Fig 4b** — the attack-type transition matrix over consecutive attacks
  on the same customer.
* **Fig 4c / Fig 16** — bipartite attacker-customer clustering coefficients
  approaching detections.
* **Fig 15** — per day in the 10-day lookback, the fraction of eventual
  attackers already active, by signal.
* **Table 2** — attack counts per type per chronological split.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from ..netflow.routing import RouteTable
from ..signals.clustering import AttackerCustomerGraph
from ..synth.attacks import AttackType
from ..synth.scenario import Trace

__all__ = [
    "PrepSignalCensus",
    "prep_signal_census",
    "transition_matrix",
    "attacker_activity_by_day",
    "clustering_timeline",
    "split_table",
]


@dataclass(frozen=True, slots=True)
class PrepSignalCensus:
    """Per-event fractions of attackers with each prior signal (Fig 4a)."""

    event_id: int
    blocklisted_fraction: float
    previous_attacker_fraction: float
    spoofed_fraction: float


def prep_signal_census(trace: Trace) -> list[PrepSignalCensus]:
    """For each attack, what fraction of its attackers carried each signal."""
    blocklisted = trace_blocklisted(trace)
    route_table = trace.world.route_table
    seen_attackers: dict[int, set[int]] = defaultdict(set)
    results: list[PrepSignalCensus] = []
    for event in sorted(trace.events, key=lambda e: e.onset):
        attackers = event.attackers
        if not attackers:
            continue
        n = len(attackers)
        n_block = sum(1 for a in attackers if a in blocklisted)
        n_prev = sum(1 for a in attackers if a in seen_attackers[event.customer_id])
        n_spoof = sum(1 for a in attackers if route_table.is_spoofed(a))
        results.append(
            PrepSignalCensus(
                event_id=event.event_id,
                blocklisted_fraction=n_block / n,
                previous_attacker_fraction=n_prev / n,
                spoofed_fraction=n_spoof / n,
            )
        )
        seen_attackers[event.customer_id] |= attackers
    return results


def trace_blocklisted(trace: Trace) -> set[int]:
    """Ground-truth blocklisted sources of the trace's world."""
    listed: set[int] = set()
    for botnet in trace.world.botnets:
        listed.update(int(a) for a in botnet.blocklisted_members)
    return listed


def transition_matrix(trace: Trace) -> tuple[np.ndarray, list[AttackType], int]:
    """Row-normalized attack-type transition counts (Fig 4b).

    Returns (matrix, type order, number of consecutive pairs).  The paper
    observes 97.9% of consecutive pairs repeat the same type.
    """
    types = list(AttackType)
    index = {t: i for i, t in enumerate(types)}
    counts = np.zeros((len(types), len(types)))
    pairs = 0
    by_customer: dict[int, list] = defaultdict(list)
    for event in sorted(trace.events, key=lambda e: e.onset):
        by_customer[event.customer_id].append(event.attack_type)
    for sequence in by_customer.values():
        for prev_type, next_type in zip(sequence, sequence[1:]):
            counts[index[prev_type], index[next_type]] += 1
            pairs += 1
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(row_sums > 0, counts / row_sums, 0.0)
    return matrix, types, pairs


def same_type_share(trace: Trace) -> float:
    """Count-weighted fraction of consecutive same-type pairs (Fig 4b).

    This is the paper's 97.9% statistic: same-type pairs over all
    consecutive pairs, pooled across customers.
    """
    same = 0
    total = 0
    by_customer: dict[int, list] = defaultdict(list)
    for event in sorted(trace.events, key=lambda e: e.onset):
        by_customer[event.customer_id].append(event.attack_type)
    for sequence in by_customer.values():
        for prev_type, next_type in zip(sequence, sequence[1:]):
            total += 1
            if prev_type == next_type:
                same += 1
    return same / total if total else 0.0


def attacker_activity_by_day(
    trace: Trace, days_back: int | None = None
) -> dict[str, np.ndarray]:
    """Fig 15: median fraction of eventual attackers active on day -k.

    For each attack and each day k before its onset, measure the fraction
    of its eventual attackers that sent *any* traffic to the victim that
    day, split by signal class (blocklisted / previous attackers /
    spoofed).  Returns per-signal arrays indexed day -days_back .. -1.

    Activity is approximated from the per-class traffic matrix: a class is
    counted active in proportion to the unique-source counts observed that
    day, capped by the attacker-set size.
    """
    cfg = trace.config
    days_back = days_back or int(cfg.prep_days)
    mpd = cfg.minutes_per_day
    blocklisted = trace_blocklisted(trace)
    route_table = trace.world.route_table
    seen: dict[int, set[int]] = defaultdict(set)

    fractions: dict[str, list[list[float]]] = {
        "blocklist": [[] for _ in range(days_back)],
        "previous": [[] for _ in range(days_back)],
        "spoofed": [[] for _ in range(days_back)],
    }
    for event in sorted(trace.events, key=lambda e: e.onset):
        groups = {
            "blocklist": {a for a in event.attackers if a in blocklisted},
            "previous": {a for a in event.attackers if a in seen[event.customer_id]},
            "spoofed": {a for a in event.attackers if route_table.is_spoofed(a)},
        }
        for day in range(1, days_back + 1):
            lo = event.onset - day * mpd
            hi = lo + mpd
            if lo < 0:
                continue
            # Sources active toward this customer that day.
            active: set[int] = set()
            for minute in range(lo, hi):
                cell = trace.matrix.cell(event.customer_id, minute)
                if cell is not None:
                    active.update(cell.sources.tolist())
            for name, members in groups.items():
                if members:
                    frac = len(members & active) / len(members)
                    fractions[name][day - 1].append(frac)
        seen[event.customer_id] |= event.attackers
    return {
        name: np.array(
            [float(np.median(day_vals)) if day_vals else 0.0 for day_vals in per_day]
        )
        for name, per_day in fractions.items()
    }


def clustering_timeline(
    trace: Trace,
    minutes_before: list[int] | None = None,
    window_minutes: int = 60,
) -> dict[int, np.ndarray]:
    """Fig 16: median clustering coefficient at minutes before detection.

    Builds the attacker-customer graph from the event stream, then samples
    each event's victim coefficient at the given offsets before the event
    end (detection proxy).  Returns {offset: (cc_dot, cc_min, cc_max)}.
    """
    minutes_before = minutes_before or [15, 10, 5, 0]
    graph = AttackerCustomerGraph(window_minutes=window_minutes)
    for event in sorted(trace.events, key=lambda e: e.onset):
        graph.add_alert(event.onset, event.customer_id, frozenset(event.attackers))
    samples: dict[int, list[np.ndarray]] = {m: [] for m in minutes_before}
    for event in trace.events:
        for offset in minutes_before:
            minute = event.end - offset
            if minute < 0:
                continue
            coeff = graph.features_at(event.customer_id, minute)
            if coeff.any():
                samples[offset].append(coeff)
    return {
        offset: (
            np.median(np.stack(vals), axis=0) if vals else np.zeros(3)
        )
        for offset, vals in samples.items()
    }


def split_table(
    trace: Trace, split_fractions: tuple[float, float, float] = (0.5, 0.2, 0.3)
) -> dict[str, dict[str, int]]:
    """Table 2: attack counts per type per chronological split."""
    a, b, _c = split_fractions
    t1 = int(trace.horizon * a)
    t2 = int(trace.horizon * (a + b))
    table: dict[str, dict[str, int]] = {
        t.value: {"train": 0, "val": 0, "test": 0} for t in AttackType
    }
    for event in trace.events:
        if event.onset < t1:
            split = "train"
        elif event.onset < t2:
            split = "val"
        else:
            split = "test"
        table[event.attack_type.value][split] += 1
    return table
