"""Twin driver: the one differential behind every cache of the serving lane.

Production :class:`~repro.core.OnlineXatu` keeps derived state — scaled
and snapshot-encoded matrix rows and their dirt, the per-minute eviction
index, sorted routing and blocklist tables, the empty-window constants and
the LSTM pad chains — and its oracle
:class:`~repro.testing.reference.ReferenceOnlineXatu` keeps none.  Three
pieces prove that nobody can tell: :func:`build_twins` (one detector pair on
the same artefacts), :func:`twin_stream` (one seeded stream of minutes and
operations aimed at whatever could desynchronize a cache) and
:func:`drive_twins`, which compares alerts, hazard bits and checkpoint bytes
after every step and returns the hazards that actually occurred, so a test
can insist that they did.  ``docs/TESTING.md`` ("adding a cache") says what a
new cache owes this file.
"""

from __future__ import annotations

import pickle
from typing import Iterator, NamedTuple

import numpy as np

from ..core import OnlineConfig, OnlineXatu, XatuModel
from ..core.model import TimescaleSpec, XatuModelConfig
from ..netflow import FlowBatch, FlowRecord, RouteTable
from ..signals import FeatureScaler
from ..signals.features import N_FEATURES
from ..signals.history import AlertRecord
from ..synth.attacks import AttackType
from .reference import ReferenceOnlineXatu

__all__ = [
    "SOURCE_POOL",
    "TWIN_CONFIG",
    "TwinStep",
    "alert_keys",
    "build_detector",
    "build_twins",
    "checkpoint_bytes",
    "drive_twins",
    "twin_context",
    "twin_route_table",
    "twin_scaler",
    "twin_stream",
]

BASE_ADDRESS = 60_000
# Half the pool sits above the announced space (spoofed, A3), every third
# address starts out blocklisted (A1), and incumbent alerts draw their
# attackers from it (A2) — so all four matrix classes hold cells.
SOURCE_POOL = [2**31 - 6 * 7919 + i * 7919 for i in range(12)]
# Lookback 12: short enough that a 40-step run passes ``lookback +
# evict_margin_minutes`` several times over.
TWIN_TIMESCALES = (TimescaleSpec("short", 1, 8), TimescaleSpec("long", 3, 4))
TWIN_CONFIG = OnlineConfig(
    rearm_after=3,
    history_decay_minutes=30.0,
    clustering_window=6,
    evict_margin_minutes=2,
    watch_idle_minutes=3,
)


def twin_context(n_customers: int) -> tuple[dict[int, int], set[int]]:
    """A fresh routing dict and blocklist for :func:`twin_stream` to mutate."""
    return {BASE_ADDRESS + i: i for i in range(n_customers)}, set(SOURCE_POOL[::3])


def twin_route_table() -> RouteTable:
    route_table = RouteTable()
    route_table.announce((0, 2**31 - 1), origin_asn=1)  # upper half spoofed
    return route_table


def twin_scaler(rng: np.random.Generator) -> FeatureScaler:
    """A fitted scaler that is not the identity: the scaled zero row is
    non-zero and differs per column, so a wrong fill, a wrong column slice
    or a stale empty-window constant changes hazards."""
    scaler = FeatureScaler()
    scaler.mean_ = rng.normal(1.0, 2.0, N_FEATURES)
    scaler.std_ = rng.uniform(0.25, 4.0, N_FEATURES)
    return scaler


def build_detector(
    cls,
    seed: int,
    customer_of,
    blocklist=(),
    *,
    threshold: float = 0.9,
    dtype=np.float64,
    pooling: str = "avg",
    timescales=TWIN_TIMESCALES,
    config: OnlineConfig = TWIN_CONFIG,
) -> OnlineXatu:
    """A tiny seeded detector of class ``cls``: the equivalence argument is
    about op shapes and cast order, not capacity."""
    scaler = twin_scaler(np.random.default_rng(seed))
    model = XatuModel(
        XatuModelConfig(
            hidden_size=6,
            dense_size=5,
            detect_window=4,
            timescales=timescales,
            pooling=pooling,
            seed=seed % 1009,
        )
    )
    model.eval()
    detector = cls(
        model=model,
        scaler=scaler,
        threshold=threshold,
        customer_of=customer_of,
        blocklist=set(blocklist),
        route_table=twin_route_table(),
        config=config,
    )
    detector.inference_dtype = np.dtype(dtype)
    return detector


def build_twins(seed: int, customer_of, blocklist=(), **options):
    """``(reference, production)`` on equal artefacts and context."""
    return tuple(
        build_detector(cls, seed, customer_of, blocklist, **options)
        for cls in (ReferenceOnlineXatu, OnlineXatu)
    )


class TwinStep(NamedTuple):
    minute: int
    flows: list[FlowRecord]
    alerts: list[AlertRecord]  # incumbent alerts, ingested before the step
    ends: list[tuple[int, int]]  # mitigation ends (customer, minute)
    tables: tuple[dict, set] | None  # routing dict and blocklist, if changed
    scaler: FeatureScaler | None  # a newly assigned scaler, if any
    restore: bool  # swap lanes through pickled state_dicts first
    hazards: set[str]  # what this step exercises, by name
    refit: dict | None = None  # statistics loaded into each held scaler, in place
    dtype_flipped: bool = False  # float64 <-> float32 inference from this step on


def _flow(rng: np.random.Generator, minute: int, dst: int, burst: bool) -> FlowRecord:
    packets = int(rng.integers(200, 900) if burst else rng.integers(1, 900))
    pooled = rng.random() < 0.8
    return FlowRecord(
        # late and future-stamped records
        timestamp=max(0, minute + int(rng.choice([-3, -1, 0, 0, 0, 0, 1, 2]))),
        src_addr=int(rng.choice(SOURCE_POOL) if pooled else rng.integers(1, 2**32)),
        dst_addr=dst,
        src_port=int(rng.choice([0, 53, 123, 4444, 65535])),
        dst_port=int(rng.choice([80, 443, 65535])),
        protocol=int(rng.choice([1, 6, 17, 47])),
        packets=packets,
        bytes_=packets * int(rng.integers(60, 1400)),
        tcp_flags=int(rng.integers(0, 256)),
        src_country=str(rng.choice(["US", "CN", "DE", "XX"])),
        sampling_rate=int(rng.choice([1, 100, 1000])),
    )


def twin_stream(
    seed: int, customer_of: dict[int, int], blocklist: set[int], steps: int
) -> Iterator[TwinStep]:
    """Seeded minutes of traffic and the operations between them.

    ``customer_of`` and ``blocklist`` are changed *in place* — same object,
    often the same size — and handed back in ``tables``: a detector that
    recognises its tables by identity or length serves a stale one.  A
    third of the way in, both detectors are assigned a new scaler; half way,
    the scaler they hold loads new statistics (same scaler, new arrays);
    two thirds in, their inference dtype flips.  The scalers are drawn from
    a stream of their own, so the traffic's draws are unchanged.
    """
    rng = np.random.default_rng(seed)
    swap_scaler_at, scaler_rng = steps // 3, np.random.default_rng([seed, 1])
    refit_at, flip_at = steps // 2, 2 * steps // 3
    n_ids = len(customer_of)
    live, dead = sorted(customer_of), []  # swapped-out addresses keep receiving
    next_address = BASE_ADDRESS + n_ids
    # Step 0 restores two detectors that hold nothing: the empty snapshot.
    restores = {0, *rng.integers(1, max(steps, 2), size=2).tolist()}
    quiet_until: dict[int, int] = {}
    minute = -1
    for step in range(steps):
        hazards: set[str] = set()
        minute += 1 if rng.random() < 0.85 else int(rng.integers(2, 5))  # clock gaps
        if step == steps // 2:  # a brand-new customer starts routing
            customer_of[next_address] = n_ids
            live.append(next_address)
            next_address, n_ids = next_address + 1, n_ids + 1
            hazards.add("onboarded")
        if n_ids > 1 and rng.random() < 0.08:
            address = int(rng.choice(live))
            shift = 1 + int(rng.integers(0, n_ids - 1))
            customer_of[address] = (customer_of[address] + shift) % n_ids
            hazards.add("re-homed")
        if rng.random() < 0.08:  # ``del d[a]; d[b] = c``: same length
            old = live.pop(int(rng.integers(len(live))))
            customer_of[next_address] = customer_of.pop(old)
            live.append(next_address)
            dead.append(old)
            next_address += 1
            hazards.add("swapped")
        if blocklist and rng.random() < 0.1:  # ``discard(x); add(y)``: same length
            listed = sorted(blocklist)
            unlisted = [a for a in SOURCE_POOL if a not in blocklist]
            blocklist.discard(int(rng.choice(listed)))
            blocklist.add(int(rng.choice(unlisted)))
            hazards.add("blocklist-swapped")
        tables = (customer_of, blocklist) if hazards else None  # only table ops so far
        scaler = twin_scaler(scaler_rng) if step == swap_scaler_at else None
        if scaler is not None:
            hazards.add("scaler-swapped")
        refit = twin_scaler(scaler_rng).state_dict() if step == refit_at else None
        if refit is not None:
            hazards.add("scaler-refit")
        if step == flip_at:
            hazards.add("dtype-changed")

        flows: list[FlowRecord] = []
        if rng.random() >= 0.1:  # else: a fully empty minute
            victim = int(rng.choice(live))
            for address in (*live, *dead):
                if step < quiet_until.get(address, 0):
                    continue
                if rng.random() < 0.1:  # an idle stretch: idle-watch eviction
                    quiet_until[address] = step + int(rng.integers(4, 9))
                burst = address == victim and rng.random() < 0.5
                n = int(rng.integers(0, 4)) + burst * int(rng.integers(3, 8))
                flows += [_flow(rng, minute, address, burst) for _ in range(n)]
            for _ in range(int(rng.integers(0, 3))):  # unknown destinations
                flows.append(_flow(rng, minute, int(rng.integers(1, BASE_ADDRESS)), False))
        hazards.update("late" for f in flows if f.timestamp < minute)
        hazards.update("future-stamped" for f in flows if f.timestamp > minute)

        alerts = []
        if rng.random() < 0.25:
            detect = max(0, minute - int(rng.integers(0, 10)))  # past-dated alert
            alerts.append(
                AlertRecord(
                    customer_id=int(rng.integers(0, n_ids)),
                    attack_type=AttackType.TCP_SYN if rng.random() < 0.5 else AttackType.UDP_FLOOD,
                    detect_minute=detect,
                    end_minute=detect + int(rng.integers(0, 4)),
                    peak_bytes=float(rng.choice([2.0, 8.0, 5e6])),
                    attackers=frozenset(rng.choice(SOURCE_POOL, size=3).tolist()),
                )
            )
        ends = [(int(rng.integers(0, n_ids)), minute)] if rng.random() < 0.15 else []
        yield TwinStep(
            minute, flows, alerts, ends, tables, scaler, step in restores, hazards,
            refit, step == flip_at,
        )


def alert_keys(alerts) -> list[tuple[int, int, float]]:
    return [(a.minute, a.customer_id, a.survival) for a in alerts]


def checkpoint_bytes(detector) -> bytes:
    return pickle.dumps(detector.state_dict(), protocol=4)


def _hazard_bits(detector) -> list:
    return sorted(
        (customer, [h.hex() for h in hazards])
        for customer, hazards in detector._hazards.items()
    )


def drive_twins(reference, production, stream) -> set[str]:
    """Run both detectors over ``stream``; after every step their alerts and
    every hazard bit agree, production's matrix holds read rows for exactly
    the cells of the customers it watches (every watched series is read each
    minute, an idle-evicted one releases its rows), and their checkpoint
    bytes do at every restore,
    after every minute divisible by 3 (a checkpoint the stream keeps serving
    past, so the matrix's snapshot store carries over) and at the end.  A
    restore is ``state_dict`` → pickle (protocol 4) → unpickle →
    ``load_state_dict`` — the columnar snapshot end to end — and whatever it
    dropped or rebuilt has to survive every later step's comparison.
    Returns the names of the hazards that occurred."""
    twins = (reference, production)
    seen: set[str] = set()
    series: set[tuple[int, str]] = set()  # the matrix's live (customer, class)
    thinned = False  # a series lost its last cell to an eviction
    for step in stream:
        for detector in twins:
            if step.tables is not None:
                detector.customer_of, detector.blocklist = step.tables
            if step.scaler is not None:
                detector.scaler = step.scaler
            if step.refit is not None:
                detector.scaler.load_state_dict(step.refit)
            if step.dtype_flipped:
                wide = detector.inference_dtype == np.float64
                detector.inference_dtype = np.dtype(np.float32 if wide else np.float64)
            for alert in step.alerts:
                detector.ingest_cdet_alert(alert)
            for customer, minute in step.ends:
                detector.ingest_mitigation_end(customer, minute)
        if step.restore:
            # Swapped-lane restore: each class resumes from the other's bytes.
            ref_state, got_state = map(checkpoint_bytes, twins)
            assert ref_state == got_state, f"checkpoints diverged before minute {step.minute}"
            reference.load_state_dict(pickle.loads(got_state))
            production.load_state_dict(pickle.loads(ref_state))
            seen.add("restored" if series else "restored-empty")
            if thinned:
                seen.add("restored-after-series-evicted")
        watched = set(production._watched)
        batch = FlowBatch.from_records(step.flows)
        want = reference.step(step.minute, batch)
        got = production.step(step.minute, batch)
        assert alert_keys(want) == alert_keys(got), f"alerts diverged at minute {step.minute}"
        assert _hazard_bits(reference) == _hazard_bits(production), (
            f"hazards diverged at minute {step.minute}"
        )
        seen |= step.hazards
        cells = list(production.matrix.cells())
        held = sum(customer in production._watched for customer, _cls, _m, _cell in cells)
        assert production.matrix.row_store_rows() == held, (
            f"row stores hold {production.matrix.row_store_rows()} rows at minute "
            f"{step.minute}, the watched customers {held} cells"
        )
        live = {(customer, cls) for customer, cls, _m, _cell in cells}
        seen.update(cls for _customer, cls in live)
        thinned = thinned or bool(series - live)
        series = live
        if watched - production._watched:
            seen.add("idle-evicted")
        if production._watched - watched:
            seen.add("re-watched")
        if production.history._alerts and production.graph._alerts:
            seen.add("A4+A5")
        if got:
            seen.add("alerted")
        if step.minute % 3 == 0:  # a served checkpoint: a snapshot, no restore
            assert checkpoint_bytes(reference) == checkpoint_bytes(production), (
                f"checkpoints diverged at minute {step.minute}"
            )
    assert checkpoint_bytes(reference) == checkpoint_bytes(production), (
        "post-run checkpoints diverged"
    )
    return seen
