"""Differential proof that stacked fused scoring is byte-identical.

``OnlineXatu`` scores every watched customer in one stacked
fused-inference pass per minute (``XatuModel.hazards_np_batched`` and its
staged halves) instead of one model call per customer.  Its contract is
*bitwise* equivalence with the per-record, per-customer oracle
:class:`repro.testing.reference.ReferenceOnlineXatu` — same alert stream
down to the float bits of every survival value, same checkpoint bytes —
because hazards live inside checkpointed state and any drift would break
crash-equivalence.

Two layers of differential tests, both on the PR-1 shrinking property
runner (:mod:`repro.testing.props`):

* **kernel level** — ``hazards_np_batched(x)[i]`` vs
  ``hazards_np(x[i:i+1])[0]`` over random weights/inputs, float64 and
  float32, avg and max pooling;
* **detector level** — production :class:`OnlineXatu` against
  :class:`ReferenceOnlineXatu`, driven minute-by-minute over randomized
  multi-customer traces (ragged customer counts, empty minutes,
  mid-stream churn, attack + benign mixes, incumbent alerts and
  mitigation ends), asserting identical ``(minute, customer, survival)``
  alert tuples every minute and ``pickle``-byte-identical post-run state
  dicts.
"""

import pickle

import numpy as np
import pytest

import repro.core.online as online_module
from repro.core import OnlineConfig, OnlineXatu, XatuModel
from repro.core.model import TimescaleSpec, XatuModelConfig
from repro.netflow import FlowRecord, RouteTable
from repro.signals import FeatureScaler
from repro.signals.history import AlertRecord
from repro.synth.attacks import AttackType
from repro.testing.props import choices, integers, run_property
from repro.testing.reference import ReferenceOnlineXatu

# A deliberately tiny architecture: the equivalence argument is about op
# shapes and cast order, not capacity, so small-and-fast maximizes the
# number of random cases the suite can afford.
TINY_TIMESCALES = (TimescaleSpec("short", 1, 24), TimescaleSpec("long", 4, 8))
DETECT_WINDOW = 6


def _tiny_config(seed: int, pooling: str = "avg") -> XatuModelConfig:
    return XatuModelConfig(
        hidden_size=8,
        dense_size=6,
        detect_window=DETECT_WINDOW,
        timescales=TINY_TIMESCALES,
        pooling=pooling,
        seed=seed,
    )


# ----------------------------------------------------------------------
# kernel level: stacked inference rows == per-item inference
# ----------------------------------------------------------------------
def test_batched_hazard_rows_bitwise_equal_f64():
    def rows_match(seed, batch, pooling):
        model = XatuModel(_tiny_config(seed % 97, pooling))
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (batch, model.config.lookback_minutes, 273))
        stacked = model.hazards_np_batched(x)
        for i in range(batch):
            alone = model.hazards_np(x[i : i + 1])[0]
            assert np.array_equal(stacked[i], alone), f"row {i} drifted"

    run_property(
        rows_match,
        integers(0, 10**6),
        choices([1, 2, 7]),
        choices(["avg", "max"]),
        runs=10,
        seed=101,
    )


def test_batched_hazard_rows_bitwise_equal_f32():
    def rows_match_f32(seed, batch):
        model = XatuModel(_tiny_config(seed % 89))
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (batch, model.config.lookback_minutes, 273))
        stacked = model.hazards_np_batched(x, dtype=np.float32)
        assert stacked.dtype == np.float32
        for i in range(batch):
            alone = model.hazards_np(x[i : i + 1], dtype=np.float32)[0]
            assert np.array_equal(stacked[i], alone), f"f32 row {i} drifted"

    run_property(
        rows_match_f32, integers(0, 10**6), choices([1, 3, 64]), runs=6, seed=202
    )


def test_batched_rejects_bad_shapes():
    model = XatuModel(_tiny_config(0))
    lookback = model.config.lookback_minutes
    for bad in (
        np.zeros((lookback, 273)),          # missing batch axis
        np.zeros((2, lookback, 100)),       # wrong feature count
        np.zeros((2, lookback - 1, 273)),   # too short a window
    ):
        try:
            model.hazards_np_batched(bad)
        except ValueError:
            continue
        raise AssertionError(f"shape {bad.shape} should have been rejected")


# ----------------------------------------------------------------------
# detector level: full streaming loop, production vs oracle
# ----------------------------------------------------------------------
def _build_detector(
    model_seed: int,
    threshold: float,
    customer_of: dict[int, int],
    *,
    reference: bool,
    dtype=None,
) -> OnlineXatu:
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    scaler = FeatureScaler()
    scaler.mean_ = np.zeros(273)
    scaler.std_ = np.ones(273)
    model = XatuModel(_tiny_config(model_seed))
    model.eval()
    detector = (ReferenceOnlineXatu if reference else OnlineXatu)(
        model=model,
        scaler=scaler,
        threshold=threshold,
        customer_of=dict(customer_of),
        blocklist=set(),
        route_table=route_table,
        config=OnlineConfig(rearm_after=3),
    )
    detector.inference_dtype = dtype
    return detector


def _random_minute(
    rng: np.random.Generator, minute: int, addresses: list[int]
) -> list[FlowRecord]:
    """One minute of mixed traffic; occasionally a fully empty minute."""
    if rng.random() < 0.15:
        return []
    flows: list[FlowRecord] = []
    victim = int(rng.choice(addresses))  # this minute's attack target
    for address in addresses:
        n = int(rng.integers(0, 3))
        attack = address == victim and rng.random() < 0.5
        if attack:
            n += int(rng.integers(3, 8))
        for _ in range(n):
            packets = int(rng.integers(200, 900)) if attack else int(rng.integers(1, 40))
            flows.append(
                FlowRecord(
                    timestamp=minute,
                    src_addr=int(rng.integers(1, 2**31)),
                    dst_addr=address,
                    src_port=int(rng.integers(1024, 65535)),
                    dst_port=443,
                    protocol=6,
                    packets=packets,
                    bytes_=packets * int(rng.integers(60, 1400)),
                )
            )
    return flows


def _cdet(customer_id: int, minute: int) -> AlertRecord:
    return AlertRecord(
        customer_id=customer_id,
        attack_type=AttackType.TCP_SYN,
        detect_minute=minute,
        end_minute=minute + 4,
        peak_bytes=5e6,
        attackers=frozenset({17, 23}),
    )


def _alert_key(alert) -> tuple[int, int, float]:
    return (alert.minute, alert.customer_id, alert.survival)


def _run_differential(
    seed: int,
    n_customers: int,
    n_minutes: int,
    threshold: float,
    *,
    dtype=None,
) -> None:
    """Drive both detectors over one randomized trace; assert bitwise equality."""
    customer_of = {60_000 + i: i for i in range(n_customers)}
    reference = _build_detector(
        seed % 1009, threshold, customer_of, reference=True, dtype=dtype
    )
    production = _build_detector(
        seed % 1009, threshold, customer_of, reference=False, dtype=dtype
    )
    rng = np.random.default_rng(seed)
    addresses = sorted(customer_of)
    churn_minute = n_minutes // 2
    produced = 0
    for minute in range(n_minutes):
        if minute == churn_minute:
            # Mid-stream churn: a brand-new customer starts routing to
            # both detectors and must be scored from this minute on.
            new_address, new_customer = 60_000 + n_customers, n_customers
            reference.customer_of[new_address] = new_customer
            production.customer_of[new_address] = new_customer
            addresses.append(new_address)
        flows = _random_minute(rng, minute, addresses)
        if rng.random() < 0.2:
            record = _cdet(int(rng.integers(0, n_customers)), minute)
            reference.ingest_cdet_alert(record)
            production.ingest_cdet_alert(record)
        if rng.random() < 0.15:
            customer = int(rng.integers(0, n_customers))
            reference.ingest_mitigation_end(customer, minute)
            production.ingest_mitigation_end(customer, minute)
        ref_alerts = reference.step(minute, flows)
        got_alerts = production.step(minute, flows)
        assert list(map(_alert_key, ref_alerts)) == list(map(_alert_key, got_alerts)), (
            f"alert streams diverged at minute {minute}"
        )
        produced += len(ref_alerts)
    ref_bytes = pickle.dumps(reference.state_dict(), protocol=4)
    got_bytes = pickle.dumps(production.state_dict(), protocol=4)
    assert ref_bytes == got_bytes, "post-run checkpoints diverged"


def test_lanes_agree_over_random_traces():
    run_property(
        _run_differential,
        integers(0, 10**6),
        choices([1, 2, 7]),
        integers(4, 7),
        choices([0.9, 0.97, 0.5]),
        runs=6,
        seed=303,
    )


def test_lanes_agree_in_float32():
    def lanes_agree_f32(seed, n_customers, threshold):
        _run_differential(seed, n_customers, 5, threshold, dtype=np.float32)

    run_property(
        lanes_agree_f32,
        integers(0, 10**6),
        choices([2, 7]),
        choices([0.9, 0.97]),
        runs=4,
        seed=404,
    )


def test_lanes_agree_at_64_customers_ragged_blocks(monkeypatch):
    # Chunks of 1, 5 and 256 all tile 65 (64 + one churned-in) customers
    # raggedly; SCORE_CHUNK only bounds memory, so all must agree with the
    # per-customer oracle byte for byte.
    for chunk in (1, 5, 256):
        monkeypatch.setattr(online_module, "SCORE_CHUNK", chunk)
        _run_differential(8128, 64, 3, 0.95)


def test_lane_flip_mid_stream_from_checkpoint():
    """A state dict written by the oracle restores byte-exactly into
    production, which then tracks the oracle to the end of the stream."""
    customer_of = {60_000 + i: i for i in range(5)}
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    rng = np.random.default_rng(99)
    addresses = sorted(customer_of)

    reference = _build_detector(5, 0.95, customer_of, reference=True)
    minutes = [_random_minute(rng, m, addresses) for m in range(8)]
    for minute in range(4):
        reference.step(minute, minutes[minute])
    state = reference.state_dict()

    resumed = OnlineXatu.from_state_dict(state, route_table)
    assert type(resumed) is OnlineXatu  # reference → production restore
    assert pickle.dumps(resumed.state_dict(), protocol=4) == pickle.dumps(
        state, protocol=4
    )
    for minute in range(4, 8):
        ref_alerts = reference.step(minute, minutes[minute])
        res_alerts = resumed.step(minute, minutes[minute])
        assert list(map(_alert_key, ref_alerts)) == list(map(_alert_key, res_alerts))
    assert pickle.dumps(resumed.state_dict(), protocol=4) == pickle.dumps(
        reference.state_dict(), protocol=4
    )


def test_lane_knobs_never_enter_the_checkpoint(monkeypatch):
    """Which class scores, at what precision and chunk size, is policy: none
    of it may change state bytes."""
    customer_of = {60_000 + i: i for i in range(3)}
    plain = _build_detector(1, 0.9, customer_of, reference=True)
    monkeypatch.setattr(online_module, "SCORE_CHUNK", 2)
    tuned = _build_detector(1, 0.9, customer_of, reference=False, dtype=np.float64)
    assert pickle.dumps(plain.state_dict(), protocol=4) == pickle.dumps(
        tuned.state_dict(), protocol=4
    )


def test_crash_restore_mid_stream_matches_uninterrupted_oracle():
    """Production killed and restored from its own snapshot still tracks the
    never-interrupted oracle byte for byte."""
    customer_of = {60_000 + i: i for i in range(5)}
    route_table = RouteTable()
    route_table.announce((0, 2**32 - 1), origin_asn=1)
    rng = np.random.default_rng(7)
    addresses = sorted(customer_of)
    minutes = [_random_minute(rng, m, addresses) for m in range(8)]

    oracle = _build_detector(5, 0.95, customer_of, reference=True)
    production = _build_detector(5, 0.95, customer_of, reference=False)
    for minute in range(4):
        oracle.step(minute, minutes[minute])
        production.step(minute, minutes[minute])
    production = OnlineXatu.from_state_dict(
        pickle.loads(pickle.dumps(production.state_dict(), protocol=4)), route_table
    )
    for minute in range(4, 8):
        want = oracle.step(minute, minutes[minute])
        got = production.step(minute, minutes[minute])
        assert list(map(_alert_key, want)) == list(map(_alert_key, got))
    assert pickle.dumps(production.state_dict(), protocol=4) == pickle.dumps(
        oracle.state_dict(), protocol=4
    )


def test_step_rejects_records_outside_the_wire_domain():
    """A record list is columnarized at the ``step`` boundary: a counter the
    38-byte wire record cannot hold is a loud error, never a silent wrap,
    and the failed call leaves the detector untouched."""
    customer_of = {60_000: 0}
    detector = _build_detector(1, 0.9, customer_of, reference=False)
    before = pickle.dumps(detector.state_dict(), protocol=4)
    bad = FlowRecord(
        timestamp=0, src_addr=1, dst_addr=60_000, src_port=1, dst_port=2,
        protocol=6, packets=2**32, bytes_=10,
    )
    with pytest.raises(OverflowError):
        detector.step(0, [bad])
    assert pickle.dumps(detector.state_dict(), protocol=4) == before
    assert detector.step(0, []) == []  # minute 0 was not consumed
