"""Differential proof that stacked fused scoring is byte-identical.

``OnlineXatu`` scores every watched customer in one stacked
fused-inference pass per minute (``XatuModel.hazards_np_batched`` and its
staged halves) instead of one model call per customer.  Its contract is
*bitwise* equivalence with the per-record, per-customer oracle
:class:`repro.testing.reference.ReferenceOnlineXatu` — same alert stream
down to the float bits of every survival value, same checkpoint bytes —
because hazards live inside checkpointed state and any drift would break
crash-equivalence.

Three layers of differential tests, the first and last on the PR-1
shrinking property runner (:mod:`repro.testing.props`):

* **kernel level** — ``hazards_np_batched(x)[i]`` vs
  ``hazards_np(x[i:i+1])[0]`` over random weights/inputs, float64 and
  float32, avg and max pooling;
* **staging level** — ``OnlineXatu.feature_windows`` (pooled straight from
  the sparse rows) vs ``stage_pooled`` over the oracle's dense scaled
  window, by ``tobytes()``, over every sparsity, padding, pooling, dtype
  and bucket-alignment case;
* **detector level** — production :class:`OnlineXatu` against
  :class:`ReferenceOnlineXatu` on the twin driver
  (:mod:`repro.testing.twin`: one builder, one seeded stream of minutes
  and operations, one ``drive_twins``), asserting identical ``(minute,
  customer, survival)`` alert tuples and hazard bits every minute and
  ``pickle``-byte-identical state dicts.  The cases differ in what they
  hold against it: ragged customer counts and thresholds, float32, 64
  customers under three chunk sizes, and 40-step runs past eviction that
  must have seen every hazard the stream can produce.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

import repro.core.online as online_module
from repro.core import OnlineConfig, OnlineXatu, XatuModel
from repro.core.model import TimescaleSpec, XatuModelConfig
from repro.netflow import FlowBatch, FlowRecord
from repro.obs import telemetry
from repro.signals.history import AlertRecord
from repro.synth.attacks import AttackType
from repro.testing.props import choices, integers, run_property
from repro.testing.reference import ReferenceOnlineXatu, reference_add_flow
from repro.testing.twin import (
    BASE_ADDRESS,
    SOURCE_POOL,
    alert_keys,
    build_detector,
    build_twins,
    checkpoint_bytes,
    drive_twins,
    twin_context,
    twin_stream,
)

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


def test_batched_lstm_gate_selection_is_bitwise_at_the_edges():
    """The batched kernel picks the sigmoid branch with ``max(e, sign(a))``
    where the per-window lane uses ``where(a >= 0, 1, e)``: same bits at
    ±0 (zero weights make every gate exactly the bias), at saturation in
    both directions, and where ``exp(-|a|)`` goes subnormal or underflows."""
    hidden, features, steps = 3, 5, 4
    bias = np.array(
        [0.0, -0.0, 1e-320, -1e-320, 30.0, -30.0, 720.0, -720.0, 800.0, -800.0, 0.5, -0.5]
    )
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (3, steps, features))
    for w_x, w_h in (
        (np.zeros((features, 4 * hidden)), np.zeros((hidden, 4 * hidden))),
        (rng.normal(0, 1, (features, 4 * hidden)), rng.normal(0, 1, (hidden, 4 * hidden))),
    ):
        for dtype in (None, np.float32):
            _assert_rows_equal_single_sequence_lane(x, w_x, w_h, bias, dtype)


# ----------------------------------------------------------------------
# kernel level: the shared-prefix resume.  ``lstm_infer_batched`` takes the
# leading steps whose projected rows are bit-identical across the batch from
# a memoised single-item chain and runs the batch from the first step that
# differs; the oracle is still row-by-row ``lstm_sequence``.
# ----------------------------------------------------------------------
SKIPPED = "nn.lstm_prefix_steps_skipped"


def _prefix_row(kind: str, rng: np.random.Generator, features: int, dtype) -> np.ndarray:
    if kind == "random":
        return rng.normal(0.0, 1.0, features)
    if kind == "zero":
        return np.zeros(features)
    # Signed zeros, subnormals and values that saturate every gate, each
    # finite in the policy dtype (the sanitized lane refuses inf).
    tiny, huge = (1e-320, 1e300) if dtype is None else (1e-45, 1e30)
    return np.resize([0.0, -0.0, tiny, -tiny, huge, -huge, 1.0], features)


def _assert_rows_equal_single_sequence_lane(x, w_x, w_h, bias, dtype) -> int:
    """Stacked call == ``lstm_sequence`` per row, by bytes; returns how many
    item-steps the call reported as resumed from the chain."""
    from contextlib import nullcontext

    from repro.nn import Tensor, inference_dtype, no_grad
    from repro.nn.fused import lstm_infer_batched, lstm_sequence

    policy = nullcontext() if dtype is None else inference_dtype(dtype)
    with telemetry() as registry, no_grad(), policy:
        before = registry.counter(SKIPPED).value()
        stacked = lstm_infer_batched(x, w_x, w_h, bias)
        skipped = registry.counter(SKIPPED).value() - before
        assert stacked.shape == (*x.shape[:2], w_h.shape[0])
        for b in range(len(x)):
            alone, _state = lstm_sequence(
                Tensor(x[b : b + 1]), Tensor(w_x), Tensor(w_h), Tensor(bias)
            )
            assert stacked.dtype == alone.data.dtype
            assert stacked[b].tobytes() == alone.data[0].tobytes(), f"row {b} drifted"
    return int(skipped)


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("row_kind", ["random", "zero", "edges"])
def test_batched_lstm_resumes_past_a_shared_prefix_bitwise(row_kind, dtype):
    from repro.nn import fused

    hidden, features, steps = 5, 9, 7
    rng = np.random.default_rng(11)
    w_x = rng.normal(0, 1, (features, 4 * hidden))
    w_h = rng.normal(0, 1, (hidden, 4 * hidden))
    bias = rng.normal(0, 1, 4 * hidden)
    row = _prefix_row(row_kind, rng, features, dtype)
    for batch in (1, 2, 24):
        # From an empty memo the chain grows 1 -> 2 -> steps - 1 -> steps;
        # the repeats then resume from states an extension started at.
        fused._PREFIX_CHAINS.clear()
        for lead in (0, 1, 2, steps - 1, steps, 2, 1, steps - 1):
            x = rng.normal(0.0, 1.0, (batch, steps, features))
            x[:, :lead] = row
            skipped = _assert_rows_equal_single_sequence_lane(x, w_x, w_h, bias, dtype)
            expected = _projected_lead(x, w_x, bias, dtype)
            assert expected <= lead
            assert skipped == batch * expected, (batch, lead)


def _projected_lead(x, w_x, bias, dtype) -> int:
    """Leading steps whose stacked projection ``x @ w_x + bias`` rows all
    carry the bytes of item 0's step 0: what the kernel promises to skip
    (none for a batch of one).  Equal inputs need not project to equal
    bytes — a GEMM kernel whose row results depend on the row's position in
    its block (OpenBLAS's Haswell kernel) shortens the lead — so the count
    is read off the projection."""
    if len(x) < 2:
        return 0
    real = np.float64 if dtype is None else dtype
    proj = np.matmul(x.astype(real), w_x.astype(real)) + bias.astype(real)
    first = proj[0, 0].tobytes()
    lead = 0
    while lead < proj.shape[1] and all(r.tobytes() == first for r in proj[:, lead]):
        lead += 1
    return lead


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
def test_batched_lstm_resumes_at_the_first_differing_bit(dtype):
    """One item, one step, one low bit: the batch must resume there, not
    later.  An identity ``w_x`` and zero bias make the projected row the
    input row, so the flipped bit survives the projection."""
    hidden, steps, batch = 3, 9, 4
    features = 4 * hidden
    rng = np.random.default_rng(5)
    w_h = rng.normal(0, 1, (hidden, 4 * hidden))
    real = np.float64 if dtype is None else dtype
    row = rng.normal(0.0, 1.0, features).astype(real)
    for k in range(steps):
        x = np.broadcast_to(row, (batch, steps, features)).copy()
        x[2, k, 7] = np.nextafter(x[2, k, 7], real(np.inf))
        skipped = _assert_rows_equal_single_sequence_lane(
            x, np.eye(features), w_h, np.zeros(features), dtype
        )
        assert skipped == batch * k, k


def test_shared_lead_compares_bits_and_reads_no_further_than_the_prefix():
    """Rows of +0.0 and -0.0 are equal as values and not as bits (no BLAS
    here projects to -0.0, so the rows are built by hand); a batch with no
    shared step-0 row — the warm fleet — costs one ``(batch, 4·hidden)``
    comparison and a prefix one comparison per shared step."""
    from repro.nn.fused import _shared_lead

    class Probe(np.ndarray):
        reads: list = []

        def tobytes(self, *args):
            Probe.reads.append(self.shape)
            return super().tobytes(*args)

    def lead_and_reads(x_proj):
        Probe.reads = []
        return _shared_lead(x_proj.view(Probe)), Probe.reads

    steps, batch, width = 6, 3, 8
    zeros = np.zeros((steps, batch, 1, width))
    assert lead_and_reads(zeros)[0] == steps
    zeros[0, 1] = -0.0
    assert np.array_equal(zeros[0, 0], zeros[0, 1])
    assert lead_and_reads(zeros) == (0, [(batch, 1, width), (1, width)])
    nans = np.full((steps, batch, 1, width), np.nan)
    assert lead_and_reads(nans)[0] == steps  # same bits: nothing rests on NaN != NaN
    rng = np.random.default_rng(0)
    for dtype in (np.float64, np.float32):
        warm = rng.normal(size=(steps, batch, 1, width)).astype(dtype)
        assert lead_and_reads(warm) == (0, [(batch, 1, width), (1, width)])
        for lead in range(1, steps + 1):
            cold = warm.copy()
            cold[:lead] = cold[0, 0]
            got, reads = lead_and_reads(cold)
            assert got == lead
            assert len(reads) == 2 + min(lead, steps - 1)
    assert lead_and_reads(warm[:, :1])[0] == 0  # one item: nothing to share
    assert lead_and_reads(warm[:0]) == (0, [])


def _shared_prefix_windows(model, rng, batch: int, pad: int) -> np.ndarray:
    x = rng.normal(0.0, 1.0, (batch, model.config.lookback_minutes, 273))
    x[:, :pad] = rng.normal(0.0, 1.0, 273)
    return x


def _assert_hazards_equal_per_item_lane(model, x, dtype=None) -> None:
    stacked = model.hazards_np_batched(x, dtype=dtype)
    for i in range(len(x)):
        alone = model.hazards_np(x[i : i + 1], dtype=dtype)[0]
        assert stacked[i].tobytes() == alone.tobytes(), f"row {i} drifted"


def test_prefix_memo_is_keyed_by_content_not_identity():
    """Parameters are overwritten in place (``load_state_dict``, optimiser
    steps), so the same arrays come back holding other weights: a chain
    found by identity would be stale.  Same inputs throughout."""
    from repro.nn import SGD, Adam, fused

    # Kernel level first: the same ``w_h`` array, new contents, and — with
    # ``w_x`` and the bias untouched — the same projected row as before.
    rng = np.random.default_rng(8)
    w_x, w_h, bias = rng.normal(0, 1, (9, 20)), rng.normal(0, 1, (5, 20)), rng.normal(0, 1, 20)
    x = rng.normal(0.0, 1.0, (3, 6, 9))
    x[:, :4] = x[0, 0]
    for _ in range(2):
        assert _assert_rows_equal_single_sequence_lane(x, w_x, w_h, bias, None) == 3 * 4
        w_h *= 0.5

    model, other = XatuModel(_tiny_config(3)), XatuModel(_tiny_config(4))
    model.eval()
    rng = np.random.default_rng(9)
    x = _shared_prefix_windows(model, rng, batch=5, pad=20)
    with telemetry() as registry:
        before = registry.counter(SKIPPED).value()
        _assert_hazards_equal_per_item_lane(model, x)
        assert registry.counter(SKIPPED).value() > before  # the shortcut is live
    first = model.hazards_np_batched(x)
    model.load_state_dict(other.state_dict())
    _assert_hazards_equal_per_item_lane(model, x)
    other.eval()
    assert model.hazards_np_batched(x).tobytes() == other.hazards_np_batched(x).tobytes()
    assert model.hazards_np_batched(x).tobytes() != first.tobytes()
    for optimiser in (SGD(model.parameters(), lr=0.05), Adam(model.parameters(), lr=0.05)):
        for parameter in model.parameters():
            parameter.grad = rng.normal(0.0, 1.0, parameter.data.shape)
        optimiser.step()
        _assert_hazards_equal_per_item_lane(model, x)
        fresh = XatuModel(model.config)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        fused._PREFIX_CHAINS.clear()
        want = fresh.hazards_np_batched(x).tobytes()
        assert model.hazards_np_batched(x).tobytes() == want


def test_prefix_memo_interleaves_models_and_dtypes_and_stays_bounded():
    from repro.nn import fused

    rng = np.random.default_rng(21)
    models = [XatuModel(_tiny_config(seed)) for seed in (1, 2)]
    for model in models:
        model.eval()
    windows = [
        _shared_prefix_windows(models[0], rng, batch=3, pad=pad) for pad in (30, 8, 17)
    ]
    fused._PREFIX_CHAINS.clear()
    for _ in range(2):
        for x in windows:  # more distinct (weights, row, dtype) keys than the bound
            for model in models:
                for dtype in (None, np.float32):
                    _assert_hazards_equal_per_item_lane(model, x, dtype)
                    assert 0 < len(fused._PREFIX_CHAINS) <= fused._PREFIX_CHAINS_MAX
    assert 3 * 2 * 2 * len(TINY_TIMESCALES) > fused._PREFIX_CHAINS_MAX  # it did evict
    for chain in fused._PREFIX_CHAINS.values():
        assert not chain.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            chain[0, 0] = 1.0


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_prefix_memo_lock_is_usable_in_a_child_forked_while_it_is_held():
    """A fork copies the memo's lock as held when another thread holds it,
    and nothing in the child would ever release it: the child's first
    chain must still be built, not wait forever."""
    import multiprocessing
    import threading

    from repro.nn import fused

    rng = np.random.default_rng(4)
    row, w_h = rng.normal(0, 1, (1, 1, 20)), rng.normal(0, 1, (5, 20))
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with fused._PREFIX_CHAINS_LOCK:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        child = multiprocessing.get_context("fork").Process(
            target=fused._prefix_chain, args=(row, w_h, 3)
        )
        child.start()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
    finally:
        release.set()
        holder.join()


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


def test_staged_rejects_sequences_that_do_not_match_their_timescale():
    """A staged sequence of the wrong length used to be scored at the wrong
    steps (too long) or die in an ``IndexError`` (too short); a second
    producer now hands ``hazards_np_staged`` views, so it checks them."""
    model = XatuModel(_tiny_config(0))
    short, long_ = model.stage_pooled(np.zeros((2, model.config.lookback_minutes, 273)))
    assert model.hazards_np_staged([short, long_]).shape == (2, DETECT_WINDOW)
    for bad, named in (
        ([short, np.zeros((2, 9, 273))], "'long'"),       # one step too many
        ([short[:, :-1], long_], "'short'"),              # one step too few
        ([short, long_[:1]], "'long'"),                   # batch mismatch
        ([short, long_[:, :, :100]], "'long'"),           # wrong feature count
    ):
        with pytest.raises(ValueError, match=named):
            model.hazards_np_staged(bad)
    with pytest.raises(ValueError, match="2 staged sequences"):
        model.hazards_np_staged([short])


# ----------------------------------------------------------------------
# detector level: full streaming loop, production vs oracle, on the twin
# driver (``repro.testing.twin``): late and future-stamped records, clock
# gaps, idle stretches, onboarding, re-homed and swapped addresses, blocklist
# swaps, past-dated incumbent alerts, mitigation ends and swapped-lane
# restores, comparing alerts, every hazard bit and checkpoint bytes.
# ----------------------------------------------------------------------
def _run_differential(
    seed: int, n_customers: int, n_minutes: int, threshold: float, **options
) -> set[str]:
    """Drive both lanes over one seeded stream; returns what occurred."""
    customer_of, blocklist = twin_context(n_customers)
    reference, production = build_twins(
        seed, customer_of, blocklist, threshold=threshold, **options
    )
    return drive_twins(
        reference, production, twin_stream(seed, customer_of, blocklist, n_minutes)
    )


def _traffic(seed: int, customer_of, minutes: int) -> list[FlowBatch]:
    """Per-minute batches from the twin stream, its operations ignored."""
    return [
        FlowBatch.from_records(s.flows)
        for s in twin_stream(seed, dict(customer_of), set(), minutes)
    ]


# Watch-forever and the default eviction margin: the paths ``TWIN_CONFIG``
# (idle-watch eviction, a 2-minute margin) turns off.
PLAIN_CONFIG = OnlineConfig(rearm_after=3)


def test_lanes_agree_over_random_traces():
    seen: set = set()

    def lanes_agree(seed, n_customers, n_minutes, threshold):
        seen.update(
            _run_differential(seed, n_customers, n_minutes, threshold, config=PLAIN_CONFIG)
        )

    run_property(
        lanes_agree,
        integers(0, 10**6),
        choices([1, 2, 7]),
        integers(4, 7),
        choices([0.9, 0.97, 0.5]),
        runs=6,
        seed=303,
    )
    assert seen >= {"onboarded", "alerted"}, seen


def test_lanes_agree_in_float32():
    def lanes_agree_f32(seed, n_customers, threshold):
        _run_differential(
            seed, n_customers, 5, threshold, dtype=np.float32, config=PLAIN_CONFIG
        )

    run_property(
        lanes_agree_f32,
        integers(0, 10**6),
        choices([2, 7]),
        choices([0.9, 0.97]),
        runs=4,
        seed=404,
    )


def test_sparse_lane_agrees_under_late_records_gaps_evictions_and_restores():
    """The stream under a non-identity scaler and a lookback short enough to
    run past eviction several times over, 40 steps a run."""
    seen: set = set()

    def sparse_lane_agrees(seed, n_customers, dtype, pooling):
        # Every run starts cold — its first ``lookback`` minutes are padded —
        # so production resumes past shared prefixes while the oracle (one
        # window at a time, another kernel) never does.
        with telemetry() as registry:
            skipped, evicted = (
                registry.counter(name) for name in (SKIPPED, "online.matrix_evictions")
            )
            before = skipped.value(), evicted.value()
            seen.update(
                _run_differential(seed, n_customers, 40, 0.9, dtype=dtype, pooling=pooling)
            )
            if skipped.value() > before[0]:
                seen.add("shared-prefix")
            if evicted.value() > before[1]:
                seen.add("matrix-evicted")
        seen.add(pooling)

    run_property(
        sparse_lane_agrees,
        integers(0, 10**6),
        choices([2, 5]),
        choices([np.float64, np.float32]),
        choices(["avg", "max"]),
        runs=10,
        seed=606,
    )
    # The differential is only meaningful if every hazard actually occurred.
    assert seen >= {
        "all", "blocklist", "prev_attacker", "spoofed",
        "idle-evicted", "re-watched", "A4+A5", "avg", "max", "shared-prefix",
        "matrix-evicted", "late", "future-stamped", "onboarded",
        "re-homed", "swapped", "blocklist-swapped",
        "restored", "restored-empty", "restored-after-series-evicted",
    }, seen


def test_routing_and_blocklist_tables_are_read_only_views():
    """The other half of "no stale table": what the twin stream changes by
    assignment cannot be changed behind the detector's sorted copies."""
    customer_of, blocklist = twin_context(2)
    detector = build_detector(OnlineXatu, 1, customer_of, blocklist)
    with pytest.raises(TypeError):
        detector.customer_of[BASE_ADDRESS] = 1
    with pytest.raises(AttributeError):
        detector.blocklist.add(5)
    customer_of[BASE_ADDRESS] = 1  # the caller's own dict is a copy away
    assert detector.customer_of[BASE_ADDRESS] == 0


# ----------------------------------------------------------------------
# staging level: pooled straight from the sparse rows == pooling the dense
# window.  Bit-identity rests on summation order (sequential over a
# non-innermost window axis, the empty bucket summed from a real tile, the
# cast before the pooling), so the cases below are chosen to break each.
# ----------------------------------------------------------------------
STAGING_TIMESCALES = {
    # lookback 21: ``(lookback - ts.minutes) % ts.window != 0`` for the
    # medium scale, so its buckets do not line up with the window start.
    "ragged": (
        TimescaleSpec("short", 1, 10),
        TimescaleSpec("medium", 4, 5),
        TimescaleSpec("long", 7, 3),
    ),
    # lookback 40: a 20-minute window, long enough that numpy's pairwise sum
    # (what reducing a contiguous last axis of >= 8 elements uses) and
    # ``zero * w / w`` both round differently from the sequential sum.
    "wide": (
        TimescaleSpec("short", 1, 12),
        TimescaleSpec("medium", 5, 6),
        TimescaleSpec("long", 20, 2),
    ),
}
ALL_CLASSES = ("blocklist", "prev_attacker", "spoofed")


def _flow(rng: np.random.Generator, minute: int) -> FlowRecord:
    packets = int(rng.integers(1, 900))
    return FlowRecord(
        timestamp=minute,
        src_addr=int(rng.choice(SOURCE_POOL)),
        dst_addr=60_000,
        src_port=int(rng.choice([53, 123, 4444])),
        dst_port=443,
        protocol=int(rng.choice([6, 17])),
        packets=packets,
        bytes_=packets * int(rng.integers(60, 1400)),
        tcp_flags=int(rng.integers(0, 64)),
    )


def _fill_staging_fixture(detector, rng: np.random.Generator, last_minute: int) -> list[int]:
    """Six customers, one per sparsity shape; returns their ids."""
    matrix = detector.matrix
    for minute in range(last_minute + 1):
        reference_add_flow(matrix, 2, _flow(rng, minute), ALL_CLASSES)  # every cell present
        for customer in (3, 4):  # random sparsity, random class subsets
            if rng.random() < 0.3:
                classes = [c for c in ALL_CLASSES if rng.random() < 0.4]
                reference_add_flow(matrix, customer, _flow(rng, minute), classes)
    late = _flow(rng, int(rng.integers(0, last_minute + 1)))
    reference_add_flow(matrix, 1, late, ("spoofed",))  # one row
    for customer in (2, 4, 5):  # A4/A5: 5 has alerts and no traffic at all
        for _ in range(3):
            detect = int(rng.integers(0, last_minute + 1))
            detector.ingest_cdet_alert(
                AlertRecord(
                    customer_id=customer,
                    attack_type=AttackType.TCP_SYN if rng.random() < 0.5 else AttackType.UDP_FLOOD,
                    detect_minute=detect,
                    end_minute=detect + int(rng.integers(0, 4)),
                    peak_bytes=float(rng.choice([2.0, 8.0, 5e6])),
                    attackers=frozenset(rng.choice(SOURCE_POOL, size=3).tolist()),
                )
            )
    return [0, 1, 2, 3, 4, 5]  # 0 stays empty


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("pooling", ["avg", "max"])
@pytest.mark.parametrize("layout", sorted(STAGING_TIMESCALES))
def test_feature_windows_equal_pooling_the_dense_window(monkeypatch, layout, pooling, dtype):
    timescales = STAGING_TIMESCALES[layout]
    pool_infer = online_module.fused.pool_infer

    def materialised_only(X, window, mode):
        # Where numpy reorders a stride-0 reduction the bits below would
        # show it; where it does not (2.4 here), this keeps the rule pinned.
        assert all(s for s, n in zip(X.strides, X.shape) if n > 1), X.strides
        return pool_infer(X, window, mode)

    monkeypatch.setattr(online_module.fused, "pool_infer", materialised_only)
    for seed in range(3):
        detector = build_detector(
            OnlineXatu, seed, {}, SOURCE_POOL[::3],
            dtype=dtype, pooling=pooling, timescales=timescales,
        )
        model, lookback = detector.model, detector.model.config.lookback_minutes
        assert any((lookback - ts.minutes) % ts.window for ts in timescales) == (
            layout == "ragged"
        )
        rng = np.random.default_rng(seed)
        last_minute = lookback + 9
        ids = _fill_staging_fixture(detector, rng, last_minute)
        # A padded window, the first full one, and one with rows before its start.
        for end_minute in (lookback // 2, lookback - 1, last_minute):
            got = detector.feature_windows(ids, end_minute)
            assert got.dtype == (np.float64 if dtype is None else dtype)
            assert got.shape == (len(ids), sum(ts.span for ts in timescales), 273)
            for i, customer in enumerate(ids):
                dense = detector.scaler.transform(
                    ReferenceOnlineXatu._feature_window(detector, customer, end_minute)
                )
                want = np.concatenate(model.stage_pooled(dense[None], dtype=dtype), axis=1)[0]
                assert got[i].tobytes() == want.tobytes(), (
                    f"seed {seed}, end {end_minute}: customer {customer} drifted"
                )


def _bench_shaped_detector(customer_of, dtype):
    """The e2e suite's timescale shape (240-minute lookback pooled to 108
    steps), so ``sum of spans != lookback`` and the dense stack is 2.2x the
    pooled one."""
    return build_detector(
        OnlineXatu,
        5,
        customer_of,
        dtype=dtype,
        timescales=(
            TimescaleSpec("short", 1, 60),
            TimescaleSpec("medium", 5, 36),
            TimescaleSpec("long", 20, 12),
        ),
    )


def test_score_stages_every_scored_customer_exactly_once(monkeypatch):
    """``benchmarks/e2e`` divides wall time by the ids passed to
    ``feature_windows`` (its ``us_per_decision``) and reads ``result.nbytes``,
    so ``_score`` must call it once per chunk with every scored id and get
    the model-ready pooled stack back as one ndarray."""
    monkeypatch.setattr(online_module, "SCORE_CHUNK", 3)
    customer_of = {60_000 + i: i for i in range(7)}
    staged: list[tuple[list[int], np.ndarray]] = []
    original = OnlineXatu.feature_windows

    def counting(self, customer_ids, end_minute):
        stack = original(self, customer_ids, end_minute)
        staged.append((list(customer_ids), stack))
        return stack

    monkeypatch.setattr(OnlineXatu, "feature_windows", counting)
    for dtype in (None, np.float32):
        detector = _bench_shaped_detector(customer_of, dtype)
        for minute, flows in enumerate(_traffic(11, customer_of, 3)):
            staged.clear()
            detector.step(minute, flows)
            assert [len(ids) for ids, _stack in staged] == [3, 3, 1]
            assert sum((ids for ids, _stack in staged), []) == sorted(detector._watched)
            for ids, stack in staged:
                assert isinstance(stack, np.ndarray)
                assert stack.shape == (len(ids), 60 + 36 + 12, 273)
                assert stack.dtype == (np.float64 if dtype is None else dtype)


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
def test_score_never_holds_a_dense_window_stack(dtype):
    """The memory half of the staging claim: scoring ``n`` customers stays
    below ``n * lookback * 273 * itemsize`` bytes of live allocations *in
    total*, so no single block (the dense stack, or the cast copy float32
    used to add) can be that large."""
    n = 16
    customer_of = {60_000 + i: i for i in range(n)}
    detector = _bench_shaped_detector(customer_of, dtype)
    for minute, flows in enumerate(_traffic(3, customer_of, 6)):
        detector.step(minute, flows)
    customers = sorted(customer_of.values())  # watched or idle-evicted alike
    dense_stack = (
        n * detector.model.config.lookback_minutes * 273
        * np.dtype(np.float64 if dtype is None else dtype).itemsize
    )
    detector._score(customers, 5)  # row stores and memoized indices exist now
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        detector._score(customers, 5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < peak < dense_stack, (peak, dense_stack)


def test_lanes_agree_at_64_customers_ragged_blocks(monkeypatch):
    # Chunks of 1, 5 and 256 all tile 65 (64 + one onboarded) customers
    # raggedly; SCORE_CHUNK only bounds memory, so all must agree with the
    # per-customer oracle byte for byte.
    for chunk in (1, 5, 256):
        monkeypatch.setattr(online_module, "SCORE_CHUNK", chunk)
        assert "onboarded" in _run_differential(8128, 64, 3, 0.95, config=PLAIN_CONFIG)


def _resumed_lane_tracks_the_oracle(cls) -> None:
    """Four minutes on two detectors, then ``cls``'s snapshot restored into a
    production detector, which tracks the never-interrupted oracle to the end
    of the stream."""
    customer_of, blocklist = twin_context(5)
    minutes = _traffic(99, customer_of, 8)
    oracle, production = build_twins(5, customer_of, blocklist, threshold=0.95)
    for minute in range(4):
        oracle.step(minute, minutes[minute])
        production.step(minute, minutes[minute])
    state = checkpoint_bytes(oracle if cls is ReferenceOnlineXatu else production)
    resumed = build_detector(OnlineXatu, 5, customer_of, blocklist, threshold=0.95)
    resumed.load_state_dict(pickle.loads(state))
    assert checkpoint_bytes(resumed) == state
    for minute in range(4, 8):
        want = oracle.step(minute, minutes[minute])
        assert alert_keys(want) == alert_keys(resumed.step(minute, minutes[minute]))
    assert checkpoint_bytes(resumed) == checkpoint_bytes(oracle)


def test_lane_flip_mid_stream_from_checkpoint():
    """A state dict written by the oracle restores byte-exactly into
    production."""
    _resumed_lane_tracks_the_oracle(ReferenceOnlineXatu)


def test_crash_restore_mid_stream_matches_uninterrupted_oracle():
    """Production killed and restored from its own snapshot."""
    _resumed_lane_tracks_the_oracle(OnlineXatu)


def test_lane_knobs_never_enter_the_checkpoint(monkeypatch):
    """Which class scores, at what precision and chunk size, is policy: none
    of it may change state bytes."""
    customer_of, blocklist = twin_context(3)
    plain = build_detector(ReferenceOnlineXatu, 1, customer_of, blocklist)
    monkeypatch.setattr(online_module, "SCORE_CHUNK", 2)
    tuned = build_detector(OnlineXatu, 1, customer_of, blocklist, dtype=np.float64)
    assert checkpoint_bytes(plain) == checkpoint_bytes(tuned)


def test_records_outside_the_wire_domain_are_refused_at_conversion():
    """A caller holding records converts them once, with
    ``FlowBatch.from_records``: a counter the 38-byte wire record cannot
    hold is a loud error there, never a silent wrap, so no detector ever
    sees it."""
    bad = FlowRecord(
        timestamp=0, src_addr=1, dst_addr=BASE_ADDRESS, src_port=1, dst_port=2,
        protocol=6, packets=2**32, bytes_=10,
    )
    with pytest.raises(OverflowError):
        FlowBatch.from_records([bad])
