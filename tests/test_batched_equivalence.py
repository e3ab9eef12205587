"""Differential proof that stacked fused scoring is byte-identical.

``OnlineXatu`` scores every watched customer in one stacked
fused-inference pass per minute (``XatuModel.hazards_np_batched`` and its
staged halves) instead of one model call per customer.  Its contract is
*bitwise* equivalence with the per-record, per-customer oracle
:class:`repro.testing.reference.ReferenceOnlineXatu` — same alert stream
down to the float bits of every survival value, same checkpoint bytes —
because hazards live inside checkpointed state and any drift would break
crash-equivalence.

Three layers of differential tests, the first and last hypothesis
property sweeps:

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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.online as online_module
from repro.core import OnlineConfig, OnlineXatu, XatuModel
from repro.core.model import TimescaleSpec, XatuModelConfig
from repro.netflow import FlowBatch, FlowRecord
from repro.obs import telemetry
from repro.signals.history import AlertRecord
from repro.synth.attacks import AttackType
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
    @settings(max_examples=10)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 2, 7]),
        st.sampled_from(["avg", "max"]),
    )
    def rows_match(seed, batch, pooling):
        model = XatuModel(_tiny_config(seed % 97, pooling))
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (batch, model.config.lookback_minutes, 273))
        stacked = model.hazards_np_batched(x)
        for i in range(batch):
            alone = model.hazards_np(x[i : i + 1])[0]
            assert np.array_equal(stacked[i], alone), f"row {i} drifted"

    rows_match()


def test_batched_hazard_rows_bitwise_equal_f32():
    @settings(max_examples=6)
    @given(st.integers(0, 10**6), st.sampled_from([1, 3, 64]))
    def rows_match_f32(seed, batch):
        model = XatuModel(_tiny_config(seed % 89))
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (batch, model.config.lookback_minutes, 273))
        stacked = model.hazards_np_batched(x, dtype=np.float32)
        assert stacked.dtype == np.float32
        for i in range(batch):
            alone = model.hazards_np(x[i : i + 1], dtype=np.float32)[0]
            assert np.array_equal(stacked[i], alone), f"f32 row {i} drifted"

    rows_match_f32()


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
# kernel level: the pad-chain resume.  ``lstm_infer_lockstep`` is told each
# sequence's padded leading steps, takes them from one item's chain and runs
# the batch from the smallest count on; the oracle is still row-by-row
# ``lstm_sequence`` given the same count.
# ----------------------------------------------------------------------
SKIPPED = "nn.lstm_prefix_steps_skipped"
PROJ_SKIPPED = "nn.lstm_proj_rows_skipped"


def _prefix_row(kind: str, rng: np.random.Generator, features: int, dtype) -> np.ndarray:
    if kind == "random":
        return rng.normal(0.0, 1.0, features)
    if kind == "zero":
        return np.zeros(features)
    # Signed zeros, subnormals and values that saturate every gate, each
    # finite in the policy dtype (the sanitized lane refuses inf).
    tiny, huge = (1e-320, 1e300) if dtype is None else (1e-45, 1e30)
    return np.resize([0.0, -0.0, tiny, -tiny, huge, -huge, 1.0], features)


def _assert_rows_equal_single_sequence_lane(
    x, w_x, w_h, bias, dtype, pads=0, chains=None
) -> int:
    """Stacked call == ``lstm_sequence`` per row with the same pad count, by
    bytes; returns how many item-steps the call resumed from the chain."""
    from contextlib import nullcontext

    from repro.nn import Tensor, inference_dtype, no_grad
    from repro.nn.fused import lstm_infer_lockstep, lstm_sequence

    policy = nullcontext() if dtype is None else inference_dtype(dtype)
    with telemetry() as registry, no_grad(), policy:
        before = registry.counter(SKIPPED).value()
        (stacked,) = lstm_infer_lockstep([x], [(w_x, w_h, bias)], [pads], chains)
        skipped = registry.counter(SKIPPED).value() - before
        assert stacked.shape == (*x.shape[:2], w_h.shape[0])
        for b, pad in enumerate(np.broadcast_to(pads, len(x)).tolist()):
            alone, _state = lstm_sequence(
                Tensor(x[b : b + 1]), Tensor(w_x), Tensor(w_h), Tensor(bias), pads=pad
            )
            assert stacked.dtype == alone.data.dtype
            assert stacked[b].tobytes() == alone.data[0].tobytes(), f"row {b} drifted"
    return int(skipped)


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("row_kind", ["random", "zero", "edges"])
def test_batched_lstm_resumes_past_a_shared_prefix_bitwise(row_kind, dtype):
    hidden, features, steps = 5, 9, 7
    rng = np.random.default_rng(11)
    w_x = rng.normal(0, 1, (features, 4 * hidden))
    w_h = rng.normal(0, 1, (hidden, 4 * hidden))
    bias = rng.normal(0, 1, 4 * hidden)
    row = _prefix_row(row_kind, rng, features, dtype)
    for batch in (1, 2, 24):
        # From an empty dict the chain is built at 1 and rebuilt longer at 2,
        # steps - 1 and steps; the repeats then read a prefix of it.
        chains: dict = {}
        for lead in (0, 1, 2, steps - 1, steps, 2, 1, steps - 1):
            x = rng.normal(0.0, 1.0, (batch, steps, features))
            x[:, :lead] = row
            skipped = _assert_rows_equal_single_sequence_lane(
                x, w_x, w_h, bias, dtype, lead, chains
            )
            # Each item projects its padding once, from the same GEMM shape,
            # so equal inputs project to equal bytes on every kernel.
            assert skipped == batch * lead, (batch, lead)
        assert len(chains) == 1


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["f64", "f32"])
def test_batched_lstm_resumes_at_the_first_differing_bit(dtype):
    """One item, one step, one low bit: the padding ends there, and the
    batch resumes there, not later — a longer count is refused by the
    sanitizer.  An identity ``w_x`` and zero bias make the projected row
    the input row, so the flipped bit survives the projection."""
    from repro.analysis.sanitizer import SanitizeError, sanitized
    from repro.nn.fused import lstm_infer_lockstep

    hidden, steps, batch = 3, 9, 4
    features = 4 * hidden
    rng = np.random.default_rng(5)
    w_h = rng.normal(0, 1, (hidden, 4 * hidden))
    real = np.float64 if dtype is None else dtype
    row = rng.normal(0.0, 1.0, features).astype(real)
    weights = (np.eye(features), w_h, np.zeros(features))
    for k in range(steps):
        x = np.broadcast_to(row, (batch, steps, features)).copy()
        x[2, k, 7] = np.nextafter(x[2, k, 7], real(np.inf))
        assert _assert_rows_equal_single_sequence_lane(x, *weights, dtype, k) == batch * k, k
        with sanitized(True), pytest.raises(SanitizeError, match="pad count"):
            lstm_infer_lockstep([x], [weights], [min(k + 2, steps)])


def test_resume_falls_back_to_step_0_when_projected_pad_rows_differ():
    """The batch resumes from one item's chain only if every item's
    projected pad row has item 0's bytes: here item 2's pad row is one low
    bit off (each item's own padding is valid), so the timescale runs from
    step 0, and still equals the oracle row by row."""
    hidden, steps, batch = 3, 8, 4
    features = 4 * hidden
    rng = np.random.default_rng(6)
    w_h = rng.normal(0, 1, (hidden, 4 * hidden))
    for dtype in (None, np.float32):
        real = np.float64 if dtype is None else dtype
        row = rng.normal(0.0, 1.0, features).astype(real)
        x = rng.normal(0.0, 1.0, (batch, steps, features)).astype(real)
        x[:, :5] = row
        weights = (np.eye(features), w_h, np.zeros(features))
        assert _assert_rows_equal_single_sequence_lane(x, *weights, dtype, 5) == batch * 5
        x[2, :5, 7] = np.nextafter(row[7], real(np.inf))
        assert _assert_rows_equal_single_sequence_lane(x, *weights, dtype, 5) == 0
        assert _assert_rows_equal_single_sequence_lane(x, *weights, dtype, [5, 5, 0, 5]) == 0


# ----------------------------------------------------------------------
# kernel level: one projection per padding.  Every single-sequence lane (the
# lock-stepped kernel and ``lstm_sequence`` at batch 1 under no_grad)
# projects through ``fused._project``: given each sequence's pad count ``p``,
# it runs the GEMM over rows ``f = min(p - 1, T - 2) ..`` only, and gives
# the padding row ``f``'s projection.
# ----------------------------------------------------------------------
def _expected_projection(x, w_x, bias, pads) -> np.ndarray:
    """What ``_project`` promises, spelled per item: one 2-D GEMM over rows
    ``f ..`` (two at least: one row would be gemv's), its first row copied
    over the padding, then the bias."""
    steps = x.shape[1]
    out = np.empty((*x.shape[:2], w_x.shape[1]), dtype=x.dtype)
    for b, pad in enumerate(pads):
        first = max(0, min(pad - 1, steps - 2))
        out[b, first:] = x[b, first:] @ w_x
        out[b, :first] = out[b, first]
    return out + bias


def test_projection_computes_each_leading_run_once_bitwise():
    from contextlib import nullcontext

    from repro.nn import Tensor, inference_dtype, no_grad
    from repro.nn.fused import _project, lstm_infer_lockstep, lstm_sequence

    seen: set[str] = set()

    @settings(max_examples=30)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 2, 5]),
        st.sampled_from([None, np.float32]),
        st.sampled_from([False, True]),
    )
    def projects_each_run_once(seed, batch, dtype, mixed):
        rng = np.random.default_rng(seed)
        hidden, features = int(rng.integers(2, 6)), int(rng.integers(3, 8))
        steps = int(rng.integers(2, 10))
        w_x, w_h, bias = (
            rng.normal(0.0, 1.0, shape)
            for shape in ((features, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
        )
        leads = [0, 1, 2, steps - 2, steps - 1, steps]
        chosen = rng.choice(leads, batch) if mixed else np.full(batch, rng.choice(leads))
        x = rng.normal(0.0, 1.0, (batch, steps, features))
        for b, lead in enumerate(chosen):
            x[b, :lead] = x[b, 0]
        real = np.float64 if dtype is None else dtype
        cast = [a.astype(real) for a in (x, w_x, bias)]
        policy = nullcontext() if dtype is None else inference_dtype(dtype)
        with telemetry() as registry, no_grad(), policy:
            for pads in (chosen, np.zeros(batch, dtype=int)):  # any count up to the padding
                want = _expected_projection(*cast, pads)
                got = np.empty_like(want)
                _project(*cast[:2], cast[2], got, np.asarray(pads), resume=False)
                assert got.tobytes() == want.tobytes(), pads
                before = registry.counter(PROJ_SKIPPED).value()
                (stacked,) = lstm_infer_lockstep([x], [(w_x, w_h, bias)], [pads])
                rows_saved = sum(max(0, min(p - 1, steps - 2)) for p in pads)
                assert registry.counter(PROJ_SKIPPED).value() - before == rows_saved
                for b, pad in enumerate(pads.tolist()):
                    alone, _state = lstm_sequence(
                        *map(Tensor, (x[b : b + 1], w_x, w_h, bias)), pads=pad
                    )
                    assert stacked[b].tobytes() == alone.data[0].tobytes(), (pads, b)
        names = {steps: "T", steps - 1: "T-1", steps - 2: "T-2"}
        seen.update(f"lead {names.get(lead, lead)}" for lead in chosen)
        seen.update({f"batch {batch}", str(dtype), "mixed" if len(set(chosen)) > 1 else "even"})

    projects_each_run_once()
    assert seen >= {
        "lead 0", "lead 1", "lead 2", "lead T-2", "lead T-1", "lead T",
        "batch 1", "batch 5", "None", str(np.float32), "mixed", "even",
    }, seen


def test_leading_runs_compare_bytes_and_the_sanitizer_checks_the_bound():
    """-0.0 equals +0.0 as a value and a NaN equals nothing, but padding is
    bytes: a signed zero ends it, a NaN with another payload ends it, and
    the same NaN continues it.  With the sanitizer on, a pad count past the
    padding (or past the sequence) is refused."""
    from repro.analysis.sanitizer import SanitizeError, sanitized
    from repro.nn.fused import _project, lstm_infer_lockstep

    rng = np.random.default_rng(3)
    w_x, bias = rng.normal(0.0, 1.0, (3, 8)), rng.normal(0.0, 1.0, 8)
    for dtype in (np.float64, np.float32):
        bits = f"u{np.dtype(dtype).itemsize}"
        nan = np.array(np.nan, dtype)
        other_nan = (nan.view(bits) ^ 1).view(dtype)
        x = np.zeros((4, 6, 3), dtype)
        x[1, 3, 2] = -0.0
        x[2] = nan
        x[3] = nan
        x[3, 4, 0] = other_nan
        assert np.isnan(other_nan) and nan.tobytes() != other_nan.tobytes()
        out = np.empty((4, 6, 8), dtype)
        with sanitized(True):
            for item, padding in enumerate([6, 3, 6, 4]):
                for pad in range(8):
                    pads = np.zeros(4, dtype=np.intp)
                    pads[item] = pad
                    if pad <= padding:
                        _project(x, w_x.astype(dtype), bias.astype(dtype), out, pads)
                        continue
                    with pytest.raises(SanitizeError, match="pad count"):
                        _project(x, w_x.astype(dtype), bias.astype(dtype), out, pads)

    x = rng.normal(0.0, 1.0, (3, 7, 4))
    x[:, :3] = x[:, :1]
    x[1, 3:5] = x[1, 0]
    weights = [tuple(rng.normal(0.0, 1.0, shape) for shape in ((4, 8), (2, 8), (8,)))]
    with sanitized(True):
        lstm_infer_lockstep([x], weights, [3])
        lstm_infer_lockstep([x], weights, [[3, 5, 3]])
        for pads in (4, 8, [3, 6, 3]):
            with pytest.raises(SanitizeError, match="pad count"):
                lstm_infer_lockstep([x], weights, [pads])
    with sanitized(False):
        lstm_infer_lockstep([x], weights, [4])  # unchecked: trusted, not verified


def test_projected_pad_rows_compare_bytes():
    """``_project`` resumes a batch from its smallest pad count only if
    every item's projected pad row has the same bytes.  A projected row is
    GEMM + bias, so it never carries a ``-0.0``; for finite inputs bytes
    and values agree, and a NaN payload is what tells them apart.  Pad rows
    holding NaNs of one payload share a lead (a value compare, where ``nan
    != nan``, would give none); pad rows of two payloads share none.  The
    sanitizer is off: the counts are the caller's."""
    from repro.analysis.sanitizer import sanitized
    from repro.nn.fused import _project

    rng = np.random.default_rng(5)
    w_x, bias = rng.normal(0.0, 1.0, (3, 8)), rng.normal(0.0, 1.0, 8)
    for dtype in (np.float64, np.float32):
        bits = f"u{np.dtype(dtype).itemsize}"
        nan = np.array(np.nan, dtype)
        other_nan = (nan.view(bits) ^ 1).view(dtype)
        w, b = w_x.astype(dtype), bias.astype(dtype)
        x = rng.normal(0.0, 1.0, (2, 5, 3)).astype(dtype)
        x[0, :3] = x[1, :4] = nan
        out = np.empty((2, 5, 8), dtype)
        pads = np.array([3, 4], dtype=np.intp)  # two GEMM groups, from rows 2 and 3
        with sanitized(False):
            lead, row = _project(x, w, b, out, pads)
            assert lead == 3 and np.isnan(row).all()
            assert row.tobytes() == out[0, 2:3].tobytes() == out[1, 3:4].tobytes()
            x[1, :4] = other_nan
            assert _project(x, w, b, out, pads) == (0, None)


# ----------------------------------------------------------------------
# kernel level: every timescale in one time loop.  ``lstm_infer_lockstep``
# aligns the timescales at their last step and runs the leading slots of one
# stacked state, the timescale with the most steps left first; each
# timescale must come out as the kernel on it alone, by bytes.
# ----------------------------------------------------------------------
def _assert_lockstep_equals_each_timescale_alone(sequences, weights, pads, dtype) -> None:
    """Timescale ``s`` of one lock-stepped call == the kernel on it alone,
    and its row ``b`` == ``lstm_sequence`` on that row: by bytes, with the
    same pad counts."""
    from contextlib import nullcontext

    from repro.nn import Tensor, inference_dtype, no_grad
    from repro.nn.fused import lstm_infer_lockstep, lstm_sequence

    policy = nullcontext() if dtype is None else inference_dtype(dtype)
    with no_grad(), policy:
        together = lstm_infer_lockstep(sequences, weights, pads)
        assert len(together) == len(sequences)
        for s, (x, w, pad) in enumerate(zip(sequences, weights, pads)):
            (alone,) = lstm_infer_lockstep([x], [w], [pad])
            assert together[s].shape == alone.shape and together[s].dtype == alone.dtype
            assert together[s].tobytes() == alone.tobytes(), f"timescale {s} drifted"
            for b in range(len(x)):
                row, _state = lstm_sequence(Tensor(x[b : b + 1]), *map(Tensor, w), pads=pad)
                assert together[s][b].tobytes() == row.data[0].tobytes(), (s, b)


def test_lockstep_timescales_equal_each_timescale_alone():
    seen: set[str] = set()

    @settings(max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 5]),
        st.sampled_from([None, np.float32]),
        st.sampled_from([False, False, True]),
    )
    def lockstep_matches(seed, n_scales, batch, dtype, equal_spans):
        rng = np.random.default_rng(seed)
        hidden, features = int(rng.integers(2, 6)), int(rng.integers(3, 8))
        spans = rng.integers(1, 10, 1 if equal_spans else n_scales)
        spans = np.resize(spans, n_scales).tolist()
        sequences, weights, leads, left = [], [], [], []
        for span in spans:
            lead = int(rng.choice([0, span, int(rng.integers(0, span + 1))]))
            x = rng.normal(0.0, 1.0, (batch, span, features))
            x[:, :lead] = rng.normal(0.0, 1.0, features)
            w = tuple(
                rng.normal(0.0, 1.0, shape)
                for shape in ((features, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
            )
            sequences.append(x)
            weights.append(w)
            leads.append(lead)
            left.append(span - lead)
            seen.add("no prefix" if lead == 0 else "all shared" if lead == span else "prefix")
        _assert_lockstep_equals_each_timescale_alone(sequences, weights, leads, dtype)
        if left != sorted(left, reverse=True):
            seen.add("slots permuted")
        if n_scales > 1 and len(set(spans)) == 1:
            seen.add("equal spans")
        seen.update({f"{n_scales} timescales", f"batch {batch}", str(dtype)})

    lockstep_matches()
    assert seen >= {
        "no prefix", "prefix", "all shared", "slots permuted", "equal spans",
        "1 timescales", "2 timescales", "3 timescales", "batch 1",
        "None", str(np.float32),
    }, seen


def test_broadcast_recurrent_matmul_equals_per_timescale_matmuls():
    """The lock-stepped step's one ``h[:a] @ Wh[:a, None]`` — ``h`` read
    through the slot-strided view of the output buffer, ``Wh`` broadcast
    over the batch — against one ``(batch, 1, hidden) @ (hidden, 4·hidden)``
    call per timescale, which is what a one-timescale kernel computes."""
    rng = np.random.default_rng(17)
    for dtype in (np.float64, np.float32):
        for slots, batch, hidden in ((1, 1, 3), (2, 1, 5), (3, 4, 8), (3, 24, 32), (2, 37, 16)):
            outputs = rng.normal(size=(slots, 5, batch, 1, hidden)).astype(dtype)
            w_h = rng.normal(size=(slots, hidden, 4 * hidden)).astype(dtype)
            for a in range(1, slots + 1):
                gates = np.empty((a, batch, 1, 4 * hidden), dtype=dtype)
                np.matmul(outputs[:a, 2], w_h[:a, None], out=gates)
                for s in range(a):
                    alone = np.matmul(np.ascontiguousarray(outputs[s, 2]), w_h[s])
                    assert gates[s].tobytes() == alone.tobytes(), (dtype, slots, batch, a, s)


def _shared_prefix_windows(model, rng, batch: int, pad: int) -> tuple[np.ndarray, list[int]]:
    """Windows whose first ``pad`` minutes repeat one row, and the pooled
    steps per timescale that row alone fills."""
    cfg = model.config
    x = rng.normal(0.0, 1.0, (batch, cfg.lookback_minutes, 273))
    x[:, :pad] = rng.normal(0.0, 1.0, 273)
    pads = [
        max(0, pad - (cfg.lookback_minutes - ts.minutes)) // ts.window
        for ts in cfg.timescales
    ]
    return x, pads


def _assert_hazards_equal_per_item_lane(model, x, pads, chains, dtype=None) -> None:
    stacked = model.hazards_np_staged(
        model.stage_pooled(x, dtype), dtype, pads=pads, chains=chains
    )
    for i in range(len(x)):
        alone = model.hazards_np(x[i : i + 1], dtype=dtype, pads=pads)[0]
        assert stacked[i].tobytes() == alone.tobytes(), f"row {i} drifted"


def test_prefix_memo_is_keyed_by_content_not_identity():
    """Parameters are overwritten in place (``load_state_dict``, optimiser
    steps), so the same arrays come back holding other weights: a pad
    chain found by identity would be stale.  Same inputs, same dict."""
    from repro.nn import SGD, Adam

    # Kernel level first: the same ``w_h`` array, new contents, and — with
    # ``w_x`` and the bias untouched — the same projected row as before.
    rng = np.random.default_rng(8)
    w_x, w_h, bias = rng.normal(0, 1, (9, 20)), rng.normal(0, 1, (5, 20)), rng.normal(0, 1, 20)
    x = rng.normal(0.0, 1.0, (3, 6, 9))
    x[:, :4] = x[0, 0]
    chains: dict = {}
    for _ in range(2):
        assert _assert_rows_equal_single_sequence_lane(x, w_x, w_h, bias, None, 4, chains) == 3 * 4
        w_h *= 0.5

    model, other = XatuModel(_tiny_config(3)), XatuModel(_tiny_config(4))
    model.eval()
    rng = np.random.default_rng(9)
    x, pads = _shared_prefix_windows(model, rng, batch=5, pad=20)
    chains = {}
    with telemetry() as registry:
        before = registry.counter(SKIPPED).value()
        _assert_hazards_equal_per_item_lane(model, x, pads, chains)
        assert registry.counter(SKIPPED).value() > before  # the shortcut is live
    first = model.hazards_np_batched(x)
    model.load_state_dict(other.state_dict())
    _assert_hazards_equal_per_item_lane(model, x, pads, chains)
    other.eval()
    assert model.hazards_np_batched(x).tobytes() == other.hazards_np_batched(x).tobytes()
    assert model.hazards_np_batched(x).tobytes() != first.tobytes()
    for optimiser in (SGD(model.parameters(), lr=0.05), Adam(model.parameters(), lr=0.05)):
        for parameter in model.parameters():
            parameter.grad = rng.normal(0.0, 1.0, parameter.data.shape)
        optimiser.step()
        _assert_hazards_equal_per_item_lane(model, x, pads, chains)
        fresh = XatuModel(model.config)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        want = fresh.hazards_np_staged(fresh.stage_pooled(x), pads=pads).tobytes()
        assert model.hazards_np_staged(model.stage_pooled(x), pads=pads, chains=chains).tobytes() == want


def test_prefix_memo_interleaves_models_and_dtypes_and_stays_bounded():
    """One dict for two models, two dtypes and three paddings: still one
    chain per timescale, read-only, and every row the oracle's."""
    rng = np.random.default_rng(21)
    models = [XatuModel(_tiny_config(seed)) for seed in (1, 2)]
    for model in models:
        model.eval()
    windows = [
        _shared_prefix_windows(models[0], rng, batch=3, pad=pad) for pad in (30, 8, 17)
    ]
    chains: dict = {}
    for _ in range(2):
        for x, pads in windows:
            for model in models:
                for dtype in (None, np.float32):
                    _assert_hazards_equal_per_item_lane(model, x, pads, chains, dtype)
                    assert 0 < len(chains) <= len(TINY_TIMESCALES)
    for _key, chain in chains.values():
        assert not chain.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            chain[0, 0] = 1.0


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

    @settings(max_examples=6)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 2, 7]),
        st.integers(4, 7),
        st.sampled_from([0.9, 0.97, 0.5]),
    )
    def lanes_agree(seed, n_customers, n_minutes, threshold):
        seen.update(
            _run_differential(seed, n_customers, n_minutes, threshold, config=PLAIN_CONFIG)
        )

    lanes_agree()
    assert seen >= {"onboarded", "alerted"}, seen


def test_lanes_agree_in_float32():
    @settings(max_examples=4)
    @given(st.integers(0, 10**6), st.sampled_from([2, 7]), st.sampled_from([0.9, 0.97]))
    def lanes_agree_f32(seed, n_customers, threshold):
        _run_differential(
            seed, n_customers, 5, threshold, dtype=np.float32, config=PLAIN_CONFIG
        )

    lanes_agree_f32()


def test_sparse_lane_agrees_under_late_records_gaps_evictions_and_restores():
    """The stream under a non-identity scaler and a lookback short enough to
    run past eviction several times over, 40 steps a run."""
    seen: set = set()

    @settings(max_examples=10)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([2, 5]),
        st.sampled_from([np.float64, np.float32]),
        st.sampled_from(["avg", "max"]),
    )
    def sparse_lane_agrees(seed, n_customers, dtype, pooling):
        # Every run starts cold — its first ``lookback`` minutes are padded —
        # so production resumes from pad chains while the oracle (one window
        # at a time) never does.
        with telemetry() as registry:
            skipped, evicted = (
                registry.counter(name) for name in (SKIPPED, "online.matrix_evictions")
            )
            before = skipped.value(), evicted.value()
            seen.update(
                _run_differential(seed, n_customers, 40, 0.9, dtype=dtype, pooling=pooling)
            )
            if skipped.value() > before[0]:
                seen.add("pad-chain")
            if evicted.value() > before[1]:
                seen.add("matrix-evicted")
        seen.add(pooling)

    sparse_lane_agrees()
    # The differential is only meaningful if every hazard actually occurred.
    assert seen >= {
        "all", "blocklist", "prev_attacker", "spoofed",
        "idle-evicted", "re-watched", "A4+A5", "avg", "max", "pad-chain", "scaler-swapped",
        "scaler-refit", "dtype-changed",
        "matrix-evicted", "late", "future-stamped", "onboarded",
        "re-homed", "swapped", "blocklist-swapped",
        "restored", "restored-empty", "restored-after-series-evicted",
    }, seen


# Lookback 24: once warm, the medium timescale (12 steps) outlasts the short
# one (8), so the lock-stepped kernel runs its slots out of timescale order.
THREE_TIMESCALES = (
    TimescaleSpec("short", 1, 8),
    TimescaleSpec("medium", 2, 12),
    TimescaleSpec("long", 4, 4),
)


def test_lanes_agree_with_three_timescales_run_out_of_order(monkeypatch):
    from repro.nn import fused

    first_slots: list[bytes] = []
    steps = fused._lstm_steps

    def spy(x_proj, w_h, cell, outputs, starts, cells=None):
        if cells is None:  # the batch, not a prefix chain
            first_slots.append(w_h[0].tobytes())
        return steps(x_proj, w_h, cell, outputs, starts, cells)

    monkeypatch.setattr(fused, "_lstm_steps", spy)
    seen: set[str] = set()

    @settings(max_examples=4)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([1, 4]),
        st.sampled_from([np.float64, np.float32]),
    )
    def lanes_agree(seed, n_customers, dtype):
        customer_of, blocklist = twin_context(n_customers)
        reference, production = build_twins(
            seed, customer_of, blocklist, dtype=dtype, timescales=THREE_TIMESCALES
        )
        first_slots.clear()
        seen.update(
            drive_twins(
                reference, production, twin_stream(seed, customer_of, blocklist, 40)
            )
        )
        lstms = production.model.lstms
        if dtype is np.float64 and any(w == lstms[1].w_h.data.tobytes() for w in first_slots):
            seen.add("medium ran first")

    lanes_agree()
    assert seen >= {"alerted", "medium ran first", "restored"}, seen


# Calls, item-steps and resumed item-steps of the replay below, recorded when
# ``_hazards_staged`` called ``lstm_infer_batched`` once per timescale; then
# the input rows whose projection the leading runs saved.
PINNED_LSTM_COUNTS = [120, 4344, 891, 791]


def test_lstm_counters_count_each_timescale_sequence():
    """``nn.lstm_infer_batched_calls``, ``nn.lstm_infer_steps`` and
    ``nn.lstm_prefix_steps_skipped`` count per timescale sequence, however
    many recurrences one kernel call runs: a fixed production replay reads
    the values pinned when each timescale was its own call.
    ``nn.lstm_proj_rows_skipped`` counts the rows no GEMM projected."""
    names = (
        "nn.lstm_infer_batched_calls", "nn.lstm_infer_steps",
        "nn.lstm_prefix_steps_skipped", PROJ_SKIPPED,
    )
    customer_of = {BASE_ADDRESS + i: i for i in range(5)}
    detector = build_detector(OnlineXatu, 3, customer_of, timescales=THREE_TIMESCALES)
    with telemetry() as registry:
        before = [registry.counter(name).value() for name in names]
        for minute, flows in enumerate(_traffic(17, customer_of, 40)):
            detector.step(minute, flows)
        after = [registry.counter(name).value() for name in names]
    assert [b - a for a, b in zip(before, after)] == PINNED_LSTM_COUNTS


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
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
            assert got.dtype == dtype
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
    for dtype in (np.float64, np.float32):
        detector = _bench_shaped_detector(customer_of, dtype)
        for minute, flows in enumerate(_traffic(11, customer_of, 3)):
            staged.clear()
            detector.step(minute, flows)
            assert [len(ids) for ids, _stack in staged] == [3, 3, 1]
            assert sum((ids for ids, _stack in staged), []) == sorted(detector._watched)
            for ids, stack in staged:
                assert isinstance(stack, np.ndarray)
                assert stack.shape == (len(ids), 60 + 36 + 12, 273)
                assert stack.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
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
        * np.dtype(dtype).itemsize
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
