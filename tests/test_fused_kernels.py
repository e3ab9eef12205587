"""Differential tests for the fused fast-path kernels (repro.nn.fused).

Three layers of defence around the hand-derived kernels:

* fused vs unfused — the single-node LSTM / pooling ops must match the
  generic per-op tape path, forward *and* backward, to <= 1e-8 in float64
  (hypothesis drives randomized shapes/seeds);
* fused vs scalar reference — the obviously-correct loops in
  :mod:`repro.testing.reference` pin down the semantics both share;
* inference lane — ``no_grad`` output must be byte-identical to the
  training-mode forward, and the ``inference_dtype`` float32 policy must
  stay close while actually producing float32.

Plus regression coverage for the batched-matmul-times-vector gradient and
the recursive ``Module.train()`` / ``eval()`` protocol the inference path
relies on, and a smoke test of the benchmark harness the kernels are
tracked by.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    LSTM,
    AvgPool1D,
    Dense,
    Dropout,
    MaxPool1D,
    Sequential,
    Tensor,
    gradcheck,
    inference_dtype,
    no_grad,
    set_fused,
)
from repro.nn.autograd import resolve_inference_dtype
from repro.nn.fused import avg_pool_1d, lstm_sequence, max_pool_1d
from repro.testing import (
    max_abs_diff,
    reference_avg_pool_1d,
    reference_lstm_sequence,
    reference_max_pool_1d,
)

TOL = 1e-8


def _lstm_pair(features, hidden, seed):
    """Two LSTMs sharing weights: one fused, one on the generic tape."""
    fused = LSTM(features, hidden, rng=np.random.default_rng(seed), fused=True)
    unfused = LSTM(features, hidden, rng=np.random.default_rng(seed), fused=False)
    return fused, unfused


class TestFusedLSTMMatchesUnfused:
    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(1, 4),
        steps=st.integers(1, 12),
        features=st.integers(1, 6),
        hidden=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    def test_forward_and_backward(self, batch, steps, features, hidden, seed):
        fused, unfused = _lstm_pair(features, hidden, seed)
        x = np.random.default_rng(seed + 1).normal(size=(batch, steps, features))
        xf = Tensor(x, requires_grad=True)
        xu = Tensor(x, requires_grad=True)

        of, (hf, cf) = fused(xf)
        ou, (hu, cu) = unfused(xu)
        assert max_abs_diff(of.numpy(), ou.numpy()) <= TOL
        assert max_abs_diff(hf.numpy(), hu.numpy()) <= TOL
        assert max_abs_diff(cf.numpy(), cu.numpy()) <= TOL

        # Route gradient through outputs AND both final states.
        (of.sum() + (hf * 2.0).sum() + (cf * 3.0).sum()).backward()
        (ou.sum() + (hu * 2.0).sum() + (cu * 3.0).sum()).backward()
        assert max_abs_diff(xf.grad, xu.grad) <= TOL
        for pf, pu in zip(fused.parameters(), unfused.parameters()):
            assert max_abs_diff(pf.grad, pu.grad) <= TOL

    def test_threaded_state_matches_and_carries_grad(self, rng):
        fused, unfused = _lstm_pair(3, 4, seed=7)
        x = rng.normal(size=(2, 9, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        grads = {}
        for name, lstm in (("fused", fused), ("unfused", unfused)):
            sh = Tensor(h0, requires_grad=True)
            sc = Tensor(c0, requires_grad=True)
            out, _ = lstm(Tensor(x), state=(sh, sc))
            out.sum().backward()
            grads[name] = (out.numpy(), sh.grad, sc.grad)
        for got, want in zip(grads["fused"], grads["unfused"]):
            assert max_abs_diff(got, want) <= TOL

    def test_fused_gradcheck_against_finite_differences(self):
        lstm = LSTM(3, 2, rng=np.random.default_rng(5), fused=True)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 3)))

        def loss(w_x, w_h, bias):
            out, (h, c) = lstm_sequence(x, w_x, w_h, bias)
            return (out * out).sum() + h.sum() + (c * c).sum()

        gradcheck(loss, [lstm.w_x, lstm.w_h, lstm.bias])

    def test_matches_scalar_reference(self, rng):
        lstm = LSTM(4, 3, rng=np.random.default_rng(2), fused=True)
        x = rng.normal(size=(2, 6, 4))
        out, _ = lstm(Tensor(x))
        want = reference_lstm_sequence(
            x, lstm.w_x.numpy(), lstm.w_h.numpy(), lstm.bias.numpy()
        )
        assert max_abs_diff(out.numpy(), want) <= TOL


class TestFusedPoolingMatchesUnfused:
    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(1, 3),
        steps=st.integers(1, 25),
        features=st.integers(1, 5),
        window=st.integers(2, 7),
        seed=st.integers(0, 100),
        kind=st.sampled_from(["avg", "max"]),
    )
    def test_forward_and_backward(self, batch, steps, features, window, seed, kind):
        cls = AvgPool1D if kind == "avg" else MaxPool1D
        x = np.random.default_rng(seed).normal(size=(batch, steps, features))
        xf = Tensor(x, requires_grad=True)
        xu = Tensor(x, requires_grad=True)
        of = cls(window, fused=True)(xf)
        ou = cls(window, fused=False)(xu)
        assert max_abs_diff(of.numpy(), ou.numpy()) <= TOL
        (of * of).sum().backward()
        (ou * ou).sum().backward()
        assert max_abs_diff(xf.grad, xu.grad) <= TOL

    def test_max_pool_splits_grad_among_ties(self):
        # Two equal maxima in one window: each should get half the gradient.
        x = Tensor(
            np.array([[[1.0], [5.0], [5.0], [0.0]]]), requires_grad=True
        )
        max_pool_1d(x, 4).sum().backward()
        assert x.grad.ravel() == pytest.approx([0.0, 0.5, 0.5, 0.0])

    @pytest.mark.parametrize("steps", [5, 6, 7])
    def test_matches_scalar_reference_with_ragged_tail(self, steps, rng):
        x = rng.normal(size=(2, steps, 3))
        assert max_abs_diff(
            avg_pool_1d(Tensor(x), 3).numpy(), reference_avg_pool_1d(x, 3)
        ) <= TOL
        assert max_abs_diff(
            max_pool_1d(Tensor(x), 3).numpy(), reference_max_pool_1d(x, 3)
        ) <= TOL

    def test_pool_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 7, 3)))
        gradcheck(lambda x: (avg_pool_1d(x, 3) ** 2).sum(), [x])
        # Perturb distinct values so the (subgradient) max stays unambiguous.
        xm = Tensor(np.arange(24, dtype=np.float64).reshape(2, 4, 3) * 0.1)
        gradcheck(lambda x: (max_pool_1d(x, 3) ** 2).sum(), [xm])


class TestInferenceLane:
    def test_no_grad_forward_is_byte_identical(self, rng):
        lstm = LSTM(5, 4, rng=np.random.default_rng(3), fused=True)
        x = Tensor(rng.normal(size=(2, 15, 5)))
        out_train, (h_train, c_train) = lstm(x)
        with no_grad():
            out_inf, (h_inf, c_inf) = lstm(x)
        assert np.array_equal(out_train.numpy(), out_inf.numpy())
        assert np.array_equal(h_train.numpy(), h_inf.numpy())
        assert np.array_equal(c_train.numpy(), c_inf.numpy())
        # And the inference lane really is graph-free.
        assert out_inf._parents == () and out_inf._backward is None

    def test_model_hazards_np_is_byte_identical(self):
        from repro.core import XatuModel

        from .conftest import small_model_config

        config = small_model_config()
        config.n_features = 6
        model = XatuModel(config)
        x = np.random.default_rng(4).normal(
            size=(2, config.lookback_minutes, config.n_features)
        )
        tape_out = model(Tensor(x)).numpy()
        assert np.array_equal(model.hazards_np(x), tape_out)
        assert model.training  # restored afterwards

    def test_inference_dtype_float32(self, rng):
        lstm = LSTM(4, 3, rng=np.random.default_rng(8), fused=True)
        x = rng.normal(size=(2, 10, 4))
        out64, _ = lstm(Tensor(x))
        with no_grad(), inference_dtype(np.float32):
            out32, _ = lstm(Tensor(x))
        assert out32.numpy().dtype == np.float32
        assert max_abs_diff(out32.numpy(), out64.numpy()) <= 1e-4
        # Policy is scoped to the context manager…
        assert resolve_inference_dtype() is None
        # …and inert while gradients are enabled.
        with inference_dtype(np.float32):
            assert resolve_inference_dtype() is None
            with no_grad():
                assert resolve_inference_dtype() == np.float32

    def test_inference_dtype_rejects_non_float(self):
        with pytest.raises(TypeError, match="float"):
            with inference_dtype(np.int32):
                pass


class TestTrainEvalProtocol:
    def test_recursive_over_lists_and_containers(self):
        from repro.core import XatuModel

        from .conftest import small_model_config

        model = XatuModel(small_model_config())
        assert all(m.training for m in model.modules())
        model.eval()
        assert not any(m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_sequential_train_flag_reaches_dropout(self, rng):
        drop = Dropout(0.9, rng=np.random.default_rng(0))
        seq = Sequential(Dense(3, 3, rng=rng), drop)
        seq.eval()
        assert not drop.training
        x = Tensor(np.ones((4, 3)))
        assert np.array_equal(drop(x).numpy(), x.numpy())  # identity in eval
        seq.train()
        assert drop.training

    def test_set_fused_toggles_kernel_layers(self):
        seq = Sequential(AvgPool1D(3), MaxPool1D(2), Dense(2, 2))
        set_fused(seq, False)
        assert not seq.layers[0].fused and not seq.layers[1].fused
        set_fused(seq, True)
        assert seq.layers[0].fused and seq.layers[1].fused


class TestMatmulVectorRegression:
    """Batched matrix @ vector used to return a ``None`` gradient slot."""

    def test_batched_matrix_times_vector_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        gradcheck(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_vector_times_batched_matrix_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        gradcheck(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_grad_is_populated_not_none(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and a.grad.shape == a.shape
        assert b.grad is not None and b.grad.shape == b.shape


class TestBenchHarness:
    def test_smoke_run_and_json_roundtrip(self, tmp_path):
        from repro.bench import load_bench_json, run_all, write_bench_json

        report = run_all(
            tag="t", smoke=True, cases=("lstm_forward", "pooling")
        )
        speedups = report.speedups()
        assert set(speedups) == {"lstm_forward", "pooling"}
        assert all(s > 0 for s in speedups.values())
        assert "lstm_forward" in report.render()

        out = write_bench_json(report, tmp_path)
        assert out.name == "BENCH_t.json"
        payload = load_bench_json(out)
        assert payload["smoke"] is True
        assert payload["speedups"].keys() == speedups.keys()
        assert payload["benchmarks"]["pooling/fused"]["reps"] == 1

    def test_version_mismatch_rejected(self, tmp_path):
        from repro.bench import load_bench_json

        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"format_version": 999}')
        with pytest.raises(ValueError, match="format_version"):
            load_bench_json(bad)

    def test_committed_baseline_is_current_format(self):
        from pathlib import Path

        from repro.bench import BENCH_CASES, load_bench_json

        path = Path(__file__).resolve().parents[1] / (
            "benchmarks/results/BENCH_fused.json"
        )
        payload = load_bench_json(path)
        assert not payload["smoke"]
        # one row set per live case: no orphan of a retired bench
        assert {k.split("/")[0] for k in payload["benchmarks"]} == set(BENCH_CASES)
        assert payload["speedups"]["lstm_train_step"] >= 5.0
        assert payload["speedups"]["synthetic_day"] >= 3.0
