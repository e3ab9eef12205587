"""Unit tests for the reverse-mode autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, gradcheck, no_grad
from repro.nn.autograd import _unbroadcast, is_grad_enabled


def randn(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasics:
    def test_tensor_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_requires_scalar_without_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            t.backward()

    def test_zeros_ones_constructors(self):
        assert np.all(Tensor.zeros(2, 3).numpy() == 0)
        assert np.all(Tensor.ones(4).numpy() == 1)

    def test_detach_cuts_graph(self):
        a = Tensor(2.0, requires_grad=True)
        b = (a * 3.0).detach()
        c = b * 2.0
        assert not c.requires_grad and c._parents == ()

    def test_no_grad_disables_recording(self):
        a = Tensor(2.0, requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = a * a
            assert out._parents == ()
        assert is_grad_enabled()

    def test_no_grad_restores_flag_when_body_raises(self):
        """Regression: an exception inside the block must not leave the
        engine stuck in inference mode."""
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_grad_nested_restores_each_level(self):
        with no_grad():
            with pytest.raises(ValueError):
                with no_grad():
                    raise ValueError("inner")
            assert not is_grad_enabled()  # outer block still active
        assert is_grad_enabled()

    def test_no_grad_as_bare_decorator(self):
        @no_grad
        def infer(x):
            assert not is_grad_enabled()
            return x * x

        a = Tensor(2.0, requires_grad=True)
        out = infer(a)
        assert out._parents == () and not out.requires_grad
        assert is_grad_enabled()
        assert infer.__name__ == "infer"  # wrapping preserves identity

    def test_no_grad_as_called_decorator(self):
        @no_grad()
        def infer(x):
            assert not is_grad_enabled()
            return x + 1.0

        out = infer(Tensor(1.0, requires_grad=True))
        assert out._parents == ()
        assert is_grad_enabled()

    def test_no_grad_decorated_function_raising_restores_flag(self):
        @no_grad
        def explode():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            explode()
        assert is_grad_enabled()

    def test_no_grad_rejects_non_callable_argument(self):
        with pytest.raises(TypeError, match="no arguments"):
            no_grad(42)

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(3.0, requires_grad=True)
        (a * a).backward()
        (a * a).backward()
        assert a.grad == pytest.approx(12.0)  # 2 * (2a)

    def test_zero_grad(self):
        a = Tensor(3.0, requires_grad=True)
        (a * a).backward()
        a.zero_grad()
        assert a.grad is None


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(5.0, requires_grad=True)
        (a + b).backward()
        assert a.grad == 1.0 and b.grad == 1.0

    def test_sub_and_rsub(self):
        a = Tensor(2.0, requires_grad=True)
        (10.0 - a).backward()
        assert a.grad == -1.0

    def test_mul_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(5.0, requires_grad=True)
        (a * b).backward()
        assert a.grad == 5.0 and b.grad == 2.0

    def test_div_backward(self):
        a = Tensor(6.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        (a / b).backward()
        assert a.grad == pytest.approx(1 / 3)
        assert b.grad == pytest.approx(-6 / 9)

    def test_rdiv(self):
        a = Tensor(4.0, requires_grad=True)
        (8.0 / a).backward()
        assert a.grad == pytest.approx(-0.5)

    def test_neg_and_pow(self):
        a = Tensor(3.0, requires_grad=True)
        (-(a**2)).backward()
        assert a.grad == pytest.approx(-6.0)

    def test_pow_rejects_tensor_exponent(self):
        a = Tensor(3.0, requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor(2.0)

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.all(b.grad == 3.0)

    def test_unbroadcast_handles_keepdims_axes(self):
        grad = np.ones((5, 3, 4))
        out = _unbroadcast(grad, (3, 1))
        assert out.shape == (3, 1)
        assert np.all(out == 20.0)


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op", ["exp", "log", "sigmoid", "tanh", "relu", "softplus"]
    )
    def test_gradcheck_elementwise(self, op, rng):
        base = rng.uniform(0.2, 2.0, size=(3, 4))  # positive for log
        t = Tensor(base, requires_grad=True)
        gradcheck(lambda t: getattr(t, op)().sum(), [t])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-800.0, 800.0]))
        out = t.sigmoid().numpy()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(out).all()

    def test_softplus_large_input_no_overflow(self):
        t = Tensor(np.array([1000.0]))
        assert np.isfinite(t.softplus().numpy()).all()

    def test_clip_gradient_masks_outside(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        assert list(t.grad) == [0.0, 1.0, 0.0]


class TestLinearAlgebra:
    def test_matmul_2d_gradcheck(self, rng):
        a = randn(rng, 3, 4)
        b = randn(rng, 4, 2)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_batched_gradcheck(self, rng):
        a = randn(rng, 2, 3, 4)
        b = randn(rng, 2, 4, 2)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_transpose_gradcheck(self, rng):
        a = randn(rng, 3, 4)
        gradcheck(lambda a: (a.T * a.T).sum(), [a])

    def test_transpose_axes(self, rng):
        a = randn(rng, 2, 3, 4)
        out = a.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)

    def test_reshape_gradcheck(self, rng):
        a = randn(rng, 3, 4)
        gradcheck(lambda a: (a.reshape(2, 6) ** 2).sum(), [a])

    def test_getitem_slice_gradcheck(self, rng):
        a = randn(rng, 4, 5)
        gradcheck(lambda a: (a[1:3, ::2] ** 2).sum(), [a])

    def test_getitem_fancy_index_backward(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        assert list(a.grad) == [2.0, 0.0, 0.0, 1.0, 0.0]


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        a = randn(rng, 3, 4)
        gradcheck(lambda a: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_mean_matches_numpy(self, rng):
        data = rng.normal(size=(3, 4))
        assert Tensor(data).mean(axis=0).numpy() == pytest.approx(data.mean(axis=0))

    def test_mean_gradcheck(self, rng):
        a = randn(rng, 3, 4)
        gradcheck(lambda a: (a.mean(axis=0) ** 2).sum(), [a])

    def test_max_gradcheck_unique_values(self, rng):
        # Distinct values so the subgradient is unambiguous.
        a = Tensor(np.arange(12.0).reshape(3, 4) / 7.0, requires_grad=True)
        gradcheck(lambda a: a.max(axis=1).sum(), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        a.max().backward()
        assert a.grad == pytest.approx([0.5, 0.5, 0.0])

    def test_cumsum_forward(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        assert list(a.cumsum().numpy()) == [1.0, 3.0, 6.0]

    def test_cumsum_gradcheck(self, rng):
        a = randn(rng, 2, 5)
        gradcheck(lambda a: (a.cumsum(axis=1) ** 2).sum(), [a])


class TestConcatStack:
    def test_concat_forward_backward(self, rng):
        a = randn(rng, 2, 3)
        b = randn(rng, 2, 2)
        gradcheck(lambda a, b: (Tensor.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_forward_backward(self, rng):
        a = randn(rng, 3)
        b = randn(rng, 3)
        gradcheck(lambda a, b: (Tensor.stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_without_grad_inputs_is_constant(self):
        out = Tensor.concat([Tensor(np.ones(2)), Tensor(np.zeros(2))])
        assert out._parents == ()


class TestGradcheckHelper:
    def test_gradcheck_detects_wrong_gradient(self):
        class Bad(Tensor):
            pass

        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def wrong(t):
            # exp but tell autograd the gradient is 1 (lie via custom op)
            return t._unary(np.exp, lambda g, a, o: g)

        with pytest.raises(AssertionError, match="gradcheck failed"):
            gradcheck(lambda a: wrong(a).sum(), [a])


@settings(max_examples=25)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_chain_of_ops_matches_numeric_gradient(rows, cols, seed):
    """Property: composite expressions gradcheck across random shapes."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(cols,)), requires_grad=True)
    gradcheck(lambda a, b: ((a * b).tanh().sum(axis=0) ** 2).sum(), [a, b])
