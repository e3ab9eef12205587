"""Runtime sanitizer (REPRO_SANITIZE=1): frozen tape buffers and finite
kernel-boundary guards — the one guard on tape mutation.

These run with the switch flipped programmatically (``sanitized``), so
they exercise the sanitizer regardless of the environment; the CI
sanitized lane additionally runs the whole tier-1 suite under
``REPRO_SANITIZE=1`` to prove the hooks don't perturb training, golden
traces, or serving.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    SanitizeError,
    check_finite,
    freeze_tape_buffer,
    sanitize_enabled,
    sanitized,
    set_sanitize,
)
from repro.nn import SGD, Dense, Tensor, lstm_sequence, no_grad


@pytest.fixture()
def sanitize_on():
    with sanitized(True):
        yield


class TestSwitch:
    def test_set_sanitize_returns_previous(self):
        prev = set_sanitize(True)
        try:
            assert sanitize_enabled()
        finally:
            set_sanitize(prev)

    def test_context_restores_on_exit(self):
        before = sanitize_enabled()
        with sanitized(not before):
            assert sanitize_enabled() is (not before)
        assert sanitize_enabled() is before

    def test_context_restores_on_raise(self):
        before = sanitize_enabled()
        with pytest.raises(RuntimeError, match="boom"):
            with sanitized(not before):
                raise RuntimeError("boom")
        assert sanitize_enabled() is before


class TestFrozenTapeBuffers:
    def test_op_output_is_frozen(self, sanitize_on):
        a = Tensor(np.ones(4), requires_grad=True)
        out = a * 2.0
        assert not out.data.flags.writeable
        with pytest.raises(ValueError):
            out.data[0] = 99.0

    def test_leaves_stay_writable(self, sanitize_on):
        leaf = Tensor(np.ones(4), requires_grad=True)
        assert leaf.data.flags.writeable
        leaf.data[0] = 2.0  # optimizers do exactly this

    def test_backward_still_works_on_frozen_graph(self, sanitize_on):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        loss = ((a * b) + a).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, b.data + 1.0)
        np.testing.assert_allclose(b.grad, a.data)

    def test_training_step_under_sanitizer(self, sanitize_on):
        # Forward, backward, and an optimizer step must all survive the
        # frozen-activation regime: only leaves get mutated.
        rng = np.random.default_rng(0)
        layer = Dense(3, 2)
        opt = SGD(layer.parameters(), lr=0.1)
        x = Tensor(rng.normal(size=(5, 3)))
        before = [p.data.copy() for p in layer.parameters()]
        loss = (layer.forward(x) * layer.forward(x)).mean()
        loss.backward()
        opt.step()
        after = [p.data for p in layer.parameters()]
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_no_grad_outputs_stay_writable(self, sanitize_on):
        # Under no_grad there is no tape to protect; the graph-free lane
        # reuses scratch buffers in place by design.
        a = Tensor(np.ones(4))
        with no_grad():
            out = a * 2.0
        assert out._parents == ()
        assert out.data.flags.writeable

    def test_disabled_switch_freezes_nothing(self):
        with sanitized(False):
            a = Tensor(np.ones(4), requires_grad=True)
            out = a * 2.0
            assert out.data.flags.writeable

    def test_freeze_tape_buffer_is_idempotent(self):
        arr = np.ones(3)
        freeze_tape_buffer(arr)
        freeze_tape_buffer(arr)
        assert not arr.flags.writeable


class TestCheckFinite:
    def test_clean_arrays_pass(self):
        check_finite("test", a=np.ones(3), b=None, c=np.arange(4))

    def test_nan_raises_with_location(self):
        bad = np.array([1.0, np.nan, 3.0])
        with pytest.raises(SanitizeError, match=r"test\.spot.*1 NaN"):
            check_finite("test.spot", x=bad)

    def test_inf_raises(self):
        with pytest.raises(SanitizeError, match="1 inf"):
            check_finite("test", x=np.array([np.inf]))

    def test_integer_arrays_are_skipped(self):
        check_finite("test", counts=np.array([1, 2, 3]))


class TestKernelBoundaries:
    def _lstm_args(self, rng, hidden=4, features=3):
        x = Tensor(rng.normal(size=(2, 5, features)))
        w_x = Tensor(rng.normal(size=(features, 4 * hidden)) * 0.1,
                     requires_grad=True)
        w_h = Tensor(rng.normal(size=(hidden, 4 * hidden)) * 0.1,
                     requires_grad=True)
        bias = Tensor(np.zeros(4 * hidden), requires_grad=True)
        return x, w_x, w_h, bias

    def test_lstm_clean_inputs_pass(self, sanitize_on, rng):
        outputs, (h, c) = lstm_sequence(*self._lstm_args(rng))
        assert np.all(np.isfinite(outputs.data))

    def test_lstm_nan_input_raises_at_boundary(self, sanitize_on, rng):
        x, w_x, w_h, bias = self._lstm_args(rng)
        x.data[0, 0, 0] = np.nan
        with pytest.raises(SanitizeError, match="lstm_sequence.inputs"):
            lstm_sequence(x, w_x, w_h, bias)

    def test_lstm_infer_lane_guarded_too(self, sanitize_on, rng):
        x, w_x, w_h, bias = self._lstm_args(rng)
        x.data[1, 2, 1] = np.inf
        with no_grad():
            with pytest.raises(SanitizeError, match="lstm_sequence.inputs"):
                lstm_sequence(x, w_x, w_h, bias)

    def test_lstm_guards_off_when_disabled(self, rng):
        with sanitized(False):
            x, w_x, w_h, bias = self._lstm_args(rng)
            x.data[0, 0, 0] = np.nan
            outputs, _ = lstm_sequence(x, w_x, w_h, bias)
            assert np.isnan(outputs.data).any()


# ----------------------------------------------------------------------
# Tape mutation: the sanitizer is the one guard
# ----------------------------------------------------------------------
class TestTapeMutation:
    """Rule XL001 is retired (docs/ANALYSIS.md, "Mutant audit"): its
    mutant fails the sanitized CI lane.  Each write shape it matched must
    raise at the mutation site under ``REPRO_SANITIZE``; each shape it let
    pass must stay legal."""

    @pytest.fixture(autouse=True)
    def _sanitize(self):
        with sanitized(True):
            yield

    @staticmethod
    def tape_node():
        return Tensor(np.ones(3), requires_grad=True) * 2.0

    def test_subscript_write_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data[...] = np.zeros(3)

    def test_subscript_augassign_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data[0] += 1

    def test_attribute_augassign_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            t.data -= 0.1 * np.ones(3)

    def test_ufunc_out_fires(self):
        t = self.tape_node()
        with pytest.raises(ValueError):
            np.add(t.data, 1.0, out=t.data)

    def test_rebind_is_fine(self):
        # Rebinding the attribute makes a fresh array; the old tape
        # node's buffer is untouched.
        t = self.tape_node()
        t.data = np.zeros(3)
        assert t.data.flags.writeable

    def test_plain_array_write_is_fine(self):
        # Only recorded-op outputs freeze: the array an op read stays
        # writable.
        x = np.ones(3)
        y = Tensor(x, requires_grad=True) * 2.0
        assert not y.data.flags.writeable
        x[0] = 5.0
        x += 1.0
        assert x.tolist() == [6.0, 2.0, 2.0]
