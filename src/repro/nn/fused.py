"""Fused fast-path kernels for the hot layers of the Xatu model.

The generic tape in :mod:`repro.nn.autograd` records ~15 nodes (each with a
Python closure) for every LSTM timestep and one slice/stack node per pooling
window.  At the paper's scales (LSTM_long unrolls 240 steps) the tape
bookkeeping dominates the actual numpy arithmetic.  The kernels here collapse
those graphs:

* :func:`lstm_sequence` — the whole unrolled LSTM is **one tape node**.  The
  forward runs a plain numpy loop caching the gate activations; the backward
  is hand-derived backpropagation-through-time over that cache.
* :func:`avg_pool_1d` / :func:`max_pool_1d` — non-overlapping temporal
  pooling as a single reshape-based node (a ragged trailing window is pooled
  separately), instead of one slice + reduce + stack chain per window.

Every kernel mirrors the generic implementation's operation order so the
results agree with the unfused path (and the scalar kernels in
:mod:`repro.testing.reference`) to float64 round-off; the differential tests
in ``tests/test_fused_kernels.py`` enforce this.

When gradients are disabled the kernels skip the cache and the tape node
entirely (the graph-free inference lane), and honour the reduced-precision
policy installed via :class:`repro.nn.autograd.inference_dtype`.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from ..analysis.sanitizer import check_finite, sanitize_enabled
from ..obs.registry import get_registry, obs_enabled
from .autograd import Tensor, get_tape_hook, is_grad_enabled, resolve_inference_dtype

__all__ = [
    "lstm_sequence",
    "avg_pool_1d",
    "max_pool_1d",
    "pool_infer",
    "dense_infer",
    "lstm_infer_batched",
]


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Numerically stable logistic, element-for-element identical to
    ``Tensor.sigmoid`` but with a single exp over the whole array instead
    of the masked two-branch form (same IEEE results, fewer ufunc calls)."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _maybe_cast(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Apply the no-grad reduced-precision policy, if one is active."""
    dtype = resolve_inference_dtype()
    if dtype is None:
        return arrays
    return tuple(np.asarray(a, dtype=dtype) for a in arrays)


# ----------------------------------------------------------------------
# fused LSTM
# ----------------------------------------------------------------------
def _lstm_infer(
    X: np.ndarray,
    Wx: np.ndarray,
    Wh: np.ndarray,
    x_proj: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
    hidden: int,
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Graph-free inference lane: no cache, no tape, in-place scratch.

    Every elementwise expression matches the grad-mode loop IEEE-exactly
    (the sigmoid is applied to all four gate blocks at once — the candidate
    block's wasted lanes are discarded — and scratch buffers only change
    where results land, not their values), so inference output is
    byte-identical to the training-mode forward.
    """
    batch, steps, _ = X.shape
    if obs_enabled():
        registry = get_registry()
        registry.counter(
            "nn.lstm_infer_calls", "graph-free fused LSTM inference calls"
        ).inc()
        registry.counter(
            "nn.lstm_infer_steps", "timesteps scored by the inference lane"
        ).inc(batch * steps)
    outputs = np.empty((batch, steps, hidden), dtype=X.dtype)
    h = np.array(h0)
    c = np.array(c0)
    gates = np.empty((batch, 4 * hidden), dtype=X.dtype)
    e = np.empty_like(gates)
    g = np.empty((batch, hidden), dtype=X.dtype)
    tmp = np.empty((batch, hidden), dtype=X.dtype)
    for t in range(steps):
        np.matmul(h, Wh, out=gates)
        gates += x_proj[:, t]
        np.tanh(gates[:, 2 * hidden : 3 * hidden], out=g)
        # Stable sigmoid over the whole gate slab: e = exp(-|a|), then
        # where(a >= 0, 1, e) / (1 + e) — elementwise identical to _sigmoid.
        np.abs(gates, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        num = np.where(gates >= 0, 1.0, e)
        e += 1.0
        np.divide(num, e, out=num)
        i = num[:, :hidden]
        f = num[:, hidden : 2 * hidden]
        o = num[:, 3 * hidden :]
        np.multiply(f, c, out=c)
        np.multiply(i, g, out=tmp)
        c += tmp
        h = outputs[:, t]
        np.tanh(c, out=tmp)
        np.multiply(o, tmp, out=h)
    return Tensor(outputs), (Tensor(h), Tensor(c))


def _lstm_steps(
    x_proj: np.ndarray, Wh: np.ndarray, h: np.ndarray, c: np.ndarray,
    outputs: np.ndarray, start: int, cells: np.ndarray | None = None,
) -> None:
    """Steps ``start ..`` of the batched recurrence, time-major operands.

    ``h`` (read only) and ``c`` (advanced in place) are the ``(batch, 1,
    hidden)`` state entering step ``start``; ``h_t`` lands in ``outputs[t]``
    and, when given, a copy of ``c_t`` in ``cells[t]``.  The one loop body of
    both the batch and its single-item prefix chain, so they cannot drift.
    """
    batch, _, hidden = c.shape
    gates = np.empty((batch, 1, 4 * hidden), dtype=c.dtype)
    e = np.empty_like(gates)
    num = np.empty_like(gates)
    g = np.empty_like(c)
    tmp = np.empty_like(c)
    candidate = gates[..., 2 * hidden : 3 * hidden]
    i = num[..., :hidden]
    f = num[..., hidden : 2 * hidden]
    o = num[..., 3 * hidden :]
    for t in range(start, len(outputs)):
        np.matmul(h, Wh, out=gates)
        gates += x_proj[t]
        np.tanh(candidate, out=g)
        np.abs(gates, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # ``where(a >= 0, 1, e)`` as a max — no mask, and no masked copy,
        # which costs as much as the recurrent matmul at serving batch sizes:
        # e = exp(-|a|) lies in [0, 1], so max(e, sign(a)) is 1 for a > 0, e
        # for a < 0, and at a = ±0 it is max(1, ±0) = 1 — the same bits, NaN
        # included.
        np.sign(gates, out=num)
        np.maximum(e, num, out=num)
        e += 1.0
        np.divide(num, e, out=num)
        np.multiply(f, c, out=c)
        np.multiply(i, g, out=tmp)
        c += tmp
        h = outputs[t]
        np.tanh(c, out=tmp)
        np.multiply(o, tmp, out=h)
        if cells is not None:
            cells[t] = c


def _shared_lead(x_proj: np.ndarray) -> int:
    """Leading steps at which every item's projected row carries the bits of
    item 0's step-0 row.  Bytes are compared, not values: -0.0 is not +0.0
    and nothing rests on NaN semantics.  Without a shared step 0 this is one
    ``(batch, 4·hidden)`` comparison; after it, one memcmp per shared step."""
    steps, batch = x_proj.shape[:2]
    if batch < 2 or steps == 0:
        return 0
    slab = x_proj[0].tobytes()
    if slab != x_proj[0, 0].tobytes() * batch:
        return 0
    lead = 1
    while lead < steps and x_proj[lead].tobytes() == slab:
        lead += 1
    return lead


# (dtype, Wh bytes, row bytes) -> read-only ``(2, n + 1, 1, 1, hidden)``: the
# hidden [0] and cell [1] state *entering* step k of one item fed that
# projected row at every step from zero state.  Keyed by content, never by
# array identity (``load_state_dict`` and the optimisers write parameters in
# place); derived, bounded, and a miss costs only time.
_PREFIX_CHAINS: dict[tuple[str, bytes, bytes], np.ndarray] = {}
_PREFIX_CHAINS_MAX = 8
_PREFIX_CHAINS_LOCK = threading.Lock()


def _fresh_prefix_chains_lock() -> None:
    """A forked child inherits the lock as the parent's other threads left
    it, and no thread in the child will ever release it: re-create it
    there.  The memo itself is only ever missing an entry, never torn."""
    global _PREFIX_CHAINS_LOCK
    _PREFIX_CHAINS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_prefix_chains_lock)


def _prefix_chain(row: np.ndarray, Wh: np.ndarray, lead: int) -> np.ndarray:
    """The memoised chain for ``(Wh, row)``, extended to ``lead`` steps."""
    key = (row.dtype.str, Wh.tobytes(), row.tobytes())
    zero_state = np.zeros((2, 1, 1, 1, Wh.shape[0]), dtype=row.dtype)
    with _PREFIX_CHAINS_LOCK:
        chain = _PREFIX_CHAINS.pop(key, zero_state)
        have = chain.shape[1] - 1
        if have < lead:
            grown = np.zeros((2, lead + 1, 1, 1, Wh.shape[0]), dtype=row.dtype)
            grown[:, : have + 1] = chain
            _lstm_steps(
                np.broadcast_to(row, (lead, *row.shape)), Wh,
                grown[0, have], grown[1, have].copy(), grown[0, 1:], have, grown[1, 1:],
            )
            grown.flags.writeable = False
            chain = grown
        _PREFIX_CHAINS[key] = chain  # most recently used last
        if len(_PREFIX_CHAINS) > _PREFIX_CHAINS_MAX:
            del _PREFIX_CHAINS[next(iter(_PREFIX_CHAINS))]
    return chain


def lstm_infer_batched(
    X: np.ndarray,
    Wx: np.ndarray,
    Wh: np.ndarray,
    bias: np.ndarray,
) -> np.ndarray:
    """Batch-first graph-free LSTM inference over stacked sequences.

    ``X`` is ``(batch, time, features)`` where each batch item is one
    independent sequence (one customer, in the serving lane).  Returns the
    hidden sequence ``(batch, time, hidden)`` — a batch-first view of the
    kernel's time-major buffer, so not C-contiguous.

    Bitwise contract: row ``b`` of the result equals
    ``lstm_sequence(x[b:b+1], ...)`` under ``no_grad`` exactly, not just to
    round-off.  The per-item guarantee rests on keeping every matmul a
    *stacked* 3-D ``np.matmul`` whose per-item 2-D shape matches the
    single-sequence call — ``(B, 1, hidden) @ (hidden, 4*hidden)`` for the
    recurrent step and ``(B, time, features) @ (features, 4*hidden)`` for
    the input projection.  Flattening either into one big 2-D GEMM changes
    the BLAS kernel's blocking with the row count and is **not** row-stable;
    the differential tests in ``tests/test_batched_equivalence.py`` pin the
    stacked form.  All elementwise arithmetic reuses the exact expressions
    of :func:`_lstm_infer` (the oracle's lane, deliberately left alone); the
    sigmoid's branch selection is spelled differently, with the same bits.

    Leading steps whose *projected* rows are bit-identical across the batch
    (a cold fleet's padding) are not recomputed per item: a step is a pure
    function of ``(h, c, x_proj[t], Wh)``, so by induction from the zero
    state every item holds there the state of one item fed that row
    (:func:`_prefix_chain`), and the batch resumes from it.  The projection
    is still computed in full and is what is compared, so an absent prefix
    costs one comparison and a present one changes no bit.
    """
    X, Wx, Wh, b = _maybe_cast(
        np.asarray(X), np.asarray(Wx), np.asarray(Wh), np.asarray(bias)
    )
    if sanitize_enabled():
        check_finite("lstm_infer_batched.inputs", x=X, w_x=Wx, w_h=Wh, bias=b)
    batch, steps, _features = X.shape
    hidden = Wh.shape[0]

    # Stacked input projection; per-item identical to the 2-D
    # ``(time, features) @ Wx`` the single-sequence path computes.  It lands
    # time-major (as do the outputs), so step ``t`` reads and writes one
    # contiguous ``(batch, 1, ·)`` slab: the GEMM writes straight into that
    # buffer through a batch-first view, which changes only each item's
    # output row stride (BLAS ``ldc``), never its blocking, and the bias is
    # added in place.
    x_proj = np.empty((steps, batch, 1, 4 * hidden), dtype=X.dtype)
    np.matmul(X, Wx, out=x_proj[:, :, 0].transpose(1, 0, 2))
    x_proj += b

    outputs = np.empty((steps, batch, 1, hidden), dtype=X.dtype)
    h = np.zeros((batch, 1, hidden), dtype=X.dtype)
    c = np.zeros((batch, 1, hidden), dtype=X.dtype)
    lead = _shared_lead(x_proj)
    if lead:
        chain = _prefix_chain(x_proj[0, :1], Wh, lead)
        outputs[:lead] = chain[0, 1 : lead + 1]
        h = outputs[lead - 1]
        c[...] = chain[1, lead]
    if obs_enabled():
        registry = get_registry()
        registry.counter(
            "nn.lstm_infer_batched_calls", "batch-first fused LSTM inference calls"
        ).inc()
        registry.counter(
            "nn.lstm_infer_steps", "timesteps scored by the inference lane"
        ).inc(batch * steps)
        registry.counter(
            "nn.lstm_prefix_steps_skipped",
            "of those, item-steps resumed from the shared-prefix chain",
        ).inc(batch * lead)
    _lstm_steps(x_proj, Wh, h, c, outputs, lead)
    if sanitize_enabled():
        check_finite("lstm_infer_batched.outputs", outputs=outputs, cell=c)
    return outputs[:, :, 0].transpose(1, 0, 2)


def dense_infer(
    X: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    activation: str = "linear",
) -> np.ndarray:
    """Graph-free Dense forward, bitwise-faithful to the Tensor op chain.

    Under a reduced-precision policy the Tensor lane does *not* down-cast
    the float64 parameters before computing: each binary op promotes to the
    widest operand dtype and only the op's **result** is cast back to the
    policy dtype by ``Tensor.__init__``.  This mirror reproduces that
    cast-per-op dance (matmul → cast → add bias → cast → activation) so a
    float32 batched lane matches the per-item Tensor lane bit for bit.
    The leading dimensions of ``X`` are stacked batch axes, which keeps the
    matmul a per-item-stable stacked GEMM (see :func:`lstm_infer_batched`).
    """
    dtype = resolve_inference_dtype()
    out = np.matmul(X, W)
    if dtype is not None and out.dtype != dtype:
        out = out.astype(dtype)
    out = out + b
    if dtype is not None and out.dtype != dtype:
        out = out.astype(dtype)
    if activation in (None, "linear"):
        return out
    if activation == "tanh":
        return np.tanh(out)
    if activation == "softplus":
        return np.logaddexp(0.0, out)
    if activation == "sigmoid":
        return _sigmoid(out)
    if activation == "relu":
        return np.maximum(out, 0.0)
    raise ValueError(f"unknown activation {activation!r}")


def lstm_sequence(
    x: Tensor,
    w_x: Tensor,
    w_h: Tensor,
    bias: Tensor,
    state: tuple[Tensor, Tensor] | None = None,
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Fused LSTM over ``(batch, time, features)`` input.

    Semantics match :meth:`repro.nn.LSTM.forward_unfused` exactly (fused
    ``[i, f, g, o]`` gate layout): returns ``(outputs, (h_T, c_T))`` where
    ``outputs`` is ``(batch, time, hidden)``.  The entire sequence is one
    autograd node; ``c_T`` is a sibling node over the same cached
    activations so gradients may flow through a threaded state.
    """
    X, Wx, Wh, b = _maybe_cast(x.data, w_x.data, w_h.data, bias.data)
    if sanitize_enabled():
        check_finite("lstm_sequence.inputs", x=X, w_x=Wx, w_h=Wh, bias=b)
    batch, steps, _features = X.shape
    hidden = Wh.shape[0]
    if state is None:
        h0 = np.zeros((batch, hidden), dtype=X.dtype)
        c0 = np.zeros((batch, hidden), dtype=X.dtype)
    else:
        h0, c0 = _maybe_cast(state[0].data, state[1].data)

    parents: list[Tensor] = [x, w_x, w_h, bias]
    if state is not None:
        parents.extend(state)
    grad_mode = is_grad_enabled() and any(
        p.requires_grad or p._parents for p in parents
    )

    hook = get_tape_hook()
    start = time.perf_counter() if hook is not None else 0.0

    # One batched input projection for all timesteps (same op order as the
    # unfused path: matmul, broadcast bias add, reshape).
    x_proj = (X.reshape(batch * steps, -1) @ Wx + b).reshape(batch, steps, 4 * hidden)

    if not grad_mode:
        result = _lstm_infer(X, Wx, Wh, x_proj, h0, c0, hidden)
        if hook is not None:
            hook.record_forward("lstm_infer", time.perf_counter() - start)
        if sanitize_enabled():
            check_finite("lstm_sequence.infer_outputs", outputs=result[0].data)
        return result

    outputs = np.empty((batch, steps, hidden), dtype=X.dtype)
    # Activation cache for the hand-derived backward, time-major so each
    # step's slab is contiguous: sigmoided [i, f] and [o] gates, tanh'd
    # candidate [g], cell state and its tanh.
    if_all = np.empty((steps, batch, 2 * hidden), dtype=X.dtype)
    g_all = np.empty((steps, batch, hidden), dtype=X.dtype)
    o_all = np.empty((steps, batch, hidden), dtype=X.dtype)
    c_all = np.empty((steps, batch, hidden), dtype=X.dtype)
    tc_all = np.empty((steps, batch, hidden), dtype=X.dtype)

    h, c = h0, c0
    gates = np.empty((batch, 4 * hidden), dtype=X.dtype)
    for t in range(steps):
        np.matmul(h, Wh, out=gates)
        gates += x_proj[:, t]
        # [i|f] share one fused sigmoid call (same element math as two).
        i_f = _sigmoid(gates[:, : 2 * hidden])
        i = i_f[:, :hidden]
        f = i_f[:, hidden:]
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden :])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h = o * tc
        outputs[:, t] = h
        if_all[t] = i_f
        g_all[t] = g
        o_all[t] = o
        c_all[t] = c_new
        tc_all[t] = tc
        c = c_new

    if hook is not None:
        hook.record_forward("lstm_sequence", time.perf_counter() - start)
    if sanitize_enabled():
        check_finite("lstm_sequence.outputs", outputs=outputs, cell=c)

    def bptt(
        d_out: np.ndarray | None,
        d_cT: np.ndarray | None,
    ) -> tuple[tuple[Tensor, np.ndarray], ...]:
        """Hand-derived BPTT over the cached gate activations.

        ``d_out`` is the incoming gradient on the full hidden sequence (or
        None), ``d_cT`` the gradient on the final cell state (or None).
        Mirrors the generic tape's accumulation order so both paths agree
        to round-off.
        """
        d_xproj = np.empty_like(x_proj)
        d_wh = np.zeros_like(Wh)
        dh_carry = np.zeros((batch, hidden), dtype=X.dtype)
        dc_carry = (
            np.array(d_cT, dtype=X.dtype)
            if d_cT is not None
            else np.zeros((batch, hidden), dtype=X.dtype)
        )
        for t in range(steps - 1, -1, -1):
            dh = d_out[:, t] + dh_carry if d_out is not None else dh_carry
            o = o_all[t]
            tc = tc_all[t]
            dtc = dh * o
            dc = dc_carry + dtc * (1.0 - tc * tc)
            i_f = if_all[t]
            i = i_f[:, :hidden]
            f = i_f[:, hidden:]
            g = g_all[t]
            c_prev = c_all[t - 1] if t > 0 else c0
            h_prev = outputs[:, t - 1] if t > 0 else h0
            # d(pre-activation gates), fused [i, f, g, o] layout.
            d_gates = np.empty((batch, 4 * hidden), dtype=X.dtype)
            d_gates[:, :hidden] = (dc * g) * i * (1.0 - i)
            d_gates[:, hidden : 2 * hidden] = (dc * c_prev) * f * (1.0 - f)
            d_gates[:, 2 * hidden : 3 * hidden] = (dc * i) * (1.0 - g * g)
            d_gates[:, 3 * hidden :] = (dh * tc) * o * (1.0 - o)
            d_xproj[:, t] = d_gates
            d_wh += h_prev.T @ d_gates
            dh_carry = d_gates @ Wh.T
            dc_carry = dc * f
        flat = d_xproj.reshape(batch * steps, 4 * hidden)
        d_bias = flat.sum(axis=0)
        d_wx = X.reshape(batch * steps, -1).T @ flat
        d_x = (flat @ Wx.T).reshape(X.shape)
        pairs = [(x, d_x), (w_x, d_wx), (w_h, d_wh), (bias, d_bias)]
        if state is not None:
            pairs.append((state[0], dh_carry))
            pairs.append((state[1], dc_carry))
        return tuple(pairs)

    out_t = Tensor(
        outputs,
        _parents=tuple(parents),
        _backward=lambda grad: bptt(grad, None),
        name="lstm_sequence",
    )
    c_t = Tensor(
        c,
        _parents=tuple(parents),
        _backward=lambda grad: bptt(None, grad),
        name="lstm_sequence.cell",
    )
    # h_T as a slice keeps its gradient flowing through the sequence node.
    h_t = out_t[:, steps - 1, :]
    return out_t, (h_t, c_t)


# ----------------------------------------------------------------------
# fused pooling
# ----------------------------------------------------------------------
def _pool_split(X: np.ndarray, window: int):
    """Split ``(batch, time, feat)`` into full windows and a ragged tail."""
    batch, steps, feat = X.shape
    nfull, rem = divmod(steps, window)
    full = X[:, : nfull * window].reshape(batch, nfull, window, feat)
    tail = X[:, nfull * window :] if rem else None
    return full, tail, nfull, rem


def _avg_pool_forward(X: np.ndarray, window: int):
    """Shared avg-pool forward; returns ``(out, full, tail, nfull, rem)``."""
    full, tail, nfull, rem = _pool_split(X, window)
    pieces = []
    if nfull:
        pieces.append(full.sum(axis=2) * (1.0 / window))
    if rem:
        pieces.append(tail.sum(axis=1, keepdims=True) * (1.0 / rem))
    out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    return out, full, tail, nfull, rem


def _max_pool_forward(X: np.ndarray, window: int):
    """Shared max-pool forward; returns ``(out, full, tail, nfull, rem)``."""
    full, tail, nfull, rem = _pool_split(X, window)
    pieces = []
    if nfull:
        pieces.append(full.max(axis=2))
    if rem:
        pieces.append(tail.max(axis=1, keepdims=True))
    out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    return out, full, tail, nfull, rem


def pool_infer(X: np.ndarray, window: int, mode: str) -> np.ndarray:
    """Graph-free pooling forward over ``(batch, time, features)``.

    Runs the *same* reduction expressions as the tape kernels below, so
    each batch row is bitwise identical to pooling that row alone (the
    window-axis reductions are independent per batch item).  ``window == 1``
    is the identity, matching ``AvgPool1D.forward`` / ``MaxPool1D.forward``
    which skip the kernel entirely in that case.
    """
    if window == 1:
        return X
    if mode == "avg":
        return _avg_pool_forward(X, window)[0]
    if mode == "max":
        return _max_pool_forward(X, window)[0]
    raise ValueError(f"unknown pooling mode {mode!r}")


def avg_pool_1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping temporal average pooling as one tape node.

    Equivalent to :meth:`repro.nn.AvgPool1D.forward_unfused`: a trailing
    partial window is averaged over its own (shorter) length.
    """
    hook = get_tape_hook()
    start = time.perf_counter() if hook is not None else 0.0
    (X,) = _maybe_cast(x.data)
    out, full, tail, nfull, rem = _avg_pool_forward(X, window)
    if hook is not None:
        hook.record_forward("avg_pool_1d", time.perf_counter() - start)
    if sanitize_enabled():
        check_finite("avg_pool_1d", x=X, out=out)

    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor(out)

    def back(grad: np.ndarray):
        d_x = np.empty_like(X)
        if nfull:
            d_full = (grad[:, :nfull] * (1.0 / window))[:, :, None, :]
            d_x[:, : nfull * window] = np.broadcast_to(d_full, full.shape).reshape(
                X.shape[0], nfull * window, X.shape[2]
            )
        if rem:
            d_tail = grad[:, nfull:] * (1.0 / rem)
            d_x[:, nfull * window :] = np.broadcast_to(d_tail, tail.shape)
        return ((x, d_x),)

    return Tensor(out, _parents=(x,), _backward=back, name="avg_pool_1d")


def max_pool_1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping temporal max pooling as one tape node.

    Backward splits the gradient evenly among tied maxima within a window,
    matching the generic ``Tensor.max`` semantics.
    """
    hook = get_tape_hook()
    start = time.perf_counter() if hook is not None else 0.0
    (X,) = _maybe_cast(x.data)
    out, full, tail, nfull, rem = _max_pool_forward(X, window)
    if hook is not None:
        hook.record_forward("max_pool_1d", time.perf_counter() - start)
    if sanitize_enabled():
        check_finite("max_pool_1d", x=X, out=out)

    if not (is_grad_enabled() and (x.requires_grad or x._parents)):
        return Tensor(out)

    def back(grad: np.ndarray):
        d_x = np.empty_like(X)
        if nfull:
            mask = (full == out[:, :nfull, None, :]).astype(X.dtype)
            mask /= mask.sum(axis=2, keepdims=True)
            d_full = grad[:, :nfull, None, :] * mask
            d_x[:, : nfull * window] = d_full.reshape(
                X.shape[0], nfull * window, X.shape[2]
            )
        if rem:
            tmask = (tail == out[:, nfull:]).astype(X.dtype)
            tmask /= tmask.sum(axis=1, keepdims=True)
            d_x[:, nfull * window :] = grad[:, nfull:] * tmask
        return ((x, d_x),)

    return Tensor(out, _parents=(x,), _backward=back, name="max_pool_1d")
