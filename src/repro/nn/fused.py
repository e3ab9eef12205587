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

from typing import Sequence

import numpy as np

from ..analysis.sanitizer import SanitizeError, check_finite, sanitize_enabled
from ..obs.registry import get_registry, obs_enabled
from .autograd import Tensor, is_grad_enabled, resolve_inference_dtype

__all__ = [
    "lstm_sequence",
    "avg_pool_1d",
    "max_pool_1d",
    "pool_infer",
    "dense_infer",
    "lstm_infer_batched",
    "lstm_infer_lockstep",
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
    where results land, not their values), so from the same ``x_proj``
    inference output is byte-identical to the training-mode forward.
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
    x_proj: np.ndarray, Wh: np.ndarray, cell: np.ndarray, outputs: np.ndarray,
    starts: Sequence[int], cells: np.ndarray | None = None,
) -> None:
    """The recurrence of ``S`` stacked LSTMs in one time loop, scale-major
    operands aligned at their last step.

    ``x_proj`` is ``(S, T, batch, 1, 4·hidden)``, ``Wh`` ``(S, hidden,
    4·hidden)`` and ``cell`` the ``(S, batch, 1, hidden)`` cell state,
    advanced in place.  Slot ``s`` runs steps ``starts[s] .. T - 1``:
    ``outputs[s, t]`` holds the hidden state entering step ``t``, ``h_t``
    lands in ``outputs[s, t + 1]`` and, when given, a copy of ``c_t`` in
    ``cells[s, t + 1]``.  ``starts`` is non-decreasing, so the slots running
    at a step are always a prefix ``[:a]`` — at most ``S`` phases of one
    stacked step per time step.  The recurrent product broadcasts ``Wh``
    over the batch and never copies it per item, so each item's matmul is
    the ``(1, hidden) @ (hidden, 4·hidden)`` of a one-LSTM call.  The one
    loop body of every timescale, every batch and the single-item prefix
    chain, so they cannot drift.
    """
    slots, batch, _, hidden = cell.shape
    wide = np.empty((3, slots, batch, 1, 4 * hidden), dtype=cell.dtype)
    narrow = np.empty((2, slots, batch, 1, hidden), dtype=cell.dtype)
    for a, (lo, hi) in enumerate(zip(starts, (*starts[1:], x_proj.shape[1])), 1):
        gates, e, num = wide[:, :a]
        g, tmp = narrow[:, :a]
        c, xs, hs, W = cell[:a], x_proj[:a], outputs[:a], Wh[:a, None]
        candidate = gates[..., 2 * hidden : 3 * hidden]
        i = num[..., :hidden]
        f = num[..., hidden : 2 * hidden]
        o = num[..., 3 * hidden :]
        h = hs[:, lo]
        for t in range(lo, hi):
            np.matmul(h, W, out=gates)
            gates += xs[:, t]
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
            h = hs[:, t + 1]
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=h)
            if cells is not None:
                cells[:a, t + 1] = c


def _project(
    X: np.ndarray, Wx: np.ndarray, b: np.ndarray, out: np.ndarray,
    pads: np.ndarray, resume: bool = True,
) -> tuple[int, np.ndarray | None]:
    """The input projection ``X @ Wx + b`` of stacked single sequences into
    the batch-first ``out``, each item's padding projected once.

    ``pads[i]`` counts item ``i``'s leading rows that carry the bytes of its
    last pad row, as the caller vouches (``REPRO_SANITIZE=1`` checks).  Its
    GEMM and bias cover rows ``f = min(pads[i] - 1, time - 2) ..`` only: at
    one row numpy hands the product to gemv, whose row differs from a GEMM
    row's.  Items with equal ``f`` share one stacked GEMM, per item the 2-D
    product of a one-sequence call, so every lane projecting a sequence
    through here gets the same bytes for it on any BLAS kernel.

    With ``resume``, returns the batch's smallest pad count and item 0's
    projected pad row if every item's (and, at a count of ``time``, last)
    row has its bytes — items projected from different rows may not, on a
    kernel that is not row-stable — else ``(0, None)``.  Rows ``lead .. f -
    1`` take row ``f``; rows before ``lead`` stay unwritten.
    """
    batch, steps = X.shape[:2]
    if sanitize_enabled():
        bits = X.view(f"u{X.dtype.itemsize}")
        for i, pad in enumerate(pads.tolist()):
            if not 0 <= pad <= steps or (pad and not (bits[i, :pad] == bits[i, pad - 1]).all()):
                raise SanitizeError(
                    f"pad count {pad} of item {i} reaches past a row that differs "
                    "from its last pad row"
                )
    firsts = np.minimum(np.maximum(pads - 1, 0), max(steps - 2, 0))
    if obs_enabled():
        get_registry().counter(
            "nn.lstm_proj_rows_skipped",
            "input rows whose LSTM projection was taken from their last pad row's",
        ).inc(int(firsts.sum()))
    cuts = (np.flatnonzero(firsts[1:] != firsts[:-1]) + 1).tolist()
    groups = [(lo, hi, int(firsts[lo])) for lo, hi in zip([0, *cuts], [*cuts, batch])]
    for lo, hi, first in groups:
        rows = out[lo:hi, first:]
        np.matmul(X[lo:hi, first:], Wx, out=rows)
        rows += b
    lead, row = (int(pads.min()) if resume and batch else 0), None
    if lead:
        pad_rows = out[np.arange(batch), firsts]
        if lead == steps:
            pad_rows = np.concatenate((pad_rows, out[:, steps - 1]))
        bits = pad_rows.view(f"u{pad_rows.dtype.itemsize}")
        lead, row = (lead, pad_rows[:1, None]) if (bits == bits[0]).all() else (0, None)
    for lo, hi, first in groups:
        if first > lead:
            out[lo:hi, lead:first] = out[lo:hi, first : first + 1]
    return lead, row


def _pad_chain(chains: dict, slot: int, row: np.ndarray, Wh: np.ndarray, lead: int) -> np.ndarray:
    """Read-only ``(2, n + 1, 1, 1, hidden)``, ``n >= lead``: the hidden
    [0] and cell [1] state *entering* step ``k`` of one item fed the
    projected pad row ``row`` at every step from zero state, through the
    batch's own loop body.  ``chains[slot]`` holds one ``(key, chain)`` per
    timescale, keyed by content — ``(dtype, Wh bytes, row bytes)`` — never
    by array identity, because ``load_state_dict`` and the optimisers write
    parameters in place: another key, or a longer lead, rebuilds it.
    """
    key = (row.dtype.str, Wh.tobytes(), row.tobytes())
    held = chains.get(slot)
    if held is None or held[0] != key or held[1].shape[1] <= lead:
        chain = np.zeros((2, lead + 1, 1, 1, Wh.shape[0]), dtype=row.dtype)
        _lstm_steps(
            np.broadcast_to(row, (1, lead, *row.shape)), Wh[None],
            np.zeros_like(chain[1, :1]), chain[0][None], (0,), chain[1][None],
        )
        chain.flags.writeable = False
        held = chains[slot] = (key, chain)
    return held[1]


def lstm_infer_batched(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Batch-first graph-free LSTM inference over stacked sequences: the
    one-timescale call of :func:`lstm_infer_lockstep`, without pad counts.

    ``X`` is ``(batch, time, features)`` where each batch item is one
    independent sequence (one customer, in the serving lane).  Returns the
    hidden sequence ``(batch, time, hidden)`` — a batch-first view of the
    kernel's time-major buffer, so not C-contiguous — whose row ``b`` equals
    ``lstm_sequence(x[b:b+1], ...)`` under ``no_grad`` bit for bit.
    """
    return lstm_infer_lockstep([X], [(Wx, Wh, bias)])[0]


def lstm_infer_lockstep(
    sequences: Sequence[np.ndarray],
    weights: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    pads: Sequence[np.ndarray | int] | None = None,
    chains: dict | None = None,
) -> list[np.ndarray]:
    """Several LSTMs over one batch, their recurrences in one time loop.

    ``sequences[s]`` is timescale ``s``'s ``(batch, time_s, features_s)``
    stack and ``weights[s]`` its LSTM's ``(w_x, w_h, bias)``; every
    sequence has the same batch and every LSTM the same hidden size.
    Returns each timescale's hidden sequence, row ``b`` bit for bit what
    ``lstm_sequence`` under ``no_grad`` returns on it with the same pad
    count.  That rests on every matmul being a *stacked* ``np.matmul``
    whose per-item 2-D shape is the one-sequence call's — ``(1, hidden) @
    (hidden, 4·hidden)`` for the recurrent step, and the one projection
    routine both use, :func:`_project`: one big 2-D GEMM changes the BLAS
    blocking with the row count and is **not** row-stable.  Elementwise,
    :func:`_lstm_steps` runs :func:`_lstm_infer`'s expressions (the
    sigmoid's branch is selected differently, with the same bits), so only
    the interleaving of independent steps changes.

    ``pads[s]`` (per item, or one count for all) is each sequence's padded
    leading steps in timescale ``s`` (:func:`_project`).  The timescale's
    recurrence resumes at the batch's smallest pad count from the pad
    chain (:func:`_pad_chain`) in ``chains``, the caller's dict, so it
    persists across calls (a fresh one per call without it): a step is a
    pure function of ``(h, c, x_proj[t], Wh)``, so by induction from the
    zero state every item holds there the state of one item fed the pad
    row.  The timescales are then aligned at their last step and ordered by
    the steps left to run, longest first, so the loop runs for the longest
    timescale's steps rather than their sum: at the e2e spans a warm minute
    takes 60 loop iterations, not 60 + 36 + 12.
    """
    cast = [
        _maybe_cast(np.asarray(X), np.asarray(Wx), np.asarray(Wh), np.asarray(b))
        for X, (Wx, Wh, b) in zip(sequences, weights, strict=True)
    ]
    if sanitize_enabled():
        for X, Wx, Wh, b in cast:
            check_finite("lstm_infer_lockstep.inputs", x=X, w_x=Wx, w_h=Wh, bias=b)
    batch, dtype = cast[0][0].shape[0], cast[0][0].dtype
    hidden = cast[0][2].shape[0]
    steps = [X.shape[1] for X, *_rest in cast]
    span = max(steps)
    pads = [np.broadcast_to(np.asarray(p, np.intp), (batch,)) for p in pads or [0] * len(cast)]
    chains = {} if chains is None else chains

    # Scale-major and aligned at the last step: timescale ``s`` fills
    # positions ``span - steps[s] ..`` of its slot.  Its input projection is
    # the single-sequence path's, per item; it lands time-major within the
    # slot, so a step reads one ``(batch, 1, ·)`` slab per timescale: the
    # GEMM writes straight into that buffer through a batch-first view,
    # which changes only each item's output row stride (BLAS ``ldc``),
    # never its blocking, and the bias is added in place.
    x_proj = np.empty((len(cast), span, batch, 1, 4 * hidden), dtype=dtype)
    leads, rows = zip(*(
        _project(X, Wx, b, slab[span - n :, :, 0].transpose(1, 0, 2), pad)
        for slab, n, pad, (X, Wx, _Wh, b) in zip(x_proj, steps, pads, cast, strict=True)
    ))

    # Slots by steps left to run, longest first (ties keep timescale order),
    # so the timescales running at a step are always the leading slots.
    order = sorted(range(len(cast)), key=lambda s: leads[s] - steps[s])
    if order != list(range(len(cast))):
        x_proj = x_proj[order]
    outputs = np.empty((len(cast), span + 1, batch, 1, hidden), dtype=dtype)
    cell = np.zeros((len(cast), batch, 1, hidden), dtype=dtype)
    starts = []
    for slot, s in enumerate(order):
        first, lead = span - steps[s], leads[s]
        outputs[slot, first] = 0.0
        if lead:
            chain = _pad_chain(chains, s, rows[s], cast[s][2], lead)
            outputs[slot, first + 1 : first + lead + 1] = chain[0, 1 : lead + 1]
            cell[slot] = chain[1, lead]
        starts.append(first + lead)
    if obs_enabled():
        registry = get_registry()
        registry.counter(
            "nn.lstm_infer_batched_calls", "batch-first fused LSTM inference calls, one per timescale"
        ).inc(len(cast))
        registry.counter(
            "nn.lstm_infer_steps", "timesteps scored by the inference lane"
        ).inc(batch * sum(steps))
        registry.counter(
            "nn.lstm_prefix_steps_skipped",
            "of those, item-steps resumed from the pad chain",
        ).inc(batch * sum(leads))
    _lstm_steps(x_proj, np.stack([cast[s][2] for s in order]), cell, outputs, starts)
    hiddens = [
        outputs[order.index(s), span - n + 1 :, :, 0].transpose(1, 0, 2)
        for s, n in enumerate(steps)
    ]
    if sanitize_enabled():
        check_finite(
            "lstm_infer_lockstep.outputs",
            cell=cell,
            **{f"outputs_{s}": h for s, h in enumerate(hiddens)},
        )
    return hiddens


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
    pads: int = 0,
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Fused LSTM over ``(batch, time, features)`` input.

    Semantics match :meth:`repro.nn.LSTM.forward_unfused` exactly (fused
    ``[i, f, g, o]`` gate layout): returns ``(outputs, (h_T, c_T))`` where
    ``outputs`` is ``(batch, time, hidden)``.  The entire sequence is one
    autograd node; ``c_T`` is a sibling node over the same cached
    activations so gradients may flow through a threaded state.

    ``pads`` is read by the no-grad lane at batch 1 only, the oracle of
    :func:`lstm_infer_lockstep`: given the served lane's pad count, it
    projects the same rows (:func:`_project`) on any BLAS kernel.
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

    if not grad_mode and batch == 1:
        # One sequence: the served lane's own projection (its oracle).
        x_proj = np.empty((1, steps, 4 * hidden), dtype=np.result_type(X, Wx, b))
        _project(X, Wx, b, x_proj, np.array([pads], dtype=np.intp), resume=False)
    else:
        # One batched input projection for all timesteps (same op order as
        # the unfused path: matmul, broadcast bias add, reshape).
        x_proj = (X.reshape(batch * steps, -1) @ Wx + b).reshape(batch, steps, 4 * hidden)

    if not grad_mode:
        result = _lstm_infer(X, Wx, Wh, x_proj, h0, c0, hidden)
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
    )
    c_t = Tensor(
        c,
        _parents=tuple(parents),
        _backward=lambda grad: bptt(None, grad),
    )
    # h_T as a slice keeps its gradient flowing through the sequence node.
    h_t = out_t[:, steps - 1, :]
    return out_t, (h_t, c_t)


# ----------------------------------------------------------------------
# fused pooling
# ----------------------------------------------------------------------
def _pool_forward(X: np.ndarray, window: int, mode: str):
    """Pool ``(batch, time, feat)`` over full windows and a ragged trailing
    one, each over its own length; returns ``(out, full, tail, nfull,
    rem)``."""
    batch, steps, feat = X.shape
    nfull, rem = divmod(steps, window)
    full = X[:, : nfull * window].reshape(batch, nfull, window, feat)
    tail = X[:, nfull * window :] if rem else None
    if mode == "avg":
        pieces = [full.sum(axis=2) * (1.0 / window)] if nfull else []
        pieces += [tail.sum(axis=1, keepdims=True) * (1.0 / rem)] if rem else []
    elif mode == "max":
        pieces = [full.max(axis=2)] if nfull else []
        pieces += [tail.max(axis=1, keepdims=True)] if rem else []
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
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
    return X if window == 1 else _pool_forward(X, window, mode)[0]


def avg_pool_1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping temporal average pooling as one tape node.

    Equivalent to :meth:`repro.nn.AvgPool1D.forward_unfused`: a trailing
    partial window is averaged over its own (shorter) length.
    """
    (X,) = _maybe_cast(x.data)
    out, full, tail, nfull, rem = _pool_forward(X, window, "avg")
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

    return Tensor(out, _parents=(x,), _backward=back)


def max_pool_1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping temporal max pooling as one tape node.

    Backward splits the gradient evenly among tied maxima within a window,
    matching the generic ``Tensor.max`` semantics.
    """
    (X,) = _maybe_cast(x.data)
    out, full, tail, nfull, rem = _pool_forward(X, window, "max")
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

    return Tensor(out, _parents=(x,), _backward=back)
