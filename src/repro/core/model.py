"""The Xatu model: multi-timescale LSTM with a survival (hazard) head.

Figure 6 of the paper: the 273-feature minute series is pooled at three
granularities (1 / 10 / 60 minutes), each pooled series feeds its own LSTM
(LSTM_short / LSTM_med / LSTM_long), per-scale dense layers project the
hidden states, the projections are combined by a final dense layer, and the
output is the instantaneous attack probability (hazard rate) ``lambda_t``
for each minute of the detection window.  The survival head converts the
hazards to ``S_t`` (§4.2).

Each timescale also has its own *span*: LSTM_short sees recent hours at
1-minute resolution while LSTM_long sees the whole 10-day history at
1-hour resolution (Figure 11 visualizes exactly this: a 4-hour short view
and a 40-hour medium view).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..nn import LSTM, AvgPool1D, Dense, MaxPool1D, Module, Tensor
from ..survival.analysis import hazards_to_survival_np

__all__ = ["TimescaleSpec", "XatuModelConfig", "XatuModel"]


@dataclass(frozen=True, slots=True)
class TimescaleSpec:
    """One timescale: pooling window (minutes/step) and span (steps).

    The LSTM for this scale consumes the most recent ``window * span``
    minutes, pooled into ``span`` steps of ``window`` minutes each.
    """

    name: str
    window: int
    span: int

    def __post_init__(self) -> None:
        if self.window < 1 or self.span < 1:
            raise ValueError("window and span must be >= 1")

    @property
    def minutes(self) -> int:
        return self.window * self.span


@dataclass
class XatuModelConfig:
    """Architecture hyper-parameters (paper defaults in §5.3 / Appendix H).

    The paper uses hidden size 200 and timescales (1, 10, 60); the
    reproduction defaults are laptop-scale but fully configurable — the
    Figure 18 sensitivity benches sweep them.
    """

    n_features: int = 273
    hidden_size: int = 32
    dense_size: int = 16
    detect_window: int = 30  # N in §5.3
    timescales: tuple[TimescaleSpec, ...] = (
        TimescaleSpec("short", 1, 120),
        TimescaleSpec("medium", 10, 72),
        TimescaleSpec("long", 60, 48),
    )
    pooling: str = "avg"  # "avg" (paper default) or "max" — ablation knob
    seed: int = 0

    @property
    def lookback_minutes(self) -> int:
        """Input window length required by the longest timescale."""
        return max(ts.minutes for ts in self.timescales)

    def validate(self) -> None:
        if self.detect_window < 1:
            raise ValueError("detect_window must be >= 1")
        if not self.timescales:
            raise ValueError("at least one timescale is required")
        shortest = min(ts.window for ts in self.timescales)
        if self.detect_window > self.timescales[0].span * self.timescales[0].window:
            raise ValueError("detect_window exceeds the first timescale's span")
        if shortest != self.timescales[0].window:
            raise ValueError(
                "the first timescale must be the finest (it drives the "
                "per-minute hazard output)"
            )
        if self.pooling not in ("avg", "max"):
            raise ValueError("pooling must be 'avg' or 'max'")


class XatuModel(Module):
    """Multi-timescale LSTM → dense combine → hazard rates.

    ``forward`` takes ``(batch, lookback_minutes, n_features)`` and returns
    hazards of shape ``(batch, detect_window)`` for the *last*
    ``detect_window`` minutes of the input.
    """

    def __init__(self, config: XatuModelConfig | None = None) -> None:
        cfg = config or XatuModelConfig()
        cfg.validate()
        self.config = cfg
        rng = np.random.default_rng(cfg.seed)
        pool_cls = AvgPool1D if cfg.pooling == "avg" else MaxPool1D
        self.pools = [pool_cls(ts.window) for ts in cfg.timescales]
        # Every layer draws in sequence from the one model rng on purpose:
        # per-layer child streams would move every committed golden.
        self.lstms = [
            LSTM(cfg.n_features, cfg.hidden_size, rng=rng) for _ts in cfg.timescales
        ]
        self.scale_dense = [
            Dense(cfg.hidden_size, cfg.dense_size, activation="tanh", rng=rng)
            for _ts in cfg.timescales
        ]
        self.combine = Dense(
            cfg.dense_size * len(cfg.timescales), 1, activation="softplus", rng=rng
        )
        # Start the hazard head cold: softplus(-4) ~ 0.018/minute, so the
        # untrained model's survival stays near 1 instead of alerting on
        # everything (softplus(0) ~ 0.69/min would drive S_30 to ~1e-9).
        # Rebind rather than write in place: the tape may already hold a
        # reference to the buffer.
        self.combine.bias.data = np.full_like(self.combine.bias.data, -4.0)
        self._indices_cache: dict[int, list[np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _scale_indices(self, total_minutes: int) -> list[np.ndarray]:
        """Pooled-step index for each detection-window minute, per scale.

        Pure function of ``total_minutes`` and the (frozen) timescale specs,
        so results are memoized — the detector's sliding-window loop calls
        this once per scored block.
        """
        cached = self._indices_cache.get(total_minutes)
        if cached is not None:
            return cached
        cfg = self.config
        out = []
        detect_minutes = np.arange(
            total_minutes - cfg.detect_window, total_minutes
        )
        for ts in cfg.timescales:
            scale_start = total_minutes - ts.minutes  # first minute this scale sees
            idx = (detect_minutes - scale_start) // ts.window
            idx = np.clip(idx, 0, ts.span - 1)
            out.append(idx.astype(np.int64))
        self._indices_cache[total_minutes] = out
        return out

    def _check_window(self, minutes: int, n_features: int) -> None:
        cfg = self.config
        if n_features != cfg.n_features:
            raise ValueError(f"expected {cfg.n_features} features, got {n_features}")
        if minutes < cfg.lookback_minutes:
            raise ValueError(
                f"input window of {minutes} min is shorter than the "
                f"required lookback of {cfg.lookback_minutes} min"
            )

    def forward(self, x: Tensor, pads: list[int] | None = None) -> Tensor:
        """Hazards of a ``(batch, minutes, features)`` stack; ``pads`` as in
        :meth:`hazards_np_staged`, read by the no-grad LSTM at batch 1 only."""
        cfg = self.config
        batch, total_minutes, n_features = x.shape
        self._check_window(total_minutes, n_features)
        indices = self._scale_indices(total_minutes)
        projections: list[Tensor] = []
        for ts, pool, lstm, dense, idx, pad in zip(
            cfg.timescales, self.pools, self.lstms, self.scale_dense, indices,
            pads or [0] * len(cfg.timescales),
        ):
            recent = x[:, total_minutes - ts.minutes :, :]
            pooled = pool(recent)  # (batch, span, features)
            hidden, _state = lstm(pooled, pads=pad)  # (batch, span, hidden)
            selected = hidden[:, idx, :]  # (batch, detect_window, hidden)
            projections.append(dense(selected))
        combined = Tensor.concat(projections, axis=-1)
        hazards = self.combine(combined)  # (batch, detect_window, 1)
        return hazards.reshape(batch, cfg.detect_window)

    # ------------------------------------------------------------------
    @contextmanager
    def _no_grad_inference(self, dtype=None):
        """Inference scope shared by every ``*_np`` entry point: module tree
        in eval mode for the duration, no autograd tape, and — when
        ``dtype`` is given — the reduced-precision policy for the fused
        kernels."""
        from ..nn import inference_dtype, no_grad

        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                if dtype is None:
                    yield
                else:
                    with inference_dtype(dtype):
                        yield
        finally:
            if was_training:
                self.train(True)

    def hazards_np(self, x: np.ndarray, dtype=None, pads: list[int] | None = None) -> np.ndarray:
        """Inference: hazards as a plain array (no autograd tape).

        Runs the graph-free fast lane: the module tree is flipped to eval
        mode for the call, no closures are allocated, and ``dtype`` (e.g.
        ``np.float32``) optionally activates the reduced-precision policy
        for the fused kernels.  Default float64 output is byte-identical to
        the training-mode forward, with one exception on a BLAS kernel that
        is not row-stable (OpenBLAS Haswell, Zen): given ``pads`` for a
        single window, the no-grad LSTM projects each timescale's padding
        once, so the last bits may differ there (docs/ARCHITECTURE.md §4).
        """
        with self._no_grad_inference(dtype):
            return self.forward(Tensor(x), pads).numpy()

    def survival_np(self, x: np.ndarray, dtype=None) -> np.ndarray:
        """Inference: the survival curve ``S_t`` over the detection window."""
        return hazards_to_survival_np(self.hazards_np(x, dtype=dtype))

    # ------------------------------------------------------------------
    # stacked cross-customer inference
    # ------------------------------------------------------------------
    def hazards_np_batched(self, x: np.ndarray, dtype=None) -> np.ndarray:
        """Inference over a stack of independent windows, per-item bitwise
        identical to :meth:`hazards_np` on each window alone.

        ``hazards_np(x)`` with ``batch > 1`` is *not* row-stable: the LSTM
        kernels flatten ``(batch, time, features)`` into one 2-D GEMM whose
        BLAS blocking (and therefore low-order bits) changes with the row
        count.  This entry point instead mirrors ``forward`` op for op with
        stacked 3-D matmuls whose per-item 2-D shapes match the
        ``batch == 1`` call exactly, so

            ``hazards_np_batched(x)[i] == hazards_np(x[i:i+1])[0]``

        holds bit for bit, in float64 and under the float32 ``dtype``
        policy alike.  This is what lets the serving layer score every
        customer on a shard in one pass while keeping alert streams and
        checkpoints byte-identical to the per-customer reference
        (:class:`repro.testing.reference.ReferenceOnlineXatu`).
        """
        with self._no_grad_inference(dtype):
            return self._hazards_staged(self._stage_pooled(x))

    def stage_pooled(self, x: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Feature-staging half of the stacked pass: validate, cast to the
        inference dtype, and pool a stack of windows into the per-timescale
        sequences :meth:`hazards_np_staged` consumes.

        Splitting staging from the decision pass mirrors the serving
        pipeline's feature-extractor → batch-inferencer structure: staging
        is per-minute data movement; the staged pass is the per-customer
        alert-decision cost that batching amortizes.  Composition is exact:
        ``hazards_np_staged(stage_pooled(x, d), d)`` equals
        ``hazards_np_batched(x, d)`` bit for bit.
        """
        with self._no_grad_inference(dtype):
            return self._stage_pooled(x)

    def hazards_np_staged(
        self, staged: list[np.ndarray], dtype=None, pads=None, chains: dict | None = None
    ) -> np.ndarray:
        """Decision half of the stacked pass: one fused LSTM + survival-head
        pass over pre-staged pooled sequences — :meth:`stage_pooled`'s
        output, or per-timescale views of the stack
        ``OnlineXatu.feature_windows`` pools straight from sparse rows.
        Each must be ``(batch, ts.span, n_features)`` with one common batch;
        anything else is a ``ValueError`` naming the timescale.

        ``pads``, per timescale, counts each sequence's leading steps that
        are padding (rows with the bytes of its last pad row), or is one
        count for the batch; ``chains`` is the caller's dict of pad chains,
        kept across calls (``nn.fused.lstm_infer_lockstep``).  Neither
        changes the result, which equals :meth:`hazards_np` on each window
        given the same counts, by bytes, on any BLAS kernel.
        """
        with self._no_grad_inference(dtype):
            return self._hazards_staged(staged, pads, chains)

    def _stage_pooled(self, x: np.ndarray) -> list[np.ndarray]:
        from ..nn.autograd import resolve_inference_dtype
        from ..nn.fused import pool_infer

        cfg = self.config
        dtype = resolve_inference_dtype()
        X = np.asarray(x, dtype=np.float64 if dtype is None else dtype)
        if X.ndim != 3:
            raise ValueError(
                f"expected (batch, minutes, features) input, got shape {X.shape}"
            )
        _batch, total_minutes, n_features = X.shape
        self._check_window(total_minutes, n_features)
        return [
            pool_infer(X[:, total_minutes - ts.minutes :, :], ts.window, cfg.pooling)
            for ts in cfg.timescales
        ]

    def _hazards_staged(
        self, staged: list[np.ndarray], pads=None, chains: dict | None = None
    ) -> np.ndarray:
        from ..nn.fused import dense_infer, lstm_infer_lockstep

        cfg = self.config
        if len(staged) != len(cfg.timescales):
            raise ValueError(
                f"expected {len(cfg.timescales)} staged sequences, got {len(staged)}"
            )
        batch = staged[0].shape[0]
        for ts, pooled in zip(cfg.timescales, staged):
            # A longer sequence would be scored at the wrong steps (the
            # index below counts from the front), a shorter one overruns it.
            if pooled.shape != (batch, ts.span, cfg.n_features):
                raise ValueError(
                    f"staged sequence for timescale {ts.name!r} has shape "
                    f"{pooled.shape}, expected {(batch, ts.span, cfg.n_features)}"
                )
        # Index selection matches forward(): positions are computed from the
        # original (unpooled) window length, which staging preserves.
        total_minutes = cfg.lookback_minutes
        indices = self._scale_indices(total_minutes)
        hiddens = lstm_infer_lockstep(
            staged,
            [(lstm.w_x.data, lstm.w_h.data, lstm.bias.data) for lstm in self.lstms],
            pads,
            chains,
        )
        projections: list[np.ndarray] = []
        for hidden, dense, idx in zip(hiddens, self.scale_dense, indices):
            selected = hidden[:, idx, :]
            projections.append(
                dense_infer(
                    selected, dense.weight.data, dense.bias.data, dense.activation
                )
            )
        combined = np.concatenate(projections, axis=-1)
        hazards = dense_infer(
            combined,
            self.combine.weight.data,
            self.combine.bias.data,
            self.combine.activation,
        )
        return hazards.reshape(batch, cfg.detect_window)
