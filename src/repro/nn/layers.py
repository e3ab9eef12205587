"""Neural network layers built on the :mod:`repro.nn.autograd` engine.

The layer zoo is exactly what the Xatu model needs (Figure 6 of the paper):

* :class:`Dense` — affine projection with optional activation,
* :class:`LSTM` — a batched single-layer LSTM unrolled over time,
* :class:`AvgPool1D` / :class:`MaxPool1D` — the temporal aggregation
  ("pooling") stages that downsample the 1-minute feature series to the
  medium (10-minute) and long (60-minute) timescales,
* :class:`Sequential` — a simple container.

All layers expose ``parameters()`` returning the trainable tensors, and a
``state_dict()`` / ``load_state_dict()`` pair for persistence.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .autograd import Tensor
from .fused import avg_pool_1d, lstm_sequence, max_pool_1d

__all__ = [
    "Module",
    "Dense",
    "LSTM",
    "AvgPool1D",
    "MaxPool1D",
    "Sequential",
    "Dropout",
    "set_fused",
]


class Module:
    """Base class for layers: parameter registry plus (de)serialization.

    Modules carry a ``training`` flag toggled recursively by
    :meth:`train` / :meth:`eval` (layers like :class:`Dropout` change
    behaviour based on it).
    """

    training: bool = True

    def modules(self) -> Iterable["Module"]:
        """Yield this module and every registered submodule, recursively."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True) -> "Module":
        """Recursively set the ``training`` flag (PyTorch-style)."""
        for module in self.modules():
            module.training = bool(mode)
        return self

    def eval(self) -> "Module":
        """Switch this module tree to inference mode."""
        return self.train(False)

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                state[key] = value.data.copy()
            elif isinstance(value, Module):
                state.update(value.state_dict(prefix=f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        state.update(item.state_dict(prefix=f"{key}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        state[f"{key}.{i}"] = item.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                if key not in state:
                    raise KeyError(f"missing parameter {key!r} in state dict")
                if state[key].shape != value.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"{state[key].shape} vs {value.data.shape}"
                    )
                value.data[...] = state[key]
            elif isinstance(value, Module):
                value.load_state_dict(state, prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item.load_state_dict(state, prefix=f"{key}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        item.data[...] = state[f"{key}.{i}"]

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense(Module):
    """Affine layer ``y = act(x @ W + b)``.

    ``activation`` may be one of ``None``/"linear", "sigmoid", "tanh",
    "relu", or "softplus".
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation or "linear"
        self.weight = Tensor(_glorot(rng, in_features, out_features), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight + self.bias
        if self.activation == "linear":
            return out
        if self.activation == "sigmoid":
            return out.sigmoid()
        if self.activation == "tanh":
            return out.tanh()
        if self.activation == "relu":
            return out.relu()
        if self.activation == "softplus":
            return out.softplus()
        raise ValueError(f"unknown activation {self.activation!r}")


class LSTM(Module):
    """Single-layer batched LSTM.

    Input shape ``(batch, time, features)``; returns the full hidden state
    sequence ``(batch, time, hidden)``.  Gates use the standard fused weight
    layout ``[i, f, g, o]``.  The forget-gate bias is initialised to 1.0,
    the usual trick to help gradient flow over long sequences (the paper's
    LSTM_long spans 240 hourly steps).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
        fused: bool = True,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.fused = fused
        self.w_x = Tensor(
            _glorot(rng, input_size, 4 * hidden_size), requires_grad=True
        )
        self.w_h = Tensor(
            _glorot(rng, hidden_size, 4 * hidden_size), requires_grad=True
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)

    def forward(
        self,
        x: Tensor,
        state: tuple[Tensor, Tensor] | None = None,
        pads: int = 0,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Run the LSTM over a sequence.

        Returns ``(outputs, (h_T, c_T))`` where outputs stacks every hidden
        state along the time axis.  Dispatches to the fused single-node
        kernel (:func:`repro.nn.fused.lstm_sequence`, which alone reads
        ``pads``) unless ``self.fused`` is False, in which case the generic
        per-op tape path is used; both paths are numerically interchangeable
        (see tests/test_fused_kernels).
        """
        if x.shape[-1] != self.input_size:
            raise ValueError(
                f"LSTM expected {self.input_size} input features, got {x.shape[-1]}"
            )
        if self.fused:
            return lstm_sequence(x, self.w_x, self.w_h, self.bias, state, pads)
        return self.forward_unfused(x, state)

    def forward_unfused(
        self,
        x: Tensor,
        state: tuple[Tensor, Tensor] | None = None,
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Reference path: one generic tape op per gate per timestep."""
        batch, steps, features = x.shape
        h_size = self.hidden_size
        if state is None:
            h = Tensor(np.zeros((batch, h_size)))
            c = Tensor(np.zeros((batch, h_size)))
        else:
            h, c = state

        # Precompute all input projections in one batched matmul; the
        # recurrent projection must stay inside the loop.
        x_proj = x.reshape(batch * steps, features) @ self.w_x + self.bias
        x_proj = x_proj.reshape(batch, steps, 4 * h_size)

        outputs: list[Tensor] = []
        for t in range(steps):
            gates = x_proj[:, t, :] + h @ self.w_h
            i = gates[:, 0:h_size].sigmoid()
            f = gates[:, h_size : 2 * h_size].sigmoid()
            g = gates[:, 2 * h_size : 3 * h_size].tanh()
            o = gates[:, 3 * h_size : 4 * h_size].sigmoid()
            c = f * c + i * g
            h = o * c.tanh()
            outputs.append(h)
        return Tensor.stack(outputs, axis=1), (h, c)


def _pool_windows(length: int, window: int) -> int:
    """Number of non-overlapping pooling windows covering ``length`` steps.

    A trailing partial window is kept (pooled over fewer elements), so no
    data at the recent end of the series is dropped.
    """
    return (length + window - 1) // window


class AvgPool1D(Module):
    """Non-overlapping temporal average pooling over axis 1.

    Downsamples ``(batch, time, features)`` to
    ``(batch, ceil(time / window), features)``.  This is the aggregation
    stage of Figure 6 that produces TS_medium and TS_long.
    """

    def __init__(self, window: int, fused: bool = True) -> None:
        if window < 1:
            raise ValueError("pooling window must be >= 1")
        self.window = window
        self.fused = fused

    def forward(self, x: Tensor) -> Tensor:
        if self.window == 1:
            return x
        if self.fused:
            return avg_pool_1d(x, self.window)
        return self.forward_unfused(x)

    def forward_unfused(self, x: Tensor) -> Tensor:
        """Reference path: one slice + mean + stack chain per window."""
        batch, steps, features = x.shape
        nwin = _pool_windows(steps, self.window)
        pieces = []
        for w in range(nwin):
            lo = w * self.window
            hi = min(steps, lo + self.window)
            pieces.append(x[:, lo:hi, :].mean(axis=1))
        return Tensor.stack(pieces, axis=1)


class MaxPool1D(Module):
    """Non-overlapping temporal max pooling over axis 1."""

    def __init__(self, window: int, fused: bool = True) -> None:
        if window < 1:
            raise ValueError("pooling window must be >= 1")
        self.window = window
        self.fused = fused

    def forward(self, x: Tensor) -> Tensor:
        if self.window == 1:
            return x
        if self.fused:
            return max_pool_1d(x, self.window)
        return self.forward_unfused(x)

    def forward_unfused(self, x: Tensor) -> Tensor:
        """Reference path: one slice + max + stack chain per window."""
        batch, steps, features = x.shape
        nwin = _pool_windows(steps, self.window)
        pieces = []
        for w in range(nwin):
            lo = w * self.window
            hi = min(steps, lo + self.window)
            pieces.append(x[:, lo:hi, :].max(axis=1))
        return Tensor.stack(pieces, axis=1)


class Dropout(Module):
    """Inverted dropout; identity when ``training`` is False."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.training = True
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = self._rng.binomial(1, keep, size=x.shape) / keep
        return x * Tensor(mask)


def set_fused(module: Module, enabled: bool) -> Module:
    """Toggle the fused fast path on every kernel-bearing submodule.

    Used by the benchmark harness to time the pre-fusion (generic tape)
    baseline against the fused kernels on the same model instance.
    """
    for sub in module.modules():
        if hasattr(sub, "fused"):
            sub.fused = bool(enabled)
    return module


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        # Named ``layers`` so the inherited ``modules()`` walker stays usable.
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.layers:
            x = module(x)
        return x

    def __iter__(self) -> Iterable[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
