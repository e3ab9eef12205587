"""Reverse-mode automatic differentiation over numpy arrays.

This is the substrate that replaces PyTorch for the Xatu reproduction: a
small, dependency-free tape-based autograd engine.  A :class:`Tensor` wraps a
``numpy.ndarray`` and records the operations that produced it; calling
:meth:`Tensor.backward` walks the tape in reverse topological order and
accumulates gradients.

Only the operations needed by the multi-timescale LSTM, the dense heads, and
the survival/BCE losses are implemented, but each is implemented with full
broadcasting support so the engine is usable as a general library.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..analysis import sanitizer as _sanitizer

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "inference_dtype",
    "resolve_inference_dtype",
]


class _TensorMode(threading.local):
    """Per-thread autograd mode: the grad flag and active inference dtype.

    Thread-local, not a module global: ``no_grad()`` and the inference
    dtype are dynamic scopes of one call stack.  A library user who scores
    in one thread while another trains (the serving shards are processes,
    but nothing stops an embedding application from using threads) must not
    see the scorer's ``no_grad()`` in the trainer, nor, with a shared flag,
    have one thread's exit restore the value another thread saved —
    leaving gradients disabled process-wide.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.inference_dtype: np.dtype | None = None


_MODE = _TensorMode()

class no_grad:
    """Disable graph construction (inference mode).

    Usable three ways, all exception-safe — the previous grad mode is
    restored even when the guarded body raises, and nesting works::

        with no_grad():
            model(x)

        @no_grad          # bare decorator
        def infer(x): ...

        @no_grad()        # called decorator (PyTorch style)
        def infer(x): ...
    """

    def __new__(cls, func: Callable | None = None):
        if func is not None:
            if not callable(func):
                raise TypeError("no_grad takes no arguments; use @no_grad or @no_grad()")

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with cls():
                    return func(*args, **kwargs)

            return wrapper
        return super().__new__(cls)

    def __enter__(self) -> "no_grad":
        self._prev = _MODE.grad_enabled
        _MODE.grad_enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        # Always restore the saved flag — including when the body raised
        # (``exc`` is then the in-flight exception info) and under nesting.
        _MODE.grad_enabled = getattr(self, "_prev", True)
        return False  # never swallow the exception

    def __call__(self, func: Callable) -> Callable:
        """Support ``@no_grad()`` — decorate with a fresh guard per call."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with type(self)():
                return func(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return whether new operations are recorded on the autograd tape."""
    return _MODE.grad_enabled


class inference_dtype:
    """Run no-grad inference in a reduced-precision dtype (e.g. float32).

    While the context is active *and* gradients are disabled, new tensors
    and the fused kernels compute in ``dtype`` instead of float64.  Under
    grad mode the policy is ignored entirely, so training and gradcheck
    always stay float64::

        with no_grad(), inference_dtype(np.float32):
            hazards = model(Tensor(x))
    """

    def __init__(self, dtype) -> None:
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"inference dtype must be a float dtype, got {dtype}")
        self.dtype = dtype

    def __enter__(self) -> "inference_dtype":
        self._prev = _MODE.inference_dtype
        _MODE.inference_dtype = self.dtype
        return self

    def __exit__(self, *exc) -> bool:
        _MODE.inference_dtype = getattr(self, "_prev", None)
        return False


def resolve_inference_dtype() -> np.dtype | None:
    """The active reduced-precision dtype, or None outside no-grad inference."""
    if _MODE.grad_enabled:
        return None
    return _MODE.inference_dtype


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default so that the
        gradient checks in the test suite are numerically tight.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        dtype = resolve_inference_dtype()
        self.data = np.asarray(data, dtype=np.float64 if dtype is None else dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _MODE.grad_enabled
        self._parents = _parents if _MODE.grad_enabled else ()
        self._backward = _backward if _MODE.grad_enabled else None
        # Sanitizer (REPRO_SANITIZE=1): recorded-op outputs are frozen so
        # any in-place write between forward and backward raises at the
        # mutation site.  Leaves stay writable (optimizers, gradcheck).
        if self._parents and _sanitizer.sanitize_enabled():
            _sanitizer.freeze_tape_buffer(self.data)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_any(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a direct reference, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0 and must match this tensor's shape (or be a
        scalar broadcastable to it).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.array(grad, dtype=np.float64)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is not None:
                for parent, pgrad in node._backward(node_grad):
                    pgrad = _unbroadcast(
                        np.asarray(pgrad, dtype=np.float64), parent.data.shape
                    )
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pgrad
                    else:
                        grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def _binary(
        self,
        other,
        forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
        backward: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], tuple],
    ) -> "Tensor":
        other = Tensor.from_any(other)
        out_data = forward(self.data, other.data)
        if not _MODE.grad_enabled or not (self.requires_grad or other.requires_grad or self._parents or other._parents):
            return Tensor(out_data)
        a, b = self, other

        def back(grad: np.ndarray):
            ga, gb = backward(grad, a.data, b.data, out_data)
            return ((a, ga), (b, gb))

        return Tensor(out_data, _parents=(a, b), _backward=back)

    def _unary(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        backward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ) -> "Tensor":
        out_data = forward(self.data)
        if not _MODE.grad_enabled or not (self.requires_grad or self._parents):
            return Tensor(out_data)
        a = self

        def back(grad: np.ndarray):
            return ((a, backward(grad, a.data, out_data)),)

        return Tensor(out_data, _parents=(a,), _backward=back)

    def __add__(self, other) -> "Tensor":
        return self._binary(other, np.add, lambda g, a, b, o: (g, g))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return self._binary(other, np.subtract, lambda g, a, b, o: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.from_any(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return self._binary(other, np.multiply, lambda g, a, b, o: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self._binary(
            other, np.divide, lambda g, a, b, o: (g / b, -g * a / (b * b))
        )

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.from_any(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self._unary(np.negative, lambda g, a, o: -g)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports python scalars")
        return self._unary(
            lambda a: np.power(a, exponent),
            lambda g, a, o: g * exponent * np.power(a, exponent - 1),
        )

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return self._unary(np.exp, lambda g, a, o: g * o)

    def log(self) -> "Tensor":
        return self._unary(np.log, lambda g, a, o: g / a)

    def sigmoid(self) -> "Tensor":
        def fwd(a: np.ndarray) -> np.ndarray:
            out = np.empty_like(a)
            pos = a >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            ea = np.exp(a[~pos])
            out[~pos] = ea / (1.0 + ea)
            return out

        return self._unary(fwd, lambda g, a, o: g * o * (1.0 - o))

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh, lambda g, a, o: g * (1.0 - o * o))

    def relu(self) -> "Tensor":
        return self._unary(lambda a: np.maximum(a, 0.0), lambda g, a, o: g * (a > 0))

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))`` — used for hazard rates."""
        return self._unary(
            lambda a: np.logaddexp(0.0, a),
            lambda g, a, o: g * (1.0 / (1.0 + np.exp(-np.clip(a, -500, 500)))),
        )

    def clip(self, lo: float, hi: float) -> "Tensor":
        return self._unary(
            lambda a: np.clip(a, lo, hi),
            lambda g, a, o: g * ((a >= lo) & (a <= hi)),
        )

    # ------------------------------------------------------------------
    # linear algebra & shaping
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = Tensor.from_any(other)

        def back(g, a, b, o):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if b.ndim == 1:
                # (..., n, k) @ (k,) -> (..., n): the vector's gradient sums
                # the outer products over every leading/batch dimension.
                ga = np.outer(g, b) if a.ndim == 2 else g[..., None] * b
                gb = (
                    a.T @ g
                    if a.ndim == 2
                    else (a * g[..., None]).reshape(-1, a.shape[-1]).sum(axis=0)
                )
                return (ga, gb)
            if a.ndim == 1:
                # (k,) @ (..., k, m) -> (..., m)
                ga = (b * g[..., None, :]).reshape(-1, b.shape[-2], b.shape[-1]).sum(axis=(0, 2)) if b.ndim > 2 else b @ g
                gb = a[:, None] * g[..., None, :]
                return (ga, gb)
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (ga, gb)

        return self._binary(other, np.matmul, back)

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        order = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(order)
        return self._unary(
            lambda a: np.transpose(a, order),
            lambda g, a, o: np.transpose(g, inverse),
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        return self._unary(
            lambda a: a.reshape(shape), lambda g, a, o: g.reshape(original),
        )

    def __getitem__(self, key) -> "Tensor":
        def back(g, a, o):
            full = np.zeros_like(a)
            np.add.at(full, key, g)
            return full

        return self._unary(lambda a: a[key], back)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def back(g, a, o):
            if axis is None:
                return np.broadcast_to(g, a.shape)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g2, a.shape)

        return self._unary(lambda a: a.sum(axis=axis, keepdims=keepdims), back)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        def back(g, a, o):
            if axis is None:
                mask = (a == o).astype(np.float64)
                mask /= mask.sum()
                return g * mask
            o2 = o if keepdims else np.expand_dims(o, axis)
            g2 = g if keepdims else np.expand_dims(g, axis)
            mask = (a == o2).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            return g2 * mask

        return self._unary(lambda a: a.max(axis=axis, keepdims=keepdims), back)

    def cumsum(self, axis: int = -1) -> "Tensor":
        return self._unary(
            lambda a: np.cumsum(a, axis=axis),
            lambda g, a, o: np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis),
        )

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor.from_any(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        needs_grad = _MODE.grad_enabled and any(
            t.requires_grad or t._parents for t in tensors
        )
        if not needs_grad:
            return Tensor(out_data)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def back(grad: np.ndarray):
            pieces = []
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                pieces.append((t, grad[tuple(index)]))
            return tuple(pieces)

        return Tensor(out_data, _parents=tuple(tensors), _backward=back)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.from_any(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)
        needs_grad = _MODE.grad_enabled and any(
            t.requires_grad or t._parents for t in tensors
        )
        if not needs_grad:
            return Tensor(out_data)

        def back(grad: np.ndarray):
            slabs = np.split(grad, len(tensors), axis=axis)
            return tuple(
                (t, np.squeeze(s, axis=axis)) for t, s in zip(tensors, slabs)
            )

        return Tensor(out_data, _parents=tuple(tensors), _backward=back)


def gradcheck(
    func: Callable[..., Tensor],
    inputs: Iterable[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Compare analytic gradients of ``func`` against central differences.

    ``func`` must return a scalar Tensor.  Raises ``AssertionError`` with a
    diagnostic message on mismatch; returns True on success.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    out = func(*inputs)
    out.backward()
    for idx, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = func(*inputs).item()
            flat[i] = orig - eps
            lo = func(*inputs).item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {idx}: max abs error {worst:.3e}"
            )
    return True
