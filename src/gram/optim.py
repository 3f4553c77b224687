"""Trainable parameters and the adaptive-moment optimizer."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Parameter:
    """A named weight tensor with a gradient accumulator and optimizer
    moments.  The wrapped Tensor is persistent: forward passes reference it
    directly and gradients accumulate on it until the optimizer step.

    The moments m and v are read-only attributes that adam_step updates in
    place.  A parameter made with moments=False holds no moment arrays
    until m or v is first read, which allocates both, zero-filled, and,
    when defer_moments gave a source (as training.load_checkpoint does),
    fills them from it.  So a loaded model that only runs holds its weights
    alone."""

    __slots__ = ("name", "tensor", "step", "_m", "_v", "_fetch")

    def __init__(self, name: str, value: np.ndarray, moments: bool = True):
        self.name = name
        self.tensor = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._m = self._v = self._fetch = None
        if moments:
            # made now, before any tape has run, np.zeros gets large arrays
            # pages of their own that stay unwritten until the first step;
            # made at that step, they would land among the freed tape
            # arrays and raise peak memory
            self._moments()
        self.step = 0

    def defer_moments(self, fetch):
        """Drop the moments; their first read calls fetch(m, v) to fill
        the new arrays.  If fetch raises, the moments stay deferred."""
        self._m = self._v = None
        self._fetch = fetch

    def _moments(self):
        if self._m is None:
            shape = self.tensor.data.shape
            m, v = np.zeros(shape), np.zeros(shape)
            if self._fetch is not None:
                self._fetch(m, v)
            self._m, self._v, self._fetch = m, v, None
        return self._m, self._v

    @property
    def m(self) -> np.ndarray:
        return self._moments()[0]

    @property
    def v(self) -> np.ndarray:
        return self._moments()[1]

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.data.shape})"


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform Glorot init; fan counts from the last two extents, so a
    leading (head) axis draws its matrices one after another."""
    fan_in, fan_out = shape[-2:] if len(shape) > 1 else (shape[0], shape[0])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm, and
    return that norm before clipping."""
    total = 0.0
    for p in params:
        g = p.tensor.grad
        if g is not None:
            total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad *= scale
    return norm


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adam_step(params, lr: float):
    """Bias-corrected adaptive-moment update of the moments and weights, in
    place; consumes the gradients (each one is overwritten, then cleared).
    A parameter without a gradient keeps its step and moments.  With
    (b1, b2) = ADAM_BETAS and eps = ADAM_EPS, each element goes through the
    same operations, in the same order, as

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        w -= lr * (m / (1 - b1 ** step)) / (sqrt(v / (1 - b2 ** step)) + eps)

    so the results are bit-identical to it."""
    b1, b2 = ADAM_BETAS
    for p in params:
        g = p.tensor.grad
        if g is None:
            continue
        m, v = p._moments()
        p.step += 1
        t = np.multiply(g, 1.0 - b1)
        m *= b1
        m += t
        np.multiply(g, g, out=t)
        t *= 1.0 - b2
        v *= b2
        v += t
        np.divide(v, 1.0 - b2 ** p.step, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        np.divide(m, 1.0 - b1 ** p.step, out=g)
        g *= lr
        g /= t
        p.tensor.data -= g
        p.tensor.grad = None
