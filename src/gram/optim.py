"""Trainable parameters and the adaptive-moment optimizer."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Parameter:
    """A named weight tensor with a gradient accumulator and optimizer
    moments.  The wrapped Tensor is persistent: forward passes reference it
    directly and gradients accumulate on it until the optimizer step."""

    __slots__ = ("name", "tensor", "m", "v", "step")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.tensor = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        # np.zeros, unlike np.zeros_like, leaves the pages unwritten until
        # first use, so a model that is never trained, or whose moments a
        # checkpoint overwrites, does not fill them
        shape = self.tensor.data.shape
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.step = 0

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


def adam_step(params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """Bias-corrected adaptive-moment update; clears gradients afterwards."""
    b1, b2 = betas
    for p in params:
        g = p.tensor.grad
        if g is None:
            continue
        p.step += 1
        p.m = b1 * p.m + (1.0 - b1) * g
        p.v = b2 * p.v + (1.0 - b2) * (g * g)
        mhat = p.m / (1.0 - b1 ** p.step)
        vhat = p.v / (1.0 - b2 ** p.step)
        p.tensor.data -= lr * mhat / (np.sqrt(vhat) + eps)
        p.tensor.grad = None
