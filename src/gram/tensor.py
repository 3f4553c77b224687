"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is float64.  Operations executed inside a ``with Tape():`` block
are recorded; ``tape.backward(loss)`` replays the records in reverse and
accumulates gradients additively on every reachable tensor.  Outside a tape,
the same operations run eagerly without recording (used for inference).
"""
from __future__ import annotations

import weakref

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


MASK_NEG = -1.0e9  # additive stand-in for -inf in masked softmax


_ACTIVE: list = []


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_bw", "_parents", "_tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._bw = None
        self._parents = ()
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are wrapped automatically
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        other = _wrap(other)
        return add(self, mul(other, Tensor(-1.0)))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def const(x) -> Tensor:
    return Tensor(x)


class Tape:
    """Ordered record of operations for one forward/backward pass."""

    def __init__(self):
        self._entries: list[Tensor] = []

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor):
        """Populate d(loss)/d(x) on every tensor reachable from loss.

        Gradients add onto whatever is already stored, so repeated backward
        calls accumulate (cleared by the optimizer step).
        """
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if loss._tape is None or loss._tape() is not self:
            raise ValueError("loss was not produced on this tape")
        if loss.grad is None:
            loss.grad = np.zeros(())
        loss.grad = loss.grad + 1.0
        for t in reversed(self._entries):
            if t.grad is not None and t._bw is not None:
                t._bw(t.grad)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _record(out: Tensor, parents, bw):
    if _ACTIVE and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bw = bw
        tape = _ACTIVE[-1]
        # a weak reference: tape -> entries -> tape would be a cycle that keeps
        # a finished tape's arrays alive until the cyclic collector runs
        out._tape = weakref.ref(tape)
        tape._entries.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to the given operand shape (inverse of numpy broadcast)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.  Leading (batch) axes broadcast
    as in np.matmul, so a (n, d) input times stacked (H, d, k) weights gives
    (H, n, k); each gradient is summed back to its operand's shape."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape}") from exc
    out = Tensor(data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _record(out, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes {a.data.shape} + {b.data.shape}") from exc
    out = Tensor(data)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes {a.data.shape} * {b.data.shape}") from exc
    out = Tensor(data)

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bw)


def concat(parts, axis=-1) -> Tensor:
    parts = [_wrap(p) for p in parts]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes {[p.data.shape for p in parts]}") from exc
    out = Tensor(data)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, piece)

    return _record(out, tuple(parts), bw)


def stack(parts) -> Tensor:
    """Equal-shape tensors stacked on a new leading axis (per-head weights
    into one (H, ...) tensor, say)."""
    parts = [_wrap(p) for p in parts]
    try:
        data = np.stack([p.data for p in parts])
    except ValueError as exc:
        raise ShapeError(f"stack shapes {[p.data.shape for p in parts]}") from exc
    out = Tensor(data)

    def bw(g):
        for p, piece in zip(parts, g):
            _accum(p, piece)

    return _record(out, tuple(parts), bw)


def slice_along(a: Tensor, axis: int, lo: int, hi: int) -> Tensor:
    """Entries lo:hi of one axis (a basic slice, so the output is a view)."""
    extent = a.data.shape[axis]
    if not 0 <= lo < hi <= extent:
        raise ShapeError(f"slice {lo}:{hi} of an axis of extent {extent}")
    key = [slice(None)] * a.data.ndim
    key[axis] = slice(lo, hi)
    key = tuple(key)
    out = Tensor(a.data[key])

    def bw(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: the matrix transpose of every batch item."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects rank >= 2, got {a.data.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def bw(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _record(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0.0

    def bw(g):
        _accum(a, g * pos)

    return _record(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # saturated tail overflows to inf -> 0
        y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)

    def bw(g):
        _accum(a, g * y * (1.0 - y))

    return _record(out, (a,), bw)


def sum_along(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(out, (a,), bw)


def softmax(a: Tensor, additive_mask=None) -> Tensor:
    """Row-wise softmax over the last axis.

    additive_mask, if given, is a constant array added to the scores first
    (0 for allowed entries, MASK_NEG for disallowed ones); fully suppressed
    entries come out exactly 0 in float64.
    """
    z = a.data if additive_mask is None else a.data + additive_mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, (g - dot) * y)

    return _record(out, (a,), bw)


def rows(table: Tensor, idx) -> Tensor:
    """Row lookup (embedding gather): out[k] = table[idx[k]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"row index must be 1-D, got shape {idx.shape}")
    if len(idx) and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"row index out of range for table {table.data.shape}")
    out = Tensor(table.data[idx])

    def bw(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _record(out, (table,), bw)


def _bucket_index(idx, rows: int, buckets: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != rows:
        raise ShapeError(f"bucket index of shape {idx.shape} for {rows} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= buckets):
        raise ShapeError(f"bucket index out of range for {buckets} buckets")
    return idx


def _gather_last(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(table, idx.reshape((1,) * (table.ndim - 2) + idx.shape), axis=-1)


def _bucket_sums(w: np.ndarray, idx: np.ndarray, buckets: int) -> np.ndarray:
    lead, n = w.shape[:-2], idx.shape[0]
    rows = np.arange(int(np.prod(lead, dtype=np.int64)) * n).reshape(lead + (n, 1))
    flat = (rows * buckets + idx).reshape(-1)
    return np.bincount(flat, weights=w.reshape(-1),
                       minlength=rows.size * buckets).reshape(lead + (n, buckets))


def gather_last(table: Tensor, idx) -> Tensor:
    """Per-row gather along the last axis: out[..., i, j] = table[..., i, idx[i, j]].

    table is (..., n, C) and idx an (n, m) integer array in [0, C); leading
    axes of table (heads, say) share the index.  The backward pass scatters
    with bucket_sums.
    """
    if table.data.ndim < 2:
        raise ShapeError(f"gather_last table of rank {table.data.ndim}")
    n, buckets = table.data.shape[-2:]
    idx = _bucket_index(idx, n, buckets)
    out = Tensor(_gather_last(table.data, idx))

    def bw(g):
        _accum(table, _bucket_sums(g, idx, buckets))

    return _record(out, (table,), bw)


def bucket_sums(w: Tensor, idx, buckets: int) -> Tensor:
    """Per-row sums of w by bucket: out[..., i, c] = sum of w[..., i, j] over
    the j with idx[i, j] == c.  w is (..., n, m) and idx (n, m), shared by
    the leading axes.  The adjoint of gather_last."""
    if w.data.ndim < 2 or w.data.shape[-2:] != np.shape(idx):
        raise ShapeError(f"bucket_sums values {w.data.shape} vs index {np.shape(idx)}")
    idx = _bucket_index(idx, w.data.shape[-2], buckets)
    out = Tensor(_bucket_sums(w.data, idx, buckets))

    def bw(g):
        _accum(w, _gather_last(g, idx))

    return _record(out, (w,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm params {gain.data.shape}/{bias.data.shape} "
                         f"do not match feature width {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def bw(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    return _record(out, (x, gain, bias), bw)


def cross_entropy_logits(logits: Tensor, onehot) -> Tensor:
    """Per-row negative log-likelihood of the one-hot target given logits."""
    target = onehot.data if isinstance(onehot, Tensor) else np.asarray(onehot, dtype=np.float64)
    if target.shape != logits.data.shape:
        raise ShapeError(f"targets {target.shape} vs logits {logits.data.shape}")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1)) + logits.data.max(axis=-1)
    nll = lse - (logits.data * target).sum(axis=-1)
    out = Tensor(nll)
    e = np.exp(z)
    sm = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        _accum(logits, (sm - target) * g[..., None])

    return _record(out, (logits,), bw)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

class FiniteDifferenceReport:
    def __init__(self):
        self.max_rel_error = 0.0
        self.worst = None
        self.per_param = {}

    def __repr__(self):
        return f"FiniteDifferenceReport(max_rel_error={self.max_rel_error:.3e}, worst={self.worst})"


def finite_difference_check(f, params, eps=1e-6, floor=1e-3, samples_per_param=None,
                            rng=None) -> FiniteDifferenceReport:
    """Compare analytic gradients of the scalar f() against central
    differences over the given parameters.

    Relative error uses max(|analytic|, |numeric|, floor) as denominator so
    that coordinates whose true gradient is below the finite-difference noise
    floor do not report spurious mismatches.  samples_per_param limits the
    checked coordinates per tensor (all when None).
    """
    for p in params:
        p.tensor.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    report = FiniteDifferenceReport()
    rng = rng or np.random.default_rng(0)
    for p in params:
        analytic = np.zeros_like(p.tensor.data) if p.tensor.grad is None else p.tensor.grad
        flat = p.tensor.data.reshape(-1)
        size = flat.shape[0]
        if samples_per_param is None or samples_per_param >= size:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=samples_per_param, replace=False)
        worst_here = 0.0
        aflat = analytic.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = float(f().data)
            flat[c] = orig - eps
            lo = float(f().data)
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(aflat[c]), abs(numeric), floor)
            rel = abs(aflat[c] - numeric) / denom
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst = (p.name, int(c))
        report.per_param[p.name] = worst_here
        p.tensor.grad = None
    return report
