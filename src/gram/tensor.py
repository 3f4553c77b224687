"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensor() and const() hold float64 arrays.  Operations executed inside a
``with Tape():`` block are recorded; ``tape.backward(loss)`` replays the
records in reverse and accumulates gradients additively on every reachable
tensor.  Outside a tape, the same operations run eagerly without recording
(used for inference).

A tensor that requires a gradient has a *node*: its gradient buffer and
backward closure.  The tape and the closures hold nodes, not tensors, and
a closure keeps only the arrays its gradient formula reads (a product's
operands, a softmax's output, a relu's sign mask).  So the value of a
recorded result that no backward formula reads, the output of an add, a
gather or a relu, say, is freed as soon as the forward code drops the
tensor, and a tape holds little more than the activations the weight
gradients need.

Gradient buffers have owners.  A *leaf* is a node with no backward
closure (parameters and user inputs): its first gradient is copied into a
private buffer and later ones are added into it in place, so callers may
scale a leaf's ``.grad`` in place (``optim.clip_global_norm`` does).  An
*intermediate* (a recorded result) borrows the first array it receives;
later contributions add out of place, so no intermediate gradient is
zero-filled or written into, and ``Tape.backward`` drops it as soon as its
closure has run.  The invariant that makes borrowing safe: a backward
closure never writes into the array it was given, and it computes nothing
for an operand that does not require a gradient.

Three fused primitives run the forward path's hottest op chains in one
output buffer: ``linear`` (matmul, add, relu), ``edge_hidden`` (the graph
convolution's two row gathers, add, add and relu) and
``attention_weights`` (scores, both distance-bias gathers, scale, additive
mask and softmax).  Each performs the chain's numpy operations in the
chain's order, in place where the chain made a new array, so its output
and every operand's gradient are bit for bit those of the chain; its
backward closure adds to its operands in the order the chain's closures
did.  They keep their operands' dtype (float32 operands give a float32
output): the output buffer is the first operation's result, and the later
steps write into it.
"""
from __future__ import annotations

import math
import weakref

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


MASK_NEG = -1.0e9  # additive stand-in for -inf in masked softmax


_ACTIVE: list = []


class _Node:
    """The gradient side of a tensor: its buffer, its backward closure
    (None for a leaf), its shape and, once recorded, its tape."""
    __slots__ = ("grad", "bw", "shape", "tape")

    def __init__(self, shape, bw=None, tape=None):
        self.grad = None
        self.bw = bw
        self.shape = shape
        self.tape = tape


class Tensor:
    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = _Node(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        if self.node is not None:
            self.node.grad = value
        elif value is not None:
            raise ValueError("tensor does not require a gradient")

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data) -> Tensor:
    """A primitive's output: data is the float64 array (or numpy scalar) it
    computed, so the conversion in Tensor() is skipped for arrays."""
    t = Tensor.__new__(Tensor)
    t.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    t.node = None
    return t


def const(x) -> Tensor:
    return Tensor(x)


class Tape:
    """Ordered record of operations for one forward/backward pass."""

    def __init__(self):
        self._entries: list[_Node] = []

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor):
        """Populate d(loss)/d(x) on every leaf reachable from loss.

        Leaf gradients add onto whatever is already stored, so repeated
        backward calls accumulate (cleared by the optimizer step).  Each
        recorded result's gradient is dropped once its closure has run.
        """
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        node = loss.node
        if node is None or node.tape is None or node.tape() is not self:
            raise ValueError("loss was not produced on this tape")
        node.grad = (np.zeros(()) if node.grad is None else node.grad) + 1.0
        for n in reversed(self._entries):
            if n.grad is not None:
                n.bw(n.grad)
                n.grad = None


def tape_active() -> bool:
    """Whether a tape is recording: a result computed elsewhere (another
    process, say) would be missing from it."""
    return bool(_ACTIVE)


def _accum(n: _Node, g: np.ndarray):
    """Add g to a node's gradient under the ownership rules of the module
    docstring: a leaf copies its first gradient and adds in place, an
    intermediate borrows its first and adds out of place.  Callers skip
    operands that need no gradient."""
    if n.bw is None:
        if n.grad is None:
            n.grad = np.array(g)
        else:
            n.grad += g
    elif n.grad is None:
        n.grad = g
    else:
        n.grad = n.grad + g


def _record(out: Tensor, parents, bw):
    """Give out a node on the active tape when an operand requires a
    gradient.  bw(g) adds g's share to each operand's node."""
    if _ACTIVE and any(p.node is not None for p in parents):
        tape = _ACTIVE[-1]
        # a weak reference: tape -> entries -> tape would be a cycle that keeps
        # a finished tape's arrays alive until the cyclic collector runs
        out.node = _Node(out.data.shape, bw, weakref.ref(tape))
        tape._entries.append(out.node)
    return out


def _recording(parents) -> bool:
    """Whether _record would give the output of these operands a node: a
    primitive keeps what only its backward reads (a relu's sign mask, say)
    only then."""
    return bool(_ACTIVE) and any(p.node is not None for p in parents)


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
# primitives: each backward closure holds its operands' nodes and only the
# arrays its formula reads
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.  Leading (batch) axes broadcast
    as in np.matmul, so a (n, d) input times head-batched (H, d, k) weights gives
    (H, n, k); each gradient is summed back to its operand's shape."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul shapes {a.data.shape} x {b.data.shape}") from exc
    an, bn = a.node, b.node
    ad = a.data if bn is not None else None  # b's gradient reads a, and a's reads b
    bd = b.data if an is not None else None

    def bw(g):
        if an is not None:
            _accum(an, _unbroadcast(g @ np.swapaxes(bd, -1, -2), an.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bn.shape))

    return _record(_result(data), (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b, and then relu when asked: the chain
    relu(add(matmul(x, w), b)) in one output buffer.  The product
    broadcasts as matmul does; b (a bias row, or any array that broadcasts
    to the product's shape without enlarging it, another product say)
    is added in place."""
    if x.data.ndim < 2 or w.data.ndim < 2 or x.data.shape[-1] != w.data.shape[-2]:
        raise ShapeError(f"linear shapes {x.data.shape} x {w.data.shape}")
    try:
        y = x.data @ w.data
        y += b.data
    except ValueError as exc:
        raise ShapeError(f"linear shapes {x.data.shape} x {w.data.shape} + "
                         f"{b.data.shape}") from exc
    xn, wn, bn = x.node, w.node, b.node
    pos = y > 0.0 if relu and _recording((x, w, b)) else None
    if relu:
        np.maximum(y, 0.0, out=y)
    xd = x.data if wn is not None else None  # w's gradient reads x, and x's reads w
    wd = w.data if xn is not None else None

    def bw(g):
        if pos is not None:
            g = g * pos
        if bn is not None:
            _accum(bn, _unbroadcast(g, bn.shape))
        if xn is not None:
            _accum(xn, _unbroadcast(g @ np.swapaxes(wd, -1, -2), xn.shape))
        if wn is not None:
            _accum(wn, _unbroadcast(np.swapaxes(xd, -1, -2) @ g, wn.shape))

    return _record(_result(y), (x, w, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes {a.data.shape} + {b.data.shape}") from exc
    an, bn = a.node, b.node

    def bw(g):
        if an is not None:
            _accum(an, _unbroadcast(g, an.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(g, bn.shape))

    return _record(_result(data), (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes {a.data.shape} * {b.data.shape}") from exc
    an, bn = a.node, b.node
    ad = a.data if bn is not None else None
    bd = b.data if an is not None else None

    def bw(g):
        if an is not None:
            _accum(an, _unbroadcast(g * bd, an.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(g * ad, bn.shape))

    return _record(_result(data), (a, b), bw)


def concat(parts, axis=-1) -> Tensor:
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes {[p.data.shape for p in parts]}") from exc
    nodes = [p.node for p in parts]
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bw(g):
        for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
            if n is not None:
                _accum(n, piece)

    return _record(_result(data), tuple(parts), bw)


def slice_along(a: Tensor, axis: int, lo: int, hi: int) -> Tensor:
    """Entries lo:hi of one axis (a basic slice, so the output is a view)."""
    extent = a.data.shape[axis]
    if not 0 <= lo < hi <= extent:
        raise ShapeError(f"slice {lo}:{hi} of an axis of extent {extent}")
    key = [slice(None)] * a.data.ndim
    key[axis] = slice(lo, hi)
    key = tuple(key)
    an = a.node

    def bw(g):
        if an.bw is None:  # a leaf owns its buffer: add into the slice
            if an.grad is None:
                an.grad = np.zeros(an.shape)
            an.grad[key] += g
        else:
            full = np.zeros(an.shape)
            full[key] = g
            _accum(an, full)

    return _record(_result(a.data[key]), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    an = a.node

    def bw(g):
        _accum(an, g.reshape(an.shape))

    return _record(_result(a.data.reshape(shape)), (a,), bw)


def transpose(a: Tensor, i: int = -2, j: int = -1) -> Tensor:
    """Swap axes i and j, by default the last two: the matrix transpose of
    every batch item."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects rank >= 2, got {a.data.shape}")
    an = a.node

    def bw(g):
        _accum(an, np.swapaxes(g, i, j))

    return _record(_result(np.swapaxes(a.data, i, j)), (a,), bw)


def relu(a: Tensor) -> Tensor:
    pos = a.data > 0.0
    an = a.node

    def bw(g):
        _accum(an, g * pos)

    return _record(_result(np.maximum(a.data, 0.0)), (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # saturated tail overflows to inf -> 0
        y = 1.0 / (1.0 + np.exp(-a.data))
    an = a.node

    def bw(g):
        _accum(an, g * y * (1.0 - y))

    return _record(_result(y), (a,), bw)


def sum_along(a: Tensor, axis: int) -> Tensor:
    an = a.node

    def bw(g):
        _accum(an, np.broadcast_to(np.expand_dims(g, axis), an.shape).copy())

    return _record(_result(a.data.sum(axis=axis)), (a,), bw)


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis.  The shift by the row maximum,
    the exponentials and the division run in place in one new array; a
    masked score (one with MASK_NEG added) comes out exactly 0 in float64.
    """
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    an = a.node

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(an, (g - dot) * y)

    return _record(_result(y), (a,), bw)


def _row_index(idx, n: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"row index must be 1-D, got shape {idx.shape}")
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"row index out of range for {n} rows")
    return idx


def _scatter_rows(x: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """out[i] = 0 + the sum of the x[k] with idx[k] == i, added in ascending
    k as np.bincount adds them, for n output rows, in x's dtype.  The output
    rows are put in order of their number of terms, most first, and row r of
    the index table holds each row's r-th term: the rows that have one are
    then the first widths[r], summed with one gather and one add.  Indices
    that never repeat need no table: one row assignment."""
    counts = np.bincount(idx, minlength=n)
    out = np.zeros((n,) + x.shape[1:], x.dtype)
    if counts.max() == 1:  # distinct, as in Segments.pad
        out[idx] = x + 0.0  # 0 + x, so that a -0.0 term gives +0.0
        return out
    slot = np.empty(n, np.int64)  # each output row's place, most terms first
    slot[np.argsort(-counts, kind="stable")] = np.arange(n)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    rank = np.arange(len(idx)) - (np.cumsum(counts) - counts)[sorted_idx]
    widths = np.bincount(rank)
    table = np.empty((len(widths), n), np.int64)
    table[rank, slot[sorted_idx]] = order
    for terms, width in zip(table, widths.tolist()):
        out[:width] += x.take(terms[:width], axis=0)
    return out.take(slot, axis=0)


def rows(table: Tensor, idx) -> Tensor:
    """Row lookup (embedding gather): out[k] = table[idx[k]].  Indices may
    repeat; the backward pass is scatter_rows."""
    n = table.data.shape[0]
    idx = _row_index(idx, n)
    tn = table.node

    def bw(g):
        _accum(tn, _scatter_rows(g, idx, n))

    return _record(_result(table.data[idx]), (table,), bw)


def scatter_rows(x: Tensor, idx, n: int) -> Tensor:
    """The adjoint of rows: n rows, row i the sum of the rows x[k] with
    idx[k] == i (zero when there is none)."""
    if x.data.ndim < 1 or np.shape(idx) != x.data.shape[:1]:
        raise ShapeError(f"scatter of rows {x.data.shape} by index {np.shape(idx)}")
    idx = _row_index(idx, n)
    xn = x.node

    def bw(g):
        _accum(xn, g[idx])

    return _record(_result(_scatter_rows(x.data, idx, n)), (x,), bw)


def edge_hidden(first: Tensor, last: Tensor, mid: Tensor, first_end, last_end) -> Tensor:
    """relu(first[first_end] + last[last_end] + mid), (2, t, w): the chain
    relu(add(reshape(add(rows(first, first_end), rows(last, last_end)),
    (2, t, w)), mid)) in one output buffer.  first and last are node rows
    (n, w) and mid is t edge rows (t, w); first_end and last_end hold 2t
    node rows, the ends of t edges read in two directions, and direction r
    of edge e adds mid[e].  The backward pass scatters with scatter_rows."""
    t, width = mid.data.shape
    n_first, n_last = first.data.shape[0], last.data.shape[0]
    fe, le = _row_index(first_end, n_first), _row_index(last_end, n_last)
    if fe.shape != (2 * t,) or le.shape != (2 * t,) \
            or first.data.shape[1:] != (width,) or last.data.shape[1:] != (width,):
        raise ShapeError(f"edge_hidden rows {first.data.shape}, {last.data.shape} by "
                         f"{fe.shape}, {le.shape} ends, edge rows {mid.data.shape}")
    y = first.data[fe]
    y += last.data[le]
    y = y.reshape(2, t, width)
    y += mid.data
    pos = y > 0.0 if _recording((first, last, mid)) else None
    np.maximum(y, 0.0, out=y)
    fn, ln, mn = first.node, last.node, mid.node

    def bw(g):
        g = g * pos
        if mn is not None:
            _accum(mn, _unbroadcast(g, mn.shape))
        g = g.reshape(2 * t, width)
        if ln is not None:
            _accum(ln, _scatter_rows(g, le, n_last))
        if fn is not None:
            _accum(fn, _scatter_rows(g, fe, n_first))

    return _record(_result(y), (first, last, mid), bw)


def _bucket_index(idx, shape) -> np.ndarray:
    """idx as the index of _gather_last / bucket_sums over a (..., n, C)
    table or (..., n, m) values of the given shape (its last axis skipped):
    shape (..., n, m), the axes before n matching the trailing axes of
    shape before its last one."""
    idx = np.asarray(idx, dtype=np.int64)
    lead = shape[:-1]
    if idx.ndim < 2 or idx.ndim > len(shape) or idx.shape[:-1] != lead[len(lead) - idx.ndim + 1:]:
        raise ShapeError(f"bucket index of shape {idx.shape} for an array of shape {shape}")
    return idx


def _check_buckets(idx: np.ndarray, buckets: int):
    if idx.size and (idx.min() < 0 or idx.max() >= buckets):
        raise ShapeError(f"index out of range [0, {buckets})")


def _gather_last(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[..., i, idx[..., i, j]] as one flat take: idx (..., n, m) covers
    the trailing axes of table before its last, and the axes in front of
    those share it."""
    buckets = table.shape[-1]
    shared = table.shape[:table.ndim - idx.ndim]
    rows = math.prod(idx.shape[:-1])
    cells = np.arange(rows).reshape(idx.shape[:-1] + (1,)) * buckets + idx
    return np.take(table.reshape(shared + (-1,)), cells, axis=-1)


def _bucket_sums(w: np.ndarray, idx: np.ndarray, buckets: int) -> np.ndarray:
    lead = w.shape[:-1]
    rows = math.prod(lead)
    cells = np.arange(rows).reshape(lead + (1,)) * buckets + idx
    return np.bincount(cells.reshape(-1), weights=w.reshape(-1),
                       minlength=rows * buckets).reshape(lead + (buckets,))


def bucket_sums(w: Tensor, idx, buckets: int) -> Tensor:
    """Per-row sums of w by bucket: out[..., i, c] = sum of w[..., i, j] over
    the j with idx[..., i, j] == c.  w is (..., n, m) and idx's shape is a
    trailing part of w's, shared by the axes in front of it.  The adjoint
    of the per-row gather _gather_last."""
    if w.data.ndim < 2 or np.shape(idx) != w.data.shape[w.data.ndim - np.ndim(idx):]:
        raise ShapeError(f"bucket_sums values {w.data.shape} vs index {np.shape(idx)}")
    idx = _bucket_index(idx, w.data.shape)
    _check_buckets(idx, buckets)
    wn = w.node

    def bw(g):
        _accum(wn, _gather_last(g, idx))

    return _record(_result(_bucket_sums(w.data, idx, buckets)), (w,), bw)


def attention_weights(qh: Tensor, kh: Tensor, q_table, k_table, dist, scale: float,
                      mask) -> Tensor:
    """Attention weights of queries qh (..., nq, d) over keys kh (..., nk, d):
    softmax(scale * (qh kh^T + G(q_table, dist) + G(k_table, dist^T)^T)
    + mask) over the last axis, where G(table, idx)[..., i, j] =
    table[..., i, idx[..., i, j]] is the per-row gather of _gather_last: the
    chain of matmul, transpose, that gather, add, mul, add and softmax in
    one output buffer.  q_table (..., nq, C) and k_table (..., nk, C) are
    the bias tables indexed by the distance buckets dist (..., nq, nk),
    whose leading axes are shared as _gather_last shares them; both are
    None for attention without distance bias (dist is then not read).
    mask is an additive mask (0 for allowed pairs, MASK_NEG for the others),
    or None."""
    if qh.data.ndim < 2 or qh.data.shape[-1] != kh.data.shape[-1]:
        raise ShapeError(f"attention_weights queries {qh.data.shape}, keys {kh.data.shape}")
    try:
        y = qh.data @ np.swapaxes(kh.data, -1, -2)
    except ValueError as exc:
        raise ShapeError(f"attention_weights queries {qh.data.shape}, "
                         f"keys {kh.data.shape}") from exc
    biased = q_table is not None
    if biased:
        q_buckets, k_buckets = q_table.data.shape[-1], k_table.data.shape[-1]
        dist = _bucket_index(dist, q_table.data.shape)
        dist_t = _bucket_index(np.swapaxes(dist, -1, -2), k_table.data.shape)
        _check_buckets(dist, min(q_buckets, k_buckets))
    try:
        if biased:
            y += _gather_last(q_table.data, dist)
            y += np.swapaxes(_gather_last(k_table.data, dist_t), -1, -2)
        y *= scale
        if mask is not None:
            y += mask
    except ValueError as exc:
        raise ShapeError(f"attention_weights scores {y.shape} vs bias or mask") from exc
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    qn, kn = qh.node, kh.node
    qtn, ktn = (q_table.node, k_table.node) if biased else (None, None)
    qd = qh.data if kn is not None else None  # kh's gradient reads qh, and qh's reads kh
    kd = kh.data if qn is not None else None
    parents = (qh, kh, q_table, k_table) if biased else (qh, kh)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        g = (g - dot) * y * scale  # d(loss)/d(scores)
        if ktn is not None:
            _accum(ktn, _bucket_sums(np.swapaxes(g, -1, -2), dist_t, k_buckets))
        if qtn is not None:
            _accum(qtn, _bucket_sums(g, dist, q_buckets))
        if qn is not None:
            _accum(qn, _unbroadcast(g @ kd, qn.shape))
        if kn is not None:
            kt_shape = kn.shape[:-2] + (kn.shape[-1], kn.shape[-2])  # kh^T's
            _accum(kn, np.swapaxes(_unbroadcast(np.swapaxes(qd, -1, -2) @ g, kt_shape), -2, -1))

    return _record(_result(y), parents, bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, LAYER_NORM_EPS
    added to the variance, then scale by gain and shift by bias."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm params {gain.data.shape}/{bias.data.shape} "
                         f"do not match feature width {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    xn, gn, bn, gain_data = x.node, gain.node, bias.node, gain.data

    def bw(g):
        if gn is not None:
            _accum(gn, (g * xhat).reshape(-1, d).sum(axis=0))
        if bn is not None:
            _accum(bn, g.reshape(-1, d).sum(axis=0))
        if xn is not None:
            dxhat = g * gain_data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(xn, inv * (dxhat - m1 - xhat * m2))

    return _record(_result(xhat * gain.data + bias.data), (x, gain, bias), bw)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of the target classes: logits
    (K, C) and integer class indices targets (K,) in [0, C)."""
    x = logits.data
    targets = np.asarray(targets, dtype=np.int64)
    if x.ndim != 2 or targets.shape != x.shape[:1]:
        raise ShapeError(f"targets {targets.shape} vs logits {x.shape}")
    _check_buckets(targets, x.shape[1])
    rows = np.arange(len(targets))
    top = x.max(axis=-1, keepdims=True)
    e = np.exp(x - top)
    total = e.sum(axis=-1, keepdims=True)
    nll = (np.log(total) + top)[:, 0] - x[rows, targets]
    ln = logits.node

    def bw(g):
        d = e / total  # the softmax, less 1 at the targets
        d[rows, targets] -= 1.0
        _accum(ln, d * g[:, None])

    return _record(_result(nll), (logits,), bw)
