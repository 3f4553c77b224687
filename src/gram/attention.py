"""Multi-head attention over graphs with shortest-path-indexed bias terms.

Scores between query i and key j add learned bias vectors picked by the
(clipped) graph distance of the underlying node pair:

    s_ij = d_K^(-1/2) * (Wq q_i + bq[d_ij])^T (Wk k_j + bk[d_ij])
    o_i  = sum_j softmax(s_i)_j * (Wv v_j + bv[d_ij])

With all bias tables zero this reduces to ordinary multi-head attention.
Works both as self-attention (feature extraction) and source-target
attention (edge estimation); the caller supplies the per-pair distance
indices and the attend mask through an AttentionContext.

The heads run on one leading batch axis.  A layer's parameters are kept per
head (their names and checkpoint layout are per head); `stacked()` stacks
each table once per call into (H, ...) tensors.  Attention is then split in
two halves:

  project  Q, K and V for all heads, one matmul each: (H, n, d_S) arrays,
           plus the bias tables that depend only on Q or only on K;
  attend   scores, bias terms, masked softmax and value bias on (H, nq, nk)
           arrays, then the heads are concatenated and projected by wo.

`g_multi_head` is project-then-attend.  `attend` is the only attention
kernel: the edge estimator (model.EdgeStep) projects once per generation
step and, while sampling, calls `attend` with one query over the keys of
the decisions kept so far.

The bias tables have only C = cap + 2 rows, one per distance bucket, so no
(nq, nk, d_S) array of looked-up bias vectors is ever formed.  With
Q = Wq q, K = Wk k and W = softmax(s) each bias term comes from a small
table and a gather:

    Q_i . bk[d_ij]              = (Q bk^T)[i, d_ij]
    bq[d_ij] . K_j              = (K bq^T)[j, d_ij]
    bq[d_ij] . bk[d_ij]         = c[d_ij],  c = rowwise bq . bk  (a C-vector)
    sum_j W_ij bv[d_ij]         = (R bv)_i, R[i, c] = sum of W_ij over d_ij = c

so every term costs O(nq * nk) time and memory per head (Music
Transformer's relative-attention trick, applied to shortest-path buckets).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class AttentionError(ValueError):
    """Contract violation in an attention call."""


@dataclass
class AttentionContext:
    """Per-(query, key) distance bucket indices and attend mask."""
    dist_idx: np.ndarray   # (nq, nk) int, values in [0, cap + 1]
    allowed: np.ndarray    # (nq, nk) bool

    def additive_mask(self) -> np.ndarray:
        return np.where(self.allowed, 0.0, T.MASK_NEG)


def context_from_distances(dist_idx: np.ndarray, max_attend: int | None = None) -> AttentionContext:
    """Self-attention context: attend where the distance bucket does not
    exceed max_attend (everything when None)."""
    dist_idx = np.asarray(dist_idx, dtype=np.int64)
    if max_attend is None:
        allowed = np.ones(dist_idx.shape, dtype=bool)
    else:
        allowed = dist_idx <= max_attend
    return AttentionContext(dist_idx, allowed)


@dataclass
class GraphAttentionParams:
    """Per-head projections (d_S x d_in), per-head bias tables
    ((cap + 2) x d_S) indexed by distance bucket, and the shared output
    projection (H * d_S x d_O)."""
    wq: list
    wk: list
    wv: list
    bq: list
    bk: list
    bv: list
    wo: Tensor
    use_bias: bool = True

    @property
    def heads(self) -> int:
        return len(self.wq)

    @property
    def cap(self) -> int:
        return self.bq[0].data.shape[0] - 2

    def stacked(self) -> "HeadTables":
        """The per-head tables stacked on a leading head axis (one recorded
        op per table); the bias tables only when the layer uses them."""
        bias = [T.stack(t) if self.use_bias else None for t in (self.bq, self.bk, self.bv)]
        return HeadTables(T.stack(self.wq), T.stack(self.wk), T.stack(self.wv), *bias,
                          self.wo, 1.0 / np.sqrt(self.wk[0].data.shape[1]))


@dataclass
class HeadTables:
    """One attention layer with its heads on a leading axis: projections
    (H, d_S, d_in), bias tables (H, C, d_S) or None without bias, the output
    projection, and the score scale d_K^(-1/2) of the key input width."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    bq: Tensor | None
    bk: Tensor | None
    bv: Tensor | None
    wo: Tensor
    scale: float

    @property
    def use_bias(self) -> bool:
        return self.bq is not None

    def query_table(self, qh: Tensor) -> Tensor | None:
        """(H, nq, C): Q_i . bk[c] + bq[c] . bk[c]."""
        if not self.use_bias:
            return None
        heads, buckets = self.bq.data.shape[:2]
        c = T.reshape(T.sum_along(T.mul(self.bq, self.bk), 2), (heads, 1, buckets))
        return T.add(T.matmul(qh, T.transpose(self.bk)), c)

    def key_table(self, kh: Tensor) -> Tensor | None:
        """(H, nk, C): K_j . bq[c]."""
        return T.matmul(kh, T.transpose(self.bq)) if self.use_bias else None


def project(x: Tensor, w: Tensor) -> Tensor:
    """Rows x (n, d_in) through stacked weights w (H, d_S, d_in): (H, n, d_S)."""
    return T.matmul(x, T.transpose(w))


def attend(qh: Tensor, kh: Tensor, vh: Tensor, q_table, k_table,
           ctx: AttentionContext, ht: HeadTables, on_empty: str = "error") -> Tensor:
    """Attention of projected queries qh (H, nq, d_S) over projected keys kh
    and values vh (H, nk, d_S), with the bias tables of HeadTables.query_table
    and key_table; returns the output rows (nq, d_O).

    Query rows whose mask admits no key raise an AttentionError unless
    on_empty="zero", in which case those output rows are exactly zero.
    """
    has_key = ctx.allowed.any(axis=1)
    zero_rows = None
    if not has_key.all():
        if on_empty != "zero":
            raise AttentionError("query row with no attendable key")
        # give empty rows a placeholder key for a well-defined softmax, then
        # zero their outputs below
        allowed = ctx.allowed.copy()
        allowed[~has_key, 0] = True
        ctx = AttentionContext(ctx.dist_idx, allowed)
        zero_rows = has_key.astype(np.float64)[:, None]
    addmask = None if ctx.allowed.all() else ctx.additive_mask()
    d = ctx.dist_idx
    scores = T.matmul(qh, T.transpose(kh))
    if ht.use_bias:
        scores = T.add(T.add(scores, T.gather_last(q_table, d)),
                       T.transpose(T.gather_last(k_table, d.T)))
    weights = T.softmax(T.mul(scores, T.const(ht.scale)), additive_mask=addmask)
    out = T.matmul(weights, vh)
    if ht.use_bias:
        out = T.add(out, T.matmul(T.bucket_sums(weights, d, ht.bv.data.shape[1]), ht.bv))
    heads, nq, d_s = out.data.shape
    # (H, nq, d_S) -> (nq, H * d_S), head h in columns h * d_S ... (h + 1) * d_S - 1
    merged = T.transpose(T.reshape(T.transpose(out), (heads * d_s, nq)))
    out = T.matmul(merged, ht.wo)
    if zero_rows is not None:
        out = T.mul(out, T.const(zero_rows))
    return out


def g_multi_head(q: Tensor, k: Tensor, v: Tensor, ctx: AttentionContext,
                 p: GraphAttentionParams, on_empty: str = "error") -> Tensor:
    """Multi-head graph attention; heads are concatenated and projected.

    The scale factor is d_K^(-1/2) with d_K the key input width, applied
    exactly once per score.  Query rows whose mask admits no key raise an
    AttentionError unless on_empty="zero", in which case those output rows
    are exactly zero (the edge estimator's empty-history convention).
    Distance indices must lie in [0, cap + 1]; distances beyond the cap are
    clipped to the final bucket by the caller.
    """
    if k.data.shape[0] != v.data.shape[0]:
        raise AttentionError(f"key rows {k.data.shape[0]} != value rows {v.data.shape[0]}")
    nq, nk = q.data.shape[0], k.data.shape[0]
    if ctx.dist_idx.shape != (nq, nk) or ctx.allowed.shape != (nq, nk):
        raise AttentionError(f"context shape {ctx.dist_idx.shape} does not match ({nq}, {nk})")
    buckets = p.cap + 2
    if ctx.dist_idx.size and ctx.dist_idx.max() >= buckets:
        raise AttentionError(f"distance index {int(ctx.dist_idx.max())} "
                             f"exceeds bucket count {buckets}")
    if ctx.dist_idx.size and ctx.dist_idx.min() < 0:
        raise AttentionError("negative distance index")
    ht = p.stacked()
    qh, kh = project(q, ht.wq), project(k, ht.wk)
    return attend(qh, kh, project(v, ht.wv), ht.query_table(qh), ht.key_table(kh),
                  ctx, ht, on_empty)


@dataclass
class SublayerParams:
    """Self-attention sublayer: attention and feedforward, each wrapped in a
    residual connection followed by layer normalization."""
    attn: GraphAttentionParams
    fnn_w1: Tensor
    fnn_b1: Tensor
    fnn_w2: Tensor
    fnn_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def attention_sublayer(h_in: Tensor, ctx: AttentionContext, p: SublayerParams) -> Tensor:
    """LayerNorm(x + SelfAttention(x)) followed by LayerNorm(y + FNN(y))."""
    att = g_multi_head(h_in, h_in, h_in, ctx, p.attn)
    x = T.layer_norm(T.add(h_in, att), p.ln1_gain, p.ln1_bias)
    hidden = T.relu(T.add(T.matmul(x, p.fnn_w1), p.fnn_b1))
    fnn = T.add(T.matmul(hidden, p.fnn_w2), p.fnn_b2)
    return T.layer_norm(T.add(x, fnn), p.ln2_gain, p.ln2_bias)
