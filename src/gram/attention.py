"""Multi-head attention over graphs with shortest-path-indexed bias terms.

Scores between query i and key j add learned bias vectors picked by the
(clipped) graph distance of the underlying node pair:

    s_ij = d_K^(-1/2) * (Wq q_i + bq[d_ij])^T (Wk k_j + bk[d_ij])
    o_i  = sum_j softmax(s_i)_j * (Wv v_j + bv[d_ij])

With all bias tables zero this reduces to ordinary multi-head attention.
Works both as self-attention (feature extraction) and source-target
attention (edge estimation); the caller supplies the per-pair distance
indices and the attend mask through an AttentionContext.

The heads run on one leading batch axis, and a layer's parameters are
stored that way: GraphAttentionParams holds Wq, Wk and Wv as (H, d_S, d_in)
tensors and the bias tables as (H, C, d_S) tensors, and attention reads them
as they are, with no per-call copy.  A call runs K independent problems at
once (the prefixes of a model.Prefixes batch, built from a graph's labels,
edges and steps: a chunk's steps in training, K = 1 in sampling): their
query and key rows come packed, and a Segments lays each problem's rows out
on a grid padded to the largest problem.  In training a Segments may also
take its rows from fewer input rows (its source): a prefix's queries are
only the rows it must recompute, and a row that several prefixes share is
projected once.  Attention is split in two halves:

  project  Q, K and V for all heads, one 2-D product each, laid out as
           (H, K, n, d_S) grids, plus the bias tables that depend only on Q
           or only on K;
  attend   scores, bias terms, masked softmax and value bias on
           (H, K, nq, nk) arrays, then the heads of the real (unpadded) rows
           are concatenated and projected by wo.

`g_multi_head` is project-then-attend.  `attend` is the only attention
kernel: the edge estimator (model.EdgeStep) projects once per batch of
steps and then calls `attend` with every step's candidates as queries
under a causal mask, in training and in sampling alike.  A query row that
admits no key (a first candidate's empty history) gets a zero output row.

The bias tables have only C rows, one per distance bucket, so no
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

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class AttentionError(ValueError):
    """Contract violation in an attention call."""


class Segments:
    """K runs of packed rows and their places in a padded (K, width) grid.

    Run k is the packed rows offsets[k]:offsets[k + 1], and it fills the
    first sizes[k] places of grid row k; width is the largest size.  The
    row-wise work of a batch of steps runs on the packed rows, and only
    work that pairs rows within a run (attention scores, pooling) runs on
    the grid.

    With a source (total,), packed row r is row source[r] of the input
    rows, which may serve several packed rows or none (a forward pass that
    reuses the rows of earlier prefixes, model.BlockRows); without one the
    input rows are the packed rows."""

    def __init__(self, sizes, source=None):
        self.source = source
        sizes = [int(size) for size in sizes]
        self.count = len(sizes)
        self.width = max(sizes, default=0)
        self.offsets = np.array([0, *itertools.accumulate(sizes)])
        self.total = int(self.offsets[-1])
        self.owner = np.repeat(np.arange(self.count), sizes)       # run of each packed row
        self.real = np.arange(self.width) < np.array(sizes)[:, None]  # (K, width) places in use
        # flat grid place of each packed row; None when every run fills its row
        self.index = None if self.total == self.count * self.width \
            else np.flatnonzero(self.real)

    def take(self, x: Tensor) -> Tensor:
        """Input rows -> the packed rows (N, ...)."""
        return x if self.source is None else T.rows(x, self.source)

    def pad(self, x: Tensor) -> Tensor:
        """Input rows -> the flattened grid (K * width, ...), zero in
        unused places."""
        x = self.take(x)
        if self.index is None:
            return x
        return T.scatter_rows(x, self.index, self.count * self.width)

    def unpad(self, x: Tensor) -> Tensor:
        """The flattened grid (K * width, ...) -> the packed rows (N, ...)."""
        return x if self.index is None else T.rows(x, self.index)


class AttentionContext:
    """Distance bucket indices dist (values in [0, C), C the rows of the
    bias tables) and attend mask allowed of K attention problems side by
    side, (K, nq, nk) arrays: the packed query and key rows are laid out on
    those grids by the Segments queries and keys, each problem padded to nq
    queries and nk keys.

    What attention reads of them besides is derived once, here: addmask,
    the additive softmax mask (None when every pair is allowed), in which a
    query row that admits no key gets a placeholder key (its first) so that
    its softmax is well defined; and empty, None when every real query row
    has a key and otherwise (N_q, 1), 0 on the real query rows without one
    and 1 elsewhere, in packed row order."""

    def __init__(self, dist: np.ndarray, allowed: np.ndarray,
                 queries: Segments, keys: Segments):
        self.dist, self.allowed, self.queries, self.keys = dist, allowed, queries, keys
        if allowed.shape != dist.shape or (queries.count, queries.width, keys.width) != dist.shape:
            raise AttentionError(f"context shape {dist.shape} does not match its mask "
                                 f"{allowed.shape} or its row layouts")
        has_key = allowed.any(axis=-1)
        self.empty = None
        if not has_key.all():
            real_has_key = has_key[queries.real]  # in packed row order
            if not real_has_key.all():
                self.empty = real_has_key.astype(np.float64)[:, None]
            allowed = allowed.copy()
            allowed[~has_key, 0] = True
        self.addmask = None if allowed.all() else np.where(allowed, 0.0, T.MASK_NEG)


@dataclass
class GraphAttentionParams:
    """One attention layer with its heads on a leading axis: projections
    (H, d_S, d_in), bias tables (H, C, d_S) indexed by distance bucket,
    and the shared output projection (H * d_S, d_O).  Without use_bias the
    bias tables, and so the distance buckets, are never read."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    wo: Tensor
    use_bias: bool = True

    @property
    def heads(self) -> int:
        return self.wq.data.shape[0]

    @property
    def scale(self) -> float:
        """The score scale d_K^(-1/2) of the key input width."""
        return 1.0 / np.sqrt(self.wk.data.shape[-1])

    def _per_step(self, table: Tensor) -> Tensor:
        """An (H, C, d_S) table as (H, 1, d_S, C), to multiply (H, K, n, d_S)."""
        heads, buckets, d_s = table.data.shape
        return T.reshape(T.transpose(table), (heads, 1, d_s, buckets))

    def query_table(self, qh: Tensor) -> Tensor | None:
        """(H, K, nq, C): Q_i . bk[c] + bq[c] . bk[c]."""
        if not self.use_bias:
            return None
        heads, buckets = self.bq.data.shape[:2]
        c = T.reshape(T.sum_along(T.mul(self.bq, self.bk), 2), (heads, 1, 1, buckets))
        return T.linear(qh, self._per_step(self.bk), c)

    def key_table(self, kh: Tensor) -> Tensor | None:
        """(H, K, nk, C): K_j . bq[c]."""
        return T.matmul(kh, self._per_step(self.bq)) if self.use_bias else None


def project(x: Tensor, w: Tensor, rows: Segments | None = None) -> Tensor:
    """Rows x (N, d_in) through head-batched weights w (H, d_S, d_in):
    (H, N, d_S), or with rows the (H, K, width, d_S) grid of the runs
    that rows takes from them, zero in unused places.  w is read as one
    (H * d_S, d_in) matrix, so this is one 2-D product, whose columns are
    then split by head."""
    heads, d_s, d_in = w.data.shape
    y = T.matmul(x, T.transpose(T.reshape(w, (heads * d_s, d_in))))
    if rows is not None:
        y = rows.pad(y)
    y = T.transpose(T.reshape(y, (y.data.shape[0], heads, d_s)), 0, 1)
    return y if rows is None else T.reshape(y, (heads, rows.count, rows.width, d_s))


def attend(qh: Tensor, kh: Tensor, vh: Tensor, q_table, k_table,
           ctx: AttentionContext, p: GraphAttentionParams) -> Tensor:
    """Attention of projected queries qh (H, K, nq, d_S) over projected keys
    kh and values vh (H, K, nk, d_S), K problems padded to a common size as
    ctx lays them out, with the bias tables of p.query_table and
    p.key_table; returns the packed output rows (N_q, d_O).

    Query rows whose mask admits no key give output rows that are exactly
    zero.  Padding rows are dropped from the output.  With use_bias, a
    distance bucket outside the bias tables raises tensor.ShapeError.
    """
    weights = T.attention_weights(qh, kh, q_table, k_table, ctx.dist, p.scale, ctx.addmask)
    out = T.matmul(weights, vh)
    if p.use_bias:
        heads, buckets, d_s = p.bv.data.shape
        out = T.add(out, T.matmul(T.bucket_sums(weights, ctx.dist, buckets),
                                  T.reshape(p.bv, (heads, 1, buckets, d_s))))
    # (H, K, nq, d_S) -> (N_q, H * d_S), head h in columns h * d_S ... (h + 1) * d_S - 1
    heads, count, nq, d_s = out.data.shape
    out = T.transpose(T.reshape(out, (heads, count * nq, d_s)), 0, 1)
    out = T.matmul(ctx.queries.unpad(T.reshape(out, (count * nq, heads * d_s))), p.wo)
    if ctx.empty is not None:
        out = T.mul(out, T.const(ctx.empty))
    return out


def g_multi_head(q: Tensor, k: Tensor, v: Tensor, ctx: AttentionContext,
                 p: GraphAttentionParams) -> Tensor:
    """Multi-head graph attention; heads are concatenated and projected.

    q, k and v hold input rows, laid out by ctx: K problems whose queries
    and keys are runs of the rows that its Segments take from them, each
    projected once, before it is taken.  The scale factor is d_K^(-1/2) with
    d_K the key input width, applied exactly once per score.  Empty query
    rows and distance buckets are as in attend; distances beyond the radius
    are clipped to the final bucket by the caller.
    """
    if k.data.shape[0] != v.data.shape[0]:
        raise AttentionError(f"key rows {k.data.shape[0]} != value rows {v.data.shape[0]}")
    dist, queries, keys = ctx.dist, ctx.queries, ctx.keys
    if any(rows.source is None and rows.total != x.data.shape[0]
           for rows, x in ((queries, q), (keys, k))):
        raise AttentionError(f"context shape {dist.shape} does not match "
                             f"({q.data.shape[0]}, {k.data.shape[0]}) rows")
    qh, kh = project(q, p.wq, queries), project(k, p.wk, keys)
    return attend(qh, kh, project(v, p.wv, keys), p.query_table(qh), p.key_table(kh),
                  ctx, p)


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
    """LayerNorm(x + SelfAttention(x)) followed by LayerNorm(y + FNN(y)),
    one output row per query of ctx: the queries and keys are rows of h_in
    as their Segments take them."""
    att = g_multi_head(h_in, h_in, h_in, ctx, p.attn)
    x = T.layer_norm(T.add(ctx.queries.take(h_in), att), p.ln1_gain, p.ln1_bias)
    fnn = T.linear(T.linear(x, p.fnn_w1, p.fnn_b1, relu=True), p.fnn_w2, p.fnn_b2)
    return T.layer_norm(T.add(x, fnn), p.ln2_gain, p.ln2_bias)
