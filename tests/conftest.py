import itertools
import os
import signal
from dataclasses import dataclass
from types import SimpleNamespace

import gram  # noqa: F401 - before numpy, so that its one-thread BLAS default holds
import numpy as np
import pytest

from gram import attention as A
from gram import evaluation as E
from gram import graphs as G
from gram import tensor as T
from gram import training
from gram.graphs import LabeledGraph
from gram.kernels import capped_distances, clustering
from gram.model import Model, ModelConfig, StepCounters
from gram.tensor import Tape
from gram.training import chunk_loss, step_chunks


def random_connected_graph(rng, n, a=3, b=2, extra_edge_prob=0.15):
    """Random labeled connected graph: a random tree plus extra edges."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = int(rng.integers(0, b))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges[(u, v)] = int(rng.integers(0, b))
    labels = rng.integers(0, a, size=n)
    return LabeledGraph.create(n, labels, [(u, v, l) for (u, v), l in edges.items()], a, b)


def apply_ordering(g: LabeledGraph, perm) -> LabeledGraph:
    """Reference: g relabelled so that position i under the permutation
    perm (position i holds node perm[i]) becomes node i."""
    if len(perm) != g.n:
        raise G.GraphError("ordering length differs from node count")
    inv = np.empty(len(perm), dtype=np.int64)
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    labels = [g.node_labels[orig] for orig in perm]
    edges = [(int(inv[u]), int(inv[v]), lab) for u, v, lab in g.edges]
    return LabeledGraph.create(g.n, labels, edges, g.a, g.b)


def adjacency_matrix(g) -> np.ndarray:
    """Reference: g's (n, n) uint8 0/1 adjacency matrix."""
    u, v, _ = np.array(g.edges, dtype=np.int64).reshape(-1, 3).T
    mat = np.zeros((g.n, g.n), dtype=np.uint8)
    mat[u, v] = 1
    mat[v, u] = 1
    return mat


def nspdk_kernel(f1: E.FeatureMap, f2: E.FeatureMap) -> float:
    """Reference: the NSPDK similarity of two feature maps, in [0, 1]:
    per-cell-normalized dot products summed over cells and normalized so
    that k(G, G) = 1 exactly."""
    if (f1.r_max, f1.d_max) != (f2.r_max, f2.d_max):
        raise E.EvalError(f"feature maps built with different bounds: "
                          f"({f1.r_max}, {f1.d_max}) vs ({f2.r_max}, {f2.d_max})")
    s12 = 0.0
    for cd, (k1, v1, self1) in f1.cells.items():
        other = f2.cells.get(cd)
        if other is None:
            continue
        k2, v2, self2 = other
        _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
        if len(i1) == 0:
            continue
        s12 += float((v1[i1] * v2[i2]).sum()) / np.sqrt(self1 * self2)
    s11 = float(len(f1.cells))
    s22 = float(len(f2.cells))
    if s12 == 0.0 or s11 == 0.0 or s22 == 0.0:
        return 0.0
    return s12 / np.sqrt(s11 * s22)


def mmd_squared(set_p, set_q, kernel) -> float:
    """Reference: the biased (V-statistic) squared MMD from kernel pairs,
    which evaluation.feature_mmd2 computes from mean embeddings.  Diagonal
    terms are included, so the value is nonnegative for a positive-definite
    kernel.  The kernel must be symmetric: each unordered pair within a set
    is evaluated once."""
    if not set_p or not set_q:
        raise E.EvalError("MMD needs non-empty sample sets")

    def within(xs):
        diag = sum(kernel(x, x) for x in xs)
        off = sum(kernel(x, x2) for x, x2 in itertools.combinations(xs, 2))
        return (diag + 2.0 * off) / (len(xs) * len(xs))

    kxy = sum(kernel(x, y) for x in set_p for y in set_q) / (len(set_p) * len(set_q))
    return within(set_p) - 2.0 * kxy + within(set_q)


def two_sided(feats_p, feats_q):
    """feature_mmd2's arguments for the MMD between two lists of feature maps,
    each map counted as a graph of its own: the maps of P and then of Q,
    weighted 1/|P| and -1/|Q|."""
    return (list(feats_p) + list(feats_q),
            [1.0 / len(feats_p)] * len(feats_p) + [-1.0 / len(feats_q)] * len(feats_q))


def tiny_model(a=3, b=2, variant="plain", seed=0, **kw):
    kw.setdefault("d_model", 16)
    kw.setdefault("heads", 2)
    kw.setdefault("blocks", 1)
    kw.setdefault("d_ff", 32)
    kw.setdefault("radius", 2)
    kw.setdefault("seed_size", 2)
    return Model(ModelConfig(a=a, b=b, variant=variant, **kw), init_seed=seed)


def edge_distribution_step(model, hv, hg, new_label, t, decided, restrict, dist_idx):
    """Reference edge logits (1, b + 1) of candidate position t given the
    decisions already made this step (list of (position, edge code), code
    b = no edge): the per-candidate estimator that EdgeStep replaced.  It
    rebuilds and projects every key of the history for each candidate and
    runs the edge MLP on the concatenated input."""
    c = model.config
    keys = [(tau, code) for tau, code in decided if not restrict or code < c.b]
    hvs = T.rows(model.embed_node, [new_label])
    ht = T.rows(hv, [t])
    if keys:
        taus = [tau for tau, _ in keys]
        tile = T.const(np.zeros((len(keys), c.d_model)))
        k = T.concat([T.rows(hv, taus), T.add(tile, hvs),
                      T.rows(model.embed_edge, [code for _, code in keys])], axis=-1)
        ctx = A.AttentionContext(dist_idx[np.ix_([t], taus)][None],
                                 np.ones((1, 1, len(keys)), dtype=bool),
                                 A.Segments([1]), A.Segments([len(keys)]))
        he_hist = A.g_multi_head(T.concat([ht, hvs], axis=-1), k, k, ctx, model.edge_attn)
    else:
        he_hist = T.const(np.zeros((1, c.d_model)))
    gin = T.concat([ht, hg, hvs, he_hist], axis=-1)
    h = T.relu(T.add(T.matmul(gin, model.edge_w1), model.edge_b1))
    h = T.relu(T.add(T.matmul(h, model.edge_w2), model.edge_b2))
    return T.add(T.matmul(h, model.edge_w3), model.edge_b3)


def linear_chain(x, w, b, relu=False):
    """Reference: tensor.linear as the chain of primitives it fuses."""
    y = T.add(T.matmul(x, w), b)
    return T.relu(y) if relu else y


def edge_hidden_chain(first, last, mid, first_end, last_end):
    """Reference: tensor.edge_hidden as the chain of primitives it fuses."""
    t, width = mid.data.shape
    pre = T.add(T.rows(first, first_end), T.rows(last, last_end))
    return T.relu(T.add(T.reshape(pre, (2, t, width)), mid))


def gather_last(table, idx):
    """Reference primitive: the per-row gather along the last axis,
    out[..., i, j] = table[..., i, idx[..., i, j]], which
    tensor.attention_weights fuses.

    table is (..., n, C) and idx an integer array (..., n, m) in [0, C)
    whose axes before n match the trailing axes of table before n: one
    (n, m) index shared by every leading axis (heads, say), or one per
    step, (K, n, m), shared by the heads of an (H, K, n, C) table.  The
    backward pass scatters with the tensor layer's bucket sums."""
    if table.data.ndim < 2:
        raise T.ShapeError(f"gather_last table of rank {table.data.ndim}")
    buckets = table.data.shape[-1]
    idx = T._bucket_index(idx, table.data.shape)
    T._check_buckets(idx, buckets)
    tn = table.node

    def bw(g):
        T._accum(tn, T._bucket_sums(g, idx, buckets))

    return T._record(T._result(T._gather_last(table.data, idx)), (table,), bw)


def attention_weights_chain(qh, kh, q_table, k_table, dist, scale, mask):
    """Reference: tensor.attention_weights as the chain of primitives it
    fuses."""
    scores = T.matmul(qh, T.transpose(kh))
    if q_table is not None:
        scores = T.add(T.add(scores, gather_last(q_table, dist)),
                       T.transpose(gather_last(k_table, np.swapaxes(dist, -1, -2))))
    scores = T.mul(scores, T.const(scale))
    return T.softmax(scores if mask is None else T.add(scores, T.const(mask)))


FUSED_CHAINS = {"linear": linear_chain, "edge_hidden": edge_hidden_chain,
                "attention_weights": attention_weights_chain}


def compose_fused(monkeypatch):
    """Run the model through the chains that the fused primitives replace."""
    for name, chain in FUSED_CHAINS.items():
        monkeypatch.setattr(T, name, chain)


@dataclass
class Prefix:
    """Reference: one prefix as the model built it step by step, before
    model.Prefixes built a graph's prefixes as one batch."""
    labels: np.ndarray       # (s,) int
    edge_array: np.ndarray   # (t, 3) int rows (i, j, label), i < j
    dist_idx: np.ndarray     # (s, s) distance buckets, capped at radius + 1
    degrees: np.ndarray      # (s,) within-prefix degree
    clustering: np.ndarray   # (s,) within-prefix clustering coefficient
    frontier_lo: int         # the next node's frontier is [frontier_lo, s)

    @property
    def n(self) -> int:
        return len(self.labels)


def build_prefix(labels, edges, radius: int) -> Prefix:
    """Reference: a Prefix from position-space labels and edges (i, j,
    label), i < j, with its own adjacency, distances and clustering."""
    labels = np.asarray(labels, dtype=np.int64)
    s = len(labels)
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    adj = np.zeros((s, s))
    adj[edge_array[:, 0], edge_array[:, 1]] = 1.0
    adj[edge_array[:, 1], edge_array[:, 0]] = 1.0
    lo = int(G.frontier_starts(edge_array, s)[-1]) if s else 0
    return Prefix(labels, edge_array, capped_distances(adj, radius),
                  adj.sum(axis=1).astype(np.int64), clustering(adj), lo)


def grid(blocks, fill) -> np.ndarray:
    """Reference: block k, a square array, in the corner of a (K, width,
    width) array filled with fill elsewhere, width the largest block's."""
    width = max((len(block) for block in blocks), default=0)
    out = np.full((len(blocks), width, width), fill, dtype=np.int64)
    for k, block in enumerate(blocks):
        out[k, :len(block), :len(block)] = block
    return out


def full_graph_convolution(hv, he, batch, conv, update_edges=True):
    """Reference: Model.graph_convolution before rows were reused, every
    packed row of the batch computed."""
    degrees = batch.degrees
    s, d = hv.data.shape
    t = len(batch.edge_labels)
    ii, jj = batch.ends
    w1 = conv["w1"]
    first = T.matmul(hv, T.slice_along(w1, 0, 0, d))              # (s, 3d)
    last = T.matmul(hv, T.slice_along(w1, 0, 2 * d, 3 * d))       # (s, 3d)
    mid = T.linear(he, T.slice_along(w1, 0, d, 2 * d), conv["b1"])  # (t, 3d)
    # direction 0 reads (i, e, j), direction 1 reads (j, e, i)
    first_end, last_end = np.concatenate([ii, jj]), np.concatenate([jj, ii])
    hid = T.edge_hidden(first, last, mid, first_end, last_end)  # (2, t, 3d)
    he_new = None
    if update_edges:
        he_new = T.linear(T.mul(T.sum_along(hid, 0), T.const(0.5)), conv["wedge"],
                          conv["bedge"])
    hid = T.reshape(hid, (2 * t, 3 * d))
    src = T.matmul(T.scatter_rows(hid, first_end, s), conv["wsrc"])
    sums = T.add(T.linear(T.scatter_rows(hid, last_end, s), conv["wdst"], src),
                 T.mul(T.const(degrees[:, None]), T.add(conv["bsrc"], conv["bdst"])))
    counts = 2.0 * degrees
    recip = np.zeros(s)
    np.divide(1.0, counts, out=recip, where=counts > 0)
    # zero on the isolated rows, which take the self-transform instead
    agg = T.relu(T.mul(sums, T.const(recip[:, None])))
    isolated = np.flatnonzero(degrees == 0)
    if len(isolated):
        iso = T.linear(T.rows(hv, isolated), conv["wiso"], conv["biso"], relu=True)
        agg = T.add(agg, T.scatter_rows(iso, isolated, s))
    return agg, he_new


def full_block_rows(model, batch):
    """Reference: Model.extract_features before rows were reused, every
    packed row of every prefix encoded in full.  Returns the packed rows of
    every level: the projected input, then each block's output."""
    c = model.config
    nodes = batch.nodes
    x = np.zeros((nodes.total, c.a + 2))
    x[np.arange(nodes.total), batch.labels] = 1.0
    maxdeg = np.maximum.reduceat(batch.degrees, nodes.offsets[:-1])[nodes.owner]
    np.divide(batch.degrees, maxdeg, out=x[:, c.a], where=maxdeg > 0)
    x[:, c.a + 1] = batch.clustering
    hv = T.linear(T.const(x), model.input_w, model.input_b)
    he = T.rows(model.embed_edge, batch.edge_labels)
    ctx = A.AttentionContext(batch.dist, batch.dist <= c.radius, nodes, nodes)
    levels = [hv]
    for l, (conv, sub, combine_w, combine_b) in enumerate(model.blocks):
        conv_out, he = full_graph_convolution(hv, he, batch, conv,
                                              update_edges=l + 1 < len(model.blocks))
        att_out = A.attention_sublayer(hv, ctx, sub)
        hv = T.linear(T.concat([conv_out, att_out], axis=-1), combine_w, combine_b)
        levels.append(hv)
    return levels


def full_extract_features(model, batch):
    """Reference: the full re-encoding's feature rows."""
    return full_block_rows(model, batch)[-1]


def encode_in_full(monkeypatch):
    """Run the model through the full re-encoding of every prefix."""
    monkeypatch.setattr(Model, "extract_features", full_extract_features)


def teacher_forced_loss(model: Model, og: G.OrderedGraph):
    """Reference: the summed negative log-likelihood of all post-seed steps
    of one graph, in the chunks that training runs.

    Returns (scalar loss tensor, StepCounters).  Steps before the seed size
    contribute nothing; the final step scores the stop class on the full
    graph.
    """
    losses = []
    counters = StepCounters()
    for steps in step_chunks(range(model.config.seed_size, og.n + 1)):
        loss, cnt = chunk_loss(model, og, steps)
        losses.append(T.reshape(loss, (1,)))
        counters.add(cnt)
    return T.sum_along(T.concat(losses, axis=0), 0), counters


def teacher_forced_step(model, og, s):
    """The distributions of model.teacher_forced(og, [s]): node_dist (a + 1,),
    index a the stop class; edge_dists, a (b + 1,) array per candidate in
    order, index b no edge; and the step's counters."""
    out = model.teacher_forced(og, [s])
    edge_dists = [] if out.edge_logits is None else list(T.softmax(out.edge_logits).data)
    return SimpleNamespace(node_dist=T.softmax(out.node_logits).data[0],
                           edge_dists=edge_dists, counters=out.counters)


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


def gradients(params):
    """{name: a copy of the parameter's gradient}, zeros where it has none."""
    return {p.name: np.zeros_like(p.data) if p.tensor.grad is None else p.tensor.grad.copy()
            for p in params}


def set_cpus(monkeypatch, n):
    """Let training see n CPUs, so that training._shard_1 computes shard 1
    of a batch in a forked child (n >= 2, at any shard cost) or in the
    process itself, before shard 0 (n == 1)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(training, "FORK_MIN_COST", 0)


def fail_in_child(monkeypatch, how):
    """Make every training chunk that runs in a child process fail: raise
    (how == "raise") or be killed by SIGKILL."""
    parent, real = os.getpid(), training._backward_chunk

    def backward_chunk(*args):
        if os.getpid() != parent:
            if how == "raise":
                raise ValueError("chunk failed on purpose")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(training, "_backward_chunk", backward_chunk)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
