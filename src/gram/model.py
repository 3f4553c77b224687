"""The generative network: parallel graph-conv/attention feature blocks,
gated graph pooling, a node-label estimator, and an edge-label estimator
driven by source-target attention over the edges already decided this step.

Four variants control the edge estimation work per step:
  plain - all previous nodes are edge candidates, full attention history
  A     - attention keys restricted to nodes that actually received an edge
  B     - candidates restricted to the BFS frontier
  AB    - both reductions combined

Every forward computation takes a batch of prefixes (Prefixes), built
from a graph's labels, edges and steps, and only that: the teacher-forced
steps of a chunk in training, whose graph is a graphs.OrderedGraph, or a
batch of one prefix in sampling.  Row work
(every weight product, elementwise op, layer norm and the conv's gathers
and scatters) runs on the prefixes' packed rows; only attention and
pooling lay the rows out per prefix, padded to the largest.

Consecutive prefixes share most rows: a block's output row depends only on
the rows within its conv's and its attention's reach.  So feature
extraction computes, for each prefix after a batch's first, only the rows
that Prefixes.dirty marks, and reads the others from the prefix that last
computed them; a one-prefix batch computes every row, as it always did.
Results equal those of encoding every prefix in full up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import attention as A
from . import tensor as T
from . import graphs as G
from .kernels import capped_distances, clustering
from .optim import Parameter, glorot
from .tensor import Tensor

VARIANTS = ("plain", "A", "B", "AB")


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    a: int
    b: int
    d_model: int = 128
    heads: int = 8
    blocks: int = 3
    d_ff: int = 256
    radius: int = 2
    seed_size: int = 10
    variant: str = "plain"
    bias_in_fe: bool = True
    bias_in_ee: bool = True

    def __post_init__(self):
        wrong = G.field_type_errors(self)
        if wrong:
            raise ModelError("; ".join(wrong))
        if self.a < 1 or self.b < 1:
            raise ModelError("label alphabets must be >= 1")
        sizes = ("d_model", "heads", "d_ff", "blocks", "radius", "seed_size")
        small = [f"{name} {getattr(self, name)}" for name in sizes if getattr(self, name) < 1]
        if small:
            raise ModelError(f"{', '.join(small)}: must be >= 1")
        if self.d_model % self.heads != 0:
            raise ModelError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.variant not in VARIANTS:
            raise ModelError(f"variant must be one of {VARIANTS}")

    @property
    def d_s(self) -> int:
        return self.d_model // self.heads


@dataclass
class StepCounters:
    """Instrumentation of teacher-forced steps, one step's or a sum's."""
    node_steps: int = 0      # node-label decisions
    edge_steps: int = 0      # steps that decide edges (all but the stop step)
    edge_decisions: int = 0  # edge candidates scored
    key_pairs: int = 0       # (query, key) pairs evaluated in edge attention
    alpha_sum: int = 0       # candidates that truly receive an edge
    beta_sum: int = 0        # frontier sizes
    dropped_edges: int = 0   # true edges falling outside the candidate set

    def add(self, other: "StepCounters"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class TeacherForced:
    """Teacher-forced steps evaluated in one pass: node logits (K, a + 1),
    one row per step, and, for the steps below n (all but a final step that
    scores the stop class on the full graph), the ground-truth edge codes
    (b = no edge) of every step's candidates in turn and their edge logits
    (t, b + 1)."""
    node_logits: Tensor
    edge_codes: np.ndarray | None = None
    edge_logits: Tensor | None = None
    counters: StepCounters = field(default_factory=StepCounters)


class Prefixes:
    """The prefixes of one graph at K ascending steps, the batch that one
    forward pass evaluates.

    labels (n,) and edges, rows (i, j, label) with i < j, are a graph in
    generation-order positions; prefix s, for each step s >= 1, is its
    first s nodes and the edge rows with j < s, in their given order (the
    conv scatters in that order).  The nodes are packed rows in order
    (nodes, an attention.Segments): prefix k owns rows
    nodes.offsets[k]:nodes.offsets[k + 1].  Its edges are packed the same
    way, with endpoints as packed node rows.  One (K, width, width)
    adjacency stack gives every prefix's degrees, each degree over its
    prefix's largest (relative_degrees), clustering and distance buckets
    dist, capped at radius + 1, the bucket that also fills the unused
    places.  The node after prefix k can only receive edges from its
    frontier [frontier_lo[k], s).

    Prefix k - 1 holds the first nodes and edges of prefix k, and
    previous (previous_edges) gives each packed node (edge) row the
    packed row of the same node (edge) in prefix k - 1, or -1 for a row
    that prefix k adds.  dirty() derives from these which rows each block
    must recompute."""

    def __init__(self, labels, edges, steps, radius: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        steps = np.asarray(steps, dtype=np.int64)
        if (np.diff(steps) <= 0).any():
            raise ModelError(f"steps must ascend, got {steps.tolist()}")
        self.radius = radius
        nodes = self.nodes = A.Segments(steps)
        owner, row = np.nonzero(edges[:, 1] < steps[:, None])  # by prefix, then row
        i, j, self.edge_labels = edges[row].T
        self.ends = (i + nodes.offsets[owner], j + nodes.offsets[owner])  # packed rows
        position = np.nonzero(nodes.real)[1]
        self.labels = np.asarray(labels, dtype=np.int64)[position]
        adj = np.zeros((nodes.count, nodes.width, nodes.width))
        adj[owner, i, j] = adj[owner, j, i] = 1.0
        used = nodes.real[:, :, None] & nodes.real[:, None, :]
        self.dist = np.where(used, capped_distances(adj, radius), radius + 1)
        self.degrees = adj.sum(axis=-1)[nodes.real].astype(np.int64)
        maxdeg = np.maximum.reduceat(self.degrees, nodes.offsets[:-1])[nodes.owner]
        self.relative_degrees = np.zeros(nodes.total)
        np.divide(self.degrees, maxdeg, out=self.relative_degrees, where=maxdeg > 0)
        self.clustering = clustering(adj)[nodes.real]
        self.frontier_lo = G.frontier_starts(edges, len(labels))[steps - 1]
        before = np.concatenate([[0], steps[:-1]])  # the size of prefix k - 1
        self.previous = _previous_rows(position < before[nodes.owner])
        self.previous_edges = _previous_rows(j < before[owner])

    def dirty(self, blocks: int) -> "DirtyRows":
        """The rows that a forward pass through the given number of blocks
        computes, relative to the previous prefix; every row of the first.

        A node row is dirty at the input (level 0) when the prefix adds it
        or its input row (label, relative degree, clustering) changed; a
        new largest degree changes every row.  An edge row is dirty at
        level 0 when it is new.  Block l's conv reads a row's own input,
        its incident edges and their ends, and its attention the rows
        within radius and their distance buckets (the L-block receptive
        field of GraphSAGE, Hamilton et al. 2017).  So a node row is dirty
        at level l + 1, the output of block l, when a row dirty at level l
        lies within radius of it, itself included, and an edge row when it
        is new or has an end dirty at level l.  The node rule covers the
        ends of a dirty edge (radius >= 1), and every old pair whose
        capped distance changed: its new shortest path, of at most radius
        edges, runs through a new node.  A clean row equals the previous
        prefix's row, up to rounding."""
        nodes = self.nodes
        ii, jj = self.ends
        prev = np.maximum(self.previous, 0)
        node = (self.previous < 0) | (self.relative_degrees != self.relative_degrees[prev]) \
            | (self.clustering != self.clustering[prev])
        new_edges = self.previous_edges < 0
        if node.all() and new_edges.all():  # one prefix, the sampler's: every row, no gather
            return DirtyRows([node] * (blocks + 1), [new_edges] * (blocks + 1),
                             [BlockRows(self)] * blocks, None)
        near = self.dist <= self.radius
        node_masks, edge_masks = [node], [new_edges]
        for _ in range(blocks):
            edge_masks.append(new_edges | node[ii] | node[jj])
            grid = np.zeros(nodes.real.shape, dtype=bool)
            grid[nodes.real] = node
            node = (near & grid[:, None, :]).any(axis=-1)[nodes.real]
            node_masks.append(node)
        return DirtyRows(node_masks, edge_masks,
                         [BlockRows(self, *masks) for masks in zip(
                             node_masks[:-1], edge_masks[:-1], node_masks[1:], edge_masks[1:])],
                         _sources(node, self.previous))


def _previous_rows(old: np.ndarray) -> np.ndarray:
    """The packed row in prefix k - 1 of each packed row of prefix k that
    old marks, -1 for the others: prefix k's old rows are prefix k - 1's
    rows in their order, so in packed order they are rows 0, 1, ..."""
    out = np.full(len(old), -1)
    out[old] = np.arange(np.count_nonzero(old))
    return out


def _sources(mask: np.ndarray, previous: np.ndarray):
    """Each packed row's index among the rows that mask sets: its own where
    set, else that of its row in the previous prefix, in turn; None when
    mask sets every row."""
    if mask.all():
        return None
    at = np.where(mask, np.arange(len(mask)), previous)
    while not mask[at].all():
        at = at[at]
    return (np.cumsum(mask) - 1)[at]


@dataclass
class DirtyRows:
    """The rows of a Prefixes batch that a forward pass computes
    (Prefixes.dirty): masks over the packed node rows (nodes) and edge rows
    (edges) at each level, level 0 the input and level l + 1 block l's
    output; the index arrays of each block (blocks, BlockRows); and the
    row among the last level's computed rows that each packed row takes,
    None when it computes every row (output)."""
    nodes: list
    edges: list
    blocks: list
    output: np.ndarray | None


class BlockRows:
    """What one feature block computes of a Prefixes batch, from the rows
    that the level before it computed: the node rows node_in and edge rows
    edge_in that the masks set (all when None), to the node rows node_out
    and edge rows edge_out.

    The conv's hidden edges are the output's edges, then every other edge
    with an end in the output (its hidden rows feed that end's sum).  For
    those h edges: mid, each one's row among the computed edge rows, or
    None when that is the edge itself; first_in and last_in (2h,), the
    computed rows of the first and last end of each hidden row, direction
    0 then 1 as graph_convolution reads them; edges_out, the number of
    leading hidden edges that the block outputs, or None when that is all;
    first_out and last_out, the output row that each hidden row's first
    and last end sums into, count (the output rows) for an end that the
    block does not output, which needs a spare row.  degrees are the
    output rows' degrees, and isolated_in and isolated_out the computed
    and output rows of those of degree 0.  ctx is the attention of the
    output rows, as queries, over every row of their prefixes, both taken
    from the computed rows."""

    def __init__(self, batch: Prefixes, node_in=None, edge_in=None, node_out=None,
                 edge_out=None):
        nodes, radius = batch.nodes, batch.radius
        total, (ii, jj) = nodes.total, batch.ends
        src = None if node_in is None else _sources(node_in, batch.previous)
        take = (lambda rows: rows) if src is None else (lambda rows: src[rows])
        out = None if node_out is None or node_out.all() else np.flatnonzero(node_out)
        self.count = total if out is None else len(out)
        rank = np.arange(total) if out is None \
            else np.where(node_out, np.cumsum(node_out) - 1, self.count)
        hidden, self.edges_out = None, None
        if edge_out is not None:
            rest = np.flatnonzero((node_out[ii] | node_out[jj]) & ~edge_out)
            if len(rest) or not edge_out.all():
                kept = np.flatnonzero(edge_out)
                hidden = np.concatenate([kept, rest])
                self.edges_out = len(kept) if len(rest) else None
        if hidden is not None:
            ii, jj = ii[hidden], jj[hidden]
        mid = None if edge_in is None else _sources(edge_in, batch.previous_edges)
        self.mid = hidden if mid is None else mid if hidden is None else mid[hidden]
        self.first_in = np.concatenate([take(ii), take(jj)])
        self.last_in = np.concatenate([take(jj), take(ii)])
        self.first_out = np.concatenate([rank[ii], rank[jj]])
        self.last_out = np.concatenate([rank[jj], rank[ii]])
        self.spare = out is not None and bool((self.first_out == self.count).any())
        self.degrees = batch.degrees if out is None else batch.degrees[out]
        self.isolated_out = np.flatnonzero(self.degrees == 0)
        self.isolated_in = take(self.isolated_out if out is None else out[self.isolated_out])
        sizes = np.diff(nodes.offsets)
        keys = nodes if src is None else A.Segments(sizes, source=src)
        if out is None:
            queries, dist = keys, batch.dist
        else:
            queries = A.Segments(np.bincount(nodes.owner[out], minlength=nodes.count),
                                 source=take(out))
            at = np.zeros(queries.real.shape, dtype=np.int64)
            at[queries.real] = np.nonzero(nodes.real)[1][out]
            dist = batch.dist[np.arange(nodes.count)[:, None], at]
            dist[~queries.real] = radius + 1
        self.ctx = A.AttentionContext(dist, dist <= radius, queries, keys)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class Model:
    """Holds the configuration and all trainable parameters, plus the
    forward computations for feature extraction and both estimators."""

    def __init__(self, config: ModelConfig, init_seed: int = 0):
        rng = np.random.default_rng(init_seed)
        self._build(config, lambda shape: glorot(rng, shape))

    @classmethod
    def _unset(cls, config: ModelConfig) -> "Model":
        """A model whose weight matrices are allocated but not drawn and whose
        optimizer moments are not allocated, for a loader that overwrites
        every entry and defers the moments (training.load_checkpoint)."""
        model = cls.__new__(cls)
        model._build(config, np.empty, moments=False)
        return model

    def _build(self, config: ModelConfig, draw, moments=True):
        """Create every parameter; draw(shape) gives a weight matrix's
        values, and moments says whether the parameters allocate theirs."""
        self.config = config
        self.params: dict[str, Parameter] = {}
        c = config
        d, ds, h = c.d_model, c.d_s, c.heads
        buckets = c.radius + 2

        def add(name, value):
            p = Parameter(name, value, moments)
            self.params[name] = p
            return p.tensor

        def w(name, shape):
            return add(name, draw(shape))

        def zeros(name, shape):
            return add(name, np.zeros(shape))

        def ones(name, shape):
            return add(name, np.ones(shape))

        self.embed_node = w("embed.node", (c.a + 2, d))
        self.embed_edge = w("embed.edge", (c.b + 2, d))
        self.input_w = w("input.w", (c.a + 2, d))
        self.input_b = zeros("input.b", (d,))

        def attn_params(prefix, dq, dk, dv, use_bias):
            return A.GraphAttentionParams(
                wq=w(f"{prefix}.wq", (h, ds, dq)),
                wk=w(f"{prefix}.wk", (h, ds, dk)),
                wv=w(f"{prefix}.wv", (h, ds, dv)),
                bq=zeros(f"{prefix}.bq", (h, buckets, ds)),
                bk=zeros(f"{prefix}.bk", (h, buckets, ds)),
                bv=zeros(f"{prefix}.bv", (h, buckets, ds)),
                wo=w(f"{prefix}.wo", (h * ds, d)),
                use_bias=use_bias,
            )

        self.blocks = []
        for l in range(c.blocks):
            pre = f"block{l}"
            conv = {
                "w1": w(f"{pre}.conv.w1", (3 * d, 3 * d)),
                "b1": zeros(f"{pre}.conv.b1", (3 * d,)),
                "wsrc": w(f"{pre}.conv.wsrc", (3 * d, d)),
                "bsrc": zeros(f"{pre}.conv.bsrc", (d,)),
                "wedge": w(f"{pre}.conv.wedge", (3 * d, d)),
                "bedge": zeros(f"{pre}.conv.bedge", (d,)),
                "wdst": w(f"{pre}.conv.wdst", (3 * d, d)),
                "bdst": zeros(f"{pre}.conv.bdst", (d,)),
                "wiso": w(f"{pre}.conv.wiso", (d, d)),
                "biso": zeros(f"{pre}.conv.biso", (d,)),
            }
            sub = A.SublayerParams(
                attn=attn_params(f"{pre}.attn", d, d, d, c.bias_in_fe),
                fnn_w1=w(f"{pre}.fnn.w1", (d, c.d_ff)),
                fnn_b1=zeros(f"{pre}.fnn.b1", (c.d_ff,)),
                fnn_w2=w(f"{pre}.fnn.w2", (c.d_ff, d)),
                fnn_b2=zeros(f"{pre}.fnn.b2", (d,)),
                ln1_gain=ones(f"{pre}.ln1.gain", (d,)),
                ln1_bias=zeros(f"{pre}.ln1.bias", (d,)),
                ln2_gain=ones(f"{pre}.ln2.gain", (d,)),
                ln2_bias=zeros(f"{pre}.ln2.bias", (d,)),
            )
            combine_w = w(f"{pre}.combine.w", (2 * d, d))
            combine_b = zeros(f"{pre}.combine.b", (d,))
            self.blocks.append((conv, sub, combine_w, combine_b))

        self.pool_w1 = w("pool.w1", (d, d))
        self.pool_b1 = zeros("pool.b1", (d,))
        self.pool_w2 = w("pool.w2", (d, 1))
        self.pool_b2 = zeros("pool.b2", (1,))

        self.node_w1 = w("node_est.w1", (d, d))
        self.node_b1 = zeros("node_est.b1", (d,))
        self.node_w2 = w("node_est.w2", (d, d))
        self.node_b2 = zeros("node_est.b2", (d,))
        self.node_w3 = w("node_est.w3", (d, c.a + 1))
        self.node_b3 = zeros("node_est.b3", (c.a + 1,))

        self.edge_attn = attn_params("edge_attn", 2 * d, 3 * d, 3 * d, c.bias_in_ee)

        self.edge_w1 = w("edge_est.w1", (4 * d, d))
        self.edge_b1 = zeros("edge_est.b1", (d,))
        self.edge_w2 = w("edge_est.w2", (d, d))
        self.edge_b2 = zeros("edge_est.b2", (d,))
        self.edge_w3 = w("edge_est.w3", (d, c.b + 1))
        self.edge_b3 = zeros("edge_est.b3", (c.b + 1,))

    def parameters(self):
        return list(self.params.values())

    # -- feature extraction -------------------------------------------------

    def graph_convolution(self, hv: Tensor, he: Tensor, batch: Prefixes, conv,
                          update_edges: bool = True, rows: BlockRows | None = None) -> tuple:
        """One conv layer over the node rows hv and edge rows he that the
        level before it computed, by default every packed row of a batch of
        prefixes; rows (a BlockRows) says which rows those are and which
        rows to output.  Every edge (i, j) with features e reads its node
        triple in both directions, x1 = [h_i | e | h_j] and
        x2 = [h_j | e | h_i], as hid = relu(x W1 + b1).  The edge keeps the
        mean of its two candidates hid wedge + bedge.  A node averages, over
        its incident edges and both directions, the candidate of the end it
        reads: hid wsrc + bsrc where it comes first, hid wdst + bdst where it
        comes last.  Isolated nodes (degree 0) take a learned
        self-transform, computed for those rows only.  BFS-order prefixes
        are connected, so only a one-node prefix has one; in a batch without
        one the transform does not run, wiso and biso get no gradient, and
        the optimizer leaves them, their moments and step alone.

        The work is split so that only gathers and scatters are per edge.
        By input part, x1 W1 = h_i W1[:d] + e W1[d:2d] + h_j W1[2d:], so the
        node blocks are computed once per computed row and gathered into
        both directions.  The edge candidate is (hid1 + hid2)/2 wedge + bedge.
        The output projections are linear, so they run after the scatter:
        with S and S' the (node, direction-edge) incidence of the first and
        the last end, a node's candidate sum is
        (S hid) wsrc + (S' hid) wdst + deg (bsrc + bdst), where
        S hid = S_i hid1 + S_j hid2 and S' hid = S_i hid2 + S_j hid1.  Edges
        only join nodes of one prefix, so every product runs on the rows of
        the whole batch.  Without update_edges (the last block, whose edge
        features nothing reads) the edge output is None."""
        r = rows or BlockRows(batch)
        d = hv.data.shape[1]
        w1 = conv["w1"]
        first = T.matmul(hv, T.slice_along(w1, 0, 0, d))              # (rows, 3d)
        last = T.matmul(hv, T.slice_along(w1, 0, 2 * d, 3 * d))       # (rows, 3d)
        mid = T.linear(he, T.slice_along(w1, 0, d, 2 * d), conv["b1"])  # (edge rows, 3d)
        if r.mid is not None:
            mid = T.rows(mid, r.mid)
        # direction 0 reads (i, e, j), direction 1 reads (j, e, i)
        hid = T.edge_hidden(first, last, mid, r.first_in, r.last_in)  # (2, t, 3d)
        he_new = None
        if update_edges:
            kept = hid if r.edges_out is None else T.slice_along(hid, 1, 0, r.edges_out)
            he_new = T.linear(T.mul(T.sum_along(kept, 0), T.const(0.5)), conv["wedge"],
                              conv["bedge"])
        hid = T.reshape(hid, (2 * hid.data.shape[1], 3 * d))

        def scatter(ends):  # the output rows' sums of the hidden rows by one end
            out = T.scatter_rows(hid, ends, r.count + r.spare)
            return T.slice_along(out, 0, 0, r.count) if r.spare else out

        src = T.matmul(scatter(r.first_out), conv["wsrc"])
        degrees = r.degrees
        sums = T.add(T.linear(scatter(r.last_out), conv["wdst"], src),
                     T.mul(T.const(degrees[:, None]), T.add(conv["bsrc"], conv["bdst"])))
        counts = 2.0 * degrees
        recip = np.zeros(r.count)
        np.divide(1.0, counts, out=recip, where=counts > 0)
        # zero on the isolated rows, which take the self-transform instead
        agg = T.relu(T.mul(sums, T.const(recip[:, None])))
        if len(r.isolated_out):
            iso = T.linear(T.rows(hv, r.isolated_in), conv["wiso"], conv["biso"], relu=True)
            agg = T.add(agg, T.scatter_rows(iso, r.isolated_out, r.count))
        return agg, he_new

    def extract_features(self, batch: Prefixes, helper=None) -> Tensor:
        """Node feature rows of a batch of prefixes, packed in order: one-hot
        labels plus relative degree and clustering, projected, then refined
        by parallel conv/attention blocks combined per block by a linear
        projection.  Attention runs on each prefix's rows padded to the
        batch's largest prefix.

        Each prefix after the first computes only its dirty rows
        (Prefixes.dirty): input-side work (the input projection, the conv's
        node and edge blocks, attention's queries, keys and values) on the
        rows dirty at a block's input, output-side work (the conv's sums
        and output projections, attention with those rows as queries over
        all keys, wo, the feedforward, both layer norms and combine) on the
        rows dirty at its output.  A clean row is read from the prefix
        that last computed it, by a gather whose backward sums the gradient
        of a row that several prefixes read; one final gather packs the
        rows.  A one-prefix batch (the sampler's) computes every row and
        runs no gather.

        With a helper (sampler._AttentionHelper), each block's attention
        sublayer runs in another process while this one runs the block's
        conv: helper.start(rows, dist) hands over the block's input rows and
        the step's distance buckets, and helper.result() returns the
        sublayer's output rows, computed by the same function from the same
        values.  They are on no tape: only a one-prefix batch with no active
        tape takes a helper."""
        if helper is not None and (batch.nodes.count != 1 or T.tape_active()):
            raise ModelError("an attention helper serves one prefix with no active tape")
        c = self.config
        nodes = batch.nodes
        dirty = batch.dirty(len(self.blocks))
        x = np.zeros((nodes.total, c.a + 2))
        x[np.arange(nodes.total), batch.labels] = 1.0
        x[:, c.a] = batch.relative_degrees
        x[:, c.a + 1] = batch.clustering
        inputs, edges = dirty.nodes[0], dirty.edges[0]
        hv = T.linear(T.const(x if inputs.all() else x[inputs]), self.input_w, self.input_b)
        he = T.rows(self.embed_edge,
                    batch.edge_labels if edges.all() else batch.edge_labels[edges])
        for l, (conv, sub, combine_w, combine_b) in enumerate(self.blocks):
            rows = dirty.blocks[l]
            if helper is not None:
                helper.start(hv.data, rows.ctx.dist)
            conv_out, he = self.graph_convolution(hv, he, batch, conv,
                                                  update_edges=l + 1 < len(self.blocks),
                                                  rows=rows)
            att_out = A.attention_sublayer(hv, rows.ctx, sub) if helper is None \
                else T.const(helper.result())
            hv = T.linear(T.concat([conv_out, att_out], axis=-1), combine_w, combine_b)
        return hv if dirty.output is None else T.rows(hv, dirty.output)

    def graph_pool(self, hv: Tensor, nodes: A.Segments) -> Tensor:
        """Gated sum of node features, sum_i sigmoid(gate(h_i)) * h_i, over
        each run of nodes (a batch's Prefixes.nodes): (K, d)."""
        hidden = T.linear(hv, self.pool_w1, self.pool_b1, relu=True)
        gate = T.sigmoid(T.linear(hidden, self.pool_w2, self.pool_b2))
        gated = nodes.pad(T.mul(gate, hv))
        return T.sum_along(T.reshape(gated, (nodes.count, nodes.width, hv.data.shape[1])), 1)

    # -- estimators ----------------------------------------------------------

    def node_logits(self, hg: Tensor) -> Tensor:
        """Node-label logits (K, a + 1) of K graph vectors hg (K, d)."""
        h = T.linear(hg, self.node_w1, self.node_b1, relu=True)
        h = T.linear(h, self.node_w2, self.node_b2, relu=True)
        return T.linear(h, self.node_w3, self.node_b3)

    # -- teacher-forced steps ---------------------------------------------------

    def teacher_forced(self, og: G.OrderedGraph, steps) -> TeacherForced:
        """The logits the model assigns at the given ascending steps when
        conditioned on the ground truth (no sampled feedback), all in one
        pass: each step's next-node label (K rows) and, for the steps below
        n, the edges to its candidates, decided in order."""
        steps = [int(s) for s in steps]
        batch = Prefixes(og.labels, og.edges, steps, self.config.radius)
        hv = self.extract_features(batch)
        hg = self.graph_pool(hv, batch.nodes)
        node_logits = self.node_logits(hg)
        edge_steps = [s for s in steps if s < og.n]
        if not edge_steps:
            return TeacherForced(node_logits, counters=StepCounters(node_steps=len(steps)))
        step = EdgeStep(self, hv, hg, og.labels[edge_steps], batch)
        codes = og.edge_codes(np.asarray(edge_steps)[step.runs.owner], step.candidates)
        logits, pairs = step.edge_logits_teacher(codes)
        alpha = int((codes < self.config.b).sum())
        return TeacherForced(node_logits, codes, logits, StepCounters(
            node_steps=len(steps), edge_steps=len(edge_steps), edge_decisions=len(codes),
            key_pairs=pairs, alpha_sum=alpha,
            beta_sum=int((np.asarray(edge_steps) - batch.frontier_lo[:len(edge_steps)]).sum()),
            dropped_edges=int(np.isin(og.edges[:, 1], edge_steps).sum()) - alpha))


class EdgeStep:
    """The edge estimator of a batch of generation steps, and the one place
    that maps the model's variant to its policy.

    Built from the packed node features hv and graph vectors hg (K, d) of
    a batch of prefixes, and the new nodes' labels: an array of K' labels
    for the first K' prefixes (the sampler passes one of each).  A step's
    candidates are its prefix's frontier [frontier_lo, s) under B and AB
    and every earlier position otherwise; under A and AB only candidates
    that receive an edge become attention keys (restrict).  candidates
    holds every step's positions in turn, runs (an attention.Segments) says
    which are whose, and dist holds each step's distance buckets among its
    candidates, gathered from the batch's.  Candidate j's key and value
    input is [hv_j | embed_node(label) | embed_edge(code_j)], so the
    projections split by input part: a candidate row, the new node's row,
    and a table over all b + 2 edge codes.  These, the candidates' queries,
    the query side bias table and the constant part of the edge MLP's first
    layer, hv_j W1[:d] + hg W1[d:2d] + embed_node(label) W1[2d:3d] + b1,
    are computed once per batch, and so is the causal mask.  Queries, keys
    and values are kept on the (H, K', width, d_S) grid that attention pads
    the steps to.  The edge-code parts of keys and values are (b + 2,
    H * d_S) tables, one row per code with the heads side by side, and a
    pass gathers each candidate's row by its code.

    edge_logits_teacher(codes) is the one edge-logit method: it scores all
    candidates at once, and a candidate's row depends only on the codes of
    the candidates before it in its own step.  Training passes the
    ground-truth codes on the tape; the sampler runs it eagerly on drafted
    codes, and after drawing an edge rescores only the candidates after it
    (sampler.generate_graph).
    """

    def __init__(self, model: Model, hv: Tensor, hg: Tensor, new_labels, batch: Prefixes):
        c = model.config
        d = c.d_model
        labels = np.asarray(new_labels, dtype=np.int64)
        count = len(labels)
        sizes = np.diff(batch.nodes.offsets[:count + 1])
        starts = batch.frontier_lo[:count] if c.variant in ("B", "AB") else np.zeros(count, int)
        runs = self.runs = A.Segments(sizes - starts)
        self.candidates = starts[runs.owner] + np.nonzero(runs.real)[1]
        self.model = model
        self.restrict = c.variant in ("A", "AB")
        # each step's distances among its candidates, 0 in the unused places
        at = starts[:, None] + np.where(runs.real, np.arange(runs.width), 0)
        used = runs.real[:, :, None] & runs.real[:, None, :]
        self.dist = np.where(used, batch.dist[np.arange(count)[:, None, None],
                                              at[:, :, None], at[:, None, :]], 0)
        # candidate i attends over the candidates j < i of its own step
        self.causal = np.tril(np.ones((runs.width, runs.width), dtype=bool), k=-1) \
            & runs.real[:, :, None]
        attn = model.edge_attn
        heads, d_s = attn.heads, c.d_s

        def split(w, parts):  # the input-part blocks of (H, d_S, parts * d) weights
            return [T.slice_along(w, -1, k * d, (k + 1) * d) for k in range(parts)]

        def per_step(x):  # (H, K', d_S) -> (H, K', 1, d_S), one row per step
            return T.reshape(x, (heads, runs.count, 1, d_s))

        def code_table(w):  # (H, d_S, d) -> (b + 2, H * d_S), one row per edge code
            return T.matmul(model.embed_edge, T.transpose(T.reshape(w, (heads * d_s, d))))

        hc = T.rows(hv, batch.nodes.offsets[runs.owner] + self.candidates)
        hvs = T.rows(model.embed_node, labels)
        wq, wk, wv = split(attn.wq, 2), split(attn.wk, 3), split(attn.wv, 3)
        self.q = T.add(A.project(hc, wq[0], runs), per_step(A.project(hvs, wq[1])))
        self.kc = T.add(A.project(hc, wk[0], runs), per_step(A.project(hvs, wk[1])))
        self.vc = T.add(A.project(hc, wv[0], runs), per_step(A.project(hvs, wv[1])))
        self.ke, self.ve = code_table(wk[2]), code_table(wv[2])
        self.q_table = attn.query_table(self.q)
        w1 = [T.slice_along(model.edge_w1, 0, k * d, (k + 1) * d) for k in range(4)]
        hg_w1 = T.matmul(T.slice_along(hg, 0, 0, runs.count), w1[1])
        step_base = T.add(T.linear(hvs, w1[2], hg_w1), model.edge_b1)  # (K', d)
        self.base = T.linear(hc, w1[0], T.rows(step_base, runs.owner))  # (t, d)
        self.w1_hist = w1[3]

    def _by_code(self, table: Tensor, grid: np.ndarray) -> Tensor:
        """The rows of a (b + 2, H * d_S) code table picked by a (K', width)
        grid of codes, as an (H, K', width, d_S) grid."""
        heads = self.model.edge_attn.heads
        count, width = grid.shape
        x = T.reshape(T.rows(table, grid.reshape(-1)), (count * width, heads, -1))
        return T.reshape(T.transpose(x, 0, 1), (heads, count, width, -1))

    def edge_logits_teacher(self, key_codes: np.ndarray, first: int = 0):
        """Edge logits for all candidates at once, or, for a one-step
        EdgeStep, for the candidates from first on.

        Candidate i of a step attends over the candidates j < i of the same
        step with edge code key_codes[j] (the A-policy masks keys without
        an edge).  The mask is causal, so row i depends on the codes before
        it only and equals the logits of deciding the candidates one by one.
        With first > 0 only rows first, first + 1, ... are scored (their
        keys are still all candidates), so a pass after a drawn edge skips
        the rows whose codes are already drawn.  Returns (logits
        (t - first, b + 1), attended key pair count of those rows).
        """
        m = self.model
        runs = self.runs
        b = m.config.b
        if first and not (runs.count == 1 and 0 < first < runs.total):
            raise ModelError(f"first row {first} needs one step of more than {first} "
                             f"candidates, not {runs.count} steps of {runs.total}")
        key_codes = np.asarray(key_codes, dtype=np.int64)
        grid = np.full(runs.real.shape, b, dtype=np.int64)  # "no edge" when unused
        grid[runs.real] = key_codes
        k = T.add(self.kc, self._by_code(self.ke, grid))
        v = T.add(self.vc, self._by_code(self.ve, grid))
        allowed = self.causal[:, first:]
        if self.restrict:
            allowed = allowed & (grid < b)[:, None, :]
        q, q_table, base, queries = self.q, self.q_table, self.base, runs
        if first:
            q = T.slice_along(q, 2, first, runs.width)
            q_table = q_table if q_table is None else T.slice_along(q_table, 2, first, runs.width)
            base = T.slice_along(base, 0, first, runs.total)
            queries = A.Segments([runs.total - first])
        ctx = A.AttentionContext(self.dist[:, first:], allowed, queries, runs)
        he_hist = A.attend(q, k, v, q_table, m.edge_attn.key_table(k), ctx, m.edge_attn)
        h = T.linear(he_hist, self.w1_hist, base, relu=True)
        h = T.linear(h, m.edge_w2, m.edge_b2, relu=True)
        return T.linear(h, m.edge_w3, m.edge_b3), int(allowed.sum())
