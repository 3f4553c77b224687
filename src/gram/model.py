"""The generative network: parallel graph-conv/attention feature blocks,
gated graph pooling, a node-label estimator, and an edge-label estimator
driven by source-target attention over the edges already decided this step.

Four variants control the edge estimation work per step:
  plain - all previous nodes are edge candidates, full attention history
  A     - attention keys restricted to nodes that actually received an edge
  B     - candidates restricted to the BFS frontier
  AB    - both reductions combined

Every forward computation takes a batch of prefixes (Prefixes): the
teacher-forced steps of a chunk in training, one prefix in sampling.  Row
work (every weight product, elementwise op, layer norm and the conv's
gathers and scatters) runs on the prefixes' packed rows; only attention
and pooling lay the rows out per prefix, padded to the largest.
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

    def to_json_obj(self) -> dict:
        return {
            "a": self.a, "b": self.b, "d_model": self.d_model, "heads": self.heads,
            "blocks": self.blocks, "d_ff": self.d_ff, "radius": self.radius,
            "seed_size": self.seed_size, "variant": self.variant,
            "bias_in_fe": self.bias_in_fe, "bias_in_ee": self.bias_in_ee,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ModelConfig":
        return ModelConfig(**obj)


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
    scores the stop class on the full graph), every step's candidate
    positions in turn, their ground-truth edge codes (b = no edge) and their
    edge logits (t, b + 1)."""
    node_logits: Tensor
    candidates: np.ndarray | None = None
    edge_codes: np.ndarray | None = None
    edge_logits: Tensor | None = None
    counters: StepCounters = field(default_factory=StepCounters)


@dataclass
class Prefix:
    """The already-generated part of a graph, in generation-order positions."""
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
    """Assemble a Prefix from position-space labels and edges (i, j, label),
    i < j."""
    labels = np.asarray(labels, dtype=np.int64)
    s = len(labels)
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    adj = np.zeros((s, s))
    adj[edge_array[:, 0], edge_array[:, 1]] = 1.0
    adj[edge_array[:, 1], edge_array[:, 0]] = 1.0
    lo = int(G.frontier_starts(edge_array, s)[-1]) if s else 0
    return Prefix(labels, edge_array, capped_distances(adj, radius),
                  adj.sum(axis=1).astype(np.int64), clustering(adj), lo)


class Prefixes:
    """K prefixes side by side, the batch that one forward pass evaluates.

    Their nodes are packed rows in order (nodes, an attention.Segments):
    prefix k owns rows nodes.offsets[k]:nodes.offsets[k + 1].  Their edges
    are packed the same way, with endpoints as packed node rows."""

    def __init__(self, items):
        self.items = list(items)
        self.nodes = A.Segments([p.n for p in self.items])
        offsets = self.nodes.offsets
        edges = np.concatenate([p.edge_array for p in self.items])
        shift = np.repeat(offsets[:-1], [len(p.edge_array) for p in self.items])
        self.ends = (edges[:, 0] + shift, edges[:, 1] + shift)  # packed rows of the ends
        self.edge_labels = edges[:, 2]
        self.degrees = np.concatenate([p.degrees for p in self.items])

    @staticmethod
    def of(prefixes) -> "Prefixes":
        """A Prefixes from itself, one Prefix or a sequence of them."""
        if isinstance(prefixes, Prefixes):
            return prefixes
        return Prefixes([prefixes] if isinstance(prefixes, Prefix) else prefixes)


class OrderedGraph:
    """A training graph relabeled into generation order, with per-step
    prefix construction and ground-truth lookups.  edges holds its rows
    (i, j, label), i < j, sorted by (j, i), so the edges of the prefix of s
    nodes are the first rows, those with j < s."""

    def __init__(self, g: G.LabeledGraph, ordering: G.NodeOrdering, radius: int):
        self.graph = G.apply_ordering(g, ordering)
        self.radius = radius
        self.n = self.graph.n
        self.labels = np.asarray(self.graph.node_labels, dtype=np.int64)
        edges = np.asarray(self.graph.edges, dtype=np.int64).reshape(-1, 3)
        self.edges = edges[np.lexsort((edges[:, 0], edges[:, 1]))]
        # ascending keys j * n + i of the rows, then n * n, above every pair's
        self._keys = np.append(self.edges[:, 1] * self.n + self.edges[:, 0], self.n * self.n)
        self._codes = np.append(self.edges[:, 2], self.graph.b)

    def prefix(self, s: int) -> Prefix:
        k = int(self._keys.searchsorted(s * self.n))
        return build_prefix(self.labels[:s], self.edges[:k], self.radius)

    def edge_codes(self, later, earlier) -> np.ndarray:
        """Ground-truth edge codes of the position pairs (later, earlier),
        earlier < later, broadcast against each other: the edge label, or b
        for no edge."""
        keys = np.asarray(later) * self.n + np.asarray(earlier)
        at = self._keys.searchsorted(keys)
        return np.where(self._keys[at] == keys, self._codes[at], self.graph.b)


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

    def graph_convolution(self, hv: Tensor, he: Tensor, prefixes, conv,
                          update_edges: bool = True) -> tuple:
        """One conv layer over the packed node rows hv and edge rows he of a
        batch of prefixes.  Every edge (i, j) with features e reads its node
        triple in both directions, x1 = [h_i | e | h_j] and
        x2 = [h_j | e | h_i], as hid = relu(x W1 + b1).  The edge keeps the
        mean of its two candidates hid wedge + bedge.  A node averages, over
        its incident edges and both directions, the candidate of the end it
        reads: hid wsrc + bsrc where it comes first, hid wdst + bdst where it
        comes last.  Isolated nodes (degree 0) take a learned
        self-transform, computed for those rows only.  A connected prefix
        has none; the transform then runs on no rows, so wiso and biso
        still get a gradient, zero, and the optimizer steps them as before.

        The work is split so that only gathers and scatters are per edge.
        By input part, x1 W1 = h_i W1[:d] + e W1[d:2d] + h_j W1[2d:], so the
        node blocks are computed once per node and gathered into both
        directions.  The edge candidate is (hid1 + hid2)/2 wedge + bedge.
        The output projections are linear, so they run after the scatter:
        with S and S' the (node, direction-edge) incidence of the first and
        the last end, a node's candidate sum is
        (S hid) wsrc + (S' hid) wdst + deg (bsrc + bdst), where
        S hid = S_i hid1 + S_j hid2 and S' hid = S_i hid2 + S_j hid1.  Edges
        only join nodes of one prefix, so every product runs on the packed
        rows of the whole batch.  Without update_edges (the last block,
        whose edge features nothing reads) the edge output is None."""
        batch = Prefixes.of(prefixes)
        degrees = batch.degrees
        s, d = hv.data.shape
        isolated = np.flatnonzero(degrees == 0)
        h_iso = T.rows(hv, isolated) if len(isolated) else T.const(np.zeros((0, d)))
        iso = T.relu(T.add(T.matmul(h_iso, conv["wiso"]), conv["biso"]))
        t = len(batch.edge_labels)
        if t == 0:
            return iso, (he if update_edges else None)
        ii, jj = batch.ends
        w1 = conv["w1"]
        first = T.matmul(hv, T.slice_along(w1, 0, 0, d))              # (s, 3d)
        last = T.matmul(hv, T.slice_along(w1, 0, 2 * d, 3 * d))       # (s, 3d)
        mid = T.add(T.matmul(he, T.slice_along(w1, 0, d, 2 * d)), conv["b1"])  # (t, 3d)
        # direction 0 reads (i, e, j), direction 1 reads (j, e, i)
        first_end, last_end = np.concatenate([ii, jj]), np.concatenate([jj, ii])
        pre = T.add(T.rows(first, first_end), T.rows(last, last_end))  # (2t, 3d)
        hid = T.relu(T.add(T.reshape(pre, (2, t, 3 * d)), mid))
        he_new = None
        if update_edges:
            he_new = T.add(T.matmul(T.mul(T.sum_along(hid, 0), T.const(0.5)), conv["wedge"]),
                           conv["bedge"])
        hid = T.reshape(hid, (2 * t, 3 * d))
        sums = T.add(T.add(T.matmul(T.scatter_rows(hid, first_end, s), conv["wsrc"]),
                           T.matmul(T.scatter_rows(hid, last_end, s), conv["wdst"])),
                     T.mul(T.const(degrees[:, None]), T.add(conv["bsrc"], conv["bdst"])))
        counts = 2.0 * degrees
        recip = np.zeros(s)
        np.divide(1.0, counts, out=recip, where=counts > 0)
        # zero on the isolated rows, which take the self-transform instead
        agg = T.relu(T.mul(sums, T.const(recip[:, None])))
        return T.add(agg, T.scatter_rows(iso, isolated, s)), he_new

    def extract_features(self, prefixes) -> Tensor:
        """Node feature rows of a batch of prefixes (or of one), packed in
        order: one-hot labels plus degree normalized within the prefix and
        clustering, projected, then refined by parallel conv/attention
        blocks combined per block by a linear projection.  Attention runs on
        each prefix's rows padded to the batch's largest prefix."""
        c = self.config
        batch = Prefixes.of(prefixes)
        nodes = batch.nodes
        x = np.zeros((nodes.total, c.a + 2))
        x[np.arange(nodes.total), np.concatenate([p.labels for p in batch.items])] = 1.0
        maxdeg = np.maximum.reduceat(batch.degrees, nodes.offsets[:-1])[nodes.owner] \
            if nodes.total else np.zeros(0, dtype=np.int64)
        np.divide(batch.degrees, maxdeg, out=x[:, c.a], where=maxdeg > 0)
        x[:, c.a + 1] = np.concatenate([p.clustering for p in batch.items])
        hv = T.add(T.matmul(T.const(x), self.input_w), self.input_b)
        he = T.rows(self.embed_edge, batch.edge_labels) if len(batch.edge_labels) \
            else T.const(np.zeros((0, c.d_model)))
        # unused grid places get a bucket beyond the attended radius
        dist = nodes.grid([p.dist_idx for p in batch.items], c.radius + 1)
        ctx = A.context_from_distances(dist, max_attend=c.radius, rows=nodes)
        for l, (conv, sub, combine_w, combine_b) in enumerate(self.blocks):
            conv_out, he = self.graph_convolution(hv, he, batch, conv,
                                                  update_edges=l + 1 < len(self.blocks))
            att_out = A.attention_sublayer(hv, ctx, sub)
            hv = T.add(T.matmul(T.concat([conv_out, att_out], axis=-1), combine_w), combine_b)
        return hv

    def graph_pool(self, hv: Tensor, nodes: A.Segments | None = None) -> Tensor:
        """Gated sum of node features, sum_i sigmoid(gate(h_i)) * h_i, over
        each run of nodes (all rows of hv as one run when None): (K, d)."""
        if nodes is None:
            nodes = A.Segments([hv.data.shape[0]])
        hidden = T.relu(T.add(T.matmul(hv, self.pool_w1), self.pool_b1))
        gate = T.sigmoid(T.add(T.matmul(hidden, self.pool_w2), self.pool_b2))
        gated = nodes.pad(T.mul(gate, hv))
        return T.sum_along(T.reshape(gated, (nodes.count, nodes.width, hv.data.shape[1])), 1)

    # -- estimators ----------------------------------------------------------

    def node_logits(self, hg: Tensor) -> Tensor:
        """Node-label logits (K, a + 1) of K graph vectors hg (K, d)."""
        h = T.relu(T.add(T.matmul(hg, self.node_w1), self.node_b1))
        h = T.relu(T.add(T.matmul(h, self.node_w2), self.node_b2))
        return T.add(T.matmul(h, self.node_w3), self.node_b3)

    def node_distribution(self, hg: Tensor) -> np.ndarray:
        """Label distribution over a + 1 classes (last class = stop)."""
        return T.softmax(self.node_logits(hg)).data[0]

    # -- teacher-forced steps ---------------------------------------------------

    def teacher_forced(self, og: OrderedGraph, steps) -> TeacherForced:
        """The logits the model assigns at the given ascending steps when
        conditioned on the ground truth (no sampled feedback), all in one
        pass: each step's next-node label (K rows) and, for the steps below
        n, the edges to its candidates, decided in order."""
        steps = [int(s) for s in steps]
        batch = Prefixes([og.prefix(s) for s in steps])
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
        return TeacherForced(node_logits, step.candidates, codes, logits, StepCounters(
            node_steps=len(steps), edge_steps=len(edge_steps), edge_decisions=len(codes),
            key_pairs=pairs, alpha_sum=alpha,
            beta_sum=sum(s - p.frontier_lo for s, p in zip(edge_steps, batch.items)),
            dropped_edges=int(np.isin(og.edges[:, 1], edge_steps).sum()) - alpha))


class EdgeStep:
    """The edge estimator of a batch of generation steps, and the one place
    that maps the model's variant to its policy.

    Built from the packed node features hv and graph vectors hg (K, d) of
    a batch of prefixes, and the new nodes' labels: K' labels for the
    first K' prefixes (the sampler passes one label and one prefix).  A
    step's candidates are its prefix's frontier [prefix.frontier_lo, s)
    under B and AB and every earlier position otherwise; under A and AB
    only candidates that receive an edge become attention keys
    (restrict).  candidates holds every step's positions in turn, and runs
    (an attention.Segments) says which are whose.  Candidate j's key and
    value input is [hv_j | embed_node(label) | embed_edge(code_j)], so the
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

    def __init__(self, model: Model, hv: Tensor, hg: Tensor, new_labels, prefixes):
        c = model.config
        d = c.d_model
        labels = np.asarray(new_labels, dtype=np.int64).reshape(-1)
        batch = Prefixes.of(prefixes)
        items = batch.items[:len(labels)]
        starts = [p.frontier_lo if c.variant in ("B", "AB") else 0 for p in items]
        self.candidates = np.concatenate(
            [np.arange(lo, p.n, dtype=np.int64) for lo, p in zip(starts, items)])
        runs = self.runs = A.Segments([p.n - lo for lo, p in zip(starts, items)])
        self.model = model
        self.restrict = c.variant in ("A", "AB")
        self.dist = runs.grid([p.dist_idx[lo:, lo:] for lo, p in zip(starts, items)], 0)
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
        step_base = T.add(T.add(T.matmul(T.slice_along(hg, 0, 0, runs.count), w1[1]),
                                T.matmul(hvs, w1[2])), model.edge_b1)   # (K', d)
        self.base = T.add(T.matmul(hc, w1[0]), T.rows(step_base, runs.owner))  # (t, d)
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
        he_hist = A.attend(q, k, v, q_table, m.edge_attn.key_table(k), ctx,
                           m.edge_attn, on_empty="zero")
        h = T.relu(T.add(base, T.matmul(he_hist, self.w1_hist)))
        h = T.relu(T.add(T.matmul(h, m.edge_w2), m.edge_b2))
        return T.add(T.matmul(h, m.edge_w3), m.edge_b3), int(allowed.sum())
