"""The generative network: parallel graph-conv/attention feature blocks,
gated graph pooling, a node-label estimator, and an edge-label estimator
driven by source-target attention over the edges already decided this step.

Four variants control the edge estimation work per step:
  plain - all previous nodes are edge candidates, full attention history
  A     - attention keys restricted to nodes that actually received an edge
  B     - candidates restricted to the BFS frontier
  AB    - both reductions combined
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import attention as A
from . import tensor as T
from . import graphs as G
from .kernels import capped_distances
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
        if self.blocks < 1 or self.radius < 1 or self.seed_size < 1:
            raise ModelError("blocks, radius, and seed_size must be >= 1")
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
    """Instrumentation for one generation step."""
    candidates: int = 0   # edge decisions taken this step
    key_pairs: int = 0    # (query, key) pairs evaluated in edge attention
    alpha: int = 0        # candidates that truly receive an edge
    beta: int = 0         # frontier size
    dropped_edges: int = 0  # true edges falling outside the candidate set


@dataclass
class StepOutput:
    """Distributions produced at one step under teacher forcing."""
    node_dist: np.ndarray                 # (a + 1,), index a is the stop class
    edge_dists: list                      # [(candidate, (b + 1,) array)], index b = no edge
    counters: StepCounters


@dataclass
class Prefix:
    """The already-generated part of a graph, in generation-order positions."""
    labels: np.ndarray       # (s,) int
    edge_array: np.ndarray   # (t, 3) int rows (i, j, label), i < j
    dist_idx: np.ndarray     # (s, s) distance buckets, capped at radius + 1
    degrees: np.ndarray      # (s,) within-prefix degree
    clustering: np.ndarray   # (s,) within-prefix clustering coefficient

    @property
    def n(self) -> int:
        return len(self.labels)


def build_prefix(labels, edges, radius: int) -> Prefix:
    """Assemble a Prefix from position-space labels and edges."""
    labels = np.asarray(labels, dtype=np.int64)
    s = len(labels)
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    deg = np.zeros(s, dtype=np.int64)
    indptr = np.zeros(s + 1, dtype=np.int64)
    for i, j, _ in edge_array:
        deg[i] += 1
        deg[j] += 1
    indptr[1:] = np.cumsum(deg)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    fill = indptr[:-1].copy()
    for i, j, _ in edge_array:
        indices[fill[i]] = j
        fill[i] += 1
        indices[fill[j]] = i
        fill[j] += 1
    dist = capped_distances(indptr, indices, s, radius)
    clus = np.zeros(s, dtype=np.float64)
    if len(edge_array):
        mat = np.zeros((s, s), dtype=np.uint8)
        mat[edge_array[:, 0], edge_array[:, 1]] = 1
        mat[edge_array[:, 1], edge_array[:, 0]] = 1
        for v in range(s):
            if deg[v] < 2:
                continue
            nbrs = np.flatnonzero(mat[v])
            links = int(mat[np.ix_(nbrs, nbrs)].sum()) // 2
            clus[v] = 2.0 * links / (deg[v] * (deg[v] - 1))
    return Prefix(labels, edge_array, dist, deg, clus)


class OrderedGraph:
    """A training graph relabeled into generation order, with per-step
    prefix construction and ground-truth lookups."""

    def __init__(self, g: G.LabeledGraph, ordering: G.NodeOrdering, radius: int):
        self.graph = G.apply_ordering(g, ordering)
        self.radius = radius
        self.n = self.graph.n
        self.labels = np.asarray(self.graph.node_labels, dtype=np.int64)
        # edges sorted by their later endpoint; a prefix of this list is the
        # edge set of every generation prefix
        edges = sorted(self.graph.edges, key=lambda e: (e[1], e[0]))
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self._later = [e[1] for e in edges]
        # lower neighbors of each position with their edge labels
        self.lower = [[] for _ in range(self.n)]
        for u, v, lab in edges:
            self.lower[v].append((int(u), int(lab)))
        for lst in self.lower:
            lst.sort()

    def prefix(self, s: int) -> Prefix:
        k = bisect.bisect_left(self._later, s)
        return build_prefix(self.labels[:s], self._edges[:k], self.radius)

    def frontier_lo(self, s: int) -> int:
        """Smallest position adjacent to position s - 1 (s - 1 if none)."""
        lows = self.lower[s - 1]
        return lows[0][0] if lows else s - 1

    def edge_label_codes(self, s: int, positions) -> np.ndarray:
        """Ground-truth edge codes between position s and the given earlier
        positions: the edge label, or b for no edge."""
        lookup = dict(self.lower[s])
        b = self.graph.b
        return np.array([lookup.get(int(t), b) for t in positions], dtype=np.int64)


@dataclass
class CandidatePlan:
    candidates: np.ndarray
    restrict_keys_to_edges: bool
    beta: int


def edge_candidates(og: OrderedGraph, s: int, variant: str) -> CandidatePlan:
    """Edge-candidate positions for the node at position s and the
    attention-key policy of the given variant."""
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r}")
    lo = og.frontier_lo(s)
    beta = s - lo
    if variant in ("B", "AB"):
        cands = np.arange(lo, s, dtype=np.int64)
    else:
        cands = np.arange(0, s, dtype=np.int64)
    return CandidatePlan(cands, variant in ("A", "AB"), beta)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class Model:
    """Holds the configuration and all trainable parameters, plus the
    forward computations for feature extraction and both estimators."""

    def __init__(self, config: ModelConfig, init_seed: int = 0):
        self.config = config
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(init_seed)
        c = config
        d, ds, h = c.d_model, c.d_s, c.heads
        buckets = c.radius + 2

        def w(name, shape):
            p = Parameter(name, glorot(rng, shape))
            self.params[name] = p
            return p.tensor

        def zeros(name, shape):
            p = Parameter(name, np.zeros(shape))
            self.params[name] = p
            return p.tensor

        def ones(name, shape):
            p = Parameter(name, np.ones(shape))
            self.params[name] = p
            return p.tensor

        self.embed_node = w("embed.node", (c.a + 2, d))
        self.embed_edge = w("embed.edge", (c.b + 2, d))
        self.input_w = w("input.w", (c.a + 2, d))
        self.input_b = zeros("input.b", (d,))

        def attn_params(prefix, dq, dk, dv, use_bias):
            return A.GraphAttentionParams(
                wq=[w(f"{prefix}.h{i}.wq", (ds, dq)) for i in range(h)],
                wk=[w(f"{prefix}.h{i}.wk", (ds, dk)) for i in range(h)],
                wv=[w(f"{prefix}.h{i}.wv", (ds, dv)) for i in range(h)],
                bq=[zeros(f"{prefix}.h{i}.bq", (buckets, ds)) for i in range(h)],
                bk=[zeros(f"{prefix}.h{i}.bk", (buckets, ds)) for i in range(h)],
                bv=[zeros(f"{prefix}.h{i}.bv", (buckets, ds)) for i in range(h)],
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

    def graph_convolution(self, hv: Tensor, he: Tensor, prefix: Prefix, conv) -> tuple:
        """One conv layer: every edge pushes a transformed (node, edge, node)
        triple through an FNN; nodes average the candidate vectors of their
        incident edges (both directions), isolated nodes take a learned
        self-transform; edges keep the middle candidate."""
        iso = T.relu(T.add(T.matmul(hv, conv["wiso"]), conv["biso"]))
        t_cnt = len(prefix.edge_array)
        if t_cnt == 0:
            return iso, he
        ii = prefix.edge_array[:, 0]
        jj = prefix.edge_array[:, 1]
        hi = T.rows(hv, ii)
        hj = T.rows(hv, jj)
        x1 = T.concat([hi, he, hj], axis=-1)
        x2 = T.concat([hj, he, hi], axis=-1)
        hid1 = T.relu(T.add(T.matmul(x1, conv["w1"]), conv["b1"]))
        hid2 = T.relu(T.add(T.matmul(x2, conv["w1"]), conv["b1"]))
        f1_src = T.add(T.matmul(hid1, conv["wsrc"]), conv["bsrc"])
        f1_edge = T.add(T.matmul(hid1, conv["wedge"]), conv["bedge"])
        f1_dst = T.add(T.matmul(hid1, conv["wdst"]), conv["bdst"])
        f2_src = T.add(T.matmul(hid2, conv["wsrc"]), conv["bsrc"])
        f2_edge = T.add(T.matmul(hid2, conv["wedge"]), conv["bedge"])
        f2_dst = T.add(T.matmul(hid2, conv["wdst"]), conv["bdst"])
        he_new = T.mul(T.add(f1_edge, f2_edge), T.const(0.5))
        s = prefix.n
        scat_i = np.zeros((s, t_cnt))
        scat_j = np.zeros((s, t_cnt))
        scat_i[ii, np.arange(t_cnt)] = 1.0
        scat_j[jj, np.arange(t_cnt)] = 1.0
        sums = T.add(T.matmul(T.const(scat_i), T.add(f1_src, f2_dst)),
                     T.matmul(T.const(scat_j), T.add(f1_dst, f2_src)))
        counts = 2.0 * prefix.degrees
        recip = np.zeros(s)
        np.divide(1.0, counts, out=recip, where=counts > 0)
        agg = T.relu(T.mul(sums, T.const(recip[:, None])))
        has_edge = (prefix.degrees > 0).astype(np.float64)[:, None]
        hv_new = T.add(T.mul(agg, T.const(has_edge)), T.mul(iso, T.const(1.0 - has_edge)))
        return hv_new, he_new

    def extract_features(self, prefix: Prefix) -> Tensor:
        """Node feature matrix of the prefix: one-hot labels plus normalized
        degree and clustering, projected, then refined by parallel
        conv/attention blocks combined per block by a linear projection."""
        c = self.config
        s = prefix.n
        x = np.zeros((s, c.a + 2))
        x[np.arange(s), prefix.labels] = 1.0
        maxdeg = prefix.degrees.max() if s else 0
        if maxdeg > 0:
            x[:, c.a] = prefix.degrees / maxdeg
        x[:, c.a + 1] = prefix.clustering
        hv = T.add(T.matmul(T.const(x), self.input_w), self.input_b)
        he = T.rows(self.embed_edge, prefix.edge_array[:, 2]) if len(prefix.edge_array) \
            else T.const(np.zeros((0, c.d_model)))
        ctx = A.context_from_distances(prefix.dist_idx, max_attend=c.radius)
        for conv, sub, combine_w, combine_b in self.blocks:
            conv_out, he = self.graph_convolution(hv, he, prefix, conv)
            att_out = A.attention_sublayer(hv, ctx, sub)
            hv = T.add(T.matmul(T.concat([conv_out, att_out], axis=-1), combine_w), combine_b)
        return hv

    def graph_pool(self, hv: Tensor) -> Tensor:
        """Gated sum of node features: sum_i sigmoid(gate(h_i)) * h_i."""
        hidden = T.relu(T.add(T.matmul(hv, self.pool_w1), self.pool_b1))
        gate = T.sigmoid(T.add(T.matmul(hidden, self.pool_w2), self.pool_b2))
        return T.sum_along(T.mul(gate, hv), 0, keepdims=True)

    # -- estimators ----------------------------------------------------------

    def node_logits(self, hg: Tensor) -> Tensor:
        h = T.relu(T.add(T.matmul(hg, self.node_w1), self.node_b1))
        h = T.relu(T.add(T.matmul(h, self.node_w2), self.node_b2))
        return T.add(T.matmul(h, self.node_w3), self.node_b3)

    def node_distribution(self, hg: Tensor) -> np.ndarray:
        """Label distribution over a + 1 classes (last class = stop)."""
        return T.softmax(self.node_logits(hg)).data[0]

    # -- one teacher-forced step, for inspection and tests --------------------

    def teacher_forced_step(self, og: OrderedGraph, s: int) -> StepOutput:
        """Distributions the model assigns at step s when conditioned on the
        ground truth (no sampled feedback)."""
        c = self.config
        prefix = og.prefix(s)
        hv = self.extract_features(prefix)
        hg = self.graph_pool(hv)
        node_dist = T.softmax(self.node_logits(hg)).data[0]
        counters = StepCounters()
        edge_dists = []
        if s < og.n:
            plan = edge_candidates(og, s, c.variant)
            key_codes = og.edge_label_codes(s, plan.candidates)
            step = EdgeStep(self, hv, hg, int(og.labels[s]), plan.candidates,
                            prefix.dist_idx, plan.restrict_keys_to_edges)
            logits, pairs = step.edge_logits_teacher(key_codes)
            dists = T.softmax(logits).data
            edge_dists = [(int(t), dists[i]) for i, t in enumerate(plan.candidates)]
            counters.candidates = len(plan.candidates)
            counters.key_pairs = pairs
            counters.alpha = int((key_codes < c.b).sum())
            counters.beta = plan.beta
            counters.dropped_edges = len(og.lower[s]) - counters.alpha
        return StepOutput(node_dist, edge_dists, counters)


class EdgeStep:
    """The edge estimator of one generation step.

    Built from the node features hv, the graph vector hg, the new node's
    label, the candidate positions, the prefix's distance buckets and the
    key policy (restrict: only candidates that receive an edge become
    attention keys).  Candidate j's key and value input is
    [hv_j | embed_node(label) | embed_edge(code_j)], so the projections
    split by input part: a candidate row, the new node's row, and a table
    over all b + 2 edge codes.  These, the candidates' queries, the query
    side bias table and the constant part of the edge MLP's first layer,
    hv_j W1[:d] + hg W1[d:2d] + embed_node(label) W1[2d:3d] + b1, are
    computed once per step.

    Training scores all candidates at once (edge_logits_teacher, on the
    tape).  Sampling decides them one by one and runs eagerly: reset()
    starts an attempt, logits(i) attends with candidate i's query over the
    keys kept so far, and decide(i, code) adds one key/value row when the
    key policy keeps the decision.
    """

    def __init__(self, model: Model, hv: Tensor, hg: Tensor, new_label: int,
                 candidates, dist_idx: np.ndarray, restrict: bool):
        c = model.config
        d = c.d_model
        cands = np.asarray(candidates, dtype=np.int64)
        self.model = model
        self.restrict = restrict
        self.dist = dist_idx[np.ix_(cands, cands)]
        self.heads = ht = model.edge_attn.stacked()

        def split(w, parts):  # the input-part blocks of stacked (H, d_S, parts * d) weights
            return [T.slice_along(w, -1, k * d, (k + 1) * d) for k in range(parts)]

        hc = T.rows(hv, cands)
        hvs = T.rows(model.embed_node, [new_label])
        inputs = (hc, hvs, model.embed_edge)
        wq = split(ht.wq, 2)
        self.q = T.add(A.project(hc, wq[0]), A.project(hvs, wq[1]))    # (H, t, d_S)
        kc, kn, self.ke = (A.project(x, w) for x, w in zip(inputs, split(ht.wk, 3)))
        vc, vn, self.ve = (A.project(x, w) for x, w in zip(inputs, split(ht.wv, 3)))
        self.kc, self.vc = T.add(kc, kn), T.add(vc, vn)                 # code part missing
        self.q_table = ht.query_table(self.q)
        w1 = [T.slice_along(model.edge_w1, 0, k * d, (k + 1) * d) for k in range(4)]
        self.base = T.add(T.add(T.add(T.matmul(hc, w1[0]), T.matmul(hg, w1[1])),
                                T.matmul(hvs, w1[2])), model.edge_b1)  # (t, d)
        self.w1_hist = w1[3]
        self._rows = None

    def _logits(self, base: Tensor, he_hist: Tensor) -> Tensor:
        m = self.model
        h = T.relu(T.add(base, T.matmul(he_hist, self.w1_hist)))
        h = T.relu(T.add(T.matmul(h, m.edge_w2), m.edge_b2))
        return T.add(T.matmul(h, m.edge_w3), m.edge_b3)

    def edge_logits_teacher(self, key_codes: np.ndarray):
        """Edge logits for all candidates at once.

        Candidate i attends over candidates j < i whose ground-truth edge
        code is key_codes[j] (the A-policy masks keys without an edge);
        causal masking makes this equal to deciding candidates one by one.
        Returns (logits (t, b + 1), attended key pair count).
        """
        key_codes = np.asarray(key_codes, dtype=np.int64)
        t = len(key_codes)
        pick = np.zeros((t, self.ke.data.shape[1]))
        pick[np.arange(t), key_codes] = 1.0
        k = T.add(self.kc, T.matmul(T.const(pick), self.ke))
        v = T.add(self.vc, T.matmul(T.const(pick), self.ve))
        allowed = np.tril(np.ones((t, t), dtype=bool), k=-1)
        if self.restrict:
            allowed &= (key_codes < self.model.config.b)[None, :]
        ctx = A.AttentionContext(self.dist, allowed)
        he_hist = A.attend(self.q, k, v, self.q_table, self.heads.key_table(k), ctx,
                           self.heads, on_empty="zero")
        return self._logits(self.base, he_hist), int(allowed.sum())

    def reset(self):
        """Start a sampling attempt with no decision kept."""
        if self._rows is None:
            # key, value and key-table rows of every (candidate, code) pair
            keys = self.kc.data[:, :, None, :] + self.ke.data[:, None, :, :]
            values = self.vc.data[:, :, None, :] + self.ve.data[:, None, :, :]
            table = None
            if self.heads.use_bias:
                table = keys @ np.swapaxes(self.heads.bq.data, -1, -2)[:, None]
            self._rows = (keys, values, table)
            heads, t, d_s = self.q.data.shape
            self._kept = (np.empty((heads, t, d_s)), np.empty((heads, t, d_s)),
                          None if table is None else np.empty((heads, t, table.shape[-1])))
            self._pos = np.empty(t, dtype=np.int64)
        self._count = 0

    def decide(self, i: int, code: int):
        """Record candidate i's decision; it becomes a key unless the key
        policy drops decisions without an edge."""
        if self.restrict and code >= self.model.config.b:
            return
        m = self._count
        for rows, kept in zip(self._rows, self._kept):
            if rows is not None:
                kept[:, m] = rows[:, i, code]
        self._pos[m] = i
        self._count = m + 1

    def logits(self, i: int) -> Tensor:
        """Edge logits (1, b + 1) of candidate i given the kept decisions."""
        base = T.const(self.base.data[i:i + 1])
        m = self._count
        if m == 0:  # empty history: exactly zero
            return self._logits(base, T.const(np.zeros((1, self.model.config.d_model))))
        keys, values, table = (None if a is None else T.const(a[:, :m]) for a in self._kept)
        q_table = None if self.q_table is None else T.const(self.q_table.data[:, i:i + 1])
        ctx = A.AttentionContext(self.dist[i:i + 1, self._pos[:m]], np.ones((1, m), dtype=bool))
        he_hist = A.attend(T.const(self.q.data[:, i:i + 1]), keys, values, q_table, table,
                           ctx, self.heads)
        return self._logits(base, he_hist)
