"""Corpus-level evaluation: a neighborhood-subgraph pairwise-distance graph
kernel feeding a squared maximum mean discrepancy, topological MMDs over
degree/clustering/orbit statistics, and uniqueness/novelty ratios.

Every graph hash is a splitmix64 mix over uint64 arrays with wrapping
arithmetic, so feature keys and fingerprints are stable across processes,
and a multiset is hashed as the wrapping sum of its mixed elements.  Hash
collisions between non-isomorphic structures are accepted as an
approximation.

The NSPDK kernel is a dot product of per-cell-normalized count vectors
phi(G), so the biased squared GK-MMD equals the squared distance between the
two corpora's mean feature vectors (a kernel mean embedding):
MMD^2 = sum over cells of ||mean_P phi_c - mean_Q phi_c||^2.  `gk_mmd2`
featurizes each graph once and computes that, with no kernel pair; the
pairwise kernel and MMD it equals are the reference in tests/conftest.py.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .graphs import LabeledGraph

NSPDK_RADIUS = 3
NSPDK_DISTANCE = 4
SUBSAMPLE_LIMIT = 200
SUBSAMPLE_SIZE = 100
SUBSAMPLE_DRAWS = 10
REFINEMENTS = 3  # label-refinement rounds of a rooted neighborhood hash


class EvalError(ValueError):
    pass


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(x) -> np.ndarray:
    """splitmix64 of each element as a uint64 array; the products wrap.  At
    least one-dimensional, because numpy scalar products warn on overflow."""
    z = np.atleast_1d(np.asarray(x, dtype=np.uint64)) + _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z


def _mix2(a, b) -> np.ndarray:
    """Hash of the ordered pair (a, b), elementwise."""
    return _mix(_mix(a) ^ np.asarray(b, dtype=np.uint64))


class _GraphArrays(NamedTuple):
    """The arrays of one graph that its metrics read, built once per graph
    and evaluation call."""
    labels: np.ndarray  # (n,) uint64 node labels
    edges: np.ndarray  # (m, 3) int64 rows (u, v, edge label), u < v
    adj: Optional[np.ndarray] = None  # (n, n) float64 0/1 adjacency
    deg: Optional[np.ndarray] = None  # (n,) int64 degrees


def _graph_arrays(g: LabeledGraph, dense: bool = True) -> _GraphArrays:
    """g's labels and edge rows, with its adjacency and degrees if dense."""
    labels = np.array(g.node_labels, dtype=np.uint64)
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
    if not dense:
        return _GraphArrays(labels, edges)
    adj = np.zeros((g.n, g.n))
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    return _GraphArrays(labels, edges, adj, np.bincount(edges[:, :2].ravel(), minlength=g.n))


# ---------------------------------------------------------------------------
# graph kernel
# ---------------------------------------------------------------------------

@dataclass
class FeatureMap:
    """Sparse per-cell feature counts of one graph; cell (r', d') holds the
    subgraph-pair keys at neighborhood radius r' and root distance d'."""
    r_max: int
    d_max: int
    cells: dict  # (r', d') -> (sorted int64 keys, float64 counts, self dot)


def _root_hashes(dist, node_labels, edges, r_max) -> np.ndarray:
    """Hash of every node's neighborhood at every radius r' <= r_max, as an
    (r_max + 1, n) array, by label refinement inside each ball; the balls of
    all radii and roots are refined together.  Members are the (r', root,
    node) triples with node within r' of root, laid out radius-major; a
    member's initial color carries its distance from the root, so the root
    is distinguished, and each round mixes a color with the multiset of
    (edge label, neighbor color) over the edges inside the ball, those whose
    farther end lies within r'.  `edges` holds each edge once as a row
    (source, target, label)."""
    n = len(dist)
    radii = np.arange(r_max + 1, dtype=dist.dtype)
    flat = np.flatnonzero(dist <= radii[:, None, None])  # (r' * n + root) * n + node
    member = np.empty(len(radii) * n * n, dtype=np.int32)
    member[flat] = np.arange(len(flat), dtype=np.int32)
    src, dst, elab = edges.T
    reach = np.maximum(dist[:, src], dist[:, dst])  # (root, edge)
    ball, e = np.divmod(np.flatnonzero(reach <= radii[:, None, None]), len(edges))
    a, b = member[ball * n + src[e]], member[ball * n + dst[e]]
    at, nbr = np.concatenate([a, b]), np.concatenate([b, a])
    elab = np.tile(_mix(elab)[e], 2)  # _mix2(label, c) == _mix(_mix(label) ^ c)
    pos = flat % (n * n)  # root * n + node
    color = _mix2(dist.ravel()[pos], node_labels[pos % n])
    for _ in range(REFINEMENTS):
        ring = np.zeros(len(color), dtype=np.uint64)
        np.add.at(ring, at, _mix(elab ^ color[nbr]))
        color = _mix2(color, ring)
    starts = np.searchsorted(flat, np.arange(len(radii) * n) * n)  # each root is a member
    return _mix2(np.repeat(radii, n), np.add.reduceat(color, starts)).reshape(len(radii), n)


def nspdk_features(g: LabeledGraph, r_max: int = NSPDK_RADIUS,
                   d_max: int = NSPDK_DISTANCE) -> FeatureMap:
    """Count, for every node pair within distance d_max and every radius
    r' <= r_max, the canonical hash pair of the two rooted neighborhood
    subgraphs (node and edge labels included)."""
    if r_max < 0 or d_max < 0:
        raise EvalError("radius and distance bounds must be >= 0")
    return _features(_graph_arrays(g), r_max, d_max)


def _features(arrays: _GraphArrays, r_max: int, d_max: int) -> FeatureMap:
    """nspdk_features of the graph with these arrays."""
    n, cap = len(arrays.labels), max(r_max, d_max, 1)
    if n == 0:
        return FeatureMap(r_max, d_max, {})
    dist = kernels.capped_distances(arrays.adj, cap).astype(np.min_scalar_type(cap + 1))
    hashes = _root_hashes(dist, arrays.labels, arrays.edges, r_max)
    # the pairs u <= v within d_max, grouped by their distance
    upper = np.arange(n)[:, None] <= np.arange(n)
    at_d = dist == np.arange(d_max + 1, dtype=dist.dtype)[:, None, None]
    d, pair = np.divmod(np.flatnonzero(at_d & upper), n * n)
    u, v = np.divmod(pair, n)
    hu, hv = hashes[:, u], hashes[:, v]
    keys = _mix2(np.minimum(hu, hv), np.maximum(hu, hv)).view(np.int64)
    # sort within each cell (r', d'): one call per distance sorts every radius
    bounds = np.searchsorted(d, np.arange(d_max + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keys[:, lo:hi].sort(axis=1)
    keys = keys.ravel()
    cell = (np.arange(r_max + 1)[:, None] * (d_max + 1) + d).ravel()
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (cell[1:] != cell[:-1])
    first = np.flatnonzero(new)
    counts = np.diff(np.append(first, len(keys))).astype(np.float64)
    keys, cell = keys[first], cell[first]
    lo = np.flatnonzero(np.diff(cell, prepend=-1))
    hi = np.append(lo[1:], len(cell))
    dots = np.add.reduceat(counts * counts, lo)
    cells = {divmod(c, d_max + 1): (keys[s:t], counts[s:t], dot)
             for c, s, t, dot in zip(cell[lo].tolist(), lo.tolist(), hi.tolist(), dots.tolist())}
    return FeatureMap(r_max, d_max, cells)


def _cell_entries(feats, cd):
    """(keys, phi values) of cell cd over a list of feature maps, where
    phi = counts / sqrt(self dot * number of cells of the graph)."""
    keys, vals = [], []
    for f in feats:
        cell = f.cells.get(cd)
        if cell is not None:
            keys.append(cell[0])
            vals.append(cell[1] / np.sqrt(cell[2] * len(f.cells)))
    if not keys:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(keys), np.concatenate(vals)


def feature_mmd2(feats_p, feats_q) -> float:
    """mmd_squared(feats_p, feats_q, nspdk_kernel), the pairwise reference in
    tests/conftest.py, as the squared distance between the mean embeddings,
    reduced one cell at a time over the union of the cell's keys.
    Identical lists give exactly 0."""
    if not feats_p or not feats_q:
        raise EvalError("MMD needs non-empty sample sets")
    bounds = {(f.r_max, f.d_max) for f in feats_p + feats_q}
    if len(bounds) > 1:
        raise EvalError(f"feature maps built with different bounds: {sorted(bounds)}")
    total = 0.0
    for cd in sorted(set().union(*(f.cells for f in feats_p + feats_q))):
        keys_p, phi_p = _cell_entries(feats_p, cd)
        keys_q, phi_q = _cell_entries(feats_q, cd)
        # return_counts keeps np.unique on its sort path: its hash path (numpy
        # 2.3+) takes about twice as long on these keys and imports numpy.ma (~1 MB)
        vocab = np.unique(np.concatenate([keys_p, keys_q]), return_counts=True)[0]
        mean_p = np.bincount(np.searchsorted(vocab, keys_p), phi_p,
                             minlength=len(vocab)) / len(feats_p)
        mean_q = np.bincount(np.searchsorted(vocab, keys_q), phi_q,
                             minlength=len(vocab)) / len(feats_q)
        diff = mean_p - mean_q
        total += float(diff @ diff)
    return total


def _subsample_draws(n_p: int, n_q: int, seed: int):
    """The (picks of P, picks of Q) draws that gk_mmd2 averages over: one
    draw of every graph when no corpus has more than SUBSAMPLE_LIMIT graphs,
    the direct path, else SUBSAMPLE_DRAWS seeded subsamples."""
    if max(n_p, n_q) <= SUBSAMPLE_LIMIT:
        return [(np.arange(n_p), np.arange(n_q))]
    rng = np.random.default_rng(seed)
    return [(rng.choice(n_p, min(SUBSAMPLE_SIZE, n_p), replace=False),
             rng.choice(n_q, min(SUBSAMPLE_SIZE, n_q), replace=False))
            for _ in range(SUBSAMPLE_DRAWS)]


def _drawn(draws, side: int):
    """Indices of the graphs of one side (0 for P, 1 for Q) that the draws
    use, ascending."""
    return sorted(set(np.concatenate([d[side] for d in draws]).tolist()))


def _gk_value(feats_p: dict, feats_q: dict, draws) -> float:
    """gk_mmd2 from the feature maps of the drawn graphs, keyed by index."""
    return float(np.mean([feature_mmd2([feats_p[i] for i in p], [feats_q[i] for i in q])
                          for p, q in draws]))


def gk_mmd2(set_p, set_q, seed: int = 0) -> float:
    """Squared MMD under the graph kernel.  Corpora larger than
    SUBSAMPLE_LIMIT are evaluated on seeded subsamples of SUBSAMPLE_SIZE,
    averaged over SUBSAMPLE_DRAWS draws; each drawn graph is featurized
    once.  The subsampled estimate carries sampling noise (identical
    corpora come out exactly 0 only on the direct path)."""
    if not set_p or not set_q:
        raise EvalError("MMD needs non-empty sample sets")
    draws = _subsample_draws(len(set_p), len(set_q), seed)
    feats = [{i: nspdk_features(graphs[i]) for i in _drawn(draws, side)}
             for side, graphs in enumerate((set_p, set_q))]
    return _gk_value(*feats, draws)


# ---------------------------------------------------------------------------
# topological statistics
# ---------------------------------------------------------------------------

STATISTICS = ("degree", "clustering", "orbit")
CLUSTERING_BINS = 100
STAT_SIGMA = 1.0


def _degree_hists(degs) -> list:
    """Degree histograms of a list of degree vectors, on a shared range."""
    top = max(int(d.max()) if len(d) else 0 for d in degs)
    return [np.bincount(d, minlength=top + 1) / max(len(d), 1) for d in degs]


def _clustering_hist(clus: np.ndarray) -> np.ndarray:
    hist, _ = np.histogram(clus, bins=CLUSTERING_BINS, range=(0.0, 1.0))
    return hist / max(len(clus), 1)


def _orbit_hist(counts: np.ndarray) -> np.ndarray:
    """The mean orbit counts of a graph's nodes, normalised to sum to 1."""
    mean = counts.mean(axis=0) if len(counts) else np.zeros(11)
    total = mean.sum()
    return mean / total if total > 0 else mean


def _gaussian_emd_gram(hists: np.ndarray) -> np.ndarray:
    """Gram matrix exp(-W1^2 / (2 sigma^2)) over the rows of `hists`, where
    W1 between two histograms is the L1 distance between their cumulative
    sums.  One row at a time, so no (rows, rows, bins) temporary is held."""
    cum = np.cumsum(hists, axis=1)
    w = np.array([np.abs(cum - row).sum(axis=1) for row in cum])
    return np.exp(-w * w / (2.0 * STAT_SIGMA * STAT_SIGMA))


def _hist_mmd(hp: list, hq: list) -> float:
    gram = _gaussian_emd_gram(np.vstack(hp + hq))
    n = len(hp)
    val = gram[:n, :n].mean() - 2.0 * gram[:n, n:].mean() + gram[n:, n:].mean()
    return max(0.0, float(val))  # numerical floor; identical sets cancel exactly


def statistic_mmd(set_p, set_q, statistic: str) -> float:
    """Squared MMD between per-graph histograms of a topology statistic,
    with a Gaussian kernel over the first Wasserstein distance."""
    if not set_p or not set_q:
        raise EvalError("MMD needs non-empty sample sets")
    if statistic not in STATISTICS:
        raise EvalError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    return _stat_mmd(_summarize(set_p, ())[0], _summarize(set_q, ())[0], statistic)


# ---------------------------------------------------------------------------
# uniqueness / novelty
# ---------------------------------------------------------------------------

def _fingerprints(graphs, arrays) -> list:
    """Whole-graph hashes of graphs with these arrays, by iterative
    neighborhood-label refinement with node and edge labels folded in, all
    graphs refined together.  Each round mixes every node's color with the
    multiset of (edge label, neighbor color) around it, and a graph stops
    after the round that leaves its number of distinct colors unchanged, or
    after max(1, n) rounds, so its hash is the one it gets refined alone.
    The graphs still refining share each round; a graph's colors are
    counted by sorting its row of a padded (graphs, largest n) table, whose
    padding repeats the graph's last node."""
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    node_graph = np.repeat(np.arange(len(graphs)), sizes)
    colors = _mix(np.concatenate([a.labels for a in arrays] + [np.empty(0, np.uint64)]))
    m = [len(a.edges) for a in arrays]
    edges = np.concatenate([a.edges for a in arrays] + [np.empty((0, 3), np.int64)])
    ends = edges[:, :2] + np.repeat(starts, m)[:, None]
    src, dst = np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]])
    elab = np.tile(edges[:, 2], 2)
    edge_graph = node_graph[src]
    width = int(sizes.max(initial=0))
    padded = starts[:, None] + np.minimum(np.arange(width), sizes[:, None] - 1)

    def distinct(rows):
        table = np.sort(colors[padded[rows]], axis=1)
        return 1 + np.count_nonzero(table[:, 1:] != table[:, :-1], axis=1)

    active = np.flatnonzero(sizes > 0)  # an empty graph has nothing to refine
    counts = distinct(active)
    rounds = 0
    while len(active):
        rounds += 1
        live = np.zeros(len(graphs), dtype=bool)
        live[active] = True
        nodes, on = np.flatnonzero(live[node_graph]), live[edge_graph]
        ring = np.zeros(len(colors), dtype=np.uint64)
        np.add.at(ring, src[on], _mix2(elab[on], colors[dst[on]]))
        colors[nodes] = _mix2(colors[nodes], ring[nodes])
        now = distinct(active)
        going = (now != counts) & (rounds < sizes[active])
        active, counts = active[going], now[going]
    sums = np.zeros(len(graphs), dtype=np.uint64)
    np.add.at(sums, node_graph, colors)
    heads = _mix2(_mix2(sizes, [g.a for g in graphs]), [g.b for g in graphs])
    return _mix2(heads, sums).view(np.int64).tolist()


def _ratios(fps: list, train_fps: list):
    """(unique, novel) of the samples' fingerprints: the fractions of the
    samples that are distinct, and distinct and absent from training."""
    distinct = set(fps)
    return len(distinct) / len(fps), len(distinct - set(train_fps)) / len(fps)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    gk_mmd2: float
    degree_mmd2: float
    clustering_mmd2: float
    orbit_mmd2: float
    unique_ratio: float
    novel_ratio: Optional[float]
    n_generated: int
    n_reference: int
    # seconds of the shared pass over the graphs, then of each metric: graphs,
    # gk, degree, clustering, orbit, uniqueness_novelty.  Outside FIELDS and
    # equality, so reports of one seed stay identical.
    timing: dict = field(default_factory=dict, compare=False)
    # distinct graphs of each corpus (generated, reference, train), each
    # summarised once; outside FIELDS and equality as timing is.
    distinct: dict = field(default_factory=dict, compare=False)

    FIELDS = ("gk_mmd2", "degree_mmd2", "clustering_mmd2", "orbit_mmd2",
              "unique_ratio", "novel_ratio", "n_generated", "n_reference")

    def to_json_obj(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS}

    def csv_header(self) -> str:
        return ",".join(self.FIELDS)

    def csv_row(self) -> str:
        vals = []
        for k in self.FIELDS:
            v = getattr(self, k)
            vals.append("" if v is None else repr(v) if isinstance(v, float) else str(v))
        return ",".join(vals)


class _GraphSummary(NamedTuple):
    """What the topology and uniqueness metrics of evaluate_corpora read of
    one graph."""
    arrays: _GraphArrays  # labels, edge rows and degrees; no adjacency
    clustering: np.ndarray  # clustering histogram
    orbit: np.ndarray  # orbit histogram


def _numbered(corpora):
    """(each corpus as the numbers of its graphs, the distinct graphs).
    Equal graphs (as LabeledGraphs: n, node labels, sorted edges and
    alphabets) get one number, in order of first appearance across the
    corpora; each graph is hashed once."""
    numbers = {}
    index = [[numbers.setdefault(g, len(numbers)) for g in graphs] for graphs in corpora]
    return index, list(numbers)


def _summarize(graphs, drawn):
    """One pass over graphs: each one's arrays are built once and feed its
    topology summaries and, for the indices in `drawn`, its NSPDK features;
    only one graph's (n, n) arrays are alive at a time.  Returns the list
    of _GraphSummary and the {index: FeatureMap} of the drawn graphs."""
    summaries, features, drawn = [], {}, set(drawn)
    for i, g in enumerate(graphs):
        arrays = _graph_arrays(g)
        if i in drawn:
            features[i] = _features(arrays, NSPDK_RADIUS, NSPDK_DISTANCE)
        orbits, clus = kernels.orbits_and_clustering(arrays.adj, arrays.deg)
        summaries.append(_GraphSummary(arrays._replace(adj=None), _clustering_hist(clus),
                                       _orbit_hist(orbits)))
    return summaries, features


def _stat_mmd(gen: list, ref: list, statistic: str) -> float:
    """statistic_mmd of two corpora from their summaries.  The degree
    histograms of both share one range, so they are built here."""
    if statistic == "degree":
        hists = _degree_hists([s.arrays.deg for s in gen + ref])
        return _hist_mmd(hists[:len(gen)], hists[len(gen):])
    return _hist_mmd([getattr(s, statistic) for s in gen], [getattr(s, statistic) for s in ref])


def evaluate_corpora(generated, reference, train_set=None, seed: int = 0) -> EvalReport:
    """Full evaluation of a generated corpus against a reference corpus;
    novelty needs the training corpus and is omitted without it.  One pass
    over the graphs ("graphs" in the report's `timing`) builds what every
    metric reads, once for each distinct graph of the three corpora: the
    copies of a graph, in one corpus or across them, share one summary, and
    the generated and training graphs are fingerprinted once each.  The
    metrics still run over every copy, in order, so the report is the one
    that summarising each copy gives.  `timing` also holds the seconds of
    each metric after the pass, so its values add up to the call;
    `distinct` counts each corpus's distinct graphs."""
    if not generated or not reference:
        raise EvalError("corpora must be non-empty")
    timing = {}

    @contextmanager
    def timed(name):
        start = time.perf_counter()
        yield
        timing[name] = time.perf_counter() - start

    train = list(train_set or [])
    draws = _subsample_draws(len(generated), len(reference), seed)
    with timed("graphs"):
        index, distinct = _numbered((generated, reference, train))
        drawn = [_drawn(draws, side) for side in (0, 1)]
        dense = 1 + max(index[0] + index[1])  # the generated and reference graphs come first
        summaries, features = _summarize(
            distinct[:dense], {index[side][i] for side in (0, 1) for i in drawn[side]})
        gen, ref = ([summaries[k] for k in index[side]] for side in (0, 1))
    with timed("gk"):
        gk = _gk_value(*({i: features[index[side][i]] for i in drawn[side]} for side in (0, 1)),
                       draws)
        del features  # the largest summaries: not held to the end
    topology = []  # in STATISTICS order, as EvalReport's fields
    for statistic in STATISTICS:
        with timed(statistic):
            topology.append(_stat_mmd(gen, ref, statistic))
    with timed("uniqueness_novelty"):
        pool = list(dict.fromkeys(index[0] + index[2]))
        fps = dict(zip(pool, _fingerprints([distinct[k] for k in pool], [
            summaries[k].arrays if k < dense else _graph_arrays(distinct[k], dense=False)
            for k in pool])))
        unique, novel = _ratios([fps[k] for k in index[0]], [fps[k] for k in index[2]])
    if train_set is None:
        novel = None
    counts = {name: len(set(numbers))
              for name, numbers in zip(("generated", "reference", "train"), index)}
    return EvalReport(gk, *topology, unique, novel,
                      len(generated), len(reference), timing, counts)
