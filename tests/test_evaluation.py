import collections
import hashlib
import itertools
import warnings

import networkx as nx
import numpy as np
import pytest

from gram import evaluation as E
from gram import kernels
from gram.datasets import CorpusSpec, generate_corpus
from gram.graphs import LabeledGraph

from conftest import (adjacency_matrix, apply_ordering, mmd_squared, nspdk_kernel,
                      random_connected_graph)


def to_nx(g):
    nxg = nx.Graph()
    for v, lab in enumerate(g.node_labels):
        nxg.add_node(v, label=lab)
    for u, v, lab in g.edges:
        nxg.add_edge(u, v, label=lab)
    return nxg


def exactly_isomorphic(g1, g2):
    return nx.is_isomorphic(to_nx(g1), to_nx(g2),
                            node_match=lambda a, b: a["label"] == b["label"],
                            edge_match=lambda a, b: a["label"] == b["label"])


def fingerprints(graphs) -> list:
    """The fingerprints that evaluate_corpora gives graphs refined together,
    each distinct graph once, from freshly built arrays."""
    (index,), distinct = E._numbered([graphs])
    fps = E._fingerprints(distinct, [E._graph_arrays(g, dense=False) for g in distinct])
    return [fps[k] for k in index]


def uniqueness_novelty(samples, train_set):
    """(unique, novel) of samples against a training set, as
    evaluate_corpora computes them, from freshly built arrays."""
    fps = fingerprints(list(samples) + list(train_set))
    return E._ratios(fps[:len(samples)], fps[len(samples):])


# -- feature maps ---------------------------------------------------------------

def test_single_node_r0_d0_single_feature():
    g = LabeledGraph.create(1, [0], [], a=2, b=1)
    f = E.nspdk_features(g, r_max=0, d_max=0)
    assert list(f.cells) == [(0, 0)]
    keys, counts, _ = f.cells[(0, 0)]
    assert len(keys) == 1 and counts[0] == 1.0


def test_feature_maps_isomorphism_invariant(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n)
        perm = rng.permutation(n)
        g2 = apply_ordering(g, perm)
        f1, f2 = E.nspdk_features(g), E.nspdk_features(g2)
        assert f1.cells.keys() == f2.cells.keys()
        for cd in f1.cells:
            k1, c1, s1 = f1.cells[cd]
            k2, c2, s2 = f2.cells[cd]
            assert np.array_equal(k1, k2) and np.array_equal(c1, c2) and s1 == s2


def test_feature_maps_label_sensitive(rng):
    g = random_connected_graph(rng, 6, a=3)
    labels = list(g.node_labels)
    labels[2] = (labels[2] + 1) % 3
    g2 = LabeledGraph.create(g.n, labels, g.edges, g.a, g.b)
    f1, f2 = E.nspdk_features(g), E.nspdk_features(g2)
    differs = any(
        cd not in f2.cells or not np.array_equal(f1.cells[cd][0], f2.cells[cd][0])
        for cd in f1.cells)
    assert differs


# -- kernel ----------------------------------------------------------------------

def test_kernel_self_similarity_is_one(rng):
    for n in (1, 2, 5, 9):
        g = random_connected_graph(rng, n)
        f = E.nspdk_features(g)
        assert nspdk_kernel(f, f) == pytest.approx(1.0, abs=1e-12)


def test_kernel_disjoint_label_alphabets_orthogonal(rng):
    g1 = random_connected_graph(rng, 6, a=2)
    labels = [lab + 2 for lab in g1.node_labels]
    g2 = LabeledGraph.create(g1.n, labels, g1.edges, 4, g1.b)
    k = nspdk_kernel(E.nspdk_features(g1), E.nspdk_features(g2))
    assert k == 0.0


def test_kernel_symmetry_and_range(rng):
    graphs = [random_connected_graph(rng, int(rng.integers(3, 10))) for _ in range(10)]
    feats = [E.nspdk_features(g) for g in graphs]
    for f1, f2 in itertools.combinations(feats, 2):
        k12, k21 = nspdk_kernel(f1, f2), nspdk_kernel(f2, f1)
        assert k12 == k21
        assert 0.0 <= k12 <= 1.0


def test_kernel_gram_psd_20x20(rng):
    graphs = [random_connected_graph(rng, int(rng.integers(4, 12)),
                                     a=int(rng.integers(1, 4)) if False else 3)
              for _ in range(20)]
    feats = [E.nspdk_features(g) for g in graphs]
    gram = np.array([[nspdk_kernel(a, b) for b in feats] for a in feats])
    assert np.abs(gram - gram.T).max() == 0.0
    assert np.linalg.eigvalsh(gram).min() >= -1e-8
    assert np.allclose(np.diag(gram), 1.0)


def test_kernel_bounds_mismatch_rejected(rng):
    g = random_connected_graph(rng, 5)
    with pytest.raises(E.EvalError, match="bounds"):
        nspdk_kernel(E.nspdk_features(g, 2, 3), E.nspdk_features(g, 3, 4))


# -- mmd -------------------------------------------------------------------------

def test_mmd_identical_multisets_zero(rng):
    graphs = [random_connected_graph(rng, 6) for _ in range(8)]
    feats = [E.nspdk_features(g) for g in graphs]
    assert mmd_squared(feats, list(feats), nspdk_kernel) == pytest.approx(0.0, abs=1e-12)


def test_mmd_singletons_closed_form(rng):
    g1, g2 = random_connected_graph(rng, 5), random_connected_graph(rng, 7)
    f1, f2 = E.nspdk_features(g1), E.nspdk_features(g2)
    got = mmd_squared([f1], [f2], nspdk_kernel)
    expected = (nspdk_kernel(f1, f1) - 2 * nspdk_kernel(f1, f2)
                + nspdk_kernel(f2, f2))
    assert got == pytest.approx(expected, abs=1e-12)


def test_mmd_empty_set_rejected(rng):
    f = E.nspdk_features(random_connected_graph(rng, 4))
    with pytest.raises(E.EvalError, match="non-empty"):
        mmd_squared([], [f], nspdk_kernel)


def test_gk_mmd_same_family_beats_cross_family():
    """Two disjoint same-family draws are closer than any two different
    families.  This is a fast small-draw sanity check; the full-scale
    factor->5 requirement runs in the acceptance suite."""
    fams = ("grid", "lobster", "community", "ba")
    draws = {f: (generate_corpus(CorpusSpec(f, 12, 30, 60, seed=21)),
                 generate_corpus(CorpusSpec(f, 12, 30, 60, seed=22))) for f in fams}
    feats = {(f, i): [E.nspdk_features(g) for g in draws[f][i]]
             for f in fams for i in (0, 1)}
    same = {f: mmd_squared(feats[(f, 0)], feats[(f, 1)], nspdk_kernel) for f in fams}
    for f1, f2 in itertools.combinations(fams, 2):
        cross = mmd_squared(feats[(f1, 0)], feats[(f2, 0)], nspdk_kernel)
        assert cross >= 2.0 * max(same[f1], same[f2]), (f1, f2, cross, same)


def test_gk_mmd_subsamples_large_corpora(rng):
    """Corpora above the size limit are scored on seeded subsample draws:
    deterministic given the seed, nonnegative, and small for identical
    corpora (independent draws leave sampling noise, unlike the direct
    estimator which is exactly zero)."""
    graphs = [random_connected_graph(rng, int(rng.integers(4, 9))) for _ in range(230)]
    v1 = E.gk_mmd2(graphs, list(graphs), seed=3)
    v2 = E.gk_mmd2(graphs, list(graphs), seed=3)
    assert v1 == v2
    assert 0.0 <= v1 < 0.05


# -- array hashing and mean embedding vs the blake2b / pairwise reference -----------

def _blake2b(*parts) -> int:
    digest = hashlib.blake2b(repr(parts).encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def _blake2b_ball_hash(adj, node_labels, edge_label, dist_row, rr):
    members = np.flatnonzero(dist_row <= rr)
    inside = set(members.tolist())
    colors = {int(v): _blake2b(int(dist_row[v]), int(node_labels[v])) for v in members}
    nbrs = {int(v): [w for w in adj[v] if w in inside] for v in members}
    for _ in range(3):
        new = {}
        for v in members:
            v = int(v)
            ring = sorted((edge_label[(min(v, w), max(v, w))], colors[w]) for w in nbrs[v])
            new[v] = _blake2b(colors[v], tuple(ring))
        colors = new
    return _blake2b(rr, tuple(sorted(colors.values())))


def blake2b_features(g, r_max=E.NSPDK_RADIUS, d_max=E.NSPDK_DISTANCE):
    """The per-root, per-radius featurizer with keyed-digest hashes and
    sorted-tuple multisets that the array featurizer replaced."""
    dist = kernels.capped_distances(adjacency_matrix(g), max(r_max, d_max, 1))
    adj, elab = g.adjacency(), {(u, v): lab for u, v, lab in g.edges}
    hashes = np.array([[_blake2b_ball_hash(adj, g.node_labels, elab, dist[u], rr)
                        for rr in range(r_max + 1)] for u in range(g.n)], dtype=np.int64)
    counts = {}
    for u in range(g.n):
        for v in range(u, g.n):
            d = int(dist[u, v])
            if d > d_max:
                continue
            for rr in range(r_max + 1):
                pair = tuple(sorted((int(hashes[u, rr]), int(hashes[v, rr]))))
                cell = counts.setdefault((rr, d), {})
                key = _blake2b(*pair)
                cell[key] = cell.get(key, 0) + 1
    cells = {}
    for cd, bag in counts.items():
        keys = np.array(sorted(bag), dtype=np.int64)
        vals = np.array([bag[k] for k in sorted(bag)], dtype=np.float64)
        cells[cd] = (keys, vals, float((vals * vals).sum()))
    return E.FeatureMap(r_max, d_max, cells)


def blake2b_fingerprint(g):
    adj, elab = g.adjacency(), {(u, v): lab for u, v, lab in g.edges}
    colors = [_blake2b(lab) for lab in g.node_labels]
    distinct = len(set(colors))
    for _ in range(max(1, g.n)):
        colors = [_blake2b(colors[v], tuple(sorted(
            (elab[(min(v, w), max(v, w))], colors[w]) for w in adj[v])))
            for v in range(g.n)]
        now = len(set(colors))
        if now == distinct:
            break
        distinct = now
    return _blake2b(g.n, g.a, g.b, tuple(sorted(colors)))


def copy_of(g):
    """A graph equal to g, built again."""
    return LabeledGraph.create(g.n, g.node_labels, g.edges, g.a, g.b)


def labelled_graphs(rng, count=30):
    return [random_connected_graph(rng, int(rng.integers(1, 13)), a=int(rng.integers(1, 4)),
                                   b=int(rng.integers(1, 4)), extra_edge_prob=0.2)
            for _ in range(count)]


def test_array_features_match_blake2b_features(rng):
    graphs = labelled_graphs(rng)
    new = [E.nspdk_features(g) for g in graphs]
    old = [blake2b_features(g) for g in graphs]
    for f_new, f_old in zip(new, old):
        assert sorted(f_new.cells) == sorted(f_old.cells)
        for cd, (_, counts, self_dot) in f_new.cells.items():
            assert np.array_equal(np.sort(counts), np.sort(f_old.cells[cd][1]))
            assert self_dot == f_old.cells[cd][2]
    worst = max(abs(nspdk_kernel(new[i], new[j]) - nspdk_kernel(old[i], old[j]))
                for i in range(len(graphs)) for j in range(len(graphs)))
    assert worst <= 1e-12


def test_fingerprint_partition_matches_blake2b(rng):
    graphs = labelled_graphs(rng, 40)
    graphs += [apply_ordering(g, rng.permutation(g.n))
               for g in graphs[:10]]
    new = fingerprints(graphs)
    old = [blake2b_fingerprint(g) for g in graphs]
    for i, j in itertools.combinations(range(len(graphs)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j])


def test_feature_keys_are_pinned():
    """splitmix64 over fixed-width arrays: the same keys in every process."""
    assert int(E._mix(0)[0]) == 0xE220A8397B1DCDAF  # splitmix64's first output from seed 0
    g = LabeledGraph.create(3, [0, 1, 0], [(0, 1, 0), (1, 2, 1)], 2, 2)
    f = E.nspdk_features(g, r_max=1, d_max=1)
    expected = {
        (0, 0): ([-6541758635767229163, -800457903803167979], [2.0, 1.0]),
        (0, 1): ([440446603547797933], [2.0]),
        (1, 0): ([-2315966349090174603, 3987071199784193990, 7117077969086097456],
                 [1.0, 1.0, 1.0]),
        (1, 1): ([-1751388453088578419, 6300500255449590927], [1.0, 1.0]),
    }
    assert list(f.cells) == list(expected)
    for cd, (keys, counts) in expected.items():
        assert f.cells[cd][0].dtype == np.int64
        assert f.cells[cd][0].tolist() == keys and f.cells[cd][1].tolist() == counts
    assert fingerprints([g]) == [5872166033545908019]


# -- the all-radii pass vs the per-radius featurizer it replaced ----------------------

def _per_radius_root_hashes(dist, node_labels, edges, rr):
    """Hash of every node's radius-rr neighborhood, one radius per call."""
    src, dst, elab = edges
    inside = dist <= rr
    root, node = np.nonzero(inside)
    member = np.zeros(dist.shape, dtype=np.int64)
    member[root, node] = np.arange(len(root))
    ball, e = np.nonzero(inside[:, src] & inside[:, dst])
    at, nbr, elab = member[ball, src[e]], member[ball, dst[e]], elab[e]
    color = E._mix2(dist[root, node], node_labels[node])
    for _ in range(E.REFINEMENTS):
        ring = np.zeros(len(color), dtype=np.uint64)
        np.add.at(ring, at, E._mix2(elab, color[nbr]))
        color = E._mix2(color, ring)
    starts = np.searchsorted(root, np.arange(len(dist)))
    return E._mix2(rr, np.add.reduceat(color, starts))


def directed_edges(g):
    """(source, target, edge label) arrays holding each edge both ways."""
    e = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
    return (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]),
            np.concatenate([e[:, 2], e[:, 2]]))


def per_radius_features(g, r_max=E.NSPDK_RADIUS, d_max=E.NSPDK_DISTANCE):
    """The featurizer that refined the balls of one radius at a time and
    counted each cell (r', d') with its own sort."""
    if g.n == 0:
        return E.FeatureMap(r_max, d_max, {})
    dist = kernels.capped_distances(adjacency_matrix(g), max(r_max, d_max, 1))
    node_labels = np.array(g.node_labels, dtype=np.uint64)
    edges = directed_edges(g)
    u, v = np.nonzero(np.triu(dist <= d_max))
    at_distance = [dist[u, v] == d for d in range(d_max + 1)]
    cells = {}
    for rr in range(r_max + 1):
        hashes = _per_radius_root_hashes(dist, node_labels, edges, rr)
        hu, hv = hashes[u], hashes[v]
        keys = E._mix2(np.minimum(hu, hv), np.maximum(hu, hv)).view(np.int64)
        for d, mask in enumerate(at_distance):
            if not mask.any():
                continue
            uniq, counts = np.unique(keys[mask], return_counts=True)
            vals = counts.astype(np.float64)
            cells[(rr, d)] = (uniq, vals, float((vals * vals).sum()))
    return E.FeatureMap(r_max, d_max, cells)


def assert_same_feature_map(got, want):
    assert (got.r_max, got.d_max) == (want.r_max, want.d_max)
    assert list(got.cells) == list(want.cells)  # same cells, inserted in the same order
    for cd, (keys, counts, self_dot) in got.cells.items():
        want_keys, want_counts, want_dot = want.cells[cd]
        assert keys.dtype == want_keys.dtype == np.int64, cd
        assert counts.dtype == want_counts.dtype == np.float64, cd
        assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts), cd
        assert type(self_dot) is float and self_dot == want_dot, cd


EQUIVALENCE_BOUNDS = [(0, 0), (0, 4), (3, 0), (1, 2), (3, 4)]


@pytest.fixture(scope="module")
def equivalence_graphs():
    rng = np.random.default_rng(41)
    graphs = [g for i, fam in enumerate(("grid", "lobster", "community", "ba"))
              for g in generate_corpus(CorpusSpec(fam, 3, 30, 60, seed=50 + i))]
    graphs += labelled_graphs(rng, 20)
    graphs += [LabeledGraph.create(0, [], [], 1, 1), LabeledGraph.create(1, [1], [], 2, 1),
               LabeledGraph.create(4, [0, 1, 1, 0], [(0, 1, 1)], 2, 2)]  # n = 0, 1, disconnected
    return graphs


@pytest.mark.parametrize("r_max, d_max", EQUIVALENCE_BOUNDS)
def test_all_radii_pass_matches_per_radius_features(equivalence_graphs, r_max, d_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in equivalence_graphs:
            assert_same_feature_map(E.nspdk_features(g, r_max, d_max),
                                    per_radius_features(g, r_max, d_max))


def test_mix_calls_do_not_grow_with_radius(monkeypatch):
    """The balls of every radius are hashed in one pass, so the number of
    vectorised _mix calls per graph is the same for every r_max; the
    per-radius featurizer's grows."""
    calls = []
    real = E._mix
    monkeypatch.setattr(E, "_mix", lambda x: calls.append(1) or real(x))
    g = generate_corpus(CorpusSpec("grid", 1, 30, 60, seed=3))[0]

    def mix_calls(featurize, r_max):
        calls.clear()
        featurize(g, r_max, 4)
        return len(calls)

    new = [mix_calls(E.nspdk_features, r) for r in range(6)]
    old = [mix_calls(per_radius_features, r) for r in range(6)]
    assert len(set(new)) == 1, new
    assert old[5] > old[0] and new[0] <= old[0]


# -- corpus-wide fingerprints vs the per-graph refinement they replaced ---------------

def per_graph_refinement(g):
    """(fingerprint, rounds) of g, refined alone: the fingerprint that ran
    one round at a time per graph."""
    src, dst, elab = directed_edges(g)
    colors = E._mix(np.array(g.node_labels, dtype=np.uint64))
    distinct = len(np.unique(colors))
    rounds = 0
    for _ in range(max(1, g.n)):
        rounds += 1
        ring = np.zeros(g.n, dtype=np.uint64)
        np.add.at(ring, src, E._mix2(elab, colors[dst]))
        colors = E._mix2(colors, ring)
        now = len(np.unique(colors))
        if now == distinct:
            break
        distinct = now
    head = E._mix2(E._mix2(g.n, g.a), g.b)
    return int(E._mix2(head, colors.sum(dtype=np.uint64)).view(np.int64)[0]), rounds


def test_graph_fingerprints_match_the_per_graph_reference(equivalence_graphs):
    """Refining a whole corpus together gives each graph the fingerprint
    that refining it alone gave, whatever round its neighbours stop at:
    family corpora, random labelled graphs, n = 0, n = 1, a disconnected
    graph, paths that stop after 1 to 6 rounds, and one-graph corpora.  A
    corpus that repeats graphs (the same object, or an equal graph built
    again) gives every copy its graph's fingerprint."""
    paths = [path_graph(n) for n in range(1, 13)]
    corpus = equivalence_graphs + paths
    want = [per_graph_refinement(g) for g in corpus]
    assert len({rounds for _, rounds in want[-len(paths):]}) >= 6
    picks = [0, 3, len(corpus) - 1, 3]
    repeats = [corpus[k] for k in picks] + [copy_of(g) for g in corpus[4::5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fingerprints(corpus) == [fp for fp, _ in want]
        assert fingerprints(corpus[::-1]) == [fp for fp, _ in want[::-1]]
        for g, (fp, _) in zip(corpus, want):
            assert fingerprints([g]) == [fp]
        assert fingerprints(repeats + corpus) == [per_graph_refinement(g)[0] for g in repeats] + [
            fp for fp, _ in want]
    assert fingerprints([]) == []


def test_hashing_raises_no_overflow_warning(rng):
    g = random_connected_graph(rng, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E.nspdk_features(g)
        fingerprints([g])


def test_gk_mmd_equals_pairwise_mmd_direct(rng):
    graphs = labelled_graphs(rng)
    set_p, set_q = graphs[:13], graphs[13:]
    feats_p = [E.nspdk_features(g) for g in set_p]
    feats_q = [E.nspdk_features(g) for g in set_q]
    want = mmd_squared(feats_p, feats_q, nspdk_kernel)
    assert want > 0.0
    assert abs(E.gk_mmd2(set_p, set_q) - want) <= 1e-12
    assert abs(E.feature_mmd2(feats_p, feats_q) - want) <= 1e-12
    assert E.gk_mmd2(set_p, list(set_p)) == 0.0


def test_gk_mmd_equals_pairwise_mmd_subsampled(rng, monkeypatch):
    monkeypatch.setattr(E, "SUBSAMPLE_LIMIT", 12)
    monkeypatch.setattr(E, "SUBSAMPLE_SIZE", 8)
    monkeypatch.setattr(E, "SUBSAMPLE_DRAWS", 3)
    graphs = labelled_graphs(rng)
    set_p, set_q = graphs[:16], graphs[16:]
    feats_p = [E.nspdk_features(g) for g in set_p]
    feats_q = [E.nspdk_features(g) for g in set_q]
    draws = np.random.default_rng(5)
    vals = []
    for _ in range(3):
        p = draws.choice(len(set_p), 8, replace=False)
        q = draws.choice(len(set_q), 8, replace=False)
        vals.append(mmd_squared([feats_p[i] for i in p], [feats_q[i] for i in q],
                                nspdk_kernel))
    assert abs(E.gk_mmd2(set_p, set_q, seed=5) - float(np.mean(vals))) <= 1e-12


def test_feature_mmd_bounds_mismatch_rejected(rng):
    g = random_connected_graph(rng, 5)
    with pytest.raises(E.EvalError, match="bounds"):
        E.feature_mmd2([E.nspdk_features(g, 2, 3)], [E.nspdk_features(g, 3, 4)])


# -- statistic mmds -----------------------------------------------------------------

def path_graph(n):
    return LabeledGraph.create(n, [0] * n, [(i, i + 1, 0) for i in range(n - 1)], 1, 1)


def star_graph(n):
    return LabeledGraph.create(n, [0] * n, [(0, i, 0) for i in range(1, n)], 1, 1)


def test_statistic_mmd_identical_sets_zero(rng):
    graphs = [random_connected_graph(rng, 8) for _ in range(6)]
    for stat in E.STATISTICS:
        assert E.statistic_mmd(graphs, list(graphs), stat) == pytest.approx(0.0, abs=1e-12)


def pairwise_gaussian_emd(h1, h2):
    """The per-pair kernel that the broadcast Gram matrix replaced."""
    w = float(np.abs(np.cumsum(h1 - h2)).sum())
    return float(np.exp(-w * w / (2.0 * E.STAT_SIGMA * E.STAT_SIGMA)))


def test_statistic_mmd_matches_pairwise_kernel(rng):
    set_p = [random_connected_graph(rng, int(rng.integers(4, 12)), extra_edge_prob=0.3)
             for _ in range(7)]
    set_q = [random_connected_graph(rng, int(rng.integers(4, 12))) for _ in range(5)]
    (gen, _), (ref, _) = E._summarize(set_p, ()), E._summarize(set_q, ())
    degrees = E._degree_hists([s.arrays.deg for s in gen + ref])
    hists = {"degree": (degrees[:len(set_p)], degrees[len(set_p):]),
             **{stat: ([getattr(s, stat) for s in gen], [getattr(s, stat) for s in ref])
                for stat in ("clustering", "orbit")}}
    for stat in E.STATISTICS:
        want = max(0.0, mmd_squared(*hists[stat], pairwise_gaussian_emd))
        assert abs(E.statistic_mmd(set_p, set_q, stat) - want) <= 1e-12
        assert E.statistic_mmd(set_p, list(set_p), stat) == 0.0


def test_statistic_mmd_paths_vs_stars():
    paths = [path_graph(n) for n in range(6, 12)]
    stars = [star_graph(n) for n in range(6, 12)]
    deg = E.statistic_mmd(paths, stars, "degree")
    clus = E.statistic_mmd(paths, stars, "clustering")
    assert deg > 0.0
    assert clus == pytest.approx(0.0, abs=1e-12)  # both families are triangle-free
    assert deg > clus


def test_statistic_mmd_unknown_statistic(rng):
    g = [random_connected_graph(rng, 5)]
    with pytest.raises(E.EvalError, match="statistic"):
        E.statistic_mmd(g, g, "diameter")


# -- orbit counts ----------------------------------------------------------------

def orbit_counts(g):
    """g's (n, 11) per-node orbit counts, from the arrays evaluate_corpora
    builds."""
    arrays = E._graph_arrays(g)
    return kernels.orbits_and_clustering(arrays.adj, arrays.deg)[0]


def test_orbit_counts_k4_single_clique():
    k4 = LabeledGraph.create(4, [0] * 4,
                             [(u, v, 0) for u in range(4) for v in range(u + 1, 4)], 1, 1)
    counts = orbit_counts(k4)
    expected = np.zeros((4, 11), dtype=np.int64)
    expected[:, 10] = 1
    assert np.array_equal(counts, expected)


def test_orbit_counts_p4_two_orbits():
    counts = orbit_counts(path_graph(4))
    assert counts[0, 0] == 1 and counts[3, 0] == 1  # ends
    assert counts[1, 1] == 1 and counts[2, 1] == 1  # middles
    assert counts.sum() == 4


def test_orbit_counts_c4_cycle_orbit():
    c4 = LabeledGraph.create(4, [0] * 4,
                             [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)], 1, 1)
    counts = orbit_counts(c4)
    assert np.array_equal(counts[:, 4], np.ones(4, dtype=np.int64))
    assert counts.sum() == 4


def test_orbit_counts_small_graph_zero():
    assert not orbit_counts(path_graph(3)).any()


# -- uniqueness / novelty -------------------------------------------------------

def test_uniqueness_all_identical():
    g = path_graph(6)
    unique, novel = uniqueness_novelty([g] * 10, [])
    assert unique == pytest.approx(0.1)
    assert novel == pytest.approx(0.1)


def test_novelty_disjoint_alphabet_equals_unique(rng):
    samples = [random_connected_graph(rng, 6, a=2) for _ in range(10)]
    train = []
    for g in samples[:5]:
        train.append(LabeledGraph.create(
            g.n, [lab + 2 for lab in g.node_labels], g.edges, 4, g.b))
    unique, novel = uniqueness_novelty(samples, train)
    assert novel == unique


def test_fingerprint_agrees_with_exact_isomorphism(rng):
    """On small graphs the refinement fingerprint must agree with exact
    isomorphism on at least 99% of pairs (and never split isomorphic
    pairs)."""
    graphs = [random_connected_graph(rng, int(rng.integers(4, 9)),
                                     a=2, b=2, extra_edge_prob=0.25)
              for _ in range(40)]
    # add some guaranteed-isomorphic relabelings
    for i in range(10):
        g = graphs[i]
        graphs.append(apply_ordering(g, rng.permutation(g.n)))
    fps = fingerprints(graphs)
    agree = total = 0
    for i, j in itertools.combinations(range(len(graphs)), 2):
        same_fp = fps[i] == fps[j]
        same_iso = exactly_isomorphic(graphs[i], graphs[j])
        if same_iso:
            assert same_fp, "fingerprint split an isomorphic pair"
        total += 1
        agree += int(same_fp == same_iso)
    assert agree / total >= 0.99


# -- report ----------------------------------------------------------------------

def test_evaluate_corpora_report(rng):
    gen = [random_connected_graph(rng, 7) for _ in range(6)]
    report = E.evaluate_corpora(gen, list(gen), train_set=gen[:3])
    assert report.gk_mmd2 == pytest.approx(0.0, abs=1e-12)
    assert report.degree_mmd2 == 0.0 and report.orbit_mmd2 == 0.0
    assert 0.0 <= report.unique_ratio <= 1.0
    assert report.n_generated == 6 and report.n_reference == 6
    row = report.csv_row()
    assert len(row.split(",")) == len(report.FIELDS)
    obj = report.to_json_obj()
    assert set(obj) == set(report.FIELDS)
    again = E.evaluate_corpora(gen, list(gen), train_set=gen[:3])
    assert again == report and again.csv_row() == row and again.to_json_obj() == obj
    for r in (report, again):  # seconds per metric, outside FIELDS and equality
        assert list(r.timing) == ["graphs", "gk", "degree", "clustering", "orbit",
                                  "uniqueness_novelty"]
        assert all(isinstance(t, float) and t >= 0.0 for t in r.timing.values())


def metrics_one_by_one(gen, ref, train_set, seed):
    """The report that the public metric functions give one at a time."""
    unique, novel = uniqueness_novelty(gen, train_set or [])
    return E.EvalReport(E.gk_mmd2(gen, ref, seed=seed),
                        *(E.statistic_mmd(gen, ref, stat) for stat in E.STATISTICS),
                        unique, None if train_set is None else novel, len(gen), len(ref))


@pytest.mark.parametrize("subsampled", [False, True])
def test_evaluate_corpora_equals_the_metrics_one_by_one(rng, monkeypatch, subsampled):
    if subsampled:
        monkeypatch.setattr(E, "SUBSAMPLE_LIMIT", 12)
        monkeypatch.setattr(E, "SUBSAMPLE_SIZE", 8)
        monkeypatch.setattr(E, "SUBSAMPLE_DRAWS", 3)
    graphs = labelled_graphs(rng, 30) + generate_corpus(CorpusSpec("lobster", 6, 10, 30, seed=4))
    # repeats: the same object twice, equal graphs built again, graphs in two corpora
    gen = graphs[:16] + graphs[31:] + [graphs[0], copy_of(graphs[17]), graphs[33], graphs[5]]
    ref = graphs[16:31] + [copy_of(graphs[2]), graphs[16], copy_of(graphs[31])]
    assert len(set(gen)) < len(gen) and len(set(ref)) < len(ref)
    for train_set in (None, [], graphs[10:20] + graphs[:2] + [copy_of(graphs[0]), graphs[12]]):
        got = E.evaluate_corpora(gen, ref, train_set, seed=7)
        want = metrics_one_by_one(gen, ref, train_set, seed=7)
        assert got == want and got.to_json_obj() == want.to_json_obj()
        assert got.csv_row() == want.csv_row()
    assert got.gk_mmd2 > 0.0 and 0.0 < got.novel_ratio < 1.0


@pytest.mark.parametrize("subsampled", [False, True])
def test_evaluate_corpora_builds_each_graphs_arrays_once(rng, monkeypatch, subsampled):
    """One pass per call: however many copies the corpora hold of a graph
    (the same object twice, an equal graph built again, a graph in two
    corpora), its arrays are built once (without the dense ones for a
    graph only in training), it is featurised once if any copy is drawn,
    even when its first copy is not, and no LabeledGraph degree method
    runs.  A second call builds everything again."""
    if subsampled:
        monkeypatch.setattr(E, "SUBSAMPLE_LIMIT", 6)
        monkeypatch.setattr(E, "SUBSAMPLE_SIZE", 3)
        monkeypatch.setattr(E, "SUBSAMPLE_DRAWS", 2)
    gen, ref, train = (labelled_graphs(rng, k) for k in (8, 7, 4))
    gen += [gen[0], copy_of(gen[1])]
    ref += [copy_of(gen[2])]
    train += [gen[3], copy_of(ref[0]), train[0]]
    draws = E._subsample_draws(len(gen), len(ref), seed=1)
    drawn = [E._drawn(draws, side) for side in (0, 1)]
    if subsampled:  # a drawn copy whose first copy is not drawn
        j = max(drawn[0])
        i = min(set(range(j)) - set(drawn[0]))
        gen[i] = copy_of(gen[j])
    featured = {graphs[i] for graphs, picks in zip((gen, ref), drawn) for i in picks}
    assert (len(featured) < len(set(gen + ref))) == subsampled
    built, featurised, owner = collections.Counter(), collections.Counter(), {}
    arrays, features = E._graph_arrays, E._features

    def counted_arrays(g, dense=True):
        built[g, dense] += 1
        out = arrays(g, dense)
        owner[id(out.adj)] = out.adj, g  # the array is kept, so its id stays unique
        return out

    def counted_features(a, r_max, d_max):
        featurised[owner[id(a.adj)][1]] += 1
        return features(a, r_max, d_max)

    def forbidden(self):
        raise AssertionError("evaluate_corpora rebuilt a graph array")

    monkeypatch.setattr(E, "_graph_arrays", counted_arrays)
    monkeypatch.setattr(E, "_features", counted_features)
    monkeypatch.setattr(LabeledGraph, "degrees", forbidden)
    for _ in range(2):
        built.clear()
        featurised.clear()
        report = E.evaluate_corpora(gen, ref, train, seed=1)
        assert built == collections.Counter(
            [(g, True) for g in set(gen + ref)] + [(g, False) for g in set(train) - set(gen + ref)])
        assert featurised == collections.Counter(featured)
        assert report.distinct == {"generated": len(set(gen)), "reference": len(ref),
                                   "train": len(train) - 1}
        assert len(set(gen)) < len(gen)
