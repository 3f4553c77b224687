import collections
import re

import numpy as np
import pytest

from gram import datasets as D
from gram import kernels
from gram.datasets import (CorpusFormatError, CorpusSpec, CorpusSpecError,
                           corpus_stats, default_split_counts,
                           generate_corpus, read_corpus, split_corpus,
                           write_corpus)
from gram.graphs import LabeledGraph, bfs_ordering

from conftest import adjacency_matrix, apply_ordering, random_connected_graph
from test_graphs import _is_connected_dfs


def test_spec_validation():
    with pytest.raises(CorpusSpecError, match="family"):
        CorpusSpec("tree", 10, 5, 10)
    with pytest.raises(CorpusSpecError, match="count"):
        CorpusSpec("grid", 0, 5, 10)
    with pytest.raises(CorpusSpecError, match="n_min"):
        CorpusSpec("grid", 1, 10, 5)


@pytest.mark.parametrize("family, params, match", [
    ("grid", {"p1": 0.5}, "unknown grid parameter 'p1'"),
    ("grid", {"min_side": 0}, "'min_side' must be an integer in \\[1, inf\\]"),
    ("grid", {"max_side": 4.0}, "'max_side' must be an integer"),
    ("lobster", {"p1": -0.1}, "'p1' must be a number in \\[0, 1\\]"),
    ("lobster", {"p2": "0.3"}, "'p2' must be a number"),
    ("community", {"p_in": float("nan")}, "'p_in' must be a number"),
    ("community", {"p_out": True}, "'p_out' must be a number"),
    ("ba", {"m": 1}, "'m' must be an integer in \\[2, inf\\]"),
    ("ba", {"m": None}, "'m' must be an integer"),
    ("grid", [1], "params must be an object, got \\[1\\]"),
])
def test_spec_rejects_bad_family_parameters(family, params, match):
    with pytest.raises(CorpusSpecError, match=match):
        CorpusSpec(family, 1, 9, 16, params=params)


def test_spec_accepts_family_parameters_in_range():
    for family, params in (("grid", {"min_side": 3, "max_side": 4}),
                           ("lobster", {"p1": 1, "p2": 0.0}),
                           ("community", {"p_in": 0.5, "p_out": 1.0}), ("ba", {"m": 2})):
        assert generate_corpus(CorpusSpec(family, 2, 9, 16, params=params))
    with pytest.raises(CorpusSpecError, match="p_out = 0"):
        generate_corpus(CorpusSpec("community", 1, 8, 8, params={"p_out": 0}))


# -- grid -------------------------------------------------------------------

def test_grid_3x3_label_counts():
    g = generate_corpus(CorpusSpec("grid", 1, 9, 9, seed=0,
                                   params={"min_side": 3, "max_side": 3}))[0]
    hist = collections.Counter(g.node_labels)
    assert hist == {D.GRID_CORNER: 4, D.GRID_EDGE: 4, D.GRID_INSIDE: 1}


def test_grid_3xk_has_four_corners():
    for k in (4, 5, 7):
        g = generate_corpus(CorpusSpec("grid", 1, 3 * k, 3 * k, seed=1,
                                       params={"min_side": 3, "max_side": max(3, k)}))[0]
        assert sum(1 for lab in g.node_labels if lab == D.GRID_CORNER) == 4


def test_grid_labels_match_degree_oracle():
    graphs = generate_corpus(CorpusSpec("grid", 100, 12, 36, seed=3,
                                        params={"min_side": 3, "max_side": 6}))
    for g in graphs:
        deg = g.degrees()
        for v in range(g.n):
            expected = {2: D.GRID_CORNER, 3: D.GRID_EDGE, 4: D.GRID_INSIDE}[int(deg[v])]
            assert g.node_labels[v] == expected


def test_grid_edge_axis_labels_consistent():
    g = generate_corpus(CorpusSpec("grid", 1, 12, 12, seed=5,
                                   params={"min_side": 3, "max_side": 4}))[0]
    # horizontal edges join consecutive ids, vertical edges differ by width
    diffs = {lab: {v - u for u, v, l in g.edges if l == lab} for lab in (0, 1)}
    assert diffs[D.GRID_HORIZONTAL] == {1}
    assert len(diffs[D.GRID_VERTICAL]) == 1 and diffs[D.GRID_VERTICAL] != {1}


def test_grid_infeasible_shape_is_error():
    with pytest.raises(CorpusSpecError, match="feasible"):
        generate_corpus(CorpusSpec("grid", 1, 50, 54, seed=0,
                                   params={"min_side": 7, "max_side": 7}))


# -- lobster ----------------------------------------------------------------

def test_lobster_degenerate_probabilities_give_pure_path():
    graphs = generate_corpus(CorpusSpec("lobster", 5, 10, 30, seed=2,
                                        params={"p1": 0.0, "p2": 0.0}))
    for g in graphs:
        assert all(lab == D.LOBSTER_BACKBONE for lab in g.node_labels)
        deg = sorted(g.degrees())
        assert deg[:2] == [1, 1] and all(d == 2 for d in deg[2:])


def test_lobster_leaves_have_degree_one():
    graphs = generate_corpus(CorpusSpec("lobster", 20, 30, 80, seed=4))
    for g in graphs:
        deg = g.degrees()
        for v, lab in enumerate(g.node_labels):
            if lab == D.LOBSTER_LEAF:
                assert deg[v] == 1


def test_lobster_labels_match_bfs_from_backbone_oracle():
    graphs = generate_corpus(CorpusSpec("lobster", 30, 20, 60, seed=6))
    for g in graphs:
        backbone = [v for v, lab in enumerate(g.node_labels) if lab == D.LOBSTER_BACKBONE]
        assert backbone
        dist = kernels.capped_distances(adjacency_matrix(g), 3)
        for v in range(g.n):
            d = min(int(dist[b, v]) for b in backbone)
            assert g.node_labels[v] == d


def test_lobster_edge_labels_touch_leaf_rule():
    graphs = generate_corpus(CorpusSpec("lobster", 10, 20, 60, seed=8))
    for g in graphs:
        for u, v, lab in g.edges:
            touches_leaf = D.LOBSTER_LEAF in (g.node_labels[u], g.node_labels[v])
            assert lab == (1 if touches_leaf else 0)


def test_lobster_is_tree_and_connected():
    for g in generate_corpus(CorpusSpec("lobster", 10, 20, 60, seed=9)):
        assert g.m == g.n - 1 and g.is_connected()


# -- community --------------------------------------------------------------

def community_graph(rng, k, p_in, p_out):
    """One raw four-block draw (connectivity not enforced), as gen_community
    draws it."""
    return LabeledGraph.create(4 * k, np.arange(4 * k) // k,
                               D._community_edges(rng, k, p_in, p_out), 4, 2)


def test_community_extreme_parameters_give_four_cliques():
    rng = np.random.default_rng(0)
    g = community_graph(rng, k=5, p_in=1.0, p_out=0.0)
    assert not g.is_connected()
    for u, v, lab in g.edges:
        assert g.node_labels[u] == g.node_labels[v] and lab == D.COMM_INTRA
    hist = collections.Counter(g.node_labels)
    assert all(hist[c] == 5 for c in range(4))
    assert g.m == 4 * (5 * 4 // 2)


def _community_loop_reference(spec):
    """gen_community as it was before the per-draw arrays: one rng.random()
    per node pair in a Python loop, a LabeledGraph per draw checked by a
    depth-first search, no bound."""
    rng = np.random.default_rng(spec.seed)
    p_in = float(spec.params.get("p_in", 0.23))
    p_out = float(spec.params.get("p_out", 0.023))
    k_lo, k_hi = max(1, -(-spec.n_min // 4)), spec.n_max // 4
    out = []
    for _ in range(spec.count):
        while True:
            k = int(rng.integers(k_lo, k_hi + 1))
            labels = [i // k for i in range(4 * k)]
            edges = []
            for u in range(4 * k):
                for v in range(u + 1, 4 * k):
                    same = labels[u] == labels[v]
                    if rng.random() < (p_in if same else p_out):
                        edges.append((u, v, D.COMM_INTRA if same else D.COMM_INTER))
            g = LabeledGraph.create(4 * k, labels, edges, 4, 2)
            if _is_connected_dfs(g):
                out.append(g)
                break
    return out


@pytest.mark.parametrize("count, n_min, n_max, params", [
    (3, 16, 24, {}), (20, 20, 60, {}), (10, 20, 40, {"p_in": 0.5, "p_out": 0.05}),
    (3, 100, 120, {"p_in": 0.9, "p_out": 1.0}), (10, 4, 40, {"p_in": 0.0, "p_out": 0.6}),
])
def test_community_corpus_matches_the_loop_reference(count, n_min, n_max, params):
    """One uniform per node pair drawn as one array is the same stream as
    one rng.random() call per pair: the same graphs for the same seed."""
    for seed in range(3):
        spec = CorpusSpec("community", count, n_min, n_max, seed=seed, params=params)
        assert generate_corpus(spec) == _community_loop_reference(spec)


@pytest.mark.parametrize("family, n, params, what", [
    ("community", 8, {"p_out": 1e-9}, "community (p_in=0.23, p_out=1e-09)"),
    ("lobster", 10, {"p1": 1, "p2": 1}, "lobster (p1=1.0, p2=1.0)"),
    ("lobster", 3, {"p1": 1}, "lobster (p1=1.0, p2=0.3)"),
])
def test_generators_give_up_after_max_draws(family, n, params, what, monkeypatch):
    """A spec that no draw can meet, or almost none, raises after exactly
    MAX_DRAWS draws of the graph, naming the family and its parameters."""
    monkeypatch.setattr(D, "MAX_DRAWS", 300)
    rngs = []

    class CountingRng:  # each draw of either generator starts with one integers() call
        def __init__(self, seed):
            self.rng, self.draws = real(seed), 0
            rngs.append(self)

        def integers(self, *args):
            self.draws += 1
            return self.rng.integers(*args)

        def random(self, *args):
            return self.rng.random(*args)

    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    with pytest.raises(CorpusSpecError, match=re.escape(what) + ".*300 draws"):
        generate_corpus(CorpusSpec(family, 2, n, n, seed=1, params=params))
    assert [r.draws for r in rngs] == [300]


def test_community_label_histogram_equal_blocks():
    for g in generate_corpus(CorpusSpec("community", 5, 40, 80, seed=3)):
        hist = collections.Counter(g.node_labels)
        assert len(set(hist.values())) == 1 and sum(hist.values()) == g.n
        assert g.is_connected()


def test_community_intra_density_monte_carlo():
    graphs = generate_corpus(CorpusSpec("community", 200, 48, 100, seed=13))
    dens = []
    for g in graphs:
        k = g.n // 4
        intra = sum(1 for u, v, lab in g.edges if lab == D.COMM_INTRA)
        dens.append(intra / (4 * k * (k - 1) / 2))
    assert abs(np.mean(dens) - 0.23) < 0.02


def test_community_edge_labels_match_blocks():
    for g in generate_corpus(CorpusSpec("community", 3, 40, 60, seed=1)):
        for u, v, lab in g.edges:
            same = g.node_labels[u] == g.node_labels[v]
            assert lab == (D.COMM_INTRA if same else D.COMM_INTER)


# -- preferential attachment --------------------------------------------------

def test_ba_edge_count_closed_form():
    for g in generate_corpus(CorpusSpec("ba", 20, 30, 100, seed=2)):
        assert g.m == 6 + 4 * (g.n - 4)
        assert g.is_connected()


def test_ba_hub_fraction_close_to_half():
    for g in generate_corpus(CorpusSpec("ba", 30, 50, 100, seed=4)):
        hubs = sum(1 for lab in g.node_labels if lab == D.BA_HUB)
        # median split with ties to hub: at least half are hubs, and the
        # non-hub side cannot exceed half
        assert hubs >= g.n // 2
        deg = g.degrees()
        med = np.median(deg)
        for v, lab in enumerate(g.node_labels):
            assert lab == (D.BA_HUB if deg[v] >= med else D.BA_EXTERIOR)


def test_ba_heavy_tail():
    graphs = generate_corpus(CorpusSpec("ba", 100, 100, 100, seed=5))
    assert all(g.degrees().max() > 2 * np.median(g.degrees()) for g in graphs)


def test_ba_edge_labels_by_endpoint_classes():
    for g in generate_corpus(CorpusSpec("ba", 5, 30, 60, seed=6)):
        for u, v, lab in g.edges:
            assert lab == g.node_labels[u] + g.node_labels[v]


def test_ba_requires_enough_nodes():
    with pytest.raises(CorpusSpecError, match="m=4"):
        generate_corpus(CorpusSpec("ba", 1, 4, 10, seed=0))


@pytest.mark.parametrize("family", D.FAMILIES)
def test_all_families_connected_and_in_range(family):
    lo, hi = (9, 25) if family != "ba" else (12, 25)
    spec = CorpusSpec(family, 15, lo, hi, seed=17,
                      params={"min_side": 3, "max_side": 5} if family == "grid" else {})
    a, b = D.ALPHABETS[family]
    for g in generate_corpus(spec):
        assert lo <= g.n <= hi
        assert g.is_connected()
        assert (g.a, g.b) == (a, b)
        g.validate()


# -- frontier statistics -------------------------------------------------------

def test_corpus_stats_paper_scale_values():
    grid = generate_corpus(CorpusSpec("grid", 150, 50, 100, seed=7))
    st = corpus_stats(grid, seed=0)
    assert 6.8 <= st["mean_beta"] <= 11.2
    assert 65 <= st["mean_n"] <= 80
    assert 1.3 <= st["mean_alpha"] <= 2.3


def loop_corpus_stats(graphs, seed=0, orderings_per_graph=1):
    """The per-node loop corpus_stats used before frontier_starts, kept as
    the reference: alpha counts each node's lower neighbours and beta the
    frontier from the smallest lower neighbour of the node before."""
    rng = np.random.default_rng(seed)
    alphas, betas = [], []
    for g in graphs:
        for _ in range(orderings_per_graph):
            start = int(rng.integers(g.n))
            og = apply_ordering(g, bfs_ordering(g, start, rng))
            lower = [[] for _ in range(g.n)]
            for u, v, _ in og.edges:
                lower[v].append(u)
            for s in range(1, g.n):
                alphas.append(len(lower[s]))
                lo = min(lower[s - 1]) if lower[s - 1] else s - 1
                betas.append(s - lo)
    degs = np.concatenate([g.degrees() for g in graphs])
    return {
        "graphs": len(graphs),
        "mean_n": float(np.mean([g.n for g in graphs])),
        "mean_m": float(np.mean([g.m for g in graphs])),
        "mean_alpha": float(np.mean(alphas)) if alphas else 0.0,
        "mean_beta": float(np.mean(betas)) if betas else 0.0,
        "mean_degree": float(degs.mean()) if len(degs) else 0.0,
        "max_degree": int(degs.max()) if len(degs) else 0,
    }


@pytest.mark.parametrize("family,orderings", [("grid", 1), ("lobster", 3)])
def test_corpus_stats_matches_loop_version(family, orderings):
    graphs = generate_corpus(CorpusSpec(family, 25, 20, 60, seed=5))
    for seed in (0, 1):
        assert corpus_stats(graphs, seed, orderings) == loop_corpus_stats(graphs, seed, orderings)
    single = [LabeledGraph.create(1, [0], [], 3, 2)]  # no steps: both means are 0.0
    assert corpus_stats(single) == loop_corpus_stats(single)


def test_corpus_stats_draws_no_ordering_for_a_graph_without_nodes():
    """A graph of no nodes has no steps, so corpus_stats draws no ordering
    for it: it adds no alpha, beta or degree, and the other graphs draw what
    they draw without it."""
    empty = LabeledGraph.create(0, [], [], 3, 2)
    graphs = generate_corpus(CorpusSpec("lobster", 4, 10, 20, seed=2))
    assert corpus_stats([empty]) == {"graphs": 1, "mean_n": 0.0, "mean_m": 0.0,
                                     "mean_alpha": 0.0, "mean_beta": 0.0,
                                     "mean_degree": 0.0, "max_degree": 0}
    with_empty = corpus_stats([empty, *graphs, empty], seed=3, orderings_per_graph=2)
    without = corpus_stats(graphs, seed=3, orderings_per_graph=2)
    assert with_empty["graphs"] == len(graphs) + 2
    for key in ("mean_alpha", "mean_beta", "mean_degree", "max_degree"):
        assert with_empty[key] == without[key], key


# -- splitting / io ------------------------------------------------------------

def test_split_700_into_500_100_100(rng):
    graphs = [random_connected_graph(rng, 5) for _ in range(700)]
    train, test, val = split_corpus(graphs, (500, 100, 100), seed=1)
    assert (len(train), len(test), len(val)) == (500, 100, 100)
    assert default_split_counts(700) == (500, 100, 100)


def test_split_deterministic_and_partition(rng):
    graphs = [random_connected_graph(rng, int(rng.integers(4, 9))) for _ in range(20)]
    s1 = split_corpus(graphs, (14, 3, 3), seed=5)
    s2 = split_corpus(graphs, (14, 3, 3), seed=5)
    assert all([a == b for p1, p2 in zip(s1, s2) for a, b in zip(p1, p2)])
    combined = [g for part in s1 for g in part]
    assert sorted(map(id, combined)) == sorted(map(id, graphs))


def test_split_ratio_mismatch(rng):
    graphs = [random_connected_graph(rng, 5) for _ in range(10)]
    with pytest.raises(CorpusSpecError, match="sum"):
        split_corpus(graphs, (5, 3, 3), seed=0)
    with pytest.raises(CorpusSpecError, match=r"\(12, -1, -1\) has a negative count"):
        split_corpus(graphs, (12, -1, -1), seed=0)


def test_corpus_io_round_trip(tmp_path, rng):
    graphs = [random_connected_graph(rng, int(rng.integers(2, 12))) for _ in range(100)]
    path = tmp_path / "c.jsonl"
    write_corpus(path, graphs)
    assert read_corpus(path) == graphs


def test_corpus_io_rejects_self_loop_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"a":1,"b":1,"nodes":[0,0],"edges":[[0,1,0]]}'
    bad = '{"a":1,"b":1,"nodes":[0,0],"edges":[[1,1,0]]}'
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        read_corpus(path)


def test_corpus_io_rejects_unordered_edge(tmp_path):
    path = tmp_path / "b.jsonl"
    path.write_text('{"a":1,"b":1,"nodes":[0,0],"edges":[[1,0,0]]}\n')
    with pytest.raises(CorpusFormatError, match="u < v"):
        read_corpus(path)


def test_corpus_io_rejects_bad_json(tmp_path):
    path = tmp_path / "b.jsonl"
    path.write_text('{"a":1\n')
    with pytest.raises(CorpusFormatError, match="line 1"):
        read_corpus(path)


def test_corpus_io_empty_file_is_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_corpus(path) == []
