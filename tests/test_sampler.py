import collections

import numpy as np
import pytest

from gram import graphs as G
from gram import tensor as T
from gram.datasets import CorpusSpec, generate_corpus
from gram.model import build_prefix
from gram.sampler import (GenerationResult, SamplerError, _sample, build_seed_bank,
                          generate_graph)

from conftest import random_connected_graph, tiny_model
from test_model import edge_distribution_step, randomize_edge_estimator
from test_training import randomize_bias_tables


def reference_generate(model, bank, max_nodes, rng):
    """The sampling loop with every edge distribution from the per-candidate
    oracle, which rebuilds the attention history for each candidate.
    Returns (graph, truncated, retries, forced)."""
    c = model.config
    seed = bank.seeds[int(rng.integers(len(bank.seeds)))]
    labels, edges = list(seed.node_labels), [tuple(e) for e in seed.edges]
    retries = forced = 0
    while len(labels) < max_nodes:
        s = len(labels)
        prefix = build_prefix(labels, edges, c.radius)
        hv = model.extract_features(prefix)
        hg = model.graph_pool(hv)
        lab = _sample(rng, model.node_distribution(hg), False)
        if lab == c.a:
            return G.LabeledGraph.create(s, labels, edges, c.a, c.b), False, retries, forced
        lo = 0
        if c.variant in ("B", "AB"):
            lo = min([u for u, v, _ in edges if v == s - 1], default=s - 1)
        attempts = 0
        while attempts < 6:
            attempts += 1
            decided, dists = [], []
            for t in range(lo, s):
                dist = T.softmax(edge_distribution_step(
                    model, hv, hg, lab, t, decided, c.variant in ("A", "AB"),
                    prefix.dist_idx)).data[0]
                dists.append(dist)
                decided.append((t, _sample(rng, dist, False)))
            if any(code < c.b for _, code in decided):
                break
        retries += attempts - 1
        if not any(code < c.b for _, code in decided):
            forced += 1
            best = int(np.argmax([1.0 - d[c.b] for d in dists]))
            decided[best] = (decided[best][0], int(np.argmax(dists[best][:c.b])))
        edges += [(t, s, code) for t, code in decided if code < c.b]
        labels.append(lab)
    return G.LabeledGraph.create(len(labels), labels, edges, c.a, c.b), True, retries, forced


def test_seed_bank_invariants(rng):
    graphs = [random_connected_graph(rng, int(rng.integers(6, 15))) for _ in range(20)]
    bank = build_seed_bank(graphs, 5, rng)
    assert len(bank) == 20
    for seed in bank.seeds:
        assert seed.n == 5
        assert seed.is_connected()


def test_seed_bank_skips_small_graphs(rng):
    graphs = [random_connected_graph(rng, 3), random_connected_graph(rng, 10)]
    with pytest.warns(UserWarning, match="skipped 1"):
        bank = build_seed_bank(graphs, 5, rng)
    assert len(bank) == 1


def test_seed_bank_empty_is_error(rng):
    with pytest.raises(SamplerError, match="empty"):
        with pytest.warns(UserWarning):
            build_seed_bank([random_connected_graph(rng, 3)], 5, rng)


def test_seed_bank_single_node_seeds_match_label_distribution(rng):
    """seed_size=1 banks collect start-node labels; the histogram must match
    an independently sampled start-label histogram within noise."""
    graphs = [random_connected_graph(rng, 8, a=3) for _ in range(30)]
    bank = build_seed_bank(graphs, 1, np.random.default_rng(0), orderings_per_graph=40)
    got = collections.Counter(seed.node_labels[0] for seed in bank.seeds)
    # oracle: the start node is uniform over nodes, so expected frequencies
    # follow the pooled label histogram of the corpus
    pooled = collections.Counter(lab for g in graphs for lab in g.node_labels)
    total = sum(pooled.values())
    n_seeds = len(bank.seeds)
    chi2 = 0.0
    for lab in range(3):
        expected = n_seeds * pooled[lab] / total
        chi2 += (got[lab] - expected) ** 2 / max(expected, 1e-9)
    assert chi2 < 16.27  # chi-square 2 dof, p = 3e-4


def test_generation_immediate_stop_returns_seed(rng):
    model = tiny_model(a=3, b=2, seed_size=4)
    # hard-wire the stop class
    model.params["node_est.w3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[model.config.a] = 50.0
    graphs = [random_connected_graph(rng, 9) for _ in range(4)]
    bank = build_seed_bank(graphs, 4, rng)
    res = generate_graph(model, bank, max_nodes=20, rng=np.random.default_rng(3))
    assert not res.truncated
    assert res.graph.n == 4
    assert res.graph in [None] or any(
        res.graph == s for s in bank.seeds)  # exactly one of the seeds


def test_generation_truncates_at_max_nodes(rng):
    model = tiny_model(a=3, b=2, seed_size=3)
    # never emit the stop class
    model.params["node_est.w3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[model.config.a] = -50.0
    graphs = [random_connected_graph(rng, 8) for _ in range(3)]
    bank = build_seed_bank(graphs, 3, rng)
    res = generate_graph(model, bank, max_nodes=12, rng=np.random.default_rng(1))
    assert res.truncated
    assert res.graph.n == 12


@pytest.mark.parametrize("variant", ["plain", "A", "B", "AB"])
def test_generation_outputs_valid_connected_graphs(variant, rng):
    model = tiny_model(a=3, b=2, seed_size=3, variant=variant, seed=6)
    graphs = [random_connected_graph(rng, 8) for _ in range(5)]
    bank = build_seed_bank(graphs, 3, rng)
    for i in range(10):
        res = generate_graph(model, bank, max_nodes=14, rng=np.random.default_rng(i))
        g = res.graph
        g.validate()
        assert g.is_connected()
        assert all(0 <= lab < g.a for lab in g.node_labels)


def test_generation_respects_frontier_under_variant_b(rng):
    """Every generated edge of a B-variant model lands inside the frontier
    of its step."""
    model = tiny_model(a=3, b=2, seed_size=3, variant="B", seed=2)
    # make edges very likely so the check bites
    model.params["edge_est.b3"].tensor.data[:model.config.b] = 2.0
    graphs = [random_connected_graph(rng, 8) for _ in range(4)]
    bank = build_seed_bank(graphs, 3, rng)
    for i in range(10):
        res = generate_graph(model, bank, max_nodes=12, rng=np.random.default_rng(100 + i))
        og = res.graph
        ident = G.NodeOrdering.create(range(og.n))
        for s in range(bank.seed_size, og.n):
            frontier = set(G.frontier_nodes(og, ident, s).tolist())
            for u, v, _ in og.edges:
                if v == s:
                    assert u in frontier


def test_generation_determinism(rng):
    model = tiny_model(a=3, b=2, seed_size=3, seed=1)
    graphs = [random_connected_graph(rng, 9) for _ in range(4)]
    bank = build_seed_bank(graphs, 3, np.random.default_rng(7))
    r1 = generate_graph(model, bank, 15, np.random.default_rng(42))
    r2 = generate_graph(model, bank, 15, np.random.default_rng(42))
    assert r1.graph == r2.graph and r1.truncated == r2.truncated


@pytest.mark.parametrize("variant", ["plain", "A", "B", "AB"])
def test_generation_matches_per_candidate_reference(variant, rng):
    """Under the same RNG, generate_graph draws the graph, the truncation
    flag and the retry and forced-attachment counts of the sampling loop
    that evaluates every candidate through the per-candidate oracle, with
    random bias tables and edge MLP weights."""
    model = tiny_model(a=3, b=2, seed_size=3, variant=variant, seed=4)
    randomize_bias_tables(model, rng)
    randomize_edge_estimator(model, rng)
    model.params["edge_est.b3"].tensor.data[model.config.b] += 1.5  # some retries
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(4)], 3, rng)
    for i in range(4):
        res = generate_graph(model, bank, 12, np.random.default_rng(i))
        ref = reference_generate(model, bank, 12, np.random.default_rng(i))
        assert (res.graph, res.truncated, res.retries, res.forced) == ref


def test_generation_counts_retries_and_forced_attachments(rng):
    """An edge head that always says "no edge" resamples every step five
    times and then forces the attachment, so forced == n - seed_size and
    retries == 5 * forced; the graph is the one the reference loop draws."""
    model = tiny_model(a=3, b=2, seed_size=3, seed=8)
    model.params["edge_est.b3"].tensor.data[model.config.b] = 60.0
    model.params["node_est.b3"].tensor.data[model.config.a] = -50.0  # never stop
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(3)], 3, rng)
    for i in range(3):
        res = generate_graph(model, bank, 10, np.random.default_rng(i))
        assert res.truncated and res.graph.n == 10
        assert res.forced == res.graph.n - 3
        assert res.retries == 5 * res.forced
        assert res.graph.is_connected()
        ref = reference_generate(model, bank, 10, np.random.default_rng(i))
        assert (res.graph, res.truncated, res.retries, res.forced) == ref


def test_generation_argument_validation(rng):
    model = tiny_model(seed_size=5)
    graphs = [random_connected_graph(rng, 9)]
    bank = build_seed_bank(graphs, 5, rng)
    with pytest.raises(SamplerError, match="max_nodes"):
        generate_graph(model, bank, 5, rng)
    wrong_bank = build_seed_bank(graphs, 4, rng)
    with pytest.raises(SamplerError, match="seed size"):
        generate_graph(model, wrong_bank, 10, rng)
