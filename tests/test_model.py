import numpy as np
import pytest

from gram import attention as A
from gram import graphs as G
from gram import tensor as T
from gram.model import (VARIANTS, EdgeStep, Model, ModelConfig, ModelError,
                        OrderedGraph, build_prefix, edge_candidates)
from gram.optim import Parameter
from gram.tensor import Tape, Tensor, finite_difference_check

from conftest import random_connected_graph, tiny_model
from test_training import randomize_bias_tables


def identity_ordered(g, radius=2):
    return OrderedGraph(g, G.NodeOrdering.create(range(g.n)), radius)


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
        ctx = A.AttentionContext(dist_idx[np.ix_([t], taus)],
                                 np.ones((1, len(keys)), dtype=bool))
        he_hist = A.g_multi_head(T.concat([ht, hvs], axis=-1), k, k, ctx, model.edge_attn)
    else:
        he_hist = T.const(np.zeros((1, c.d_model)))
    gin = T.concat([ht, hg, hvs, he_hist], axis=-1)
    h = T.relu(T.add(T.matmul(gin, model.edge_w1), model.edge_b1))
    h = T.relu(T.add(T.matmul(h, model.edge_w2), model.edge_b2))
    return T.add(T.matmul(h, model.edge_w3), model.edge_b3)


def randomize_edge_estimator(model, rng):
    """Random edge MLP weights and biases (the biases start at zero)."""
    for name, p in model.params.items():
        if name.startswith("edge_est."):
            p.tensor.data[:] = rng.normal(size=p.tensor.data.shape) * 0.5


def test_config_validation():
    with pytest.raises(ModelError, match="divisible"):
        ModelConfig(a=2, b=2, d_model=10, heads=4)
    with pytest.raises(ModelError, match="variant"):
        ModelConfig(a=2, b=2, variant="C")


def test_conv_single_isolated_node_uses_self_transform(rng):
    model = tiny_model()
    prefix = build_prefix([1], [], radius=2)
    hv = Tensor(rng.normal(size=(1, model.config.d_model)))
    he = T.const(np.zeros((0, model.config.d_model)))
    conv = model.blocks[0][0]
    out, he2 = model.graph_convolution(hv, he, prefix, conv)
    expected = np.maximum(hv.data @ conv["wiso"].data + conv["biso"].data, 0.0)
    assert np.allclose(out.data, expected)
    assert he2.data.shape == (0, model.config.d_model)


def test_conv_symmetric_pair_gets_equal_outputs(rng):
    model = tiny_model()
    d = model.config.d_model
    row = rng.normal(size=d)
    hv = Tensor(np.stack([row, row]))
    prefix = build_prefix([0, 0], [(0, 1, 1)], radius=2)
    he = T.rows(model.embed_edge, [1])
    out, _ = model.graph_convolution(hv, he, prefix, model.blocks[0][0])
    assert np.abs(out.data[0] - out.data[1]).max() < 1e-12


def test_conv_gradients(rng):
    model = tiny_model(d_model=8, heads=2)
    g = random_connected_graph(rng, 5)
    og = identity_ordered(g)
    prefix = og.prefix(5)
    x = rng.normal(size=(5, 8))
    weight = rng.normal(size=(5 * 8,))
    conv_params = [model.params[k] for k in model.params if ".conv." in k and "block0" in k]

    def f():
        he = T.rows(model.embed_edge, prefix.edge_array[:, 2])
        out, _ = model.graph_convolution(Tensor(x), he, prefix, model.blocks[0][0])
        return T.sum_along(T.mul(T.reshape(out, (5 * 8,)), T.const(weight)), 0)

    report = finite_difference_check(f, conv_params, eps=1e-6, samples_per_param=6, rng=rng)
    assert report.max_rel_error <= 1e-5, report


def test_extract_features_zeroed_branches_reduce_to_projection(rng):
    """With conv, attention projection, and sublayer FNN all zeroed, each
    block reduces to projecting the residual-normalized input."""
    model = tiny_model(blocks=1)
    for name, p in model.params.items():
        if ".conv." in name or name.endswith("attn.wo") or ".fnn." in name:
            p.tensor.data[:] = 0.0
    g = random_connected_graph(rng, 6)
    og = identity_ordered(g)
    prefix = og.prefix(6)
    out = model.extract_features(prefix).data

    c = model.config
    x = np.zeros((6, c.a + 2))
    x[np.arange(6), prefix.labels] = 1.0
    x[:, c.a] = prefix.degrees / prefix.degrees.max()
    x[:, c.a + 1] = prefix.clustering
    h0 = x @ model.input_w.data + model.input_b.data

    def ln(v):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5)

    att = ln(ln(h0))  # zero attention output, zero FNN: double layer norm
    conv = np.zeros_like(h0)  # zeroed conv branch (non-isolated nodes)
    combine_w, combine_b = model.blocks[0][2], model.blocks[0][3]
    expected = np.concatenate([conv, att], axis=-1) @ combine_w.data + combine_b.data
    assert np.abs(out - expected).max() < 1e-10


def test_extract_features_twin_nodes_equal_rows():
    # two leaves of a star share label and neighborhood -> identical rows
    g = G.LabeledGraph.create(3, [0, 1, 1], [(0, 1, 0), (0, 2, 0)], a=2, b=1)
    model = tiny_model(a=2, b=1, seed=3)
    out = model.extract_features(identity_ordered(g).prefix(3)).data
    assert np.abs(out[1] - out[2]).max() < 1e-12


def test_extract_features_permutation_equivariance_and_pool_invariance(rng):
    model = tiny_model(seed=5)
    g = random_connected_graph(rng, 7)
    base_prefix = identity_ordered(g).prefix(7)
    base = model.extract_features(base_prefix)
    base_pool = model.graph_pool(base).data
    for _ in range(100):
        perm = rng.permutation(7)
        relabeled = G.apply_ordering(g, G.NodeOrdering.create(perm))
        prefix = identity_ordered(relabeled).prefix(7)
        out = model.extract_features(prefix)
        assert np.abs(out.data - base.data[perm]).max() <= 1e-9
        assert np.abs(model.graph_pool(out).data - base_pool).max() <= 1e-9


def test_graph_pool_single_node_and_closed_gate(rng):
    model = tiny_model()
    hv = Tensor(rng.normal(size=(1, model.config.d_model)))
    pooled = model.graph_pool(hv).data
    hidden = np.maximum(hv.data @ model.pool_w1.data + model.pool_b1.data, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(hidden @ model.pool_w2.data + model.pool_b2.data)))
    assert np.allclose(pooled, gate * hv.data)
    # slam the gate shut
    model.pool_b2.data[:] = -1e9
    model.pool_w2.data[:] = 0.0
    hv2 = Tensor(rng.normal(size=(4, model.config.d_model)))
    assert np.abs(model.graph_pool(hv2).data).max() == 0.0


def test_node_distribution_uniform_with_zero_final_layer(rng):
    model = tiny_model(a=4)
    model.params["node_est.w3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[:] = 0.0
    dist = model.node_distribution(Tensor(rng.normal(size=(1, model.config.d_model))))
    assert np.allclose(dist, 1.0 / 5)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_edge_distribution_uniform_with_zero_final_layer(rng):
    model = tiny_model(b=3)
    model.params["edge_est.w3"].tensor.data[:] = 0.0
    model.params["edge_est.b3"].tensor.data[:] = 0.0
    g = random_connected_graph(rng, 5, b=3)
    og = identity_ordered(g)
    prefix = og.prefix(4)
    hv = model.extract_features(prefix)
    hg = model.graph_pool(hv)
    step = EdgeStep(model, hv, hg, 0, range(3), prefix.dist_idx, False)
    step.reset()
    step.decide(0, 1)
    step.decide(1, 3)
    dist = T.softmax(step.logits(2)).data[0]
    assert np.allclose(dist, 0.25)


def test_edge_candidates_variants():
    # path 0-1-2-3(-4...): at step s=3 the frontier is {1, 2}
    g = G.LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], a=1, b=1)
    og = identity_ordered(g)
    plan_b = edge_candidates(og, 3, "B")
    assert list(plan_b.candidates) == [1, 2] and plan_b.beta == 2
    plan_plain = edge_candidates(og, 3, "plain")
    assert list(plan_plain.candidates) == [0, 1, 2]
    assert not plan_plain.restrict_keys_to_edges
    assert edge_candidates(og, 3, "A").restrict_keys_to_edges
    assert list(edge_candidates(og, 3, "AB").candidates) == [1, 2]
    # B candidates are always a subset of plain candidates
    assert set(plan_b.candidates) <= set(plan_plain.candidates)


def test_variant_a_empty_key_set_gives_zero_history(rng):
    """With no prior edges decided, the A-policy attends over nothing, so
    the history vector is exactly zero; the logits must match a manual
    forward with a zero history."""
    model = tiny_model(variant="A")
    g = random_connected_graph(rng, 5)
    og = identity_ordered(g)
    prefix = og.prefix(4)
    hv = model.extract_features(prefix)
    hg = model.graph_pool(hv)
    b = model.config.b
    step = EdgeStep(model, hv, hg, 1, range(3), prefix.dist_idx, True)
    step.reset()
    step.decide(0, b)  # everything declined so far
    step.decide(1, b)
    logits = step.logits(2)
    he = T.const(np.zeros((1, model.config.d_model)))
    manual = step._logits(T.const(step.base.data[2:3]), he)
    assert np.array_equal(logits.data, manual.data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_step_matches_per_candidate_oracle(variant, rng):
    """EdgeStep's sequential distributions equal the per-candidate oracle's
    to 1e-12, with random bias tables and edge MLP weights, over several
    attempts of one step (reset between them reuses the projections).  The
    first attempt declines every candidate, which leaves the A-policy with
    no key at all; edge_logits_teacher given an attempt's codes reproduces
    that attempt's distributions."""
    for trial in range(3):
        model = tiny_model(variant=variant, seed=trial)
        randomize_bias_tables(model, rng)
        randomize_edge_estimator(model, rng)
        b = model.config.b
        g = random_connected_graph(rng, int(rng.integers(7, 12)))
        og = OrderedGraph(g, G.bfs_ordering(g, int(rng.integers(g.n)), rng), 2)
        s = int(rng.integers(3, g.n))
        prefix = og.prefix(s)
        hv = model.extract_features(prefix)
        hg = model.graph_pool(hv)
        plan = edge_candidates(og, s, variant)
        label = int(og.labels[s])
        step = EdgeStep(model, hv, hg, label, plan.candidates, prefix.dist_idx,
                        plan.restrict_keys_to_edges)
        for attempt in range(3):
            step.reset()
            decided, ours = [], []
            for i, t in enumerate(plan.candidates):
                dist = T.softmax(step.logits(i)).data[0]
                ref = T.softmax(edge_distribution_step(
                    model, hv, hg, label, int(t), decided, plan.restrict_keys_to_edges,
                    prefix.dist_idx)).data[0]
                assert np.abs(dist - ref).max() <= 1e-12
                code = b if attempt == 0 else int(rng.integers(b + 1))
                step.decide(i, code)
                decided.append((int(t), code))
                ours.append(dist)
            codes = np.array([code for _, code in decided])
            teacher = T.softmax(step.edge_logits_teacher(codes)[0]).data
            assert np.abs(teacher - np.array(ours)).max() <= 1e-12


def test_step_distributions_well_formed_1000_random_graphs(rng):
    """Node and edge distributions sum to 1 and contain no NaN/Inf under
    random init, across 1000 random graphs and all variants."""
    models = {v: tiny_model(d_model=8, heads=2, variant=v, seed=7) for v in
              ("plain", "A", "B", "AB")}
    for i in range(1000):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering, 2)
        model = models[("plain", "A", "B", "AB")[i % 4]]
        s = int(rng.integers(2, n))
        step = model.teacher_forced_step(og, s)
        assert np.isfinite(step.node_dist).all()
        assert step.node_dist.sum() == pytest.approx(1.0, abs=1e-9)
        for _, dist in step.edge_dists:
            assert np.isfinite(dist).all()
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_alpha_bounded_by_degree_and_counters(rng):
    for _ in range(100):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering, 2)
        deg = og.graph.degrees()
        model = tiny_model(d_model=8, heads=2, variant="B")
        s = int(rng.integers(2, n))
        step = model.teacher_forced_step(og, s)
        assert step.counters.alpha <= deg[s]
        assert step.counters.dropped_edges == 0
        assert step.counters.beta == len(G.frontier_nodes(
            og.graph, G.NodeOrdering.create(range(n)), s))


def test_counter_ordering_across_variants(rng):
    """Per-step attended-pair counts: AB <= A and B <= plain."""
    for _ in range(50):
        n = int(rng.integers(5, 14))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering, 2)
        s = int(rng.integers(2, n))
        pairs = {}
        for variant in ("plain", "A", "B", "AB"):
            model = tiny_model(d_model=8, heads=2, variant=variant)
            pairs[variant] = model.teacher_forced_step(og, s).counters.key_pairs
        assert pairs["AB"] <= pairs["A"]
        assert pairs["B"] <= pairs["plain"]
