import collections
import os
import signal
import warnings

import numpy as np
import pytest

from gram import attention as A
from gram import graphs as G
from gram import sampler
from gram import tensor as T
from gram.graphs import OrderedGraph
from gram.model import ModelError, Prefixes
from gram.sampler import SamplerError, _cdf, _sample, build_seed_bank, generate_graph

from conftest import apply_ordering, edge_distribution_step, random_connected_graph, tiny_model
from test_model import randomize_edge_estimator
from gram.tensor import Tape
from gram.training import chunk_loss, step_chunks

from test_training import assert_no_child_left, randomize_bias_tables


def reference_generate(model, bank, max_nodes, rng, argmax=False):
    """The sampling loop with every edge distribution from the per-candidate
    oracle, which rebuilds the attention history for each candidate.
    Returns (graph, truncated, retries, forced)."""
    c = model.config
    seed = bank.seeds[int(rng.integers(len(bank.seeds)))]
    labels, edges = list(seed.node_labels), [tuple(e) for e in seed.edges]
    retries = forced = 0
    while len(labels) < max_nodes:
        s = len(labels)
        batch = Prefixes(labels, edges, [s], c.radius)
        hv = model.extract_features(batch)
        hg = model.graph_pool(hv, batch.nodes)
        lab = _sample(rng, T.softmax(model.node_logits(hg)).data[0], argmax)
        if lab == c.a:
            return G.LabeledGraph.create(s, labels, edges, c.a, c.b), False, retries, forced
        lo = 0
        if c.variant in ("B", "AB"):
            lo = min([u for u, v, _ in edges if v == s - 1], default=s - 1)
        attempts = 0
        while attempts < (1 if argmax else 6):
            attempts += 1
            decided, dists = [], []
            for t in range(lo, s):
                dist = T.softmax(edge_distribution_step(
                    model, hv, hg, lab, t, decided, c.variant in ("A", "AB"),
                    batch.dist[0])).data[0]
                dists.append(dist)
                decided.append((t, _sample(rng, dist, argmax)))
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


def test_seed_bank_matches_the_relabelled_graphs(rng):
    """Each seed is the first seed_size positions of the reference
    relabelling under the same BFS draws, with the edges among them; a
    graph below the seed size draws nothing."""
    graphs = [random_connected_graph(rng, int(rng.integers(3, 15)),
                                     extra_edge_prob=float(rng.uniform(0.0, 0.5)))
              for _ in range(30)]
    for seed_size in (1, 4, 9):
        want, draws = [], np.random.default_rng(seed_size)
        for g in graphs:
            if g.n < seed_size:
                continue
            start = int(draws.integers(g.n))
            ordered = apply_ordering(g, G.bfs_ordering(g, start, draws))
            edges = [(u, v, lab) for u, v, lab in ordered.edges if v < seed_size]
            want.append(G.LabeledGraph.create(seed_size, ordered.node_labels[:seed_size],
                                              edges, g.a, g.b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bank = build_seed_bank(graphs, seed_size, np.random.default_rng(seed_size))
        assert bank.seeds == want


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
    bank = build_seed_bank([g for g in graphs for _ in range(40)], 1, np.random.default_rng(0))
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


def test_sample_draws_as_rng_choice(rng):
    """_sample's inverse-CDF draw gives rng.choice's index and consumes the
    same random numbers, over distributions with zeros, ties, a single
    entry and sums far from 1."""
    ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
    for k in range(3000):
        size = int(rng.integers(1, 7))
        dist = rng.random(size) * 10.0 ** rng.integers(-3, 4)
        if k % 3 == 0:
            dist[rng.random(size) < 0.4] = 0.0
        if k % 5 == 0:
            dist[:] = dist[0]
        if not dist.sum() > 0.0:
            dist[-1] = 1.0
        p = dist / dist.sum()
        assert _sample(ours, dist, False) == int(theirs.choice(len(p), p=p))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_stacked_cdf_rows_equal_single_row_cdfs(rng):
    """_draw_edges computes the draw tables of a pass's rows in one stacked
    _cdf call; row for row they are the numbers of a one-row call, bit for
    bit, over widths that cover numpy's pairwise summation blocks."""
    for width in (1, 2, 3, 5, 8, 9, 17, 40):
        for rows in (1, 2, 7, 60):
            dists = rng.random((rows, width)) ** 3 * 10.0 ** rng.integers(-4, 4, size=(rows, 1))
            stacked = _cdf(dists[rng.integers(rows):])  # views that start mid-array too
            for row, cdf in zip(dists[rows - len(stacked):], stacked):
                assert np.array_equal(cdf, _cdf(row))


@pytest.mark.parametrize("head", ["node", "edge"])
def test_nan_distribution_raises(head, rng):
    """A NaN from the model stops sampling with an error naming the step,
    in place of an out-of-range draw."""
    model = tiny_model(a=3, b=2, seed_size=3)
    params = model.params
    params["node_est.w3"].tensor.data[:] = 0.0
    params["node_est.b3"].tensor.data[model.config.a] = -50.0
    params[f"{head}_est.b3"].tensor.data[0] = np.nan
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(3)], 3, rng)
    with pytest.raises(SamplerError, match=f"non-finite {head} distribution at step 3"):
        generate_graph(model, bank, max_nodes=12, rng=np.random.default_rng(1))


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


def test_generation_builds_one_prefixes_batch_per_step(rng, monkeypatch):
    """A sampled step evaluates its prefix as one Prefixes batch, which
    feature extraction, pooling and the edge estimator share: one batch per
    step, the step that draws the stop class included."""
    model = tiny_model(a=3, b=2, seed_size=3)
    model.params["node_est.w3"].tensor.data[:] = 0.0  # stop with probability 1/4
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(3)], 3, rng)
    built, init = [], Prefixes.__init__

    def counting_init(self, labels, edges, steps, radius):
        built.append(len(steps))
        init(self, labels, edges, steps, radius)

    monkeypatch.setattr(Prefixes, "__init__", counting_init)
    outcomes = set()
    for i in range(6):
        built.clear()
        res = generate_graph(model, bank, max_nodes=9, rng=np.random.default_rng(i))
        assert built == [1] * (res.graph.n - 3 + (not res.truncated))
        outcomes.add(res.truncated)
    assert outcomes == {False, True}


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
        starts = G.frontier_starts(og.edges, og.n)
        for s in range(bank.seed_size, og.n):
            frontier = set(range(starts[s - 1], s))
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


@pytest.mark.parametrize("variant", ["plain", "A", "B", "AB"])
def test_sampled_log_likelihood_equals_the_teacher_forced_nll(variant, rng, monkeypatch):
    """The sum of -log p over the draws generate_graph keeps (the node
    labels and the edge codes of each step's accepted attempt) equals the
    NLL that chunk_loss gives the sampled graph, to 1e-12 relative, with
    random bias tables: the eager sampling path and the taped training path
    score the same graph alike.  Results with a forced attachment, whose
    edge was not drawn, are skipped."""
    model = tiny_model(a=3, b=2, seed_size=3, variant=variant, seed=6)
    randomize_bias_tables(model, rng)
    randomize_edge_estimator(model, rng)
    model.params["node_est.b3"].tensor.data[model.config.a] -= 1.0  # longer graphs
    model.params["edge_est.w3"].tensor.data[:] *= 0.2
    model.params["edge_est.b3"].tensor.data[model.config.b] += 2.5  # some retries
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(4)], 3, rng)
    draws = []  # -log p of every draw kept
    real_sample, real_draw_edges = sampler._sample, sampler._draw_edges

    def sample(rng, dist, argmax, cdf=None):
        k = real_sample(rng, dist, argmax, cdf)
        draws.append(-np.log(dist[k]))
        return k

    def draw_edges(step, draft, rng, argmax, s):
        start = len(draws)
        codes, dists, passes = real_draw_edges(step, draft, rng, argmax, s)
        if not (codes < model.config.b).any():
            del draws[start:]  # an attempt with no edge: the step draws again
        return codes, dists, passes

    monkeypatch.setattr(sampler, "_sample", sample)
    monkeypatch.setattr(sampler, "_draw_edges", draw_edges)
    checked = 0
    for i in range(12):
        draws.clear()
        res = generate_graph(model, bank, 14, np.random.default_rng(i))
        if res.forced:
            continue
        g = res.graph
        og = OrderedGraph(g, range(g.n))
        last = g.n if res.truncated else g.n + 1
        nll = 0.0
        for steps in step_chunks(range(model.config.seed_size, last)):
            with Tape():
                nll += chunk_loss(model, og, steps)[0].item()
        assert sum(draws) == pytest.approx(nll, rel=1e-12, abs=0.0), (variant, i)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("variant", ["plain", "B"])
def test_argmax_generation_is_greedy_and_ignores_the_rng(variant, rng):
    """An argmax draw takes the likeliest index and no random number.  With
    argmax and a bank of one seed, rngs of different seeds give the same
    graph and counters, the per-candidate reference's greedy graph."""
    dist = np.array([0.2, 0.3, 0.5])
    state = rng.bit_generator.state
    assert _sample(rng, dist, True) == 2 and rng.bit_generator.state == state
    model = tiny_model(variant=variant, seed=4)
    randomize_edge_estimator(model, rng)
    bank = build_seed_bank([random_connected_graph(rng, 8)], model.config.seed_size, rng)
    results = [generate_graph(model, bank, 12, np.random.default_rng(seed), argmax=True)
               for seed in (1, 2)]
    first = results[0]
    assert results[1] == first
    assert first.retries == 0
    ref = reference_generate(model, bank, 12, np.random.default_rng(3), argmax=True)
    assert (first.graph, first.truncated, first.retries, first.forced) == ref


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


def test_edge_passes_with_a_no_edge_head(rng):
    """With an always-"no edge" head every attempt draws from the step's
    first batched pass, so the retries add no pass: one pass per step."""
    model = tiny_model(a=3, b=2, seed_size=3, seed=8)
    model.params["edge_est.b3"].tensor.data[model.config.b] = 60.0
    model.params["node_est.b3"].tensor.data[model.config.a] = -50.0  # never stop
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(3)], 3, rng)
    res = generate_graph(model, bank, 10, np.random.default_rng(0))
    assert res.retries == 5 * res.forced > 0
    assert res.edge_passes == res.graph.n - 3


def test_edge_passes_count_one_per_drawn_edge_before_the_last_candidate(rng):
    """A step runs one pass, plus one after each edge drawn on a candidate
    other than the last one, s - 1.  With no retry there is no forced edge,
    so those are the generated edges (u, s) with u < s - 1."""
    model = tiny_model(a=3, b=2, seed_size=3, seed=2, variant="B")
    model.params["edge_est.b3"].tensor.data[:model.config.b] = 2.0  # edges likely
    model.params["node_est.b3"].tensor.data[model.config.a] = -50.0
    bank = build_seed_bank([random_connected_graph(rng, 8) for _ in range(3)], 3, rng)
    for i in range(5):
        res = generate_graph(model, bank, 12, np.random.default_rng(i))
        assert res.retries == 0
        g = res.graph
        extra = sum(1 for u, v, _ in g.edges if v >= 3 and u < v - 1)
        assert res.edge_passes == (g.n - 3) + extra


def test_generation_argument_validation(rng):
    model = tiny_model(seed_size=5)
    graphs = [random_connected_graph(rng, 9)]
    bank = build_seed_bank(graphs, 5, rng)
    with pytest.raises(SamplerError, match="max_nodes"):
        generate_graph(model, bank, 5, rng)
    wrong_bank = build_seed_bank(graphs, 4, rng)
    with pytest.raises(SamplerError, match="seed size"):
        generate_graph(model, wrong_bank, 10, rng)


# ---------------------------------------------------------------------------
# the attention helper: a process forked per sample on two or more CPUs
# ---------------------------------------------------------------------------

def sample_on(monkeypatch, cpus, min_cost=0):
    """Let the sampler see the given number of CPUs; with two or more it
    forks a helper for every sample that costs at least min_cost.  Returns
    the list that each fork appends its parent's pid to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(sampler, "HELPER_MIN_COST", min_cost)
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def helper_model(variant, **kw):
    """A two-block tiny model with random bias tables that stops now and
    then, and often declines every candidate of a step, so that some steps
    force an attachment."""
    model = tiny_model(a=3, b=2, seed_size=3, variant=variant, seed=5, blocks=2, **kw)
    randomize_bias_tables(model, np.random.default_rng(2))
    model.params["node_est.b3"].tensor.data[model.config.a] -= 2.0
    model.params["edge_est.b3"].tensor.data[model.config.b] += 4.0
    return model


def outcome(res):
    return res.graph, res.truncated, res.retries, res.forced, res.edge_passes


@pytest.mark.parametrize("variant", ["plain", "A", "B", "AB"])
def test_helper_samples_equal_one_cpu_samples(variant, monkeypatch):
    """For several seeds, a sample with the helper equals the sample on one
    CPU: the graph, truncated, retries, forced and edge_passes.  The seeds
    give truncated and stopped samples, and steps that force an
    attachment."""
    model = helper_model(variant)
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(k), 9)
                            for k in range(4)], 3, np.random.default_rng(1))
    results = {}
    for cpus in (1, 2):
        forks = sample_on(monkeypatch, cpus)
        results[cpus] = [outcome(generate_graph(model, bank, 16, np.random.default_rng(seed)))
                         for seed in range(8)]
        assert len(forks) == (0 if cpus == 1 else 8)
    assert results[2] == results[1]
    assert {r[1] for r in results[1]} == {False, True}
    assert any(r[3] for r in results[1])


@pytest.mark.parametrize("how, message", [
    ("raise", "sampling helper failed in the child process: ValueError: attention failed$"),
    ("kill", r"sampling helper: the child process ended without a result "
             r"\(killed by signal 9\)$")])
def test_helper_failure_raises(how, message, monkeypatch):
    """A helper that raises mid-sample, or is killed, fails the sample with
    RuntimeError, and leaves no child behind."""
    forks = sample_on(monkeypatch, 2)
    parent, real, calls = os.getpid(), A.attention_sublayer, []

    def attention_sublayer(*args):
        calls.append(1)
        if os.getpid() != parent and len(calls) == 5:
            if how == "raise":
                raise ValueError("attention failed")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(A, "attention_sublayer", attention_sublayer)
    model = helper_model("plain")
    model.params["node_est.b3"].tensor.data[model.config.a] = -50.0  # never stop
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    with pytest.raises(RuntimeError, match=message):
        generate_graph(model, bank, 16, np.random.default_rng(0))
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("end", ["return", "sampler error", "interrupt"])
def test_no_helper_outlives_the_sample(end, monkeypatch):
    """After a normal return, an error of the sampler and an interrupt, no
    child process is left."""
    forks = sample_on(monkeypatch, 2)
    model = helper_model("B")
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    if end == "sampler error":
        model.params["edge_est.b3"].tensor.data[0] = np.nan
    if end == "interrupt":
        def draw_edges(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(sampler, "_draw_edges", draw_edges)
    error = {"return": None, "sampler error": SamplerError, "interrupt": KeyboardInterrupt}[end]
    if error is None:
        generate_graph(model, bank, 16, np.random.default_rng(0))
    else:
        with pytest.raises(error):
            generate_graph(model, bank, 16, np.random.default_rng(0))
    assert len(forks) == 1
    assert_no_child_left()


def test_helper_builds_no_prefix(monkeypatch):
    """The helper reads each step's rows and distance buckets from the
    sampler and builds no Prefixes of its own."""
    forks = sample_on(monkeypatch, 2)
    parent, real = os.getpid(), Prefixes.__init__

    def init(self, *args, **kw):
        if os.getpid() != parent:
            raise AssertionError("a Prefixes built in the helper")
        real(self, *args, **kw)

    monkeypatch.setattr(Prefixes, "__init__", init)
    model = helper_model("B")
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    generate_graph(model, bank, 16, np.random.default_rng(0))
    assert len(forks) == 1
    assert_no_child_left()


def test_failed_fork_samples_in_process(monkeypatch):
    """With os.fork raising OSError the sample runs in this process and is
    the one the helper gives."""
    model = helper_model("AB")
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    forks = sample_on(monkeypatch, 2)
    want = outcome(generate_graph(model, bank, 16, np.random.default_rng(3)))
    assert len(forks) == 1

    def no_fork():
        raise OSError("no fork on purpose")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []
    real = A.attention_sublayer
    monkeypatch.setattr(A, "attention_sublayer", lambda *args: calls.append(1) or real(*args))
    assert outcome(generate_graph(model, bank, 16, np.random.default_rng(3))) == want
    assert calls  # the attention ran here
    assert_no_child_left()


def test_no_helper_for_a_tiny_model_one_cpu_or_a_tape(monkeypatch):
    """At its default HELPER_MIN_COST a tiny model forks nothing; nor does a
    sample at any cost on one CPU, or under an active tape."""
    model = helper_model("plain")
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    forks = sample_on(monkeypatch, 2, min_cost=sampler.HELPER_MIN_COST)
    generate_graph(model, bank, 30, np.random.default_rng(0))
    sample_on(monkeypatch, 1)
    generate_graph(model, bank, 16, np.random.default_rng(0))
    sample_on(monkeypatch, 2)
    with Tape():
        generate_graph(model, bank, 16, np.random.default_rng(0))
    assert forks == []


def test_extract_features_takes_a_helper_only_for_one_prefix_and_no_tape():
    model = tiny_model()
    og = OrderedGraph(random_connected_graph(np.random.default_rng(0), 6), range(6))
    for steps in ([3, 4], [4]):
        batch = Prefixes(og.labels, og.edges, steps, model.config.radius)
        with Tape():
            with pytest.raises(ModelError, match="one prefix with no active tape"):
                model.extract_features(batch, helper=object())


def test_budget_too_large_to_map_samples_in_process(monkeypatch):
    """A node budget whose helper mapping exceeds ssize_t (mmap raises
    OverflowError, not OSError) samples in this process on two CPUs, and
    gives the graph of one CPU with no fork."""
    model = helper_model("B")
    bank = build_seed_bank([random_connected_graph(np.random.default_rng(0), 9)], 3,
                           np.random.default_rng(1))
    sample_on(monkeypatch, 1)
    want = outcome(generate_graph(model, bank, 10**10, np.random.default_rng(2)))
    forks = sample_on(monkeypatch, 2)
    assert outcome(generate_graph(model, bank, 10**10, np.random.default_rng(2))) == want
    assert forks == []
    assert not want[1] and want[0].n > 16
