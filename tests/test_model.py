import bisect

import numpy as np
import pytest

from gram import attention as A
from gram import graphs as G
from gram import tensor as T
from gram.datasets import CorpusSpec, CorpusSpecError, generate_corpus
from gram.graphs import OrderedGraph
from gram.model import VARIANTS, EdgeStep, ModelConfig, ModelError, Prefixes, StepCounters
from gram.sampler import _draw_edges, _edge_dists, build_seed_bank, generate_graph
from gram.tensor import Tape, Tensor
from gram.training import TrainConfig, TrainError, chunk_loss

from gram import training
from conftest import (apply_ordering, build_prefix, compose_fused, edge_distribution_step,
                      encode_in_full, finite_difference_check, full_block_rows,
                      full_extract_features, gradients, grid, random_connected_graph,
                      teacher_forced_step, tiny_model)
from test_training import loss_and_grads, randomize_bias_tables


def identity_ordered(g):
    return OrderedGraph(g, range(g.n))


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
    with pytest.raises(ModelError, match="heads 0"):
        ModelConfig(a=2, b=2, heads=0)
    with pytest.raises(ModelError, match="d_model -8, d_ff 0"):
        ModelConfig(a=2, b=2, d_model=-8, d_ff=0)


def test_config_field_types():
    """Integer fields take Python or numpy integers, float fields also
    floats, flags only bools; no number field takes a bool.  A wrong type
    is a ModelError, TrainError or CorpusSpecError naming every such field."""
    ModelConfig(a=np.int64(2), b=2, d_model=np.int32(8), heads=2)
    TrainConfig(epochs=np.int64(1), lr=np.float32(0.5), grad_clip=1)
    CorpusSpec("grid", np.int64(2), 9, 16)
    with pytest.raises(ModelError, match="bias_in_fe must be true or false, got 'no'"):
        ModelConfig(a=2, b=2, bias_in_fe="no")
    with pytest.raises(ModelError, match="d_model must be an integer, got 8.0; heads must be"):
        ModelConfig(a=2, b=2, d_model=8.0, heads=True)
    with pytest.raises(TrainError, match="lr must be a number, got True"):
        TrainConfig(lr=True)
    with pytest.raises(TrainError, match="resample_orderings must be true or false"):
        TrainConfig(resample_orderings=1)
    with pytest.raises(CorpusSpecError, match="count must be an integer, got 2.5"):
        CorpusSpec("grid", 2.5, 9, 16)


def per_head_init(model, init_seed):
    """Replay of the per-head initialisation: every matrix parameter drawn by
    Glorot with its fans from the first two extents, in parameter order,
    and each attention table as one (d_S, d_in) draw per head, head 0
    first.  The bias tables, biases and gains draw nothing."""
    rng = np.random.default_rng(init_seed)

    def glorot(shape):
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)

    out = {}
    for name, p in model.params.items():
        shape = p.data.shape
        if name.rpartition(".")[2] in ("wq", "wk", "wv"):
            out[name] = np.stack([glorot(shape[1:]) for _ in range(shape[0])])
        elif name.rpartition(".")[2] in ("bq", "bk", "bv"):
            out[name] = np.stack([np.zeros(shape[1:]) for _ in range(shape[0])])
        elif len(shape) == 2:
            out[name] = glorot(shape)
    return out


@pytest.mark.parametrize("kw", [{}, {"heads": 4, "blocks": 2, "variant": "B", "radius": 3}])
def test_attention_init_matches_per_head_draws(kw):
    """Every head-batched attention table, and every other drawn matrix,
    equals np.stack of the per-head draws exactly."""
    for seed in (0, 5):
        model = tiny_model(seed=seed, **kw)
        replay = per_head_init(model, seed)
        assert sum(name.endswith((".wq", ".bv")) for name in replay) == 2 * (model.config.blocks + 1)
        for name, want in replay.items():
            assert np.array_equal(model.params[name].data, want), name


def loop_prefix_stats(s, edge_array, radius):
    """Distances and clustering of a prefix as build_prefix computed them
    before its matrix form: CSR lists, one BFS queue per source and one
    neighbour submatrix per node."""
    deg = np.zeros(s, dtype=np.int64)
    for i, j, _ in edge_array:
        deg[i] += 1
        deg[j] += 1
    indptr = np.concatenate([[0], np.cumsum(deg)])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    fill = indptr[:-1].copy()
    for i, j, _ in edge_array:
        indices[fill[i]] = j
        fill[i] += 1
        indices[fill[j]] = i
        fill[j] += 1
    dist = np.full((s, s), radius + 1, dtype=np.int64)
    for src in range(s):
        dist[src, src] = 0
        queue = [src]
        for u in queue:
            if dist[src, u] >= radius:
                continue
            for v in indices[indptr[u]:indptr[u + 1]]:
                if dist[src, v] > dist[src, u] + 1:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    clus = np.zeros(s, dtype=np.float64)
    mat = np.zeros((s, s), dtype=np.uint8)
    for i, j, _ in edge_array:
        mat[i, j] = mat[j, i] = 1
    for v in range(s):
        if deg[v] < 2:
            continue
        nbrs = np.flatnonzero(mat[v])
        links = int(mat[np.ix_(nbrs, nbrs)].sum()) // 2
        clus[v] = 2.0 * links / (deg[v] * (deg[v] - 1))
    return dist, deg, clus


def test_build_prefix_matches_loop_version(rng):
    """The matrix-product prefix statistics are bit-identical to the loops."""
    for _ in range(30):
        n = int(rng.integers(1, 25))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.8)))
        s = int(rng.integers(1, n + 1))
        edges = np.array([(u, v, lab) for u, v, lab in g.edges if v < s]).reshape(-1, 3)
        radius = int(rng.integers(1, 5))
        batch = Prefixes(g.node_labels[:s], edges, [s], radius)
        dist, deg, clus = loop_prefix_stats(s, edges, radius)
        assert np.array_equal(batch.dist[0], dist)
        assert np.array_equal(batch.degrees, deg) and batch.degrees.dtype == np.int64
        assert np.array_equal(batch.clustering.view(np.int64), clus.view(np.int64))


def reference_prefixes(labels, edges, steps, radius):
    """The per-step Prefix of each step, built by the reference builder
    from the edge rows with j < s in their given order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    return [build_prefix(labels[:s], edges[edges[:, 1] < s], radius) for s in steps]


def prefixes_cases(rng):
    """(labels, edges, steps, radius): random BFS-ordered graphs at random
    ascending steps that include 1 and n, with their edges sorted as
    OrderedGraph sorts them or, as a seed's are before the sampler appends
    to them, by (i, j); a graph whose last node is isolated, and one with no
    edges at all."""
    cases = []
    for k in range(16):
        n = int(rng.integers(1, 14))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.6)))
        perm = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, perm)
        middle = rng.permutation(np.arange(2, n))[:int(rng.integers(0, 5))]
        steps = sorted({1, n, *middle.tolist()})
        edges = og.edges if k % 2 else np.array(apply_ordering(g, perm).edges).reshape(-1, 3)
        cases.append((og.labels, edges, steps, int(rng.integers(1, 5))))
    g = random_connected_graph(rng, 7, extra_edge_prob=0.4)
    cases.append((np.array([*g.node_labels, 0]), np.array(g.edges), [1, 4, 7, 8], 2))
    cases.append((np.array([0, 1, 2, 1]), np.zeros((0, 3), dtype=np.int64), [1, 2, 4], 2))
    return cases


def test_prefixes_match_per_step_reference(rng):
    """A Prefixes batch equals, bit for bit, the reference's per-step
    prefixes packed and padded: labels, edge ends and labels, degrees,
    clustering, distance buckets with radius + 1 in the unused places,
    and each step's frontier start."""
    for labels, edges, steps, radius in prefixes_cases(rng):
        got = Prefixes(labels, edges, steps, radius)
        items = reference_prefixes(labels, edges, steps, radius)
        offsets = got.nodes.offsets
        assert np.array_equal(offsets, np.cumsum([0] + [p.n for p in items]))
        ref_edges = np.concatenate([p.edge_array for p in items])
        shift = np.repeat(offsets[:-1], [len(p.edge_array) for p in items])
        for name, value, want in (
                ("labels", got.labels, np.concatenate([p.labels for p in items])),
                ("first ends", got.ends[0], ref_edges[:, 0] + shift),
                ("last ends", got.ends[1], ref_edges[:, 1] + shift),
                ("edge labels", got.edge_labels, ref_edges[:, 2]),
                ("degrees", got.degrees, np.concatenate([p.degrees for p in items])),
                ("clustering", got.clustering, np.concatenate([p.clustering for p in items])),
                ("dist", got.dist, grid([p.dist_idx for p in items], radius + 1)),
                ("frontier_lo", got.frontier_lo, np.array([p.frontier_lo for p in items]))):
            assert value.dtype == want.dtype and value.shape == want.shape, name
            assert value.tobytes() == want.tobytes(), name


def test_prefixes_need_ascending_steps():
    for steps in ([3, 3], [4, 2]):
        with pytest.raises(ModelError, match="steps must ascend"):
            Prefixes([0] * 5, [(0, 1, 0)], steps, 2)


def family_orderings(rng):
    """BFS orderings of grid, lobster and BA graphs: their prefixes leave
    rows clean (grids, lobsters) or raise the largest degree often (BA)."""
    for family, lo, hi in (("grid", 16, 20), ("lobster", 14, 20), ("ba", 12, 16)):
        for g in generate_corpus(CorpusSpec(family, 2, lo, hi, seed=int(rng.integers(99)))):
            yield g, OrderedGraph(g, G.bfs_ordering(g, int(rng.integers(g.n)), rng))


@pytest.mark.parametrize("variant", VARIANTS)
def test_reused_rows_match_the_full_reencoding(variant, rng, monkeypatch):
    """Computing only the dirty rows of each prefix after a chunk's first
    gives the full re-encoding's feature rows, chunk NLLs and every
    parameter gradient to 1e-10 relative (a gradient's scale floored at
    1e-3, as in finite_difference_check), with random non-zero bias
    tables, on chunks of several prefixes of grid, lobster and BA
    orderings, steps that raise the largest degree among them."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 80)
    raised = chunks = 0
    for g, og in family_orderings(rng):
        model = tiny_model(g.a, g.b, variant, blocks=3, seed_size=2, seed=og.n)
        randomize_bias_tables(model, rng)
        for steps in training.step_chunks(range(2, og.n + 1)):
            batch = Prefixes(og.labels, og.edges, steps, 2)
            chunks += len(steps) > 1
            largest = np.maximum.reduceat(batch.degrees, batch.nodes.offsets[:-1])
            raised += int((np.diff(largest) > 0).sum())
            want = full_extract_features(model, batch).data
            got = model.extract_features(batch).data
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            results = []
            for full in (False, True):
                with monkeypatch.context() as patch:
                    if full:
                        encode_in_full(patch)

                    def backward():
                        with Tape() as tape:
                            loss, _ = chunk_loss(model, og, steps)
                            tape.backward(loss)
                        return loss.item()

                    results.append(loss_and_grads(model, backward))
            (nll, grads), (want_nll, want_grads) = results
            assert nll == pytest.approx(want_nll, rel=1e-10)
            for name, ref in want_grads.items():
                scale = max(np.abs(ref).max(), 1e-3)
                assert np.abs(grads[name] - ref).max() <= 1e-10 * scale, name
    assert raised > 0 and chunks > 6


def test_dirty_rows_cover_every_row_that_moves(rng):
    """Every row whose value at a level (the projected input, then each
    block's output) moves by more than 1e-12 from its value in the
    previous prefix is dirty at that level, on random graphs in BFS and in
    random orders (prefixes with isolated rows and far-apart parts), at
    radius 1 and 2, with random bias tables; and rows that do not move are
    left clean at every level."""
    clean = [0] * 4
    for trial in range(16):
        n = int(rng.integers(6, 16))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.3)))
        order = rng.permutation(n) if trial % 4 == 0 else G.bfs_ordering(g, 0, rng)
        og = OrderedGraph(g, [int(v) for v in order])
        model = tiny_model(blocks=3, seed=trial, radius=1 + trial % 2)
        randomize_bias_tables(model, rng)
        batch = Prefixes(og.labels, og.edges, range(1, n + 1), model.config.radius)
        dirty = batch.dirty(3)
        old = np.flatnonzero(batch.previous >= 0)
        for level, rows in enumerate(full_block_rows(model, batch)):
            h = rows.data
            moved = np.abs(h[old] - h[batch.previous[old]]).max(axis=1) > 1e-12 * np.abs(h).max()
            assert not (moved & ~dirty.nodes[level][old]).any(), (trial, level)
            clean[level] += int((~dirty.nodes[level][old]).sum())
    assert min(clean) > 0


def test_one_prefix_batch_computes_every_row_with_no_gather(rng, monkeypatch):
    """A one-prefix batch, the sampler's, is dirty in every row and edge
    at every level, and its forward runs the full re-encoding's gathers
    and gives its rows bit for bit: no gather reads a reused row."""
    model = tiny_model(blocks=3, seed=5)
    randomize_bias_tables(model, rng)
    calls = []
    real_rows = T.rows
    monkeypatch.setattr(T, "rows", lambda table, idx: calls.append(
        (table.data.shape, np.asarray(idx).tolist())) or real_rows(table, idx))
    for n in (1, 2, 6, 11, 14):
        g = random_connected_graph(rng, n)
        og = OrderedGraph(g, G.bfs_ordering(g, 0, rng))
        batch = Prefixes(og.labels, og.edges, [n], 2)
        dirty = batch.dirty(3)
        assert all(mask.all() for mask in dirty.nodes + dirty.edges)
        assert dirty.output is None
        calls.clear()
        got = model.extract_features(batch).data
        gathers = list(calls)
        calls.clear()
        want = full_extract_features(model, batch).data
        assert gathers == calls and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_step_gathers_the_reference_slices(variant, rng):
    """EdgeStep's candidates and distance grid equal the reference's: each
    step's frontier (B, AB) or every earlier position, and the block of the
    step's prefix distances among them, 0 in the unused places."""
    for labels, edges, steps, radius in prefixes_cases(rng):
        edge_steps = [s for s in steps if s < len(labels)]
        if not edge_steps:
            continue
        model = tiny_model(variant=variant, radius=radius)
        d = model.config.d_model
        batch = Prefixes(labels, edges, steps, radius)
        step = EdgeStep(model, Tensor(rng.normal(size=(batch.nodes.total, d))),
                        Tensor(rng.normal(size=(len(steps), d))), labels[edge_steps], batch)
        items = reference_prefixes(labels, edges, edge_steps, radius)
        starts = [p.frontier_lo if variant in ("B", "AB") else 0 for p in items]
        want = np.concatenate([np.arange(lo, p.n) for lo, p in zip(starts, items)])
        assert step.candidates.dtype == want.dtype and np.array_equal(step.candidates, want)
        want = grid([p.dist_idx[lo:, lo:] for lo, p in zip(starts, items)], 0)
        assert step.dist.dtype == want.dtype and np.array_equal(step.dist, want)


def test_conv_single_isolated_node_uses_self_transform(rng):
    model = tiny_model()
    hv = Tensor(rng.normal(size=(1, model.config.d_model)))
    he = T.const(np.zeros((0, model.config.d_model)))
    conv = model.blocks[0][0]
    out, he2 = model.graph_convolution(hv, he, Prefixes([1], [], [1], 2), conv)
    expected = np.maximum(hv.data @ conv["wiso"].data + conv["biso"].data, 0.0)
    assert np.allclose(out.data, expected)
    assert he2.data.shape == (0, model.config.d_model)


def test_conv_symmetric_pair_gets_equal_outputs(rng):
    model = tiny_model()
    d = model.config.d_model
    row = rng.normal(size=d)
    hv = Tensor(np.stack([row, row]))
    he = T.rows(model.embed_edge, [1])
    out, _ = model.graph_convolution(hv, he, Prefixes([0, 0], [(0, 1, 1)], [2], 2),
                                     model.blocks[0][0])
    assert np.abs(out.data[0] - out.data[1]).max() < 1e-12


def test_conv_gradients(rng):
    model = tiny_model(d_model=8, heads=2)
    g = random_connected_graph(rng, 5)
    og = identity_ordered(g)
    batch = Prefixes(og.labels, og.edges, [5], 2)
    x = rng.normal(size=(5, 8))
    weight = rng.normal(size=(5 * 8,))
    conv_params = [model.params[k] for k in model.params if ".conv." in k and "block0" in k]

    def f():
        he = T.rows(model.embed_edge, batch.edge_labels)
        out, _ = model.graph_convolution(Tensor(x), he, batch, model.blocks[0][0])
        return T.sum_along(T.mul(T.reshape(out, (5 * 8,)), T.const(weight)), 0)

    report = finite_difference_check(f, conv_params, eps=1e-6, samples_per_param=6, rng=rng)
    assert report.max_rel_error <= 1e-5, report


def reference_graph_convolution(hv, he, prefix, conv):
    """graph_convolution as it was before the split by input part: both
    directions' full (t, 3d) x (3d, 3d) products, six per-edge output
    projections and an (s, t) scatter of their sums."""
    iso = T.relu(T.add(T.matmul(hv, conv["wiso"]), conv["biso"]))
    t_cnt = len(prefix.edge_array)
    if t_cnt == 0:
        return iso, he
    ii, jj = prefix.edge_array[:, 0], prefix.edge_array[:, 1]
    hi, hj = T.rows(hv, ii), T.rows(hv, jj)
    hid1 = T.relu(T.add(T.matmul(T.concat([hi, he, hj], axis=-1), conv["w1"]), conv["b1"]))
    hid2 = T.relu(T.add(T.matmul(T.concat([hj, he, hi], axis=-1), conv["w1"]), conv["b1"]))
    f1_src, f1_edge, f1_dst, f2_src, f2_edge, f2_dst = (
        T.add(T.matmul(hid, conv[f"w{part}"]), conv[f"b{part}"])
        for hid in (hid1, hid2) for part in ("src", "edge", "dst"))
    he_new = T.mul(T.add(f1_edge, f2_edge), T.const(0.5))
    s = prefix.n
    scat_i, scat_j = np.zeros((s, t_cnt)), np.zeros((s, t_cnt))
    scat_i[ii, np.arange(t_cnt)] = 1.0
    scat_j[jj, np.arange(t_cnt)] = 1.0
    sums = T.add(T.matmul(T.const(scat_i), T.add(f1_src, f2_dst)),
                 T.matmul(T.const(scat_j), T.add(f1_dst, f2_src)))
    counts = 2.0 * prefix.degrees
    recip = np.zeros(s)
    np.divide(1.0, counts, out=recip, where=counts > 0)
    agg = T.relu(T.mul(sums, T.const(recip[:, None])))
    has_edge = (prefix.degrees > 0).astype(np.float64)[:, None]
    return T.add(T.mul(agg, T.const(has_edge)), T.mul(iso, T.const(1.0 - has_edge))), he_new


def test_conv_split_matches_reference(rng):
    """The split convolution equals the reference one in its outputs and in
    the gradients of every conv parameter and both inputs, to 1e-12
    relative, with random non-zero biases, on a connected prefix, on
    prefixes with an isolated node, with no edge at all and of one node
    (seed size 1).  The self-transform runs on the isolated rows only:
    wiso and biso get a gradient exactly when the prefix has an isolated
    node, so on a connected prefix the optimizer does not step them."""
    model = tiny_model(d_model=8, heads=2)
    conv = model.blocks[0][0]
    for name, p in model.params.items():
        if ".conv.b" in name:
            p.tensor.data[:] = rng.normal(size=p.tensor.data.shape)
    g = random_connected_graph(rng, 7, extra_edge_prob=0.4)
    cases = [(g.node_labels, g.edges),
             (list(g.node_labels) + [0], g.edges),  # node 7 isolated
             (g.node_labels[:3], []),
             (g.node_labels[:1], [])]
    params = [p for name, p in model.params.items() if name.startswith("block0.conv.")]
    for labels, edges in cases:
        prefix = build_prefix(labels, edges, 2)
        s, t, d = prefix.n, len(prefix.edge_array), 8
        x = rng.normal(size=(s, d))
        e = rng.normal(size=(t, d))
        wv, we = rng.normal(size=(s, d)), rng.normal(size=(t, d))
        results = []
        for conv_fn, layout in ((model.graph_convolution, Prefixes(labels, edges, [s], 2)),
                                (reference_graph_convolution, prefix)):
            for p in params:
                p.tensor.grad = None
            hv, he = Tensor(x, requires_grad=True), Tensor(e, requires_grad=True)
            with Tape() as tape:
                out_v, out_e = conv_fn(hv, he, layout, conv)
                loss = T.add(T.sum_along(T.reshape(T.mul(out_v, T.const(wv)), (s * d,)), 0),
                             T.sum_along(T.reshape(T.mul(out_e, T.const(we)), (t * d,)), 0))
                tape.backward(loss)
            grads = gradients(params)
            grads["hv"] = np.zeros((s, d)) if hv.grad is None else hv.grad
            grads["he"] = np.zeros((t, d)) if he.grad is None else he.grad
            missing = {p.name for p in params if p.tensor.grad is None}
            results.append((out_v.data, out_e.data, grads, missing))
        (v_new, e_new, g_new, missing), (v_ref, e_ref, g_ref, _) = results
        assert np.abs(v_new - v_ref).max() <= 1e-12 * np.abs(v_ref).max()
        assert np.abs(e_new - e_ref).max(initial=0.0) <= 1e-12 * np.abs(e_ref).max(initial=1.0)
        assert any(np.abs(gr).max() > 0 for gr in g_ref.values())
        for key, ref in g_ref.items():
            scale = max(np.abs(ref).max(initial=0.0), 1e-300)
            assert np.abs(g_new[key] - ref).max(initial=0.0) <= 1e-12 * scale, key
        iso = {"block0.conv.wiso", "block0.conv.biso"}
        assert missing & iso == (set() if prefix.degrees.min() == 0 else iso)


def test_conv_batch_matches_per_prefix_reference(rng):
    """On a packed batch of training-step prefixes, the first of one node,
    the conv's rows are the reference conv's of each prefix in turn."""
    model = tiny_model(d_model=8, heads=2)
    conv = model.blocks[0][0]
    for name, p in model.params.items():
        if ".conv.b" in name:
            p.tensor.data[:] = rng.normal(size=p.tensor.data.shape)
    g = random_connected_graph(rng, 8, extra_edge_prob=0.3)
    og = OrderedGraph(g, G.bfs_ordering(g, 0, rng))
    steps = (1, 2, 5, 8)
    items = [build_prefix(og.labels[:s], og.edges[og.edges[:, 1] < s], 2) for s in steps]
    batch = Prefixes(og.labels, og.edges, steps, 2)
    x = rng.normal(size=(batch.nodes.total, 8))
    e = rng.normal(size=(len(batch.edge_labels), 8))
    out_v, out_e = model.graph_convolution(Tensor(x), Tensor(e), batch, conv)
    rows, edges = batch.nodes.offsets, np.cumsum([0] + [len(p.edge_array) for p in items])
    for k, prefix in enumerate(items):
        ref_v, ref_e = reference_graph_convolution(
            Tensor(x[rows[k]:rows[k + 1]]), Tensor(e[edges[k]:edges[k + 1]]), prefix, conv)
        assert np.abs(out_v.data[rows[k]:rows[k + 1]] - ref_v.data).max() \
            <= 1e-12 * np.abs(ref_v.data).max()
        assert np.abs(out_e.data[edges[k]:edges[k + 1]] - ref_e.data).max(initial=0.0) \
            <= 1e-12 * np.abs(ref_e.data).max(initial=1.0)


def test_extract_features_zeroed_branches_reduce_to_projection(rng):
    """With conv, attention projection, and sublayer FNN all zeroed, each
    block reduces to projecting the residual-normalized input."""
    model = tiny_model(blocks=1)
    for name, p in model.params.items():
        if ".conv." in name or name.endswith("attn.wo") or ".fnn." in name:
            p.tensor.data[:] = 0.0
    g = random_connected_graph(rng, 6)
    og = identity_ordered(g)
    batch = Prefixes(og.labels, og.edges, [6], 2)
    out = model.extract_features(batch).data

    c = model.config
    x = np.zeros((6, c.a + 2))
    x[np.arange(6), batch.labels] = 1.0
    x[:, c.a] = batch.degrees / batch.degrees.max()
    x[:, c.a + 1] = batch.clustering
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
    og = identity_ordered(g)
    out = model.extract_features(Prefixes(og.labels, og.edges, [3], 2)).data
    assert np.abs(out[1] - out[2]).max() < 1e-12


def test_extract_features_permutation_equivariance_and_pool_invariance(rng):
    model = tiny_model(seed=5)
    g = random_connected_graph(rng, 7)
    nodes = A.Segments([7])
    og = identity_ordered(g)
    base = model.extract_features(Prefixes(og.labels, og.edges, [7], 2))
    base_pool = model.graph_pool(base, nodes).data
    for _ in range(100):
        perm = rng.permutation(7)
        relabeled = apply_ordering(g, perm)
        og = identity_ordered(relabeled)
        out = model.extract_features(Prefixes(og.labels, og.edges, [7], 2))
        assert np.abs(out.data - base.data[perm]).max() <= 1e-9
        assert np.abs(model.graph_pool(out, nodes).data - base_pool).max() <= 1e-9


def test_graph_pool_single_node_and_closed_gate(rng):
    model = tiny_model()
    hv = Tensor(rng.normal(size=(1, model.config.d_model)))
    pooled = model.graph_pool(hv, A.Segments([1])).data
    hidden = np.maximum(hv.data @ model.pool_w1.data + model.pool_b1.data, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(hidden @ model.pool_w2.data + model.pool_b2.data)))
    assert np.allclose(pooled, gate * hv.data)
    # slam the gate shut
    model.pool_b2.data[:] = -1e9
    model.pool_w2.data[:] = 0.0
    hv2 = Tensor(rng.normal(size=(4, model.config.d_model)))
    assert np.abs(model.graph_pool(hv2, A.Segments([4])).data).max() == 0.0


def test_node_distribution_uniform_with_zero_final_layer(rng):
    model = tiny_model(a=4)
    model.params["node_est.w3"].tensor.data[:] = 0.0
    model.params["node_est.b3"].tensor.data[:] = 0.0
    logits = model.node_logits(Tensor(rng.normal(size=(1, model.config.d_model))))
    dist = T.softmax(logits).data[0]
    assert np.allclose(dist, 1.0 / 5)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_edge_distribution_uniform_with_zero_final_layer(rng):
    model = tiny_model(b=3)
    model.params["edge_est.w3"].tensor.data[:] = 0.0
    model.params["edge_est.b3"].tensor.data[:] = 0.0
    g = random_connected_graph(rng, 5, b=3)
    og = identity_ordered(g)
    batch = Prefixes(og.labels, og.edges, [3], 2)
    hv = model.extract_features(batch)
    hg = model.graph_pool(hv, batch.nodes)
    step = EdgeStep(model, hv, hg, [0], batch)
    assert list(step.candidates) == [0, 1, 2]
    dist = T.softmax(step.edge_logits_teacher([1, 3, 3])[0]).data[2]
    assert np.allclose(dist, 0.25)


def test_edge_candidates_variants(rng):
    # path 0-1-2-3(-4...): at step s=3 the frontier is {1, 2}
    g = G.LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], a=1, b=1)
    og = identity_ordered(g)
    batch = Prefixes(og.labels, og.edges, [3], 2)
    hv = Tensor(rng.normal(size=(3, 16)))
    hg = Tensor(rng.normal(size=(1, 16)))
    steps = {v: EdgeStep(tiny_model(a=1, b=1, variant=v), hv, hg, [0], batch)
             for v in VARIANTS}
    assert list(steps["B"].candidates) == [1, 2] and 3 - batch.frontier_lo[0] == 2
    assert list(steps["plain"].candidates) == [0, 1, 2]
    assert not steps["plain"].restrict and not steps["B"].restrict
    assert steps["A"].restrict and list(steps["A"].candidates) == [0, 1, 2]
    assert steps["AB"].restrict and list(steps["AB"].candidates) == [1, 2]
    # B candidates are always a subset of plain candidates
    assert set(steps["B"].candidates) <= set(steps["plain"].candidates)


def test_variant_a_empty_key_set_gives_zero_history(rng):
    """With no prior edges decided, the A-policy attends over nothing, so
    the history vector is exactly zero; the logits must match a manual
    forward with a zero history."""
    model = tiny_model(variant="A")
    g = random_connected_graph(rng, 5)
    og = identity_ordered(g)
    batch = Prefixes(og.labels, og.edges, [3], 2)
    hv = model.extract_features(batch)
    hg = model.graph_pool(hv, batch.nodes)
    b = model.config.b
    step = EdgeStep(model, hv, hg, [1], batch)
    assert step.restrict and list(step.candidates) == [0, 1, 2]
    logits, pairs = step.edge_logits_teacher([b, b, 0])  # everything declined before 2
    assert pairs == 0
    p = {k: model.params[f"edge_est.{k}"].tensor.data for k in ("w2", "b2", "w3", "b3")}
    h = np.maximum(step.base.data + np.zeros((3, model.config.d_model)) @ step.w1_hist.data, 0.0)
    h = np.maximum(h @ p["w2"] + p["b2"], 0.0)
    assert np.array_equal(logits.data, h @ p["w3"] + p["b3"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_step_matches_per_candidate_oracle(variant, rng):
    """The speculative decoder's distributions equal the per-candidate
    oracle's to 1e-12, with random bias tables and edge MLP weights, over
    several attempts of one step that reuse one draft.  The draft, every
    candidate declining, leaves the A-policy with no key at all; each row
    of an attempt is checked against the oracle given the codes drawn
    before it, and edge_logits_teacher given the attempt's codes
    reproduces the attempt's distributions."""
    for trial in range(3):
        model = tiny_model(variant=variant, seed=trial)
        randomize_bias_tables(model, rng)
        randomize_edge_estimator(model, rng)
        b = model.config.b
        g = random_connected_graph(rng, int(rng.integers(7, 12)))
        og = OrderedGraph(g, G.bfs_ordering(g, int(rng.integers(g.n)), rng))
        s = int(rng.integers(3, g.n))
        batch = Prefixes(og.labels, og.edges, [s], 2)
        hv = model.extract_features(batch)
        hg = model.graph_pool(hv, batch.nodes)
        label = int(og.labels[s])
        step = EdgeStep(model, hv, hg, [label], batch)
        candidates = step.candidates

        def oracle(i, codes):
            decided = [(int(t), int(code)) for t, code in zip(candidates[:i], codes)]
            return T.softmax(edge_distribution_step(
                model, hv, hg, label, int(candidates[i]), decided,
                variant in ("A", "AB"), batch.dist[0])).data[0]

        t = len(candidates)
        draft = _edge_dists(step, np.full(t, b), s)
        for i in range(t):
            assert np.abs(draft[i] - oracle(i, [b] * i)).max() <= 1e-12
        for attempt in range(3):
            codes, dists, passes = _draw_edges(step, draft, rng, False, s)
            assert passes == int((codes[:-1] < b).sum())
            for i in range(t):
                assert np.abs(dists[i] - oracle(i, codes[:i])).max() <= 1e-12
            teacher = T.softmax(step.edge_logits_teacher(codes)[0]).data
            assert np.abs(teacher - dists).max() <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_logits_from_first_row_match_full_pass(variant, rng):
    """edge_logits_teacher(codes, first) gives rows first, first + 1, ...
    of the full pass to 1e-12 (not bit for bit: its products run on fewer
    rows) and counts the key pairs of those rows, for every first of every
    step with two or more candidates, with random bias tables and edge MLP
    weights, and codes that include edges."""
    model = tiny_model(variant=variant)
    randomize_bias_tables(model, rng)
    randomize_edge_estimator(model, rng)
    b = model.config.b
    g = random_connected_graph(rng, 12, extra_edge_prob=0.3)
    og = OrderedGraph(g, G.bfs_ordering(g, 0, rng))
    checked = 0
    for s in range(2, g.n):
        batch = Prefixes(og.labels, og.edges, [s], 2)
        hv = model.extract_features(batch)
        step = EdgeStep(model, hv, model.graph_pool(hv, batch.nodes), og.labels[[s]], batch)
        t = len(step.candidates)
        codes = rng.integers(0, b + 1, size=t)
        codes[rng.integers(t)] = 0  # at least one edge
        full, pairs = step.edge_logits_teacher(codes)
        keys = np.tril(np.ones((t, t), dtype=bool), k=-1)
        if step.restrict:
            keys &= (codes < b)[None, :]
        assert pairs == keys.sum()
        for first in range(1, t):
            part, pairs = step.edge_logits_teacher(codes, first)
            assert part.data.shape == (t - first, b + 1)
            assert np.abs(part.data - full.data[first:]).max() <= 1e-12
            assert pairs == keys[first:].sum()
            checked += 1
        for bad in (-1, t):
            with pytest.raises(ModelError, match="first row"):
                step.edge_logits_teacher(codes, bad)
    assert checked >= 10


def test_edge_logits_first_row_needs_one_step(rng):
    model = tiny_model()
    og = identity_ordered(random_connected_graph(rng, 6))
    batch = Prefixes(og.labels, og.edges, [4, 5], 2)
    hv = model.extract_features(batch)
    step = EdgeStep(model, hv, model.graph_pool(hv, batch.nodes), og.labels[4:6], batch)
    b = model.config.b
    with pytest.raises(ModelError, match="first row 1 needs one step"):
        step.edge_logits_teacher(np.full(len(step.candidates), b), 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_code_gathered_keys_equal_one_hot_product(variant, rng):
    """The key and value rows that a pass picks by edge code from the
    (b + 2, H * d_S) code tables equal, bit for bit, the one-hot product
    with the per-head code projections, on a padded batch of steps."""
    model = tiny_model(variant=variant, b=3)
    randomize_bias_tables(model, rng)
    g = random_connected_graph(rng, 9, b=3, extra_edge_prob=0.3)
    og = OrderedGraph(g, G.bfs_ordering(g, 0, rng))
    batch = Prefixes(og.labels, og.edges, [3, 6, 8], 2)
    hv = model.extract_features(batch)
    step = EdgeStep(model, hv, model.graph_pool(hv, batch.nodes), og.labels[[3, 6, 8]], batch)
    c, attn = model.config, model.edge_attn
    heads, d, runs = attn.heads, c.d_model, step.runs
    grid = np.full(runs.real.shape, c.b, dtype=np.int64)
    grid[runs.real] = rng.integers(0, c.b + 1, size=runs.total)
    pick = np.zeros(grid.shape + (c.b + 2,))
    pick[np.arange(runs.count)[:, None], np.arange(runs.width), grid] = 1.0
    for table, w in ((step.ke, attn.wk), (step.ve, attn.wv)):
        per_head = A.project(model.embed_edge, T.slice_along(w, -1, 2 * d, 3 * d))
        one_hot = pick @ per_head.data.reshape(heads, 1, c.b + 2, c.d_s)
        assert np.array_equal(step._by_code(table, grid).data, one_hot)


def test_step_distributions_well_formed_1000_random_graphs(rng):
    """Node and edge distributions sum to 1 and contain no NaN/Inf under
    random init, across 1000 random graphs and all variants."""
    models = {v: tiny_model(d_model=8, heads=2, variant=v, seed=7) for v in
              ("plain", "A", "B", "AB")}
    for i in range(1000):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering)
        model = models[("plain", "A", "B", "AB")[i % 4]]
        s = int(rng.integers(2, n))
        step = teacher_forced_step(model, og, s)
        assert np.isfinite(step.node_dist).all()
        assert step.node_dist.sum() == pytest.approx(1.0, abs=1e-9)
        for dist in step.edge_dists:
            assert np.isfinite(dist).all()
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_alpha_bounded_by_degree_and_counters(rng):
    for _ in range(100):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering)
        relabeled = apply_ordering(g, ordering)
        deg = relabeled.degrees()
        model = tiny_model(d_model=8, heads=2, variant="B")
        s = int(rng.integers(2, n))
        counters = model.teacher_forced(og, [s]).counters
        assert counters.alpha_sum <= deg[s]
        assert counters.dropped_edges == 0
        lo = min([u for u, v, _ in relabeled.edges if v == s - 1], default=s - 1)
        assert counters.beta_sum == s - lo


def test_counter_ordering_across_variants(rng):
    """Per-step attended-pair counts: AB <= A and B <= plain."""
    for _ in range(50):
        n = int(rng.integers(5, 14))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = OrderedGraph(g, ordering)
        s = int(rng.integers(2, n))
        pairs = {}
        for variant in ("plain", "A", "B", "AB"):
            model = tiny_model(d_model=8, heads=2, variant=variant)
            pairs[variant] = model.teacher_forced(og, [s]).counters.key_pairs
        assert pairs["AB"] <= pairs["A"]
        assert pairs["B"] <= pairs["plain"]


class BisectOrderedGraph:
    """Reference: OrderedGraph's ground-truth lookups before its edges were
    one sorted array: a bisect over the later endpoints for a prefix's edges
    and, for edge codes, each position's lower neighbours read through a
    dict."""

    def __init__(self, g, ordering):
        edges = sorted(apply_ordering(g, ordering).edges, key=lambda e: (e[1], e[0]))
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.later = [e[1] for e in edges]
        self.lower = [[] for _ in range(g.n)]
        for u, v, lab in edges:
            self.lower[v].append((int(u), int(lab)))
        for lst in self.lower:
            lst.sort()
        self.b = g.b

    def prefix_edges(self, s):
        return self.edges[:bisect.bisect_left(self.later, s)]

    def edge_label_codes(self, s, positions):
        lookup = dict(self.lower[s])
        return np.array([lookup.get(int(t), self.b) for t in positions], dtype=np.int64)


def ordered_graph_cases(rng):
    """(graph, ordering): BFS-ordered graphs of every corpus family, a
    one-node graph, and a path ordered so that the first three positions
    share no edge."""
    cases = []
    for family, lo, hi in (("grid", 9, 16), ("lobster", 8, 14), ("community", 8, 16),
                           ("ba", 6, 12)):
        for g in generate_corpus(CorpusSpec(family, 2, lo, hi, seed=int(rng.integers(99)))):
            cases.append((g, G.bfs_ordering(g, int(rng.integers(g.n)), rng)))
    cases.append((G.LabeledGraph.create(1, [0], [], 3, 2), [0]))
    path = G.LabeledGraph.create(6, [0] * 6, [(i, i + 1, i % 2) for i in range(5)], 3, 2)
    cases.append((path, [0, 2, 4, 1, 3, 5]))
    return cases


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_forward_path_matches_the_composed_chains(variant, rng, monkeypatch):
    """Through the fused primitives the model gives the chunk NLLs, every
    gradient and the sampled graphs of the chains they replace, bit for
    bit: random non-zero bias tables, a chunk of several steps (a padded
    batch), an ordering that is not breadth-first (prefixes with isolated
    rows, a first step with no edge) and the edge estimator's first
    candidate, a query row with no key (a zero row of attend)."""
    model = tiny_model(variant=variant, seed_size=2, blocks=2, seed=3)
    randomize_bias_tables(model, rng)
    randomize_edge_estimator(model, rng)
    g = random_connected_graph(rng, 9)
    order = [int(v) for v in rng.permutation(g.n)]
    og = OrderedGraph(g, order)
    params = model.parameters()

    def run():
        for p in params:
            p.tensor.grad = None
        nlls = []
        for steps in ([2], range(3, og.n + 1)):
            with Tape() as tape:
                loss, _ = chunk_loss(model, og, steps)
                tape.backward(loss)
            nlls.append(loss.data.tobytes())
        grads = {name: grad.tobytes() for name, grad in gradients(params).items()}
        bank = build_seed_bank([g], 2, np.random.default_rng(0))
        sampled = [generate_graph(model, bank, 12, np.random.default_rng(k)).graph.edges
                   for k in range(3)]
        return nlls, grads, sampled

    fused = run()
    compose_fused(monkeypatch)
    assert run() == fused


@pytest.mark.parametrize("variant", VARIANTS)
def test_ordered_graph_matches_bisect_reference(variant, rng):
    """Prefixes, edge codes (pair by pair and broadcast) and the
    teacher-forced codes and counters from the sorted edge array equal the
    bisect/dict reference's."""
    dropped = 0
    for g, ordering in ordered_graph_cases(rng):
        og = OrderedGraph(g, ordering)
        ref = BisectOrderedGraph(g, ordering)
        frontier_lo = {}
        for s in range(1, og.n + 1):
            want = build_prefix(og.labels[:s], ref.prefix_edges(s), 2)
            got = Prefixes(og.labels, og.edges, [s], 2)
            edge_array = np.stack([*got.ends, got.edge_labels], axis=1)
            assert edge_array.dtype == np.int64
            assert np.array_equal(edge_array, want.edge_array)
            assert np.array_equal(got.dist[0], want.dist_idx)
            assert got.frontier_lo[0] == want.frontier_lo
            frontier_lo[s] = want.frontier_lo
        rows = np.arange(og.n)
        table = og.edge_codes(rows[:, None], rows[None])
        for s in range(og.n):
            want = ref.edge_label_codes(s, range(s))
            assert np.array_equal(og.edge_codes(s, range(s)), want)
            assert np.array_equal(table[s, :s], want)
        seed = 3 if og.n > 3 else 1
        model = tiny_model(g.a, g.b, variant, d_model=8, heads=2, seed_size=seed)
        steps = range(seed, og.n + 1)
        out = model.teacher_forced(og, steps)
        edge_steps = [s for s in steps if s < og.n]
        starts = [frontier_lo[s] if variant in ("B", "AB") else 0 for s in edge_steps]
        codes = [ref.edge_label_codes(s, range(lo, s)) for s, lo in zip(edge_steps, starts)]
        if not edge_steps:
            assert out.edge_codes is None
            continue
        want = np.concatenate(codes)
        assert out.edge_codes.dtype == np.int64 and np.array_equal(out.edge_codes, want)
        alpha = int((want < g.b).sum())
        assert out.counters == StepCounters(
            node_steps=len(steps), edge_steps=len(edge_steps), edge_decisions=len(want),
            key_pairs=out.counters.key_pairs, alpha_sum=alpha,
            beta_sum=sum(s - frontier_lo[s] for s in edge_steps),
            dropped_edges=sum(len(ref.lower[s]) for s in edge_steps) - alpha)
        dropped += out.counters.dropped_edges
    assert dropped > 0 if variant in ("B", "AB") else dropped == 0
