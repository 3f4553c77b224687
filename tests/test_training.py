import json
import struct
import tracemalloc

import numpy as np
import pytest

import gram.model
from gram import graphs as G
from gram import tensor as T
from gram.model import VARIANTS, EdgeStep, Model, ModelConfig, OrderedGraph
from gram.datasets import CorpusSpec, generate_corpus
from gram.optim import adam_step
from gram.tensor import Tape
from gram import training
from gram.training import (CheckpointError, CheckpointVersionError, NonFiniteError,
                           SkipGraph, TrainConfig, TrainError, backward_per_chunk,
                           chunk_loss, load_checkpoint, save_checkpoint, step_chunks,
                           teacher_forced_loss, train)

from conftest import edge_distribution_step, random_connected_graph, tiny_model


def make_og(g, rng, radius=2):
    ordering = G.bfs_ordering(g, int(rng.integers(g.n)), rng)
    return OrderedGraph(g, ordering, radius)


def zero_final_layers(model):
    for name in ("node_est.w3", "node_est.b3", "edge_est.w3", "edge_est.b3"):
        model.params[name].tensor.data[:] = 0.0


def sequential_loss(model, og):
    """Oracle: every step evaluated on its own, each edge candidate scored
    on its own by the per-candidate estimator edge_distribution_step, given
    the ground-truth codes of the candidates before it.  The variant's
    candidates and key policy are spelled out here, apart from EdgeStep."""
    c = model.config
    total = 0.0
    for s in range(c.seed_size, og.n + 1):
        prefix = og.prefix(s)
        hv = model.extract_features(prefix)
        hg = model.graph_pool(hv)
        target = int(og.labels[s]) if s < og.n else c.a
        onehot = np.zeros((1, c.a + 1))
        onehot[0, target] = 1.0
        total += float(T.cross_entropy_logits(model.node_logits(hg), onehot).data[0])
        if s == og.n:
            continue
        lo = min([u for u, v, _ in og.graph.edges if v == s - 1], default=s - 1)
        candidates = range(lo if c.variant in ("B", "AB") else 0, s)
        codes = og.edge_label_codes(s, candidates)
        decided = []
        for t, code in zip(candidates, codes):
            onehot = np.zeros((1, c.b + 1))
            onehot[0, code] = 1.0
            logits = edge_distribution_step(model, hv, hg, int(og.labels[s]), int(t), decided,
                                            c.variant in ("A", "AB"), prefix.dist_idx)
            total += float(T.cross_entropy_logits(logits, onehot).data[0])
            decided.append((int(t), int(code)))
    return total


def randomize_bias_tables(model, rng):
    """The model starts its bias tables at zero; fill them so that every
    bias term takes part."""
    for name, p in model.params.items():
        if name.split(".")[-1] in ("bq", "bk", "bv"):
            p.tensor.data[:] = rng.normal(size=p.tensor.data.shape) * 0.3


@pytest.mark.parametrize("variant", ["B", "plain"])
def test_per_step_backward_matches_single_backward(variant, rng, monkeypatch):
    """The gradient train() accumulates with one backward per chunk of steps
    equals one backward over the whole teacher-forced loss, to 1e-12
    relative.  The chunk budget is cut so that every graph has several."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 12)
    for trial in range(3):
        model = tiny_model(variant=variant, seed=trial)
        randomize_bias_tables(model, rng)
        og = make_og(random_connected_graph(rng, int(rng.integers(6, 12))), rng)
        assert len(step_chunks(range(model.config.seed_size, og.n + 1))) > 1
        params = model.parameters()
        with Tape() as tape:
            loss, cnt = teacher_forced_loss(model, og)
            tape.backward(T.mul(loss, T.const(0.25)))
        whole = {p.name: p.grad_array().copy() for p in params}
        for p in params:
            p.tensor.grad = None
        total, cnt_steps = backward_per_chunk(model, og, 0.25)
        assert total == pytest.approx(loss.item(), rel=1e-12)
        assert cnt_steps == cnt
        for p in params:
            scale = max(np.abs(whole[p.name]).max(), 1e-300)
            assert np.abs(p.grad_array() - whole[p.name]).max() <= 1e-12 * scale, p.name


def per_step_teacher_forced(model, og, s):
    """Model.teacher_forced before step batching: step s alone, its prefix
    through extract_features, graph_pool and an EdgeStep of its own.
    Returns (node logits, edge codes, edge logits); no edge part at s == n."""
    prefix = og.prefix(s)
    hv = model.extract_features(prefix)
    hg = model.graph_pool(hv)
    node_logits = model.node_logits(hg)
    if s == og.n:
        return node_logits, None, None
    step = EdgeStep(model, hv, hg, int(og.labels[s]), prefix)
    codes = og.edge_label_codes(s, step.candidates)
    return node_logits, codes, step.edge_logits_teacher(codes)[0]


def per_step_loss(model, og, s):
    """training.step_loss before step batching: the loss of step s alone."""
    c = model.config
    node_logits, codes, edge_logits = per_step_teacher_forced(model, og, s)
    target = int(og.labels[s]) if s < og.n else c.a
    parts = [T.cross_entropy_logits(node_logits, training._onehot([target], c.a + 1))]
    if edge_logits is not None:
        parts.append(T.cross_entropy_logits(edge_logits, training._onehot(codes, c.b + 1)))
    return T.sum_along(T.concat(parts, axis=0), 0)


def loss_and_grads(model, backward):
    """(loss, {name: gradient}) after backward() accumulates from zero."""
    params = model.parameters()
    for p in params:
        p.tensor.grad = None
    loss = backward()
    return loss, {p.name: p.grad_array().copy() for p in params}


@pytest.mark.parametrize("variant", VARIANTS)
def test_chunked_steps_match_per_step_oracle(variant, rng):
    """One batched pass over a chunk of steps gives the loss and every
    parameter gradient of running its steps one by one, to 1e-12 relative
    (with a floor of 1e-3 under the gradient scale), with random non-zero
    bias tables.  Seed size 1 puts the one-node,
    no-edge prefix in the chunk with larger ones, and under A and AB its
    step (one candidate) has an empty key set."""
    for trial in range(3):
        model = tiny_model(variant=variant, seed=trial, seed_size=1)
        randomize_bias_tables(model, rng)
        og = make_og(random_connected_graph(rng, int(rng.integers(6, 11))), rng)
        steps = range(1, og.n + 1)

        def per_step():
            total = 0.0
            for s in steps:
                with Tape() as tape:
                    loss = per_step_loss(model, og, s)
                    tape.backward(loss)
                total += loss.item()
            return total

        def chunked():
            with Tape() as tape:
                loss, _ = chunk_loss(model, og, steps)
                tape.backward(loss)
            return loss.item()

        want, oracle = loss_and_grads(model, per_step)
        got, grads = loss_and_grads(model, chunked)
        assert got == pytest.approx(want, rel=1e-12)
        for name, ref in oracle.items():
            # as in finite_difference_check, a floor of 1e-3 in the denominator:
            # some bias-table gradients are zero in exact arithmetic and carry
            # only rounding noise
            scale = max(np.abs(ref).max(), 1e-3)
            assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


def test_step_chunks_partition():
    """Every step is covered once and in order; a chunk's prefix sizes sum
    to at most the budget, and adding the next step would break it; a step
    larger than the budget is a chunk of its own."""
    budget = training.CHUNK_ROWS
    for steps in (range(10, 50), range(1, 2), range(2, 30), range(100, 400),
                  range(budget - 2, budget + 3)):
        chunks = step_chunks(steps)
        assert [s for chunk in chunks for s in chunk] == list(steps)
        assert all(isinstance(chunk, range) and len(chunk) >= 1 for chunk in chunks)
        for chunk in chunks:
            assert sum(chunk) <= budget or len(chunk) == 1
        for chunk, following in zip(chunks, chunks[1:]):
            assert sum(chunk) + following[0] > budget
    assert [list(c) for c in step_chunks(range(budget, budget + 2))] == \
        [[budget], [budget + 1]]


def test_step_tape_holds_no_per_pair_bias_arrays(rng):
    """Neither the feature-extraction nor the edge attention records an
    array that holds a d_S vector per (query, key) pair: the bias terms are
    gathered from (n, C) tables.  On a chunk of three steps, arrays of rank
    4 are (H, K, n, .) grids of the steps, or parameters shaped to
    broadcast over them, (H, 1, ., .), and no array ends in (n, n, d_S) for
    a padded width n."""
    model = tiny_model(variant="plain", seed=3, d_model=24)
    heads, d_s = model.config.heads, model.config.d_s
    og = make_og(random_connected_graph(rng, 10), rng)
    steps = [6, 7, 8]
    with Tape() as tape:
        chunk_loss(model, og, steps)
    assert tape._entries
    shapes = [n.shape for n in tape._entries]
    assert max(len(shape) for shape in shapes) <= 4
    assert all(shape[0] == heads and shape[1] in (1, len(steps))
               for shape in shapes if len(shape) == 4)
    widths = {max(steps)}  # the prefixes' and (plain) the candidates' padded width
    assert not any(len(shape) >= 3 and shape[-1] == d_s and shape[-3] == shape[-2] in widths
                   for shape in shapes)


def test_uniform_logit_closed_form(rng):
    """Zero-weight estimators make every step uniform, so the loss is a
    pure count of decisions."""
    for variant in ("plain", "B"):
        model = tiny_model(a=3, b=2, variant=variant)
        zero_final_layers(model)
        g = random_connected_graph(rng, 9)
        og = make_og(g, rng)
        with Tape():
            loss, cnt = teacher_forced_loss(model, og)
        expected = (cnt.node_steps * np.log(model.config.a + 1)
                    + cnt.edge_decisions * np.log(model.config.b + 1))
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert cnt.node_steps == og.n - model.config.seed_size + 1


@pytest.mark.parametrize("variant", ["plain", "A", "B", "AB"])
def test_parallel_equals_sequential(variant, rng):
    for _ in range(8):
        n = int(rng.integers(5, 12))
        g = random_connected_graph(rng, n)
        model = tiny_model(variant=variant, seed=int(rng.integers(1000)))
        og = make_og(g, rng)
        with Tape():
            batched, _ = teacher_forced_loss(model, og)
        seq = sequential_loss(model, og)
        assert batched.item() == pytest.approx(seq, rel=1e-9)


def test_teacher_forcing_no_prediction_feedback(rng):
    """The loss is a function of ground truth only: perturbing the
    estimator output layers does not change the conditioning (the loss of
    unrelated steps stays put when recomputed piecewise)."""
    model = tiny_model()
    g = random_connected_graph(rng, 8)
    og = make_og(g, rng)
    with Tape():
        loss1, _ = teacher_forced_loss(model, og)
    with Tape():
        loss2, _ = teacher_forced_loss(model, og)
    assert loss1.item() == loss2.item()  # no hidden state, no sampling


def test_loss_finite_under_random_init(rng):
    for variant in ("plain", "A", "B", "AB"):
        model = tiny_model(variant=variant, seed=11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 12)))
            with Tape():
                loss, _ = teacher_forced_loss(model, make_og(g, rng))
            assert np.isfinite(loss.item())


def test_skip_graph_signal(rng):
    model = tiny_model(seed_size=6)
    g = random_connected_graph(rng, 5)
    with pytest.raises(SkipGraph):
        teacher_forced_loss(model, make_og(g, rng))


def test_variant_b_never_drops_a_true_edge(rng):
    for _ in range(60):
        g = random_connected_graph(rng, int(rng.integers(5, 20)))
        model = tiny_model(variant="B")
        with Tape():
            _, cnt = teacher_forced_loss(model, make_og(g, rng))
        assert cnt.dropped_edges == 0


def test_loss_decreases_over_50_steps(rng):
    graphs = generate_corpus(CorpusSpec("grid", 10, 9, 16, seed=5,
                                        params={"min_side": 3, "max_side": 4}))
    model = tiny_model(a=3, b=2, seed_size=3, seed=2)
    ogs = [make_og(g, rng) for g in graphs]
    params = model.parameters()
    losses = []
    for _ in range(50):
        step_loss = 0.0
        for og in ogs:
            with Tape() as tape:
                loss, _ = teacher_forced_loss(model, og)
                tape.backward(T.mul(loss, T.const(1.0 / len(ogs))))
            step_loss += loss.item()
        adam_step(params, lr=3e-3)
        losses.append(step_loss / len(ogs))
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert all(np.diff(smooth) < 0.0), "smoothed loss must strictly decrease"
    assert losses[-1] < losses[0]


def test_overfit_drives_node_class_probability(rng):
    """Training on one graph with a fixed ordering pushes the true next
    label's probability above 0.9 at every step."""
    g = generate_corpus(CorpusSpec("grid", 1, 12, 12, seed=7,
                                   params={"min_side": 3, "max_side": 4}))[0]
    model = tiny_model(a=3, b=2, seed_size=5, seed=1)
    train([g], model, TrainConfig(epochs=150, batch_size=1, lr=3e-3, seed=1,
                                  resample_orderings=False))
    sample_rng = np.random.default_rng(1)
    start = int(sample_rng.integers(g.n))
    og = OrderedGraph(g, G.bfs_ordering(g, start, sample_rng), 2)
    for s in range(model.config.seed_size, og.n):
        step = model.teacher_forced_step(og, s)
        assert step.node_dist[int(og.labels[s])] > 0.9


def test_train_determinism_and_history(tmp_path, rng):
    graphs = generate_corpus(CorpusSpec("grid", 6, 9, 12, seed=1,
                                        params={"min_side": 3, "max_side": 4}))
    tcfg = TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=9)

    def run(outdir):
        model = tiny_model(a=3, b=2, seed_size=3, seed=4)
        hist = train(graphs, model, tcfg, checkpoint_dir=outdir,
                     history_path=outdir / "history.csv")
        return model, hist

    m1, h1 = run(tmp_path / "r1")
    m2, h2 = run(tmp_path / "r2")
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data), name
    assert [(s.epoch, s.mean_nll) for s in h1] == [(s.epoch, s.mean_nll) for s in h2]
    assert (tmp_path / "r1/history.csv").read_bytes() == (tmp_path / "r2/history.csv").read_bytes()
    assert (tmp_path / "r1/checkpoint.bin").read_bytes() == (tmp_path / "r2/checkpoint.bin").read_bytes()


def test_train_shuffle_determinism_without_resample(tmp_path):
    graphs = generate_corpus(CorpusSpec("grid", 6, 9, 12, seed=1,
                                        params={"min_side": 3, "max_side": 4}))
    tcfg = TrainConfig(epochs=2, batch_size=3, seed=5, resample_orderings=False)
    hist = []
    for _ in range(2):
        model = tiny_model(a=3, b=2, seed_size=3, seed=4)
        hist.append(train(graphs, model, tcfg))
    assert [s.mean_nll for s in hist[0]] == [s.mean_nll for s in hist[1]]


def _accum_zero_fill(n, g):
    """tensor._accum before gradient buffers had owners: every gradient is
    zero-filled on first use, then added into in place."""
    if n.grad is None:
        n.grad = np.zeros(n.shape)
    n.grad += g


@pytest.mark.parametrize("variant", ["B", "plain"])
def test_borrowed_gradients_train_bit_identical_to_zero_fill(variant, monkeypatch):
    """Two epochs with random non-zero bias tables give the same parameters,
    Adam moments and history whether gradients are borrowed and copied
    (tensor._accum) or zero-filled and added into."""
    graphs = generate_corpus(CorpusSpec("grid", 3, 9, 16, seed=2,
                                        params={"min_side": 3, "max_side": 4}))
    tcfg = TrainConfig(epochs=2, batch_size=2, seed=3)

    def run():
        model = tiny_model(a=3, b=2, variant=variant, seed_size=3, seed=5)
        randomize_bias_tables(model, np.random.default_rng(11))
        return model, train(graphs, model, tcfg)

    new, new_history = run()
    monkeypatch.setattr(T, "_accum", _accum_zero_fill)
    old, old_history = run()
    assert new_history == old_history
    for name, p in new.params.items():
        q = old.params[name]
        assert p.step == q.step, name
        for a, b in ((p.data, q.data), (p.m, q.m), (p.v, q.v)):
            assert np.array_equal(a, b), name


def test_train_rejects_empty_and_all_small(rng):
    model = tiny_model(seed_size=10)
    with pytest.raises(TrainError, match="empty"):
        train([], model, TrainConfig(epochs=1))
    small = [random_connected_graph(rng, 4)]
    with pytest.raises(TrainError, match="seed size"):
        with pytest.warns(UserWarning, match="skipping"):
            train(small, model, TrainConfig(epochs=1))


def test_nonfinite_loss_stops_training(rng):
    """A NaN parameter stops the run with a runtime error (the CLI's exit
    code 3, not a data error) naming the epoch and the graph's index."""
    graphs = [random_connected_graph(rng, 4)] + [random_connected_graph(rng, 7)
                                                 for _ in range(2)]
    model = tiny_model(seed_size=5)
    model.params["node_est.b3"].tensor.data[0] = np.nan
    with pytest.warns(UserWarning, match="skipping"):
        with pytest.raises(NonFiniteError, match=r"epoch 1: non-finite loss nan on graph [12]$") \
                as info:
            train(graphs, model, TrainConfig(epochs=2, batch_size=1))
    assert isinstance(info.value, RuntimeError) and not isinstance(info.value, TrainError)


def test_nonfinite_gradient_norm_stops_training(rng, monkeypatch):
    monkeypatch.setattr(training, "clip_global_norm", lambda params, max_norm: float("inf"))
    graphs = [random_connected_graph(rng, 7) for _ in range(3)]
    with pytest.raises(NonFiniteError,
                       match=r"epoch 1: non-finite gradient norm inf on the batch of "
                             r"graphs \[\d, \d\]$"):
        train(graphs, tiny_model(), TrainConfig(epochs=1, batch_size=2, seed=0))


def test_checkpoint_write_failure_keeps_previous_file(tmp_path):
    """Serialisation that fails part-way leaves the previous checkpoint
    byte-identical and no temporary file behind."""
    model = tiny_model()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, model, epoch=1, rng=np.random.default_rng(0))
    before = path.read_bytes()

    class BrokenRng:  # the rng state is written last, after the parameters
        @property
        def bit_generator(self):
            raise RuntimeError("serialisation failed")

    model.params["input.b"].tensor.data[:] = 1.0
    with pytest.raises(RuntimeError, match="serialisation failed"):
        save_checkpoint(path, model, epoch=2, rng=BrokenRng())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_checkpoint_round_trip(tmp_path, rng, monkeypatch):
    model = tiny_model(seed=8)
    g = random_connected_graph(rng, 7)
    og = make_og(g, rng)
    # move the optimizer state off zero
    with Tape() as tape:
        loss, _ = teacher_forced_loss(model, og)
        tape.backward(loss)
    adam_step(model.parameters())
    gen = np.random.default_rng(123)
    gen.integers(0, 10, size=5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, epoch=17, rng=gen)

    def no_draw(*args):
        raise AssertionError("loading draws weights it overwrites")

    monkeypatch.setattr(gram.model, "glorot", no_draw)
    loaded, epoch, gen2 = load_checkpoint(path)
    # the file is byte-stable (saved again before either generator draws)
    save_checkpoint(tmp_path / "ckpt2.bin", loaded, epoch=17, rng=gen2)
    assert (tmp_path / "ckpt.bin").read_bytes() == (tmp_path / "ckpt2.bin").read_bytes()
    assert epoch == 17
    assert gen2.integers(0, 1000) == gen.integers(0, 1000)
    for name, p in model.params.items():
        q = loaded.params[name]
        assert np.array_equal(p.data, q.data)
        assert np.array_equal(p.m, q.m) and np.array_equal(p.v, q.v)
        assert p.step == q.step
    with Tape():
        l1, _ = teacher_forced_loss(model, og)
        l2, _ = teacher_forced_loss(loaded, og)
    assert l1.item() == l2.item()


def test_checkpoint_load_streams_its_entries(tmp_path):
    """Loading reads one entry at a time into the parameters: at the default
    model size its traced allocations peak at no more than 1.2 times the
    parameter arrays (values and both moments) it fills."""
    path = tmp_path / "c.bin"
    save_checkpoint(path, Model(ModelConfig(a=3, b=2), init_seed=0), epoch=1)
    tracemalloc.start()
    try:
        model = load_checkpoint(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    live = sum(p.data.nbytes + p.m.nbytes + p.v.nbytes for p in model.parameters())
    assert live > 30e6
    assert peak <= 1.2 * live


def test_checkpoint_truncation_and_version_and_magic(tmp_path):
    model = tiny_model()
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    blob = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.bin")

    bad_version = blob[:8] + (99).to_bytes(4, "little") + blob[12:]
    (tmp_path / "ver.bin").write_bytes(bad_version)
    with pytest.raises(CheckpointVersionError, match="99.*expected 2"):
        load_checkpoint(tmp_path / "ver.bin")

    (tmp_path / "magic.bin").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "magic.bin")

    (tmp_path / "trail.bin").write_bytes(blob + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "trail.bin")


def v1_entries(model):
    """The parameter entries of a version-1 file, (name, values, step, m, v),
    with every attention table split into one entry X.h{i}.wq per head."""
    entries = []
    for name, p in model.params.items():
        prefix, _, table = name.rpartition(".")
        if table in training.HEAD_TABLES:
            entries += [(f"{prefix}.h{h}.{table}", p.data[h], p.step, p.m[h], p.v[h])
                        for h in range(p.data.shape[0])]
        else:
            entries.append((name, p.data, p.step, p.m, p.v))
    return entries


def write_v1_checkpoint(path, model, epoch, entries, rng=None):
    """The version-1 writer: the byte layout of save_checkpoint with the
    given parameter entries."""
    with open(path, "wb") as f:
        f.write(training.CHECKPOINT_MAGIC + struct.pack("<I", 1))
        cfg = json.dumps(model.config.to_json_obj(), sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(cfg)) + cfg)
        f.write(struct.pack("<I", len(entries)))
        for name, arr, step, m, v in entries:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)) + raw)
            f.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                f.write(struct.pack("<I", ext))
            f.write(arr.astype("<f8").tobytes())
            f.write(struct.pack("<Q", step))
            f.write(m.astype("<f8").tobytes())
            f.write(v.astype("<f8").tobytes())
        f.write(struct.pack("<I", epoch))
        state = rng.bit_generator.state if rng is not None else None
        rj = json.dumps(state, sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(rj)) + rj)


def trained_model(rng, variant="plain"):
    """A model with random bias tables and optimizer state off zero."""
    model = tiny_model(variant=variant, seed=8)
    randomize_bias_tables(model, rng)
    og = make_og(random_connected_graph(rng, 7), rng)
    for _ in range(2):
        backward_per_chunk(model, og)
        adam_step(model.parameters())
    return model, og


def test_version_1_checkpoint_loads_bit_identical(tmp_path, rng):
    """A version-1 file (one entry per head) loads into the head-batched
    parameters with the same values, moments, steps and NLL, and saves
    again as version 2."""
    model, og = trained_model(rng)
    gen = np.random.default_rng(5)
    path = tmp_path / "v1.bin"
    write_v1_checkpoint(path, model, 3, v1_entries(model), gen)
    loaded, epoch, gen2 = load_checkpoint(path)
    assert epoch == 3 and gen2.bit_generator.state == gen.bit_generator.state
    for name, p in model.params.items():
        q = loaded.params[name]
        assert np.array_equal(p.data, q.data), name
        assert np.array_equal(p.m, q.m) and np.array_equal(p.v, q.v), name
        assert p.step == q.step, name
    assert all(loaded.params[f"edge_attn.{t}"].step == 2 for t in training.HEAD_TABLES)
    with Tape():
        assert teacher_forced_loss(model, og)[0].item() == teacher_forced_loss(loaded, og)[0].item()
    save_checkpoint(tmp_path / "v2.bin", loaded, 3, gen2)
    save_checkpoint(tmp_path / "v2_direct.bin", model, 3, gen)
    blob = (tmp_path / "v2.bin").read_bytes()
    assert blob[8:12] == (2).to_bytes(4, "little")
    assert blob == (tmp_path / "v2_direct.bin").read_bytes()


def test_version_1_checkpoint_missing_head_rejected(tmp_path, rng):
    model, _ = trained_model(rng)
    entries = v1_entries(model)
    names = [e[0] for e in entries]
    k = names.index("edge_attn.h1.bk")
    write_v1_checkpoint(tmp_path / "missing.bin", model, 1, entries[:k] + entries[k + 1:])
    with pytest.raises(CheckpointError, match="parameter count"):
        load_checkpoint(tmp_path / "missing.bin")
    # the same count, with head 0 written twice in place of head 1
    entries[k] = entries[names.index("edge_attn.h0.bk")]
    write_v1_checkpoint(tmp_path / "repeated.bin", model, 1, entries)
    with pytest.raises(CheckpointError, match="repeated parameter 'edge_attn.h0.bk'"):
        load_checkpoint(tmp_path / "repeated.bin")


def test_version_1_checkpoint_bad_shape_or_steps_rejected(tmp_path, rng):
    model, _ = trained_model(rng)
    entries = v1_entries(model)
    k = [e[0] for e in entries].index("block0.attn.h1.wv")
    name, arr, step, m, v = entries[k]
    bad = list(entries)
    bad[k] = (name, arr[:, :-1], step, m[:, :-1], v[:, :-1])
    write_v1_checkpoint(tmp_path / "shape.bin", model, 1, bad)
    with pytest.raises(CheckpointError, match="'block0.attn.h1.wv' has shape"):
        load_checkpoint(tmp_path / "shape.bin")
    bad[k] = (name, arr, step + 1, m, v)
    write_v1_checkpoint(tmp_path / "steps.bin", model, 1, bad)
    with pytest.raises(CheckpointError, match="heads of 'block0.attn.wv' disagree"):
        load_checkpoint(tmp_path / "steps.bin")
