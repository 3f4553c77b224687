import gc
import mmap
import os
import stat
import tracemalloc

import numpy as np
import pytest

import gram.model
from gram import graphs as G
from gram import tensor as T
from gram.model import VARIANTS, EdgeStep, Model, ModelConfig, OrderedGraph
from gram.datasets import CorpusSpec, generate_corpus
from gram.optim import Parameter, adam_step
from gram.tensor import Tape
from gram import sampler, training
from gram.training import (CheckpointError, CheckpointVersionError, NonFiniteError,
                           SkipGraph, TrainConfig, TrainError, batch_backward, chunk_loss,
                           load_checkpoint, run_shard, save_checkpoint, shard_cut,
                           step_chunks, teacher_forced_loss, train)

from conftest import (edge_distribution_step, fail_in_child, gradients,
                      random_connected_graph, set_cpus, teacher_forced_step, tiny_model)


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
        total += float(T.cross_entropy_logits(model.node_logits(hg), [target]).data[0])
        if s == og.n:
            continue
        lo = min([u for u, v, _ in og.graph.edges if v == s - 1], default=s - 1)
        candidates = range(lo if c.variant in ("B", "AB") else 0, s)
        codes = og.edge_codes(s, candidates)
        decided = []
        for t, code in zip(candidates, codes):
            logits = edge_distribution_step(model, hv, hg, int(og.labels[s]), int(t), decided,
                                            c.variant in ("A", "AB"), prefix.dist_idx)
            total += float(T.cross_entropy_logits(logits, [code]).data[0])
            decided.append((int(t), int(code)))
    return total


def chunks_of(model, og):
    """The (graph, steps) pairs of one graph's teacher-forced chunks."""
    return [(og, steps) for steps in step_chunks(range(model.config.seed_size, og.n + 1))]


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
        whole = gradients(params)
        for p in params:
            p.tensor.grad = None
        nlls, cnt_steps = run_shard(model, chunks_of(model, og), 0.25)
        assert sum(nlls) == pytest.approx(loss.item(), rel=1e-12)
        assert cnt_steps == cnt
        chunked = gradients(params)
        for p in params:
            scale = max(np.abs(whole[p.name]).max(), 1e-300)
            assert np.abs(chunked[p.name] - whole[p.name]).max() <= 1e-12 * scale, p.name


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
    codes = og.edge_codes(s, step.candidates)
    return node_logits, codes, step.edge_logits_teacher(codes)[0]


def per_step_loss(model, og, s):
    """training.step_loss before step batching: the loss of step s alone."""
    c = model.config
    node_logits, codes, edge_logits = per_step_teacher_forced(model, og, s)
    target = int(og.labels[s]) if s < og.n else c.a
    parts = [T.cross_entropy_logits(node_logits, [target])]
    if edge_logits is not None:
        parts.append(T.cross_entropy_logits(edge_logits, codes))
    return T.sum_along(T.concat(parts, axis=0), 0)


def loss_and_grads(model, backward):
    """(loss, {name: gradient}) after backward() accumulates from zero."""
    params = model.parameters()
    for p in params:
        p.tensor.grad = None
    loss = backward()
    return loss, gradients(params)


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
        step = teacher_forced_step(model, og, s)
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


def test_checkpoint_syncs_file_then_directory(tmp_path, monkeypatch):
    """The file is synced before the rename and its directory after it, so
    the rename itself survives a crash once save_checkpoint returns."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, tiny_model(), epoch=1)
    assert synced == [(False, path.stat().st_ino), (True, tmp_path.stat().st_ino)]


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
    """Loading reads each entry's values straight into the parameters and
    leaves the moments on disk: at the default model size its traced
    allocations peak at no more than 1.1 times the parameter values."""
    path = tmp_path / "c.bin"
    save_checkpoint(path, Model(ModelConfig(a=3, b=2), init_seed=0), epoch=1)
    tracemalloc.start()
    try:
        model = load_checkpoint(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    live = sum(p.data.nbytes for p in model.parameters())
    assert live > 10e6
    assert peak <= 1.1 * live


def test_checkpoint_truncation_and_version_and_magic(tmp_path):
    model = tiny_model()
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    blob = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.bin")

    for version in (1, 99):  # version 1 (one entry per attention head) no longer loads
        bad_version = blob[:8] + version.to_bytes(4, "little") + blob[12:]
        (tmp_path / "ver.bin").write_bytes(bad_version)
        with pytest.raises(CheckpointVersionError, match=f"version {version}, expected 2"):
            load_checkpoint(tmp_path / "ver.bin")

    (tmp_path / "heads.bin").write_bytes(blob.replace(b'"heads": 2', b'"heads": 0', 1))
    with pytest.raises(CheckpointError, match="bad embedded config: heads 0"):
        load_checkpoint(tmp_path / "heads.bin")

    (tmp_path / "magic.bin").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "magic.bin")

    (tmp_path / "trail.bin").write_bytes(blob + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "trail.bin")


def test_checkpoint_parameter_table_checks(tmp_path, monkeypatch):
    """A parameter table with an entry missing, an entry written twice or
    an entry of the wrong shape is rejected, naming the entry."""
    model = tiny_model()
    params = model.parameters()
    k = [p.name for p in params].index("edge_attn.bk")
    wrong = Parameter("edge_attn.bk", params[k].data[..., :-1])
    tables = {"missing.bin": params[:k] + params[k + 1:],
              "repeated.bin": params[:k] + [params[k - 1]] + params[k + 1:],
              "shape.bin": params[:k] + [wrong] + params[k + 1:]}
    for name, table in tables.items():
        monkeypatch.setattr(model, "parameters", lambda table=table: table)
        save_checkpoint(tmp_path / name, model, epoch=1)
    for name, message in (("missing.bin", "parameter count"),
                          ("repeated.bin", f"repeated parameter '{params[k - 1].name}'"),
                          ("shape.bin", "'edge_attn.bk' has shape")):
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / name)


def trained_model(rng, variant="plain"):
    """A model with random bias tables and optimizer state off zero."""
    model = tiny_model(variant=variant, seed=8)
    randomize_bias_tables(model, rng)
    og = make_og(random_connected_graph(rng, 7), rng)
    for _ in range(2):
        run_shard(model, chunks_of(model, og), 1.0)
        adam_step(model.parameters())
    return model, og


def old_adam_step(state, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """optim.adam_step before it updated in place, on [weights, m, v, step]
    lists: every expression makes new arrays."""
    b1, b2 = betas
    for s, g in zip(state, grads):
        if g is None:
            continue
        w, m, v, step = s
        step += 1
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1 ** step)
        vhat = v / (1.0 - b2 ** step)
        s[:] = [w - lr * mhat / (np.sqrt(vhat) + eps), m, v, step]


def count_preads(monkeypatch):
    """The offsets of every positioned read from now on."""
    offsets, real = [], os.preadv

    def counting(fd, buffers, offset):
        offsets.append(offset)
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counting)
    return offsets


def descriptors_on(path_stat):
    """This process's descriptors open on the file that path_stat (an
    os.stat result) describes, whatever path it now has, if any."""
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            st = os.stat(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor listdir itself used
            continue
        if (st.st_dev, st.st_ino) == (path_stat.st_dev, path_stat.st_ino):
            fds.append(fd)
    return fds


def test_adam_step_in_place_matches_the_old_formula(tmp_path, rng, monkeypatch):
    """Four in-place steps give bit for bit the weights, moments and step
    counts of the old formula, on a loaded model whose moments the first
    step fetches, one positioned read per parameter with a gradient.  A
    parameter that never gets a gradient keeps its step and moments, and
    its moments are never read."""
    model, _ = trained_model(rng)
    for p in model.parameters():  # also the parameters no chunk reaches
        p.m[...] += rng.normal(scale=1e-3, size=p.data.shape)
        p.v[...] += rng.random(size=p.data.shape) * 1e-6
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    loaded = load_checkpoint(path)[0]
    reads = count_preads(monkeypatch)
    params = loaded.parameters()
    idle = params[3]
    state = [[p.data.copy(), p.m.copy(), p.v.copy(), p.step] for p in model.parameters()]
    for k in range(4):
        grads = [None if p is idle else rng.normal(scale=10.0 ** -k, size=p.data.shape)
                 for p in params]
        for p, g in zip(params, grads):
            p.tensor.grad = None if g is None else g.copy()
        adam_step(params, lr=3e-3)
        old_adam_step(state, grads, lr=3e-3)
        assert len(reads) == len(params) - 1
    for p, (w, m, v, step) in zip(params, state):
        assert p.tensor.grad is None
        assert p.step == step == model.params[p.name].step + (p is not idle) * 4, p.name
        for a, b in ((p.data, w), (p.m, m), (p.v, v)):
            assert np.array_equal(a, b), p.name
    assert len(reads) == len(params)  # reading idle's moments above fetched them


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="lists open descriptors in /proc/self/fd")
def test_loaded_moments_are_read_once_from_the_open_file(tmp_path, monkeypatch):
    """Each parameter's moments are fetched with one positioned read, on
    their first use; the file closes after the last parameter's read, and
    also when a model with unread moments is collected."""
    model = tiny_model(seed=3)
    for p in model.parameters():
        p.m[...] = np.random.default_rng(1).normal(size=p.data.shape)
        p.v[...] = 2.0
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    st = os.stat(path)
    reads = count_preads(monkeypatch)
    loaded = load_checkpoint(path)[0]
    params = loaded.parameters()
    assert reads == [] and len(descriptors_on(st)) == 1
    for k, p in enumerate(params):
        assert len(descriptors_on(st)) == 1
        q = model.params[p.name]
        assert np.array_equal(p.v, q.v) and np.array_equal(p.m, q.m)
        assert len(reads) == k + 1
    assert descriptors_on(st) == []

    unread = load_checkpoint(path)[0]
    params[0].m  # noqa: B018 - read before, so no read now
    unread.parameters()[0].v  # noqa: B018 - one of many: the file stays open
    assert len(descriptors_on(st)) == 1 and len(reads) == len(params) + 1
    del unread
    gc.collect()
    assert descriptors_on(st) == []


def test_sampling_a_loaded_model_reads_no_moment(tmp_path, monkeypatch):
    """load_checkpoint, build_seed_bank and generate_graph read no moment,
    and still work once the file is deleted; the moments stay readable
    from the open file."""
    model, _ = trained_model(np.random.default_rng(4))
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    reads = count_preads(monkeypatch)
    loaded = load_checkpoint(path)[0]
    path.unlink()
    corpus = small_grids()
    results = []
    for net in (loaded, model):
        rng = np.random.default_rng(7)
        bank = sampler.build_seed_bank(corpus, net.config.seed_size, rng)
        results.append([sampler.generate_graph(net, bank, 12, rng).graph for _ in range(3)])
    assert reads == []
    for got, want in zip(*results):
        assert got.n == want.n and np.array_equal(got.node_labels, want.node_labels)
        assert sorted(got.edges) == sorted(want.edges)
    p = loaded.parameters()[-1]
    assert np.array_equal(p.m, model.params[p.name].m) and len(reads) == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_a_loaded_model_reads_the_file_it_loaded(cpus, tmp_path, monkeypatch):
    """A loaded model with non-zero moments, whose path another checkpoint
    has replaced since, trains one epoch to the checkpoint and history of
    the in-memory model, byte for byte."""
    set_cpus(monkeypatch, cpus)
    model, _ = trained_model(np.random.default_rng(5), variant="B")
    run = tmp_path / "run"
    run.mkdir()
    save_checkpoint(run / "checkpoint.bin", model, epoch=1)
    loaded = load_checkpoint(run / "checkpoint.bin")[0]
    save_checkpoint(tmp_path / "other.bin", tiny_model(variant="B", seed=99), epoch=7)
    os.replace(tmp_path / "other.bin", run / "checkpoint.bin")
    tcfg = TrainConfig(epochs=1, batch_size=2, seed=6)
    train(small_grids(), loaded, tcfg, checkpoint_dir=run, history_path=run / "history.csv")
    mem = tmp_path / "mem"
    train(small_grids(), model, tcfg, checkpoint_dir=mem, history_path=mem / "history.csv")
    for name in ("checkpoint.bin", "history.csv"):
        assert (run / name).read_bytes() == (mem / name).read_bytes()


def test_truncating_a_loaded_checkpoint_fails_its_moment_read(tmp_path):
    """A file truncated in place after loading makes the first read of a
    moment it no longer holds raise CheckpointError, and the moment stays
    unread, so the next read raises again; moments before the cut read."""
    model, _ = trained_model(np.random.default_rng(6))
    path = tmp_path / "c.bin"
    save_checkpoint(path, model, epoch=1)
    loaded = load_checkpoint(path)[0]
    os.truncate(path, path.stat().st_size // 2)
    first, last = loaded.parameters()[0], loaded.parameters()[-1]
    assert np.array_equal(first.m, model.params[first.name].m)
    for _ in range(2):
        with pytest.raises(CheckpointError, match=f"truncated checkpoint file: .*{last.name!r}"):
            last.v  # noqa: B018
    last.tensor.grad = np.ones(last.data.shape)
    with pytest.raises(CheckpointError, match="truncated"):
        adam_step([last])
    assert last.step == model.params[last.name].step


def test_config_rejects_bad_optimiser_settings():
    """A NaN or infinite learning rate would train every parameter to NaN,
    and a negative or NaN clip norm would silently turn clipping off."""
    for bad in ({"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0},
                {"grad_clip": -1.0}, {"grad_clip": float("nan")},
                {"grad_clip": float("inf")}):
        with pytest.raises(TrainError, match=next(iter(bad))):
            TrainConfig(**bad)
    assert TrainConfig(grad_clip=0.0).grad_clip == 0.0  # 0: no clipping


def test_shard_cut_is_balanced_and_ordered(rng):
    """The cut keeps every chunk once and in batch order, and its larger
    shard holds the fewest rows of any cut; a single chunk stays in shard 0."""
    for _ in range(200):
        rows = [int(r) for r in rng.integers(1, 300, size=int(rng.integers(1, 9)))]
        items = list(range(len(rows)))
        k = shard_cut(rows)
        assert items[:k] + items[k:] == items
        larger = max(sum(rows[:k]), sum(rows[k:]))
        assert larger == min(max(sum(rows[:j]), sum(rows[j:])) for j in range(len(rows) + 1))
    assert shard_cut([40]) == 1
    assert shard_cut([763, 697]) == 1


def sequential_batch(model, ogs, weight):
    """train()'s batch before sharding: each graph's chunks in batch order,
    one backward pass each, its NLL summed in chunk order."""
    nlls = []
    for og in ogs:
        total = 0.0
        for _, steps in chunks_of(model, og):
            total += training._backward_chunk(model, og, steps, weight)[0]
        nlls.append(total)
    return nlls


@pytest.mark.parametrize("variant", ["B", "plain"])
def test_sharded_batch_gradient_matches_sequential(variant, rng, monkeypatch):
    """A batch cut into two shards gives the gradient of the old sequential
    accumulation to 1e-12 relative, on a model with random non-zero bias
    tables, and the same gradient bit for bit whether shard 1 runs in a
    forked child or in this process.  A parameter that no shard reaches
    (the last block's edge update) keeps no gradient."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 12)
    model, _ = trained_model(rng, variant)
    ogs = [make_og(random_connected_graph(rng, int(rng.integers(6, 11))), rng) for _ in range(3)]
    work = [pair for og in ogs for pair in chunks_of(model, og)]
    cut = shard_cut([sum(steps) for _, steps in work])
    assert 0 < cut < len(work)
    want_nlls, oracle = loss_and_grads(model, lambda: sequential_batch(model, ogs, 1 / 3))
    last = f"block{model.config.blocks - 1}.conv"
    results = []
    for shared in (None, training._SharedGradients(model.parameters())):
        nlls, grads = loss_and_grads(model, lambda: batch_backward(model, work, 1 / 3, shared)[0])
        assert model.params[f"{last}.wedge"].tensor.grad is None
        assert model.params[f"{last}.bedge"].tensor.grad is None
        results.append((nlls, grads))
    (nlls, grads), (forked_nlls, forked_grads) = results
    assert nlls == forked_nlls
    assert all(np.array_equal(grads[name], forked_grads[name]) for name in grads)
    graph_nlls = [sum(nll for (og, _), nll in zip(work, nlls) if og is g) for g in ogs]
    assert graph_nlls == pytest.approx(want_nlls, rel=1e-12)
    for name, ref in oracle.items():
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(grads[name] - ref).max() <= 1e-12 * scale, name


def test_merge_frees_shard_1_pages_as_it_adds_them(rng, monkeypatch):
    """With a _SharedGradients, batch_backward frees page-aligned,
    ascending, adjoining ranges of the shared mapping that together cover
    it, and frees each range only once every parameter in it holds its
    merged gradient.  The window is cut to one page, so that the merge
    frees many ranges."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 12)
    monkeypatch.setattr(training, "RELEASE_BYTES", mmap.PAGESIZE)
    model, _ = trained_model(rng, "B")
    ogs = [make_og(random_connected_graph(rng, int(rng.integers(6, 11))), rng) for _ in range(3)]
    work = [pair for og in ogs for pair in chunks_of(model, og)]
    params = model.parameters()
    _, want = loss_and_grads(model, lambda: batch_backward(model, work, 1 / 3))
    shared = training._SharedGradients(params)
    starts = np.cumsum([0] + [8 * p.data.size for p in params])
    freed = []

    class RecordingMap:
        def __init__(self, real):
            self.real = real

        def __len__(self):
            return len(self.real)

        def madvise(self, option, start, length):
            assert option == mmap.MADV_REMOVE
            for p, lo, hi in zip(params, starts, starts[1:]):
                if lo < start + length and start < hi:
                    merged = p.tensor.grad
                    merged = np.zeros_like(p.data) if merged is None else merged
                    assert np.array_equal(merged, want[p.name]), p.name
            freed.append((start, length))
            self.real.madvise(option, start, length)

    shared.map = RecordingMap(shared.map)
    for _ in range(2):  # the second batch starts again from the first page
        freed.clear()
        _, grads = loss_and_grads(model, lambda: batch_backward(model, work, 1 / 3, shared))
        assert all(np.array_equal(grads[name], want[name]) for name in want)
        assert len(freed) > 3
        assert all(start % mmap.PAGESIZE == 0 for start, _ in freed)
        ends = [start + length for start, length in freed]
        assert [start for start, _ in freed] == [0] + ends[:-1]
        assert ends[-1] == len(shared.map) == starts[-1]
        assert shared.freed == 0


def small_grids():
    return generate_corpus(CorpusSpec("grid", 5, 9, 16, seed=1,
                                      params={"min_side": 3, "max_side": 4}))


def test_one_and_two_workers_train_byte_identical(tmp_path, monkeypatch):
    """Every batch of two or more chunks forks once at two CPUs and never
    at one, and both write byte-identical checkpoints and histories."""
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        model = tiny_model(a=3, b=2, seed_size=3, seed=4)
        randomize_bias_tables(model, np.random.default_rng(11))
        out = tmp_path / str(cpus)
        train(small_grids(), model, TrainConfig(epochs=2, batch_size=3, seed=9),
              checkpoint_dir=out, history_path=out / "history.csv")
        assert len(forks) == (0 if cpus == 1 else 4)  # 2 epochs of batches of 3 and 2 graphs
    for name in ("history.csv", "checkpoint.bin"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_no_fork_for_one_chunk_or_one_cpu(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    set_cpus(monkeypatch, 2)
    train(small_grids(), tiny_model(seed_size=3), TrainConfig(epochs=1, batch_size=1))
    set_cpus(monkeypatch, 1)
    train(small_grids(), tiny_model(seed_size=3), TrainConfig(epochs=1, batch_size=5))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how, message", [
    ("raise", "failed in the child process: ValueError: chunk failed on purpose$"),
    ("kill", r"ended without a result \(killed by signal 9\)$")])
def test_child_failure_stops_training(how, message, monkeypatch):
    set_cpus(monkeypatch, 2)
    fail_in_child(monkeypatch, how)
    with pytest.raises(RuntimeError, match=message):
        train(small_grids(), tiny_model(seed_size=3), TrainConfig(epochs=1, batch_size=2))
    assert_no_child_left()


def test_nonfinite_loss_in_child_names_the_graph(rng, monkeypatch):
    """A NaN loss on a graph whose chunks all run in the child stops the run
    naming that graph; the other graph, without the label of the NaN
    embedding row (which the edge estimator reads for each new node),
    stays finite."""
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(training, "shard_cut", lambda rows: 0)
    g = random_connected_graph(rng, 7)
    clean = G.LabeledGraph.create(g.n, np.zeros(g.n, dtype=int), g.edges, 3, 2)
    tainted = G.LabeledGraph.create(g.n, np.full(g.n, 2), g.edges, 3, 2)
    model = tiny_model(seed_size=3)
    model.params["embed.node"].tensor.data[2] = np.nan
    with pytest.raises(NonFiniteError, match=r"epoch 1: non-finite loss nan on graph 1$"):
        train([clean, tainted], model, TrainConfig(epochs=1, batch_size=2))
    assert_no_child_left()
