import numpy as np
import pytest

from gram import graphs as G
from gram import tensor as T
from gram.model import EdgeStep, Model, ModelConfig, OrderedGraph, edge_candidates
from gram.datasets import CorpusSpec, generate_corpus
from gram.optim import adam_step
from gram.tensor import Tape
from gram import training
from gram.training import (CheckpointError, CheckpointVersionError, NonFiniteError,
                           SkipGraph, TrainConfig, TrainError, backward_per_step,
                           load_checkpoint, save_checkpoint, step_loss,
                           teacher_forced_loss, train)

from conftest import random_connected_graph, tiny_model


def make_og(g, rng, radius=2):
    ordering = G.bfs_ordering(g, int(rng.integers(g.n)), rng)
    return OrderedGraph(g, ordering, radius)


def zero_final_layers(model):
    for name in ("node_est.w3", "node_est.b3", "edge_est.w3", "edge_est.b3"):
        model.params[name].tensor.data[:] = 0.0


def sequential_loss(model, og):
    """Oracle: every step evaluated on its own, each edge candidate decided
    one at a time through the sampler's path (EdgeStep.logits, then
    EdgeStep.decide with the ground-truth code)."""
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
        plan = edge_candidates(og, s, c.variant)
        codes = og.edge_label_codes(s, plan.candidates)
        step = EdgeStep(model, hv, hg, int(og.labels[s]), plan.candidates,
                        prefix.dist_idx, plan.restrict_keys_to_edges)
        step.reset()
        for i, code in enumerate(codes):
            onehot = np.zeros((1, c.b + 1))
            onehot[0, code] = 1.0
            total += float(T.cross_entropy_logits(step.logits(i), onehot).data[0])
            step.decide(i, int(code))
    return total


def randomize_bias_tables(model, rng):
    """The model starts its bias tables at zero; fill them so that every
    bias term takes part."""
    for name, p in model.params.items():
        if name.split(".")[-1] in ("bq", "bk", "bv"):
            p.tensor.data[:] = rng.normal(size=p.tensor.data.shape) * 0.3


@pytest.mark.parametrize("variant", ["B", "plain"])
def test_per_step_backward_matches_single_backward(variant, rng):
    """The gradient train() accumulates with one backward per step equals
    one backward over the whole teacher-forced loss, to 1e-12 relative."""
    for trial in range(3):
        model = tiny_model(variant=variant, seed=trial)
        randomize_bias_tables(model, rng)
        og = make_og(random_connected_graph(rng, int(rng.integers(6, 12))), rng)
        params = model.parameters()
        with Tape() as tape:
            loss, cnt = teacher_forced_loss(model, og)
            tape.backward(T.mul(loss, T.const(0.25)))
        whole = {p.name: p.grad_array().copy() for p in params}
        for p in params:
            p.tensor.grad = None
        total, cnt_steps = backward_per_step(model, og, 0.25)
        assert total == pytest.approx(loss.item(), rel=1e-12)
        assert cnt_steps == cnt
        for p in params:
            scale = max(np.abs(whole[p.name]).max(), 1e-300)
            assert np.abs(p.grad_array() - whole[p.name]).max() <= 1e-12 * scale, p.name


def test_step_tape_holds_no_per_pair_bias_arrays(rng):
    """Neither the feature-extraction nor the edge attention records an
    (nq, nk, d) array per head: the bias terms are gathered from (n, C)
    tables.  Arrays of rank 3 carry the heads on their leading axis."""
    model = tiny_model(variant="plain", seed=3)
    og = make_og(random_connected_graph(rng, 10), rng)
    with Tape() as tape:
        step_loss(model, og, 8)
    assert tape._entries
    assert max(t.data.ndim for t in tape._entries) <= 3
    heads = model.config.heads
    assert all(t.data.shape[0] == heads for t in tape._entries if t.data.ndim == 3)


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


def test_checkpoint_round_trip(tmp_path, rng):
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

    loaded, epoch, gen2 = load_checkpoint(path)
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
    # and the file is byte-stable
    save_checkpoint(tmp_path / "ckpt2.bin", loaded, epoch=17, rng=gen2)


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
    with pytest.raises(CheckpointVersionError, match="99.*expected 1"):
        load_checkpoint(tmp_path / "ver.bin")

    (tmp_path / "magic.bin").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "magic.bin")

    (tmp_path / "trail.bin").write_bytes(blob + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "trail.bin")
