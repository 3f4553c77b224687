import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from gram import cli, datasets
from gram.cli import main
from gram.datasets import read_corpus, write_corpus
from gram.graphs import LabeledGraph
from gram.model import ModelConfig
from gram.training import TrainConfig, save_checkpoint, train

from conftest import fail_in_child, random_connected_graph, set_cpus, tiny_model


def run(args):
    return main(args)


def test_dataset_writes_corpus_and_default_split(tmp_path, capsys):
    out = tmp_path / "grid.jsonl"
    code = run(["dataset", "--family", "grid", "--count", "21", "--nmin", "9",
                "--nmax", "25", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert len(read_corpus(out)) == 21
    assert len(read_corpus(tmp_path / "grid.train.jsonl")) == 15
    assert len(read_corpus(tmp_path / "grid.test.jsonl")) == 3
    assert len(read_corpus(tmp_path / "grid.val.jsonl")) == 3
    echoed = capsys.readouterr().out
    assert '"seed": 7' in echoed  # resolved config is echoed


def test_dataset_negative_split_is_data_error(tmp_path, capsys):
    out = tmp_path / "grid.jsonl"
    assert run(["dataset", "--family", "grid", "--count", "7", "--nmin", "9", "--nmax", "16",
                "--out", str(out), "--split", "9,-1,-1"]) == 2
    captured = capsys.readouterr()
    assert "split (9, -1, -1) has a negative count" in captured.err
    # the split is checked before the corpus is generated: nothing is written
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("split", ["5,5", "5,5,5,5", "a,b,c"])
def test_dataset_split_of_other_than_three_integers_is_usage_error(split, tmp_path, capsys):
    out = tmp_path / "grid.jsonl"
    assert run(["dataset", "--family", "grid", "--count", "15", "--nmin", "9", "--nmax", "16",
                "--out", str(out), "--split", split]) == 1
    captured = capsys.readouterr()
    assert f"usage error: --split expects three integers, got {split!r}" in captured.err
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_dataset_byte_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run(["dataset", "--family", "lobster", "--count", "10", "--nmin",
                    "20", "--nmax", "40", "--seed", "3", "--out", str(out),
                    "--no-split"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_full_pipeline_and_artifact_determinism(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "12", "--nmin", "9", "--nmax",
         "16", "--seed", "1", "--out", str(corpus), "--no-split"])

    def train_and_sample(tag):
        outdir = tmp_path / tag
        assert run(["train", "--corpus", str(corpus), "--out", str(outdir),
                    "--epochs", "2", "--batch-size", "6", "--dmodel", "16",
                    "--heads", "2", "--blocks", "1", "--dff", "32",
                    "--seed-size", "4", "--seed", "5"]) == 0
        samples = tmp_path / f"{tag}.samples.jsonl"
        assert run(["sample", "--checkpoint", str(outdir / "checkpoint.bin"),
                    "--corpus", str(corpus), "--count", "4", "--seed", "9",
                    "--max-nodes", "20", "--out", str(samples)]) == 0
        return outdir, samples

    out1, s1 = train_and_sample("r1")
    out2, s2 = train_and_sample("r2")
    assert "retries" in capsys.readouterr().out
    assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    for g in read_corpus(s1):
        assert g.is_connected()


def test_train_writes_the_history_of_gram_train(tmp_path):
    """train() with a checkpoint_dir writes history.csv there, byte for byte
    the file `gram train` writes for the same corpus and settings."""
    graphs = datasets.generate_corpus(datasets.CorpusSpec("grid", 5, 9, 16, seed=1))
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, graphs)
    assert run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "cli"),
                "--epochs", "2", "--batch-size", "3", "--dmodel", "16", "--heads", "2",
                "--blocks", "1", "--dff", "32", "--seed-size", "4", "--seed", "5"]) == 0
    model = tiny_model(graphs[0].a, graphs[0].b, seed=5, seed_size=4)
    train(graphs, model, TrainConfig(epochs=2, batch_size=3, seed=5),
          checkpoint_dir=tmp_path / "lib")
    for name in ("history.csv", "checkpoint.bin"):
        assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_eval_identical_corpora_zero(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "6", "--nmin", "9", "--nmax",
         "16", "--seed", "2", "--out", str(corpus), "--no-split"])
    capsys.readouterr()
    for i in (1, 2):
        code = run(["eval", "--generated", str(corpus), "--reference", str(corpus),
                    "--train", str(corpus), "--out", str(tmp_path / f"rep{i}.json"),
                    "--csv", str(tmp_path / f"rep{i}.csv")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        timing = [line for line in out if line.startswith("timing: ")]
        assert len(timing) == 1
        seconds = json.loads(timing[0][len("timing: "):])
        assert len(seconds) == 6 and all(t >= 0.0 for t in seconds.values())
        distinct = [line for line in out if line.startswith("distinct: ")]
        # 6 grids of 3 shapes
        assert distinct == ['distinct: {"generated": 3, "reference": 3, "train": 3}']
    report = tmp_path / "rep1.json"
    obj = json.loads(report.read_text())
    assert obj["gk_mmd2"] == 0.0
    assert obj["degree_mmd2"] == 0.0
    assert obj["novel_ratio"] == 0.0
    assert "timing" not in obj
    lines = (tmp_path / "rep1.csv").read_text().strip().splitlines()
    assert lines[0].startswith("gk_mmd2,") and len(lines) == 2
    # the timings stay out of the reports, which are byte-identical run to run
    assert report.read_bytes() == (tmp_path / "rep2.json").read_bytes()
    assert (tmp_path / "rep1.csv").read_bytes() == (tmp_path / "rep2.csv").read_bytes()


def test_stats_reports_frontier_columns(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "lobster", "--count", "15", "--nmin", "30",
         "--nmax", "60", "--seed", "4", "--out", str(corpus), "--no-split"])
    out = tmp_path / "stats.json"
    assert run(["stats", "--corpus", str(corpus), "--seed", "0",
                "--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert set(stats) >= {"mean_n", "mean_alpha", "mean_beta", "mean_m"}
    printed = capsys.readouterr().out
    assert "mean_beta" in printed


def test_exit_codes(tmp_path, capsys):
    # usage: unknown flag / missing required / bad subcommand
    assert run(["dataset", "--family", "grid"]) == 1
    assert run(["--frobnicate"]) == 1
    assert run(["nonsense"]) == 1
    # data: missing file, malformed corpus
    assert run(["stats", "--corpus", str(tmp_path / "nope.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"a":1,"b":1,"nodes":[0,0],"edges":[[1,1,0]]}\n')
    assert run(["stats", "--corpus", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    # data: infeasible dataset spec
    assert run(["dataset", "--family", "ba", "--count", "1", "--nmin", "3",
                "--nmax", "4", "--out", str(tmp_path / "x.jsonl")]) == 2
    # no output file may exist after a failed validation
    assert not (tmp_path / "x.jsonl").exists()


def test_shared_flags_before_the_subcommand_are_kept(tmp_path, capsys):
    """--config and -v given before the subcommand take effect, as they do
    after it: the parser and its subcommands share the flag actions, so a
    default filled in on the wrong parser would reset them."""
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(np.random.default_rng(k), 6)
                          for k in range(3)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_model": 8, "heads": 2, "blocks": 1, "d_ff": 8,
                                         "seed_size": 3},
                               "train": {"epochs": 1, "seed": 3}}))
    assert run(["--config", str(cfg), "-v", "train", "--corpus", str(corpus),
                "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert '"d_model": 8' in out
    assert "epoch 1: nll=" in out


def test_eval_validates_before_writing(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    report = tmp_path / "rep.json"
    assert run(["eval", "--generated", str(bad), "--reference", str(bad),
                "--out", str(report)]) == 2
    assert not report.exists()


def test_config_file_precedence(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "8", "--nmin", "9", "--nmax",
         "16", "--seed", "1", "--out", str(corpus), "--no-split"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"d_model": 16, "heads": 2, "blocks": 1, "d_ff": 32,
                  "seed_size": 4, "variant": "B"},
        "train": {"epochs": 2, "batch_size": 4, "seed": 3},
    }))
    outdir = tmp_path / "run"
    # flag overrides the config file's epochs=2 with 1
    assert run(["train", "--corpus", str(corpus), "--out", str(outdir),
                "--config", str(cfg), "--epochs", "1"]) == 0
    echoed = capsys.readouterr().out
    assert '"epochs": 1' in echoed
    assert '"variant": "B"' in echoed


def test_nonfinite_training_exits_with_runtime_failure(tmp_path, capsys, monkeypatch):
    """A non-finite gradient norm is a runtime failure (exit code 3) whose
    message names the epoch, and it leaves no checkpoint behind."""
    from gram import training
    monkeypatch.setattr(training, "clip_global_norm", lambda params, max_norm: float("nan"))
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "2", "--nmin", "9", "--nmax",
         "12", "--seed", "1", "--out", str(corpus), "--no-split"])
    outdir = tmp_path / "run"
    assert run(["train", "--corpus", str(corpus), "--out", str(outdir), "--epochs", "1",
                "--dmodel", "16", "--heads", "2", "--blocks", "1", "--dff", "32",
                "--seed-size", "4"]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteError" in err and "epoch 1" in err
    assert not (outdir / "checkpoint.bin").exists()


@pytest.mark.parametrize("flags, train_cfg", [
    (["--lr", "nan"], {}), (["--lr", "inf"], {}),
    ([], {"grad_clip": -1}), ([], {"grad_clip": float("nan")}),
    (["--heads", "0"], {}), (["--dmodel", "0"], {}), (["--dmodel", "-8"], {}),
    (["--dff", "0"], {})])
def test_bad_optimiser_settings_are_configuration_errors(tmp_path, capsys, flags, train_cfg):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(np.random.default_rng(k), 6)
                          for k in range(3)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": train_cfg}))
    assert run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r"),
                "--config", str(cfg), *flags]) == 2
    assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value", [
    ("train", "model", "bias_in_fe", "no"), ("train", "train", "resample_orderings", "no"),
    ("train", "train", "epochs", 1.5), ("train", "model", "d_model", 8.0),
    ("train", "model", "heads", True), ("train", "model", "seed_size", 2.0),
    ("train", "model", "radius", 1.5), ("train", "train", "seed", 1.5),
    ("train", "train", "lr", True), ("train", "train", "grad_clip", False),
    ("dataset", "dataset", "count", 2.5), ("dataset", "dataset", "n_min", 9.5),
    ("dataset", "dataset", "seed", True), ("train", "train", "seed", -1),
    ("dataset", "dataset", "seed", -1)])
def test_wrongly_typed_config_value_is_configuration_error(command, section, key, value,
                                                           tmp_path, capsys):
    """A config value of the wrong type (a float or a bool for an integer, a
    bool for a float, anything but a bool for a flag) or a seed below 0 is a
    configuration error naming the key, raised before the config is echoed;
    nothing is written."""
    out = tmp_path / "out"
    if command == "train":
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, [random_connected_graph(np.random.default_rng(k), 6)
                              for k in range(3)])
        config = {"model": {"d_model": 16, "heads": 2, "blocks": 1, "d_ff": 32,
                            "seed_size": 3}, "train": {"epochs": 1}}
        args = ["train", "--corpus", str(corpus), "--out", str(out)]
    else:
        config = {"dataset": {"count": 2, "n_min": 9}}
        args = ["dataset", "--family", "grid", "--nmax", "16", "--out", str(out), "--no-split"]
    config[section][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*args, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"bad configuration: {key} must be" in captured.err
    assert "config:" not in captured.out and not out.exists()


@pytest.mark.parametrize("command, config, section", [
    ("dataset", {"dataset": [1]}, "dataset"),
    ("dataset", {"dataset": {"params": [1]}}, "dataset.params"),
    ("train", {"model": [1]}, "model"),
    ("train", {"train": "fast"}, "train")])
def test_config_section_that_is_not_an_object_is_data_error(command, config, section,
                                                            tmp_path, capsys):
    """Each config file section, and a dataset's params, must be a JSON
    object: anything else is a data error naming the section, and nothing
    is written."""
    out = tmp_path / "out"
    if command == "train":
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, [random_connected_graph(np.random.default_rng(k), 6)
                              for k in range(3)])
        args = ["train", "--corpus", str(corpus), "--out", str(out)]
    else:
        args = _dataset_args(tmp_path, "grid")
        out = tmp_path / "d.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*args, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"data error: config section '{section}' must be an object" in captured.err
    assert "config:" not in captured.out and not out.exists()


def test_stats_counts_a_graph_without_nodes(tmp_path, capsys):
    """A graph of no nodes is a valid, connected corpus line; stats counts
    it and draws no ordering for it."""
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(np.random.default_rng(0), 6)])
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write('{"a":3,"b":2,"nodes":[],"edges":[]}\n')
    out = tmp_path / "stats.json"
    assert run(["stats", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["graphs"] == 2


def test_training_child_failure_exits_with_runtime_failure(tmp_path, capsys, monkeypatch):
    """An error in the child process that computes half of each batch is a
    runtime failure (exit code 3) that carries the child's message."""
    set_cpus(monkeypatch, 2)
    fail_in_child(monkeypatch, "raise")
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "2", "--nmin", "9", "--nmax",
         "12", "--seed", "1", "--out", str(corpus), "--no-split"])
    assert run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--dmodel", "16", "--heads", "2", "--blocks", "1",
                "--dff", "32", "--seed-size", "4"]) == 3
    assert "ValueError: chunk failed on purpose" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "8", "--nmin", "9", "--nmax",
         "16", "--seed", "1", "--out", str(corpus), "--no-split"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_modell": 32}}))
    assert run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r"),
                "--config", str(cfg)]) == 2


MODEL_KEYS = sorted({f.name for f in fields(ModelConfig)} - {"a", "b"})


@pytest.mark.parametrize("key", ["a", "b"])
def test_config_cannot_set_the_corpus_alphabets(key, tmp_path, capsys):
    """a and b come from the corpus, so a model section that names either is
    an unknown key: a data error listing the keys a model section takes,
    which are neither, raised before the config is echoed; nothing is
    written."""
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(np.random.default_rng(k), 6)
                          for k in range(3)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_model": 8, "heads": 2, "blocks": 1, "d_ff": 8,
                                         "seed_size": 3, key: 7},
                               "train": {"epochs": 1}}))
    out = tmp_path / "run"
    assert run(["train", "--corpus", str(corpus), "--out", str(out),
                "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"data error: config key {key!r} not recognized (known: {MODEL_KEYS})" \
        in captured.err
    assert "config:" not in captured.out and not out.exists()


def _echoed(out: str) -> dict:
    (line,) = [line for line in out.splitlines() if line.startswith("config: ")]
    return json.loads(line[len("config: "):])


def test_every_config_field_is_read_from_its_section(tmp_path, capsys):
    """Each field of TrainConfig and CorpusSpec, and each of ModelConfig but
    the corpus's a and b, is taken from its config section: a field added
    to a dataclass fails here until this test sets it."""
    model_cfg = {"d_model": 8, "heads": 2, "blocks": 1, "d_ff": 8, "radius": 1,
                 "seed_size": 3, "variant": "AB", "bias_in_fe": False, "bias_in_ee": False}
    train_cfg = {"epochs": 1, "batch_size": 2, "lr": 0.01, "seed": 4,
                 "resample_orderings": False, "grad_clip": 0.5}
    dataset_cfg = {"family": "grid", "count": 2, "n_min": 9, "n_max": 12, "seed": 5,
                   "params": {"min_side": 3}}
    assert sorted(model_cfg) == MODEL_KEYS
    assert sorted(train_cfg) == sorted(f.name for f in fields(TrainConfig))
    assert sorted(dataset_cfg) == sorted(f.name for f in fields(datasets.CorpusSpec))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model_cfg, "train": train_cfg,
                               "dataset": dataset_cfg}))
    corpus = tmp_path / "c.jsonl"
    assert run(["dataset", "--config", str(cfg), "--out", str(corpus), "--no-split"]) == 0
    assert _echoed(capsys.readouterr().out)["spec"] == dataset_cfg
    assert run(["train", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(tmp_path / "run")]) == 0
    echoed = _echoed(capsys.readouterr().out)
    assert echoed["model"] == {**model_cfg, "a": 3, "b": 2}
    assert echoed["train"] == train_cfg


# the flags of train and dataset that set no config field: paths and switches
# of the command's own behaviour, and the shared --config, --verbose and --help
NOT_CONFIG_FLAGS = {"--out", "--corpus", "--split", "--no-split", "--param",
                    "--keep-checkpoints", "--config", "--verbose", "--help"}


def test_every_setting_flag_is_named_after_its_config_field():
    """Each train and dataset flag that is not a path or a behaviour switch
    has a dest that is a field of the config it feeds, which is all the
    resolver reads: a flag named otherwise fails here, not silently."""
    parser = cli._build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, feeds in (("train", (ModelConfig, TrainConfig)),
                           ("dataset", (datasets.CorpusSpec,))):
        names = {f.name for cls in feeds for f in fields(cls)} - {"a", "b"}
        dests = {a.dest for a in commands[command]._actions
                 if not NOT_CONFIG_FLAGS & set(a.option_strings)}
        assert dests and dests <= names, command


HELP = {"train": """\
usage: gram train [-h] [--config CONFIG] [--verbose] --corpus CORPUS --out OUT
                  [--epochs EPOCHS] [--batch-size BATCH_SIZE] [--lr LR]
                  [--seed SEED] [--variant {plain,A,B,AB}] [--dmodel DMODEL]
                  [--heads HEADS] [--blocks BLOCKS] [--dff DFF]
                  [--radius RADIUS] [--seed-size SEED_SIZE] [--no-resample]
                  [--no-bias-fe] [--no-bias-ee] [--keep-checkpoints]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (sections: model, train, dataset)
  --verbose, -v
  --corpus CORPUS
  --out OUT             output directory
  --epochs EPOCHS
  --batch-size BATCH_SIZE
  --lr LR
  --seed SEED
  --variant {plain,A,B,AB}
  --dmodel DMODEL
  --heads HEADS
  --blocks BLOCKS
  --dff DFF
  --radius RADIUS
  --seed-size SEED_SIZE
  --no-resample         keep one BFS ordering per graph for all epochs
  --no-bias-fe          disable distance biases in feature extraction
  --no-bias-ee          disable distance biases in edge estimation
  --keep-checkpoints    keep one checkpoint per epoch instead of the latest
""", "dataset": """\
usage: gram dataset [-h] [--config CONFIG] [--verbose]
                    [--family {grid,lobster,community,ba}] [--count COUNT]
                    [--nmin NMIN] [--nmax NMAX] [--seed SEED] --out OUT
                    [--split SPLIT] [--no-split] [--param KEY=VALUE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file (sections: model, train, dataset)
  --verbose, -v
  --family {grid,lobster,community,ba}
  --count COUNT
  --nmin NMIN
  --nmax NMAX
  --seed SEED
  --out OUT
  --split SPLIT         train,test,val counts (default: count/7 rounded for
                        test and val)
  --no-split
  --param KEY=VALUE     family parameter override (repeatable)
"""}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_names_the_flags_not_their_fields(command, capsys, monkeypatch):
    """A flag whose dest is its field's name keeps its spelling and
    metavar in --help (--nmin NMIN, --dmodel DMODEL, --no-resample)."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert capsys.readouterr().out == HELP[command]


def _checkpoint_and_corpus(tmp_path, graphs):
    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt, tiny_model(a=3, b=2, seed_size=3), 0)
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, graphs)
    return ckpt, corpus


def test_sample_empty_corpus_is_data_error(tmp_path, capsys):
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [])
    out = tmp_path / "s.jsonl"
    assert run(["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--count", "1", "--out", str(out)]) == 2
    assert "corpus is empty" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_corpus_with_other_alphabets(tmp_path, capsys):
    """A corpus whose label alphabets differ from the checkpoint's is a data
    error naming both, raised before any sampling."""
    rng = np.random.default_rng(0)
    graphs = [random_connected_graph(rng, 8, a=4, b=2) for _ in range(3)]
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, graphs)
    out = tmp_path / "s.jsonl"
    assert run(["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--count", "1", "--max-nodes", "12", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(4, 2)" in err and "(3, 2)" in err
    assert not out.exists()


def _disconnected_corpus(tmp_path):
    """A connected graph on line 1 and, on line 2, 14 nodes with one edge."""
    rng = np.random.default_rng(0)
    corpus = tmp_path / "split.jsonl"
    write_corpus(corpus, [random_connected_graph(rng, 8),
                          LabeledGraph.create(14, [0] * 14, [(0, 1, 0)], 3, 2)])
    return corpus


@pytest.mark.parametrize("command", ["train", "sample", "stats"])
def test_disconnected_graph_is_data_error(command, tmp_path, capsys):
    """Commands that draw BFS orderings reject a corpus with a disconnected
    graph before any work, naming the file and the line, and write nothing."""
    corpus = _disconnected_corpus(tmp_path)
    out = tmp_path / "out"
    args = {"train": ["--epochs", "1"],
            "sample": ["--checkpoint", str(_checkpoint_and_corpus(tmp_path, [])[0]),
                       "--count", "1"],
            "stats": []}[command]
    assert run([command, "--corpus", str(corpus), "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert f"{corpus}: line 2: graph is disconnected" in err
    assert not out.exists()


def test_sample_max_nodes_within_seed_is_usage_error(tmp_path, capsys):
    """--max-nodes must exceed the checkpoint's seed size (3 here); the
    message names both numbers."""
    rng = np.random.default_rng(0)
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [random_connected_graph(rng, 8)])
    out = tmp_path / "s.jsonl"
    for max_nodes in ("2", "3"):
        assert run(["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                    "--count", "1", "--max-nodes", max_nodes, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"--max-nodes {max_nodes}" in err and "seed size 3" in err
    assert not out.exists()
    assert run(["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--count", "1", "--max-nodes", "4", "--out", str(out)]) == 0


@pytest.mark.parametrize("command,flag", [("stats", "--orderings"), ("sample", "--count")])
def test_counts_below_one_are_usage_errors(command, flag, tmp_path, capsys):
    """A count of 0 or below would report statistics of no ordering, or write
    an empty corpus, and exit 0; it is a usage error naming the flag."""
    rng = np.random.default_rng(0)
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [random_connected_graph(rng, 8)])
    out = tmp_path / "out.jsonl"
    args = {"stats": ["stats", "--corpus", str(corpus), "--out", str(out)],
            "sample": ["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                       "--out", str(out)]}[command]
    if command == "stats":
        args = args + ["--orderings"]
    for value in ("0", "-2"):
        argv = args + ([value] if command == "stats" else ["--count", value])
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and f"got {value}" in err
    assert not out.exists()
    argv = args + (["1"] if command == "stats" else ["--count", "1"])
    assert run(argv) == 0


def _command_args(command, tmp_path, out):
    """Arguments of a command that would run, with corpus, checkpoint and
    outputs in tmp_path and out as its --out."""
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [random_connected_graph(
        np.random.default_rng(0), 8)])
    return {"dataset": ["dataset", "--family", "grid", "--count", "7", "--nmin", "9",
                        "--nmax", "16"],
            "train": ["train", "--corpus", str(corpus), "--epochs", "1"],
            "sample": ["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                       "--count", "1"],
            "eval": ["eval", "--generated", str(corpus), "--reference", str(corpus)],
            "stats": ["stats", "--corpus", str(corpus)]}[command] + ["--out", str(out)]


def _tree(folder):
    return {path: path.read_bytes() if path.is_file() else None for path in folder.rglob("*")}


@pytest.mark.parametrize("command", ["dataset", "train", "sample", "eval", "stats"])
def test_negative_seed_is_usage_error(command, tmp_path, capsys):
    """--seed below 0 is a usage error naming the flag, raised before any
    work (numpy would reject it only once a generator is made); nothing is
    written."""
    args = _command_args(command, tmp_path, tmp_path / "out")
    before = _tree(tmp_path)
    assert run(args + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "argument --seed: must be at least 0, got -1" in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command, flag", [
    ("dataset", "--out"), ("train", "--out"), ("sample", "--out"), ("eval", "--out"),
    ("eval", "--csv"), ("stats", "--out")])
def test_unwritable_output_is_data_error_before_any_work(command, flag, tmp_path, capsys):
    """An output file in a missing directory, or a train output directory
    that is an existing file, is a data error naming the path, raised before
    any graph is read, generated, trained or sampled: nothing is written
    and no "wrote" line is printed."""
    bad = tmp_path / "c.jsonl" if command == "train" else tmp_path / "nodir" / "x.jsonl"
    args = _command_args(command, tmp_path, tmp_path / "out")
    if flag == "--csv":
        args += ["--csv", str(bad)]
    else:
        args[-1] = str(bad)
    before = _tree(tmp_path)
    assert run(args) == 2
    captured = capsys.readouterr()
    assert f"data error: cannot write {bad}: " in captured.err
    assert "wrote" not in captured.out and "config:" not in captured.out
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command, flags, message", [
    ("eval", ["--out", "r.txt", "--csv", "r.txt"],
     "cannot write r.txt: it is also the output r.txt"),
    ("eval", ["--out", "{tmp}/r.txt", "--csv", "r.txt"],
     "cannot write r.txt: it is also the output {tmp}/r.txt"),
    ("eval", ["--out", "c.jsonl"], "cannot write c.jsonl: it is the input {tmp}/c.jsonl"),
    ("eval", ["--csv", "{tmp}/t.jsonl"],
     "cannot write {tmp}/t.jsonl: it is the input {tmp}/t.jsonl"),
    ("sample", ["--out", "c.jsonl"], "cannot write c.jsonl: it is the input {tmp}/c.jsonl"),
    ("sample", ["--out", "model.bin"], "cannot write model.bin: it is the input {tmp}/model.bin"),
    ("stats", ["--out", "c.jsonl"], "cannot write c.jsonl: it is the input {tmp}/c.jsonl"),
], ids=["out-is-csv", "out-is-csv-spelt-otherwise", "out-is-generated", "csv-is-train",
        "sample-out-is-corpus", "sample-out-is-checkpoint", "stats-out-is-corpus"])
def test_output_that_is_another_output_or_an_input_is_data_error(command, flags, message,
                                                                 tmp_path, capsys, monkeypatch):
    """An output that resolves to another output of the command, or to one
    of its inputs, is a data error naming both paths, raised before any
    work: every file is left byte for byte as it was."""
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [random_connected_graph(
        np.random.default_rng(0), 8)])
    write_corpus(tmp_path / "t.jsonl", read_corpus(corpus))
    monkeypatch.chdir(tmp_path)
    args = {"sample": ["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                       "--count", "1"],
            "eval": ["eval", "--generated", str(corpus), "--reference", str(corpus),
                     "--train", str(tmp_path / "t.jsonl")],
            "stats": ["stats", "--corpus", str(corpus)]}[command]
    before = _tree(tmp_path)
    assert run(args + [flag.format(tmp=tmp_path) for flag in flags]) == 2
    captured = capsys.readouterr()
    assert f"data error: {message.format(tmp=tmp_path)}" in captured.err
    assert "config:" not in captured.out
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("case", ["corpus", "corpus line", "config", "checkpoint name",
                                  "checkpoint state"])
def test_undecodable_input_is_data_error(case, tmp_path, capsys):
    """Bytes that are not UTF-8 in a corpus (its first line, or one line of
    an otherwise valid corpus) or a config file, and a checkpoint whose
    parameter name or generator state is corrupt, are data errors naming
    the file, and the line of a corpus; nothing is written."""
    out = tmp_path / "out.jsonl"
    args = _command_args("sample", tmp_path, out)
    ckpt, corpus, cfg = tmp_path / "model.bin", tmp_path / "c.jsonl", tmp_path / "cfg.json"
    name = tiny_model().parameters()[0].name.encode()
    blob = ckpt.read_bytes()
    assert blob.count(name) == 1 and blob.endswith(b"null")
    path, data, message = {
        "corpus": (corpus, b"\xff" + corpus.read_bytes(), "line 1: not UTF-8"),
        "corpus line": (corpus, corpus.read_bytes() * 2 + b'{"a": "\xff"}\n' + corpus.read_bytes(),
                        "line 3: not UTF-8"),
        "config": (cfg, b'{"train": {"seed": "\xff"}}', "'utf-8' codec can't decode"),
        "checkpoint name": (ckpt, blob.replace(name, b"\xff" + name[1:]),
                            "unknown or repeated parameter '\ufffd"),
        "checkpoint state": (ckpt, blob[:-4] + b"nul!", "bad generator state"),
    }[case]
    path.write_bytes(data)
    what = {corpus: "corpus file", cfg: "config file", ckpt: "checkpoint"}[path]
    assert run(args + ["--config", str(cfg)] if path == cfg else args) == 2
    assert f"data error: {what} {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '{"a": 3, "b": 2, "nodes": 5, "edges": []}',
    '{"a": "x", "b": 2, "nodes": [0, 1], "edges": [[0, 1, 0]]}',
    '{"a": 3, "b": 2, "nodes": ["x"], "edges": []}',
    '{"a": 3, "b": 2, "nodes": [0, 1], "edges": [5]}',
    '{"a": 3, "b": 2, "nodes": [0, 1], "edges": [[0, 1.5, 0]]}',
    '{"a": 3, "b": 2, "nodes": [0.7, 1], "edges": [[0, 1, 0]]}',
    '{"a": 3, "b": true, "nodes": [0, 1], "edges": [[0, 1, 0]]}',
])
def test_wrongly_typed_corpus_field_is_data_error(line, tmp_path, capsys):
    """A field of the wrong type, or a number that is not an integer, is
    rejected with the line number, not truncated or left to crash."""
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(line + "\n")
    assert run(["stats", "--corpus", str(corpus)]) == 2
    assert f"{corpus}: line 1: " in capsys.readouterr().err


def _dataset_args(tmp_path, family, *extra):
    return ["dataset", "--family", family, "--count", "2", "--nmin", "9", "--nmax", "16",
            "--out", str(tmp_path / "d.jsonl"), "--no-split", *extra]


@pytest.mark.parametrize("family, params, key", [
    ("lobster", ["--param", "p2=abc"], "p2"),
    ("grid", ["--param", "p_in=0.5"], "p_in"),
    ("grid", ["--param", "min_side=2.5"], "min_side"),
    ("community", ["--param", "p_out=1.5"], "p_out"),
    ("ba", ["--param", "m=true"], "m"),
])
def test_bad_family_parameter_is_data_error(family, params, key, tmp_path, capsys):
    """An unknown or wrongly typed family parameter is a data error naming
    the key; nothing is echoed as used and nothing is written."""
    assert run(_dataset_args(tmp_path, family, *params)) == 2
    captured = capsys.readouterr()
    assert f"parameter {key!r}" in captured.err
    assert "config:" not in captured.out and not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("family, n, params, bound", [
    ("community", 40, ["--param", "p_out=1e-9"], 200),
    ("lobster", 10, ["--param", "p1=1", "--param", "p2=1"], 200),
    ("lobster", 3, ["--param", "p1=1"], None),  # the real bound: about 1 s
])
def test_unmeetable_family_spec_is_data_error(family, n, params, bound, tmp_path, capsys,
                                              monkeypatch):
    """A size and parameters that no draw meets (lobster: every draw of
    p1 = p2 = 1 has 9 nodes, and of p1 = 1 at least 4) or almost none
    (community: p_out = 1e-9 joins no blocks) end in a data error naming the
    family once the draws run out; nothing is written."""
    if bound is not None:
        monkeypatch.setattr(datasets, "MAX_DRAWS", bound)
    args = ["dataset", "--family", family, "--count", "1", "--nmin", str(n), "--nmax", str(n),
            "--out", str(tmp_path / "d.jsonl"), "--no-split", *params]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"data error: {family} (" in err and f"{datasets.MAX_DRAWS} draws" in err
    assert not (tmp_path / "d.jsonl").exists()


def test_family_parameters_from_flags_and_config(tmp_path, capsys):
    """--param KEY=VALUE reads the value as JSON, a config file's params
    section is checked like the flags, and --param without = is a usage
    error."""
    assert run(_dataset_args(tmp_path, "grid", "--param", "min_side=3",
                             "--param", "max_side=4")) == 0
    assert '"params": {"max_side": 4, "min_side": 3}' in capsys.readouterr().out
    assert {(g.n) for g in read_corpus(tmp_path / "d.jsonl")} <= {9, 12, 16}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"params": {"p_in": 0.5}}}))
    assert run(_dataset_args(tmp_path, "grid", "--config", str(cfg))) == 2
    assert "unknown grid parameter 'p_in'" in capsys.readouterr().err
    assert run(_dataset_args(tmp_path, "grid", "--param", "min_side")) == 1
    assert "--param expects KEY=VALUE, got 'min_side'" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "config file not found"),
    ("{not json", "invalid JSON"),
    ("[1, 2]", "top level must be an object"),
])
def test_bad_config_file_is_data_error(content, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert run(_dataset_args(tmp_path, "grid", "--config", str(cfg))) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sample", "eval", "config"])
def test_directory_as_input_file_is_data_error(command, tmp_path, capsys):
    """A directory given as a corpus, checkpoint or config file is a data
    error naming the path, as a missing file is, and writes nothing."""
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(np.random.default_rng(0), 8)])
    folder, out = tmp_path / "folder", tmp_path / "out"
    folder.mkdir()
    args, what = {
        "train": (["train", "--corpus", str(folder), "--out", str(out)], "corpus file"),
        "sample": (["sample", "--checkpoint", str(folder), "--corpus", str(corpus),
                    "--count", "1", "--out", str(out)], "checkpoint"),
        "eval": (["eval", "--generated", str(folder), "--reference", str(corpus),
                  "--out", str(out)], "corpus file"),
        "config": (["stats", "--corpus", str(corpus), "--config", str(folder),
                    "--out", str(out)], "config file"),
    }[command]
    assert run(args) == 2
    assert f"data error: cannot read {what} {folder}: " in capsys.readouterr().err
    assert not out.exists()


def test_mixed_alphabets_in_one_corpus_is_data_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [random_connected_graph(rng, 8, a=3, b=2),
                          random_connected_graph(rng, 8, a=4, b=2)])
    out = tmp_path / "run"
    assert run(["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]) == 2
    assert "graph 1 has alphabets (4, 2), expected (3, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_failed_training_leaves_no_output_directory(tmp_path, capsys):
    """A corpus whose graphs are all within the seed size fails training
    before anything is written: not even the --out directory is made."""
    corpus = tmp_path / "tiny.jsonl"
    write_corpus(corpus, [LabeledGraph.create(2, [0, 0], [(0, 1, 0)], 1, 1)])
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="skipping 1 graphs"):
        assert run(["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]) == 2
    assert "no graph exceeds the seed size" in capsys.readouterr().err
    assert not out.exists()


def _eval_corpora(tmp_path, **alphabets):
    """Corpus files gen, ref and train of three connected graphs each, with
    the (a, b) given per name (default (3, 2)) for all their graphs, or for
    graph 1 alone when the name ends in _1."""
    rng = np.random.default_rng(0)
    paths = {}
    for name in ("gen", "ref", "train"):
        graphs = [random_connected_graph(rng, 8, *alphabets.get(name, (3, 2))) for _ in range(3)]
        if f"{name}_1" in alphabets:
            graphs[1] = random_connected_graph(rng, 8, *alphabets[f"{name}_1"])
        paths[name] = tmp_path / f"{name}.jsonl"
        write_corpus(paths[name], graphs)
    return paths


@pytest.mark.parametrize("alphabets, bad, message", [
    ({"ref": (4, 2)}, "ref", "graph 0 has alphabets (4, 2), expected (3, 2) as in {gen}"),
    ({"train": (3, 1)}, "train", "graph 0 has alphabets (3, 1), expected (3, 2) as in {gen}"),
    ({"ref_1": (3, 3)}, "ref", "graph 1 has alphabets (3, 3), expected (3, 2) as in {gen}"),
    ({"gen_1": (2, 2)}, "gen", "graph 1 has alphabets (2, 2), expected (3, 2)"),
])
def test_eval_rejects_corpora_with_other_alphabets(alphabets, bad, message, tmp_path, capsys):
    """All graphs of the three eval corpora share one (a, b): another is a
    data error naming the file and the graph, raised before any report."""
    paths = _eval_corpora(tmp_path, **alphabets)
    out = tmp_path / "rep.json"
    assert run(["eval", "--generated", str(paths["gen"]), "--reference", str(paths["ref"]),
                "--train", str(paths["train"]), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"data error: {paths[bad]}: {message.format(gen=paths['gen'])}" in captured.err
    assert "gk_mmd2" not in captured.out and not out.exists()


@pytest.mark.parametrize("empty", ["gen", "ref", "train"])
def test_eval_empty_corpus_is_data_error(empty, tmp_path, capsys):
    """An empty generated, reference or training corpus is a data error
    naming the file; without --train, novelty is simply not reported."""
    paths = _eval_corpora(tmp_path)
    write_corpus(paths[empty], [])
    args = ["eval", "--generated", str(paths["gen"]), "--reference", str(paths["ref"])]
    assert run(args + ["--train", str(paths["train"])]) == 2
    captured = capsys.readouterr()
    assert f"data error: {paths[empty]}: corpus is empty" in captured.err
    assert "gk_mmd2" not in captured.out
    if empty == "train":
        assert run(args) == 0
        assert "novel_ratio: -" in capsys.readouterr().out


def test_argmax_sampling_ignores_the_seed(tmp_path):
    """Greedy decoding from a bank of one seed draws nothing at random.  The
    corpus is one complete graph with one label, so every BFS ordering gives
    the bank the same seed, and runs with different seeds write
    byte-identical corpora."""
    complete = LabeledGraph.create(5, [1] * 5, [(u, v, 0) for u in range(5)
                                                for v in range(u + 1, 5)], 3, 2)
    ckpt, corpus = _checkpoint_and_corpus(tmp_path, [complete])
    outs = [tmp_path / f"s{seed}.jsonl" for seed in (1, 2)]
    for seed, out in zip((1, 2), outs):
        assert run(["sample", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                    "--count", "2", "--max-nodes", "10", "--seed", str(seed), "--argmax",
                    "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert all(g.is_connected() for g in read_corpus(outs[0]))
