import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gram.cli import main
from gram.datasets import read_corpus, write_corpus
from gram.training import save_checkpoint

from conftest import random_connected_graph, tiny_model


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


def test_eval_identical_corpora_zero(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "6", "--nmin", "9", "--nmax",
         "16", "--seed", "2", "--out", str(corpus), "--no-split"])
    report = tmp_path / "rep.json"
    code = run(["eval", "--generated", str(corpus), "--reference", str(corpus),
                "--train", str(corpus), "--out", str(report),
                "--csv", str(tmp_path / "rep.csv")])
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["gk_mmd2"] == 0.0
    assert obj["degree_mmd2"] == 0.0
    assert obj["novel_ratio"] == 0.0
    lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("gk_mmd2,") and len(lines) == 2


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(["dataset", "--family", "grid", "--count", "8", "--nmin", "9", "--nmax",
         "16", "--seed", "1", "--out", str(corpus), "--no-split"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_modell": 32}}))
    assert run(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r"),
                "--config", str(cfg)]) == 2


def test_cli_runs_with_numba_disabled(tmp_path):
    """The whole dataset->stats path must work on the fallback backend."""
    env = dict(os.environ, GRAM_NUMBA="0")
    corpus = tmp_path / "c.jsonl"
    cmd = [sys.executable, "-m", "gram.cli", "dataset", "--family", "grid",
           "--count", "4", "--nmin", "9", "--nmax", "16", "--seed", "1",
           "--out", str(corpus), "--no-split"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    cmd = [sys.executable, "-m", "gram.cli", "stats", "--corpus", str(corpus)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "mean_beta" in out.stdout


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
