"""Command-line front end: dataset generation, training, sampling,
evaluation, and corpus instrumentation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
Configuration precedence: built-in defaults < JSON config file < flags.
Every run echoes its resolved configuration and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets as D
from . import evaluation as E
from .model import Model, ModelConfig, ModelError
from .sampler import SamplerError, build_seed_bank, generate_graph
from .training import (CheckpointError, TrainConfig, TrainError,
                       load_checkpoint, train)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file (sections: model, train, dataset)")
    shared.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker cap for parallel sections (default: GRAM_THREADS or 1)")
    shared.add_argument("--verbose", "-v", action="store_true", default=argparse.SUPPRESS)

    p = _Parser(prog="gram", description=__doc__, parents=[shared],
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.set_defaults(config=None, threads=None, verbose=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    d = add("dataset", help="generate a synthetic corpus and split files")
    d.add_argument("--family", choices=D.FAMILIES)
    d.add_argument("--count", type=int)
    d.add_argument("--nmin", type=int)
    d.add_argument("--nmax", type=int)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--out", required=True)
    d.add_argument("--split", default=None,
                   help="train,test,val counts (default: count/7 rounded for test and val)")
    d.add_argument("--no-split", action="store_true")
    d.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="family parameter override (repeatable)")

    t = add("train", help="train a model on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--variant", choices=("plain", "A", "B", "AB"), default=None)
    t.add_argument("--dmodel", type=int, default=None)
    t.add_argument("--heads", type=int, default=None)
    t.add_argument("--blocks", type=int, default=None)
    t.add_argument("--dff", type=int, default=None)
    t.add_argument("--radius", type=int, default=None)
    t.add_argument("--seed-size", type=int, default=None)
    t.add_argument("--no-resample", action="store_true",
                   help="keep one BFS ordering per graph for all epochs")
    t.add_argument("--no-bias-fe", action="store_true",
                   help="disable distance biases in feature extraction")
    t.add_argument("--no-bias-ee", action="store_true",
                   help="disable distance biases in edge estimation")
    t.add_argument("--keep-checkpoints", action="store_true",
                   help="keep one checkpoint per epoch instead of the latest")

    s = add("sample", help="generate graphs from a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--corpus", required=True, help="training corpus for the seed bank")
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--max-nodes", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--argmax", action="store_true", help="greedy decoding (debug)")
    s.add_argument("--out", required=True)

    e = add("eval", help="compare a generated corpus against a reference")
    e.add_argument("--generated", required=True)
    e.add_argument("--reference", required=True)
    e.add_argument("--train", default=None, help="training corpus for novelty")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None, help="report JSON path")
    e.add_argument("--csv", default=None, help="report CSV path")

    st = add("stats", help="corpus size/frontier instrumentation")
    st.add_argument("--corpus", required=True)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--orderings", type=int, default=1)
    st.add_argument("--out", default=None, help="stats JSON path")
    return p


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"config file {path}: top level must be an object")
    return obj


def _merge(defaults: dict, file_section: dict, flags: dict) -> dict:
    """defaults < config file < explicitly set flags."""
    out = dict(defaults)
    for k, v in file_section.items():
        if k not in out:
            raise DataError(f"config key {k!r} not recognized (known: {sorted(out)})")
        out[k] = v
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    return out


def _echo(args, payload: dict):
    print("config: " + json.dumps(payload, sort_keys=True))


def _read_corpus(path):
    if not os.path.exists(path):
        raise DataError(f"corpus file not found: {path}")
    try:
        return D.read_corpus(path)
    except D.CorpusFormatError as exc:
        raise DataError(str(exc)) from exc


def _alphabets(graphs, path):
    a, b = graphs[0].a, graphs[0].b
    for i, g in enumerate(graphs):
        if (g.a, g.b) != (a, b):
            raise DataError(f"{path}: graph {i} has alphabets ({g.a}, {g.b}), "
                            f"expected ({a}, {b})")
    return a, b


def _cmd_dataset(args, cfg_file):
    flags = {"family": args.family, "count": args.count, "n_min": args.nmin,
             "n_max": args.nmax, "seed": args.seed}
    section = dict(cfg_file.get("dataset", {}))
    params = dict(section.pop("params", {}))
    for kv in args.param:
        if "=" not in kv:
            raise UsageError(f"--param expects KEY=VALUE, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            params[k] = json.loads(v)
        except json.JSONDecodeError:
            params[k] = v
    defaults = {"family": None, "count": None, "n_min": None, "n_max": None, "seed": 0}
    merged = _merge(defaults, section, flags)
    for key in ("family", "count", "n_min", "n_max"):
        if merged[key] is None:
            raise UsageError(f"dataset requires --{key.replace('_', '')}")
    try:
        spec = D.CorpusSpec(merged["family"], merged["count"], merged["n_min"],
                            merged["n_max"], merged["seed"], params)
    except D.CorpusSpecError as exc:
        raise DataError(str(exc)) from exc
    _echo(args, {"command": "dataset", "spec": spec.to_json_obj()})
    try:
        graphs = D.generate_corpus(spec)
    except D.CorpusSpecError as exc:
        raise DataError(str(exc)) from exc
    out = Path(args.out)
    D.write_corpus(out, graphs)
    print(f"wrote {len(graphs)} graphs to {out}")
    if not args.no_split:
        if args.split is not None:
            try:
                counts = tuple(int(x) for x in args.split.split(","))
            except ValueError as exc:
                raise UsageError(f"--split expects three integers, got {args.split!r}") from exc
        else:
            counts = D.default_split_counts(len(graphs))
        try:
            parts = D.split_corpus(graphs, counts, seed=spec.seed)
        except D.CorpusSpecError as exc:
            raise DataError(str(exc)) from exc
        for name, part in zip(("train", "test", "val"), parts):
            path = out.with_suffix(f".{name}.jsonl") if out.suffix else Path(f"{out}.{name}.jsonl")
            D.write_corpus(path, part)
            print(f"wrote {len(part)} graphs to {path}")
    return 0


def _cmd_train(args, cfg_file):
    graphs = _read_corpus(args.corpus)
    if not graphs:
        raise DataError(f"{args.corpus}: corpus is empty")
    a, b = _alphabets(graphs, args.corpus)
    model_flags = {"d_model": args.dmodel, "heads": args.heads, "blocks": args.blocks,
                   "d_ff": args.dff, "radius": args.radius, "seed_size": args.seed_size,
                   "variant": args.variant,
                   "bias_in_fe": False if args.no_bias_fe else None,
                   "bias_in_ee": False if args.no_bias_ee else None}
    model_defaults = ModelConfig(a=1, b=1).to_json_obj()
    model_defaults.update({"a": a, "b": b})
    mcfg_obj = _merge(model_defaults, cfg_file.get("model", {}), model_flags)
    mcfg_obj["a"], mcfg_obj["b"] = a, b
    train_flags = {"epochs": args.epochs, "batch_size": args.batch_size, "lr": args.lr,
                   "seed": args.seed,
                   "resample_orderings": False if args.no_resample else None}
    tcfg_obj = _merge(TrainConfig().to_json_obj(), cfg_file.get("train", {}), train_flags)
    try:
        mcfg = ModelConfig.from_json_obj(mcfg_obj)
        tcfg = TrainConfig.from_json_obj(tcfg_obj)
    except (ModelError, TrainError, TypeError) as exc:
        raise DataError(f"bad configuration: {exc}") from exc
    _echo(args, {"command": "train", "model": mcfg.to_json_obj(),
                 "train": tcfg.to_json_obj(), "corpus": str(args.corpus)})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = Model(mcfg, init_seed=tcfg.seed)
    log = print if args.verbose else None
    try:
        history = train(graphs, model, tcfg, checkpoint_dir=out,
                        keep_all_checkpoints=args.keep_checkpoints,
                        history_path=out / "history.csv", log=log)
    except TrainError as exc:
        raise DataError(str(exc)) from exc
    print(f"trained {tcfg.epochs} epochs; final mean nll {history[-1].mean_nll:.4f}")
    print(f"checkpoint dir: {out}")
    return 0


def _cmd_sample(args, cfg_file):
    if not os.path.exists(args.checkpoint):
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    try:
        model, epoch, _ = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        raise DataError(f"{args.checkpoint}: {exc}") from exc
    graphs = _read_corpus(args.corpus)
    if not graphs:
        raise DataError(f"{args.corpus}: corpus is empty")
    a, b = _alphabets(graphs, args.corpus)
    if (a, b) != (model.config.a, model.config.b):
        raise DataError(f"{args.corpus}: corpus alphabets ({a}, {b}) differ from the "
                        f"checkpoint's ({model.config.a}, {model.config.b})")
    max_nodes = args.max_nodes if args.max_nodes is not None else \
        max(g.n for g in graphs) * 2
    _echo(args, {"command": "sample", "model": model.config.to_json_obj(),
                 "epoch": epoch, "count": args.count, "max_nodes": max_nodes,
                 "seed": args.seed, "argmax": args.argmax})
    rng = np.random.default_rng(args.seed)
    try:
        bank = build_seed_bank(graphs, model.config.seed_size, rng)
    except SamplerError as exc:
        raise DataError(str(exc)) from exc
    samples = []
    truncated = retries = forced = 0
    for _ in range(args.count):
        res = generate_graph(model, bank, max_nodes, rng, argmax=args.argmax)
        samples.append(res.graph)
        truncated += int(res.truncated)
        retries += res.retries
        forced += res.forced
    D.write_corpus(args.out, samples)
    print(f"wrote {len(samples)} graphs to {args.out} ({truncated} truncated, "
          f"{retries} retries, {forced} forced attachments)")
    return 0


EVAL_TABLE_ORDER = ("gk_mmd2", "degree_mmd2", "clustering_mmd2", "orbit_mmd2",
                    "unique_ratio", "novel_ratio")


def _cmd_eval(args, cfg_file):
    generated = _read_corpus(args.generated)
    reference = _read_corpus(args.reference)
    train_set = _read_corpus(args.train) if args.train else None
    if not generated or not reference:
        raise DataError("eval needs non-empty corpora")
    _echo(args, {"command": "eval", "generated": str(args.generated),
                 "reference": str(args.reference), "train": args.train,
                 "seed": args.seed, "threads": args.threads_resolved})
    report = E.evaluate_corpora(generated, reference, train_set,
                                seed=args.seed, threads=args.threads_resolved)
    for key in EVAL_TABLE_ORDER:
        val = getattr(report, key)
        print(f"{key:>16}: " + ("-" if val is None else f"{val:.6f}"))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json_obj(), sort_keys=True) + "\n")
        print(f"report json: {args.out}")
    if args.csv:
        Path(args.csv).write_text(report.csv_header() + "\n" + report.csv_row() + "\n")
        print(f"report csv: {args.csv}")
    return 0


def _cmd_stats(args, cfg_file):
    graphs = _read_corpus(args.corpus)
    if not graphs:
        raise DataError(f"{args.corpus}: corpus is empty")
    _echo(args, {"command": "stats", "corpus": str(args.corpus),
                 "seed": args.seed, "orderings": args.orderings})
    stats = D.corpus_stats(graphs, seed=args.seed, orderings_per_graph=args.orderings)
    for key in ("graphs", "mean_n", "mean_m", "mean_alpha", "mean_beta",
                "mean_degree", "max_degree"):
        val = stats[key]
        print(f"{key:>12}: " + (f"{val:.4f}" if isinstance(val, float) else str(val)))
    if args.out:
        Path(args.out).write_text(json.dumps(stats, sort_keys=True) + "\n")
    return 0


_COMMANDS = {"dataset": _cmd_dataset, "train": _cmd_train, "sample": _cmd_sample,
             "eval": _cmd_eval, "stats": _cmd_stats}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("GRAM_THREADS", "1"))
        if threads < 1:
            raise UsageError("--threads must be >= 1")
        args.threads_resolved = threads
        cfg_file = _load_config_file(args.config)
        return _COMMANDS[args.command](args, cfg_file)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
