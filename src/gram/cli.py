"""Command-line front end: dataset generation, training, sampling,
evaluation, and corpus instrumentation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
Configuration precedence: built-in defaults < JSON config file < flags <
the values a command derives itself (a model's label alphabets, read from
its corpus, which are no config key).  A config key is the name of the
field it sets: d_model for --dmodel.
Every run echoes its resolved configuration and seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import datasets as D
from . import evaluation as E
from .model import VARIANTS, Model, ModelConfig
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


def _at_least(low: int):
    """An argparse type: an integer of at least low (a count or a seed)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file (sections: model, train, dataset)")
    shared.add_argument("--verbose", "-v", action="store_true", default=argparse.SUPPRESS)

    p = _Parser(prog="gram", description=__doc__, parents=[shared],
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    # a flag that sets a field of its command's config dataclass stores it
    # under the field's name, which is all _resolve reads
    d = add("dataset", help="generate a synthetic corpus and split files")
    d.add_argument("--family", choices=D.FAMILIES)
    d.add_argument("--count", type=int)
    d.add_argument("--nmin", dest="n_min", type=int, metavar="NMIN")
    d.add_argument("--nmax", dest="n_max", type=int, metavar="NMAX")
    d.add_argument("--seed", type=_at_least(0))
    d.add_argument("--out", required=True)
    d.add_argument("--split", default=None,
                   help="train,test,val counts (default: count/7 rounded for test and val)")
    d.add_argument("--no-split", action="store_true")
    d.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="family parameter override (repeatable)")

    t = add("train", help="train a model on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=_at_least(0))
    t.add_argument("--variant", choices=VARIANTS)
    t.add_argument("--dmodel", dest="d_model", type=int, metavar="DMODEL")
    t.add_argument("--heads", type=int)
    t.add_argument("--blocks", type=int)
    t.add_argument("--dff", dest="d_ff", type=int, metavar="DFF")
    t.add_argument("--radius", type=int)
    t.add_argument("--seed-size", type=int)
    t.add_argument("--no-resample", dest="resample_orderings", action="store_const",
                   const=False, help="keep one BFS ordering per graph for all epochs")
    t.add_argument("--no-bias-fe", dest="bias_in_fe", action="store_const", const=False,
                   help="disable distance biases in feature extraction")
    t.add_argument("--no-bias-ee", dest="bias_in_ee", action="store_const", const=False,
                   help="disable distance biases in edge estimation")
    t.add_argument("--keep-checkpoints", action="store_true",
                   help="keep one checkpoint per epoch instead of the latest")

    s = add("sample", help="generate graphs from a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--corpus", required=True, help="training corpus for the seed bank")
    s.add_argument("--count", type=_at_least(1), required=True)
    s.add_argument("--max-nodes", type=int, default=None)
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--argmax", action="store_true", help="greedy decoding (debug)")
    s.add_argument("--out", required=True)

    e = add("eval", help="compare a generated corpus against a reference")
    e.add_argument("--generated", required=True)
    e.add_argument("--reference", required=True)
    e.add_argument("--train", default=None, help="training corpus for novelty")
    e.add_argument("--seed", type=_at_least(0), default=0)
    e.add_argument("--out", default=None, help="report JSON path")
    e.add_argument("--csv", default=None, help="report CSV path")

    st = add("stats", help="corpus size/frontier instrumentation")
    st.add_argument("--corpus", required=True)
    st.add_argument("--seed", type=_at_least(0), default=0)
    st.add_argument("--orderings", type=_at_least(1), default=1)
    st.add_argument("--out", default=None, help="stats JSON path")
    return p


def _read_input(what: str, path, read):
    """read(path), with the faults of the input file as data errors that
    name it: missing, unreadable (a directory, say), or not in its format."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path}: invalid JSON: {exc}") from exc
    except (UnicodeDecodeError, D.CorpusFormatError, CheckpointError) as exc:
        raise DataError(f"{what} {path}: {exc}") from exc


def _check_outputs(*paths, inputs=(), directory: bool = False):
    """Fail before any work when an output path (None for none) cannot be
    written: a file needs an existing directory and must not be one; a
    directory, made with its parents, needs its nearest existing path to be
    one.  No output may resolve to another output or to one of the
    command's input paths (None for none), which writing it would replace."""
    written = {}
    for path in map(Path, filter(None, paths)):
        if not directory and path.is_dir():
            raise DataError(f"cannot write {path}: it is a directory")
        base = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
        if not base.is_dir():
            raise DataError(f"cannot write {path}: {base} is not an existing directory")
        key = path.resolve()
        if key in written:
            raise DataError(f"cannot write {path}: it is also the output {written[key]}")
        written[key] = path
    for source in map(Path, filter(None, inputs)):
        if (key := source.resolve()) in written:
            raise DataError(f"cannot write {written[key]}: it is the input {source}")


def _load_config_file(path):
    if path is None:
        return {}
    obj = _read_input("config file", path, lambda p: json.loads(Path(p).read_text("utf-8")))
    if not isinstance(obj, dict):
        raise DataError(f"config file {path}: top level must be an object")
    return obj


def _section(cfg_file: dict, path: str) -> dict:
    """The config file's object at a dotted path ("dataset.params"), {}
    where absent."""
    obj = cfg_file
    for key in path.split("."):
        obj = obj.get(key, {})
        if not isinstance(obj, dict):
            raise DataError(f"config section {path!r} must be an object, got {obj!r}")
    return obj


def _resolve(args, cls, section: dict, derived=None):
    """The config dataclass cls of the command args.command: its own
    defaults < the config file's section < the flags whose dest is a field
    and that are set (not None) < derived, the fields the command sets
    itself, which the file may not name."""
    derived = derived or {}
    known = sorted(f.name for f in fields(cls) if f.name not in derived)
    for key in section:
        if key not in known:
            raise DataError(f"config key {key!r} not recognized (known: {known})")
    flags = {name: getattr(args, name) for name in known
             if getattr(args, name, None) is not None}
    values = {**section, **flags, **derived}
    for f in fields(cls):
        if values.get(f.name) is None and f.default is MISSING and f.default_factory is MISSING:
            raise UsageError(f"{args.command} requires --{f.name.replace('_', '')}")
    try:
        return cls(**values)
    except ValueError as exc:  # each dataclass's own error is a ValueError
        raise DataError(f"bad configuration: {exc}") from exc


def _echo(payload: dict):
    print("config: " + json.dumps(payload, sort_keys=True))


def _read_corpus(path):
    return _read_input("corpus file", path, D.read_corpus)


def _read_training_corpus(path):
    """A non-empty corpus of connected graphs, checked before any work:
    training, sampling and the frontier statistics draw BFS orderings,
    which a disconnected graph has none of."""
    graphs = _read_corpus(path)
    if not graphs:
        raise DataError(f"{path}: corpus is empty")
    for lineno, g in enumerate(graphs, start=1):  # read_corpus allows no blank lines
        if not g.is_connected():
            raise DataError(f"{path}: line {lineno}: graph is disconnected; "
                            "BFS orderings need connected graphs")
    return graphs


def _alphabets(graphs, path, expected=None):
    """The label alphabets (a, b) that every graph of a non-empty corpus
    file shares: those of its first graph, or expected = ((a, b), the file
    they come from).  A graph with others is a data error naming both."""
    (a, b), source = expected or ((graphs[0].a, graphs[0].b), None)
    for i, g in enumerate(graphs):
        if (g.a, g.b) != (a, b):
            raise DataError(f"{path}: graph {i} has alphabets ({g.a}, {g.b}), expected "
                            f"({a}, {b})" + (f" as in {source}" if source else ""))
    return a, b


def _cmd_dataset(args, cfg_file):
    section = _section(cfg_file, "dataset")
    params = dict(_section(cfg_file, "dataset.params"))
    for kv in args.param:
        if "=" not in kv:
            raise UsageError(f"--param expects KEY=VALUE, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            params[k] = json.loads(v)
        except json.JSONDecodeError:
            params[k] = v
    spec = _resolve(args, D.CorpusSpec, {**section, "params": params})
    counts = None
    if not args.no_split:
        # checked before anything is generated, so a bad split writes nothing
        if args.split is not None:
            try:  # a count that is no integer, and too few or too many counts
                n_train, n_test, n_val = map(int, args.split.split(","))
            except ValueError as exc:
                raise UsageError(f"--split expects three integers, got {args.split!r}") from exc
            counts = (n_train, n_test, n_val)
        else:
            counts = D.default_split_counts(spec.count)
        try:
            D.check_split_counts(counts, spec.count)
        except D.CorpusSpecError as exc:
            raise DataError(str(exc)) from exc
    out = Path(args.out)
    split_paths = [] if counts is None else [
        out.with_suffix(f".{name}.jsonl") if out.suffix else Path(f"{out}.{name}.jsonl")
        for name in ("train", "test", "val")]
    _check_outputs(out, *split_paths)
    _echo({"command": "dataset", "spec": spec.to_json_obj()})
    try:
        graphs = D.generate_corpus(spec)
    except D.CorpusSpecError as exc:
        raise DataError(str(exc)) from exc
    D.write_corpus(out, graphs)
    print(f"wrote {len(graphs)} graphs to {out}")
    if counts is not None:
        for path, part in zip(split_paths, D.split_corpus(graphs, counts, seed=spec.seed)):
            D.write_corpus(path, part)
            print(f"wrote {len(part)} graphs to {path}")
    return 0


def _cmd_train(args, cfg_file):
    _check_outputs(args.out, directory=True)
    graphs = _read_training_corpus(args.corpus)
    a, b = _alphabets(graphs, args.corpus)
    mcfg = _resolve(args, ModelConfig, _section(cfg_file, "model"), {"a": a, "b": b})
    tcfg = _resolve(args, TrainConfig, _section(cfg_file, "train"))
    _echo({"command": "train", "model": mcfg.to_json_obj(),
           "train": tcfg.to_json_obj(), "corpus": str(args.corpus)})
    out = Path(args.out)  # made by train once the corpus passes its checks
    model = Model(mcfg, init_seed=tcfg.seed)
    log = print if args.verbose else None
    try:
        history = train(graphs, model, tcfg, checkpoint_dir=out,
                        keep_all_checkpoints=args.keep_checkpoints, log=log)
    except TrainError as exc:
        raise DataError(str(exc)) from exc
    print(f"trained {tcfg.epochs} epochs; final mean nll {history[-1].mean_nll:.4f}")
    print(f"checkpoint dir: {out}")
    return 0


def _cmd_sample(args, cfg_file):
    _check_outputs(args.out, inputs=(args.checkpoint, args.corpus))
    model, epoch, _ = _read_input("checkpoint", args.checkpoint, load_checkpoint)
    seed_size = model.config.seed_size
    if args.max_nodes is not None and args.max_nodes <= seed_size:
        raise UsageError(f"--max-nodes {args.max_nodes} must exceed the checkpoint's "
                         f"seed size {seed_size}")
    graphs = _read_training_corpus(args.corpus)
    a, b = _alphabets(graphs, args.corpus)
    if (a, b) != (model.config.a, model.config.b):
        raise DataError(f"{args.corpus}: corpus alphabets ({a}, {b}) differ from the "
                        f"checkpoint's ({model.config.a}, {model.config.b})")
    max_nodes = args.max_nodes if args.max_nodes is not None else \
        max(g.n for g in graphs) * 2
    _echo({"command": "sample", "model": model.config.to_json_obj(),
           "epoch": epoch, "count": args.count, "max_nodes": max_nodes,
           "seed": args.seed, "argmax": args.argmax})
    rng = np.random.default_rng(args.seed)
    try:
        bank = build_seed_bank(graphs, seed_size, rng)
    except SamplerError as exc:
        raise DataError(str(exc)) from exc
    samples = []
    truncated = retries = forced = edge_passes = 0
    for _ in range(args.count):
        res = generate_graph(model, bank, max_nodes, rng, argmax=args.argmax)
        samples.append(res.graph)
        truncated += int(res.truncated)
        retries += res.retries
        forced += res.forced
        edge_passes += res.edge_passes
    D.write_corpus(args.out, samples)
    print(f"wrote {len(samples)} graphs to {args.out} ({truncated} truncated, "
          f"{retries} retries, {edge_passes} edge passes, {forced} forced attachments)")
    return 0


def _cmd_eval(args, cfg_file):
    _check_outputs(args.out, args.csv, inputs=(args.generated, args.reference, args.train))
    generated = _read_corpus(args.generated)
    reference = _read_corpus(args.reference)
    train_set = _read_corpus(args.train) if args.train else None
    corpora = [(args.generated, generated), (args.reference, reference)]
    corpora += [] if train_set is None else [(args.train, train_set)]
    for path, graphs in corpora:
        if not graphs:
            raise DataError(f"{path}: corpus is empty")
    alphabets = _alphabets(generated, args.generated)
    for path, graphs in corpora[1:]:
        _alphabets(graphs, path, (alphabets, args.generated))
    _echo({"command": "eval", "generated": str(args.generated),
           "reference": str(args.reference), "train": args.train,
           "seed": args.seed})
    report = E.evaluate_corpora(generated, reference, train_set, seed=args.seed)
    for key in report.FIELDS:
        if key.startswith("n_"):  # n_generated and n_reference, the corpus sizes
            continue
        val = getattr(report, key)
        print(f"{key:>16}: " + ("-" if val is None else f"{val:.6f}"))
    print("timing: " + json.dumps({k: round(s, 6) for k, s in report.timing.items()}))
    print("distinct: " + json.dumps(report.distinct))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json_obj(), sort_keys=True) + "\n")
        print(f"report json: {args.out}")
    if args.csv:
        Path(args.csv).write_text(report.csv_header() + "\n" + report.csv_row() + "\n")
        print(f"report csv: {args.csv}")
    return 0


def _cmd_stats(args, cfg_file):
    _check_outputs(args.out, inputs=(args.corpus,))
    graphs = _read_training_corpus(args.corpus)
    _echo({"command": "stats", "corpus": str(args.corpus),
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
        # Not parser.set_defaults: the parser and its subcommands share the
        # flag actions, so a default set there would reset a flag given
        # before the subcommand.
        for key, value in (("config", None), ("verbose", False)):
            vars(args).setdefault(key, value)
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
