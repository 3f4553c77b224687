#!/usr/bin/env python3
"""Measure gram at the README walkthrough's scale, case by case, and report
peak memory per process.

    python3 benchmarks/cases.py epoch --cpus 2
    python3 benchmarks/cases.py epoch --cpus 1 --side 14 --checkout ../parent
    python3 benchmarks/cases.py sample --cpus 2 --record

Each case runs in a process whose CPU affinity holds --cpus CPUs and prints
one JSON line.  BLAS threads follow the environment (OPENBLAS_NUM_THREADS);
where it leaves them unset, `import gram` sets one.  Peak RSS is that of
this process and of the largest child it waited for (RUSAGE_SELF,
RUSAGE_CHILDREN); minor_faults_children sums the minor page faults of every
child it waited for, a sampling helper's copy-on-write faults among them.

    epoch   one training epoch on a square grid, by default of 100 nodes,
            the walkthrough's largest graph: the default model, variant B,
            one untimed warm-up epoch and then --epochs timed ones.  Reports
            seconds per epoch and the final mean NLL.  With --cpus 1, `train`
            computes both shards of a batch itself.
    sample  sampling from a trained grid checkpoint: the default model,
            variant B, trained for EPOCHS epochs on GRAPHS grids of 25-49
            nodes, on one CPU so that no training child counts towards the
            children's peak, with the stop class then suppressed as
            perfbench does.  Samples COUNT graphs of BUDGET nodes and one of
            LONG_BUDGET nodes, graph i from default_rng([--seed, i]), and
            reports seconds per graph and a sha256 of the samples (equal for
            equal graphs and counters).

--record adds the result to BENCH_<commit>.json of the checkout, under
"cases", beside the perfbench runs that `benchmarks/record.py` stores there;
a result of the same case and arguments is kept, and the new one appended.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EPOCHS = 3
GRAPHS = 16
COUNT = 20
BUDGET = 60
LONG_BUDGET = 200
STOP_LOGIT = -1.0e4  # exp() of it is exactly 0: the stop class is never drawn


def environment() -> dict:
    return {"cpus": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def epoch(args) -> dict:
    from gram import datasets, model, training

    n = args.side * args.side
    spec = datasets.CorpusSpec("grid", 1, n, n, seed=args.seed,
                               params={"min_side": args.side, "max_side": args.side})
    corpus = datasets.generate_corpus(spec)
    a, b = datasets.ALPHABETS["grid"]
    net = model.Model(model.ModelConfig(a, b, variant="B"), init_seed=args.seed)
    training.train(corpus, net, training.TrainConfig(epochs=1, seed=args.seed))
    t0 = time.perf_counter()
    history = training.train(corpus, net, training.TrainConfig(epochs=args.epochs,
                                                               seed=args.seed))
    return {"nodes": n, **environment(),
            "epoch_s": round((time.perf_counter() - t0) / args.epochs, 3),
            "final_nll": history[-1].mean_nll}


def sample(args) -> dict:
    from gram import datasets, model, sampler, training  # before numpy: gram sets BLAS threads
    import numpy as np

    corpus = datasets.generate_corpus(datasets.CorpusSpec("grid", GRAPHS, 25, 49,
                                                          seed=args.seed))
    a, b = datasets.ALPHABETS["grid"]
    net = model.Model(model.ModelConfig(a, b, variant="B"), init_seed=args.seed)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:1])
    history = training.train(corpus, net, training.TrainConfig(epochs=EPOCHS, seed=args.seed))
    os.sched_setaffinity(0, cpus)
    net.params["node_est.w3"].tensor.data[:, a] = 0.0
    net.params["node_est.b3"].tensor.data[a] = STOP_LOGIT
    bank = sampler.build_seed_bank(corpus, net.config.seed_size,
                                   np.random.default_rng(args.seed))
    digest, seconds = hashlib.sha256(), []
    for i, budget in enumerate([BUDGET] * COUNT + [LONG_BUDGET]):
        t0 = time.perf_counter()
        res = sampler.generate_graph(net, bank, budget, np.random.default_rng([args.seed, i]))
        seconds.append(time.perf_counter() - t0)
        g = res.graph
        digest.update(json.dumps([g.node_labels, g.edges, res.truncated, res.retries,
                                  res.forced, res.edge_passes]).encode())
    return {**environment(), "train_nll": history[-1].mean_nll,
            f"graph_s_p50_{BUDGET}": round(statistics.median(seconds[:COUNT]), 4),
            f"graph_s_{BUDGET}": [round(s, 4) for s in seconds[:COUNT]],
            f"graph_s_{LONG_BUDGET}": round(seconds[-1], 3),
            "samples_sha256": digest.hexdigest()}


CASES = {"epoch": epoch, "sample": sample}


def record(checkout: Path, case: str, args: dict, result: dict):
    from record import git

    commit = git(checkout, "rev-parse", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    path = ROOT / f"BENCH_{commit[:7]}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"commit": commit, "runs": []}
    if data["commit"] != commit:
        sys.exit(f"{path.name} records commit {data['commit']}, not {commit}")
    data.setdefault("cases", []).append({
        "case": case, "args": args, "dirty": dirty,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "result": result})
    path.write_text(json.dumps(data, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("case", choices=sorted(CASES))
    ap.add_argument("--cpus", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=3, help="epoch: timed epochs (default: 3)")
    ap.add_argument("--side", type=int, default=10,
                    help="epoch: the grid's side, side x side nodes (default: 10)")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout whose src/ is imported (default: this repository)")
    ap.add_argument("--record", action="store_true",
                    help="add the result to BENCH_<commit>.json of the checkout")
    args = ap.parse_args()
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:args.cpus])
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    mb = 1.0 / 1024
    result = CASES[args.case](args)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result.update(
        peak_rss_mb_self=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * mb, 1),
        peak_rss_mb_children=round(children.ru_maxrss * mb, 1),
        minor_faults_children=children.ru_minflt)
    print(json.dumps(result))
    if args.record:
        shown = {"cpus": args.cpus, "seed": args.seed}
        if args.case == "epoch":
            shown.update(epochs=args.epochs, side=args.side)
        record(checkout, args.case, shown, result)


if __name__ == "__main__":
    main()
