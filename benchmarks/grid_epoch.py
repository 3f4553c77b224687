#!/usr/bin/env python3
"""Time one training epoch on a square grid, by default of 100 nodes, the
README walkthrough's largest graph, and report peak memory per process.

    python3 benchmarks/grid_epoch.py --cpus 2
    python3 benchmarks/grid_epoch.py --cpus 1 --side 14 --checkout ../parent

Trains the default model, variant B, for one untimed warm-up epoch and then
--epochs timed ones, in a process whose CPU affinity holds --cpus CPUs (so
--cpus 1 makes `train` compute both shards of a batch itself).  Prints one
JSON line: seconds per epoch, the final mean NLL, and the peak RSS of this
process and of the largest child it waited for (RUSAGE_SELF,
RUSAGE_CHILDREN).  BLAS threads follow the environment
(OPENBLAS_NUM_THREADS); where it leaves them unset, `import gram` sets one.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cpus", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--side", type=int, default=10,
                    help="the grid's side: side x side nodes (default: 10)")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout whose src/ is imported (default: this repository)")
    args = ap.parse_args()
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:args.cpus])
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
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
    seconds = (time.perf_counter() - t0) / args.epochs
    mb = 1.0 / 1024
    print(json.dumps({
        "nodes": n,
        "cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "epoch_s": round(seconds, 3),
        "final_nll": history[-1].mean_nll,
        "peak_rss_mb_self": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * mb, 1),
        "peak_rss_mb_children": round(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * mb, 1),
    }))


if __name__ == "__main__":
    main()
