"""The benchmark's workloads: inputs made from the seed, one timed operation
and the checks on its output.

Every call into `gram` goes through a module attribute (`training.train`,
not a name imported here), so the tracer's wrappers see it.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from gram import datasets, evaluation, graphs, model, sampler, training

GRID_A, GRID_B = datasets.ALPHABETS["grid"]

# Sizes of the full runs and of the smoke check.  Grid shapes are fixed, so
# every seed gives the same amount of work; the seed picks orientations, BFS
# orderings, initial weights, seed prefixes and the perturbations.
SIZES = {
    "full": {
        "model": {},
        "train_shapes": ((5, 5), (7, 7)),
        "bank_graphs": 16,
        "budget": 60,
        "eval_shapes": ((7, 8), (7, 9), (8, 8), (7, 10), (8, 9),
                        (8, 10), (9, 9), (9, 10), (10, 10)),
        "eval_count": 20,
        "novelty_count": 10,
    },
    "smoke": {
        "model": {"d_model": 16, "heads": 2, "blocks": 1, "d_ff": 32, "seed_size": 4},
        "train_shapes": ((3, 4),),
        "bank_graphs": 4,
        "budget": 10,
        "eval_shapes": ((3, 3), (3, 4)),
        "eval_count": 3,
        "novelty_count": 2,
    },
}

EDGE_PROBABILITY = 0.06   # about a 60-node grid's edge density
STOP_LOGIT = -1.0e4       # exp() of it is exactly 0: the stop class is never drawn
NLL_RTOL = 1e-9           # reassociated float64 sums stay far inside this
STAT_ATOL = 1e-9

# Fixed inputs of the reference checks, the same for every seed and size.
REF_TRAIN_SHAPE = (4, 4)
REF_TRAIN_EPOCHS = 2
REF_EVAL_SHAPES = ((3, 3), (3, 4), (4, 4), (4, 5))


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def grid(shape, seed: int) -> graphs.LabeledGraph:
    """One grid graph of the given shape; the seed picks its orientation."""
    h, w = sorted(shape)
    spec = datasets.CorpusSpec("grid", 1, h * w, h * w, seed=seed,
                               params={"min_side": h, "max_side": w})
    return datasets.generate_corpus(spec)[0]


def perturbed(g: graphs.LabeledGraph, rng: np.random.Generator) -> graphs.LabeledGraph:
    """The graph plus n // 10 (at least one) chords between nodes two hops
    apart, standing in for a generator's imperfect grids."""
    adj = [set(nbrs) for nbrs in g.adjacency()]
    edges = list(g.edges)
    for _ in range(max(1, g.n // 10)):
        while True:
            u = int(rng.integers(g.n))
            two_hop = sorted({w for v in adj[u] for w in adj[v]} - adj[u] - {u})
            if two_hop:
                break
        w = two_hop[int(rng.integers(len(two_hop)))]
        adj[u].add(w)
        adj[w].add(u)
        edges.append((min(u, w), max(u, w), int(rng.integers(g.b))))
    return graphs.LabeledGraph.create(g.n, g.node_labels, edges, g.a, g.b)


def eval_corpora(shapes, count: int, novelty_count: int, seed: int):
    """(generated, reference, training) grid corpora; the shapes cycle."""
    rng = np.random.default_rng(seed)
    pick = lambda k: shapes[k % len(shapes)]
    reference = [grid(pick(k), seed + k) for k in range(count)]
    generated = [perturbed(grid(pick(k), seed + count + k), rng) for k in range(count)]
    train_set = [grid(pick(k), seed + 2 * count + k) for k in range(novelty_count)]
    return generated, reference, train_set


def report_values(report) -> dict:
    obj = report.to_json_obj()
    return {k: obj[k] for k in ("gk_mmd2", "degree_mmd2", "clustering_mmd2", "orbit_mmd2",
                                "unique_ratio", "novel_ratio")}


class Workload:
    """Set-up, then repeated `prepare` (untimed) and `run` (timed) calls;
    the first `warmup_ops` runs are checked but not timed."""
    graphs_per_op = 1
    warmup_ops = 0

    def __init__(self, seed: int, size: str, tmp: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.tmp = tmp

    def setup(self):
        raise NotImplementedError

    def prepare(self, i: int):
        pass

    def run(self, i: int):
        raise NotImplementedError

    def check(self, output):
        raise NotImplementedError

    def reference(self) -> dict:
        """Outputs on the fixed reference inputs, to compare with the
        recorded values."""
        return {}

    def check_reference(self, recorded: dict):
        pass


class TrainGrid(Workload):
    """One epoch of teacher-forced training, variant B, default model.  The
    first epoch of a process runs about 30 % slower while the allocator
    first maps the tape's gigabytes, so one warm-up epoch goes untimed."""
    warmup_ops = 1

    def setup(self):
        self.corpus = [grid(shape, self.seed + k)
                       for k, shape in enumerate(self.size["train_shapes"])]
        self.graphs_per_op = len(self.corpus)
        config = model.ModelConfig(GRID_A, GRID_B, variant="B", **self.size["model"])
        self.initial = self.tmp / "initial.bin"
        training.save_checkpoint(self.initial, model.Model(config, init_seed=self.seed), 0)
        self.nll = None

    def prepare(self, i):
        self.model = training.load_checkpoint(self.initial)[0]
        self.out_dir = self.tmp / f"run{i}"

    def run(self, i):
        return training.train(self.corpus, self.model,
                              training.TrainConfig(epochs=1, seed=self.seed),
                              checkpoint_dir=self.out_dir)

    def check(self, history):
        nll = history[-1].mean_nll
        check(math.isfinite(nll), f"non-finite NLL {nll}")
        check(self.nll is None or nll == self.nll,
              f"NLL {nll!r} differs from the first run's {self.nll!r}")
        self.nll = nll
        epoch = training.load_checkpoint(self.out_dir / "checkpoint.bin")[1]
        check(epoch == 1, f"checkpoint records epoch {epoch}, expected 1")

    def reference(self):
        net = model.Model(model.ModelConfig(GRID_A, GRID_B, variant="B"), init_seed=0)
        history = training.train([grid(REF_TRAIN_SHAPE, 0)], net,
                                 training.TrainConfig(epochs=REF_TRAIN_EPOCHS, seed=0))
        return {"train_nll": [row.mean_nll for row in history]}

    def check_reference(self, recorded):
        got = self.reference()["train_nll"]
        want = recorded["train_nll"]
        check(len(got) == len(want) and all(
            math.isfinite(g) and abs(g - w) <= NLL_RTOL * abs(w) for g, w in zip(got, want)),
              f"reference NLL {got} differs from the recorded {want}")


class SampleGrid(Workload):
    """Plain-variant sampling to a fixed node budget from a synthetic
    checkpoint whose stop class is suppressed and whose edge head gives each
    candidate an edge with a fixed probability."""

    def setup(self):
        corpus = datasets.generate_corpus(
            datasets.CorpusSpec("grid", self.size["bank_graphs"], 25, 49, seed=self.seed))
        config = model.ModelConfig(GRID_A, GRID_B, variant="plain", **self.size["model"])
        net = model.Model(config, init_seed=self.seed)
        params = net.params
        params["node_est.w3"].tensor.data[:, GRID_A] = 0.0
        params["node_est.b3"].tensor.data[GRID_A] = STOP_LOGIT
        params["edge_est.w3"].tensor.data[:] = 0.0
        params["edge_est.b3"].tensor.data[:] = np.log(
            [EDGE_PROBABILITY / GRID_B] * GRID_B + [1.0 - EDGE_PROBABILITY])
        path = self.tmp / "synthetic.bin"
        training.save_checkpoint(path, net, 0)
        self.model = training.load_checkpoint(path)[0]
        self.bank = sampler.build_seed_bank(corpus, config.seed_size,
                                            np.random.default_rng(self.seed))
        self.budget = self.size["budget"]

    def run(self, i):
        return sampler.generate_graph(self.model, self.bank, self.budget,
                                      np.random.default_rng([self.seed, i]))

    def check(self, result):
        g = result.graph
        g.validate()
        check(g.n == self.budget, f"generated {g.n} nodes, budget is {self.budget}")
        check(g.is_connected(), "generated graph is disconnected")


class EvalGrid(Workload):
    """Graph-kernel and topology MMDs of a perturbed-grid corpus against a
    grid corpus, with novelty against a third grid corpus."""

    def setup(self):
        self.generated, self.reference_set, self.train_set = eval_corpora(
            self.size["eval_shapes"], self.size["eval_count"],
            self.size["novelty_count"], self.seed)
        # both corpora stay far below evaluation.SUBSAMPLE_LIMIT: the direct path
        self.graphs_per_op = len(self.generated) + len(self.reference_set)
        self.values = None

    def run(self, i):
        return evaluation.evaluate_corpora(self.generated, self.reference_set,
                                           self.train_set, seed=self.seed)

    def check(self, report):
        values = report_values(report)
        check(all(v is not None and math.isfinite(v) and v >= 0.0 for v in values.values()),
              f"report has a negative or non-finite value: {values}")
        check(self.values is None or values == self.values,
              "report differs from the first run's")
        self.values = values

    def reference(self):
        generated, reference_set, _ = eval_corpora(REF_EVAL_SHAPES, len(REF_EVAL_SHAPES), 0, 0)
        check(evaluation.gk_mmd2(generated, generated) == 0.0, "gk_mmd2(P, P) != 0")
        return {f"{stat}_mmd2": evaluation.statistic_mmd(generated, reference_set, stat)
                for stat in ("degree", "clustering", "orbit")}

    def check_reference(self, recorded):
        for key, value in self.reference().items():
            want = recorded[key]
            check(abs(value - want) <= STAT_ATOL,
                  f"reference {key} {value!r} differs from the recorded {want!r}")


WORKLOADS = {"train-grid": TrainGrid, "sample-grid": SampleGrid, "eval-grid": EvalGrid}
