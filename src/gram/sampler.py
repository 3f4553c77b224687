"""Autoregressive generation: seed prefixes drawn from training graphs, then
node/edge sampling until the stop class (or a node budget) is reached."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import graphs as G
from . import tensor as T
from .model import EdgeStep, Model, build_prefix


class SamplerError(ValueError):
    pass


@dataclass
class SeedBank:
    """Connected size-seed_size prefixes of training graphs under sampled
    BFS orderings, stored in generation-order positions."""
    seeds: list
    seed_size: int

    def __len__(self):
        return len(self.seeds)


def build_seed_bank(training_graphs, seed_size: int, rng: np.random.Generator,
                    orderings_per_graph: int = 1) -> SeedBank:
    """One seed per training graph per sampled ordering; graphs smaller than
    the seed size are skipped with a warning."""
    if seed_size < 1:
        raise SamplerError("seed size must be >= 1")
    seeds = []
    skipped = 0
    for g in training_graphs:
        if g.n < seed_size:
            skipped += 1
            continue
        for _ in range(orderings_per_graph):
            start = int(rng.integers(g.n))
            ordering = G.bfs_ordering(g, start, rng)
            ordered = G.apply_ordering(g, ordering)
            edges = [(u, v, lab) for u, v, lab in ordered.edges if v < seed_size]
            seeds.append(G.LabeledGraph.create(
                seed_size, ordered.node_labels[:seed_size], edges, g.a, g.b))
    if skipped:
        warnings.warn(f"seed bank: skipped {skipped} graphs smaller than {seed_size} nodes")
    if not seeds:
        raise SamplerError("seed bank is empty; no training graph reaches the seed size")
    return SeedBank(seeds, seed_size)


@dataclass
class GenerationResult:
    graph: G.LabeledGraph
    truncated: bool
    retries: int = 0   # edge-sampling attempts beyond the first, over all steps
    forced: int = 0    # steps resolved by attaching the most edge-confident candidate


def _sample(rng: np.random.Generator, dist: np.ndarray, argmax: bool) -> int:
    if argmax:
        return int(np.argmax(dist))
    p = dist / dist.sum()
    return int(rng.choice(len(p), p=p))


def generate_graph(model: Model, bank: SeedBank, max_nodes: int,
                   rng: np.random.Generator, argmax: bool = False) -> GenerationResult:
    """Sample one graph.

    Starts from a uniformly drawn seed, then repeats: sample the next node's
    label (stop class terminates), then sample edge labels over the variant's
    candidates in ascending order, feeding each decision into the next one's
    attention history.  A step whose candidates all come out "no edge" is
    resampled up to 5 times and then resolved by attaching the most
    edge-confident candidate, so the output is always connected.  Each
    step's edge estimator projects once (EdgeStep); every decision then adds
    at most one attention key.  The result counts the resampled attempts
    and the forced attachments.
    """
    c = model.config
    if bank.seed_size != c.seed_size:
        raise SamplerError(f"bank seed size {bank.seed_size} != model seed size {c.seed_size}")
    if max_nodes <= c.seed_size:
        raise SamplerError(f"max_nodes {max_nodes} must exceed the seed size {c.seed_size}")
    seed = bank.seeds[int(rng.integers(len(bank.seeds)))]
    labels = list(seed.node_labels)
    edges = [tuple(e) for e in seed.edges]
    truncated = False
    retries = forced = 0
    restrict = c.variant in ("A", "AB")
    frontier_only = c.variant in ("B", "AB")
    while True:
        s = len(labels)
        if s >= max_nodes:
            truncated = True
            break
        prefix = build_prefix(labels, edges, c.radius)
        hv = model.extract_features(prefix)
        hg = model.graph_pool(hv)
        lab = _sample(rng, model.node_distribution(hg), argmax)
        if lab == c.a:
            break
        if frontier_only:
            lows = [u for u, v, _ in edges if v == s - 1]
            lo = min(lows) if lows else s - 1
            candidates = range(lo, s)
        else:
            candidates = range(s)
        step = EdgeStep(model, hv, hg, lab, candidates, prefix.dist_idx, restrict)
        attempts = 1 if argmax else 6
        for attempt in range(attempts):
            step.reset()
            codes = []
            dists = []
            for i in range(len(candidates)):
                dist = T.softmax(step.logits(i)).data[0]
                dists.append(dist)
                codes.append(_sample(rng, dist, argmax))
                step.decide(i, codes[-1])
            if any(code < c.b for code in codes):
                break
        retries += attempt
        if not any(code < c.b for code in codes):
            # all candidates declined: attach the one most confident in
            # having some edge, with its most likely edge label
            forced += 1
            best = int(np.argmax([1.0 - d[c.b] for d in dists]))
            codes[best] = int(np.argmax(dists[best][:c.b]))
        for t, code in zip(candidates, codes):
            if code < c.b:
                edges.append((t, s, code))
        labels.append(lab)
    graph = G.LabeledGraph.create(len(labels), labels, edges, c.a, c.b)
    return GenerationResult(graph, truncated, retries, forced)
