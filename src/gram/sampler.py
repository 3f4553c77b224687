"""Autoregressive generation: seed prefixes drawn from training graphs, then
node/edge sampling until the stop class (or a node budget) is reached.

A sample uses two cores when the process may run on two CPUs and the sample
is large enough to pay for a fork (HELPER_MIN_COST): a helper process
forked for the sample runs each block's attention sublayer while the
sampler runs the same block's graph convolution (_AttentionHelper), on the
rows and distance buckets that the sampler shares with it.  It runs the
same function on the same values, so the samples are bit for bit those of
one core.
"""
from __future__ import annotations

import itertools
import mmap
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import attention as A
from . import graphs as G
from . import tensor as T
from .model import EdgeStep, Model, Prefixes
from .workers import Worker

# The estimated cost of a sample (the prefix rows of its steps up to
# max_nodes, times d_model^2 and the blocks) from which generate_graph forks
# an attention helper.  A fork costs 6-8 ms, and at small d_model the
# helper's attention outlasts the conv beside it.  Timed on a 2-core VM, one
# BLAS thread, with and without a helper in turn: at 3.5e6 (d_model 64,
# 2 blocks, 30 nodes) the helper ran 16 % slower, at 1.5e7 (d_model 32,
# 3 blocks, 100 nodes) even, and at 1.4e7 (d_model 128, 2 blocks, 30 nodes)
# 9 % faster.  perfbench's sample-grid (d_model 128, 3 blocks, 10 to 60
# nodes) costs 8.5e7.
HELPER_MIN_COST = 1 << 24


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


def build_seed_bank(training_graphs, seed_size: int, rng: np.random.Generator) -> SeedBank:
    """One seed per training graph, under a sampled ordering; graphs smaller
    than the seed size are skipped with a warning."""
    if seed_size < 1:
        raise SamplerError("seed size must be >= 1")
    seeds = []
    skipped = 0
    for g in training_graphs:
        if g.n < seed_size:
            skipped += 1
            continue
        og = G.random_ordering(g, rng)
        seeds.append(G.LabeledGraph.create(seed_size, og.labels[:seed_size],
                                           og.edges[og.edges[:, 1] < seed_size], g.a, g.b))
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
    edge_passes: int = 0  # batched edge-estimator passes (edge_logits_teacher calls)


def _cdf(dist: np.ndarray) -> np.ndarray:
    """The normalised cumulative sums along the last axis of dist: the
    table that rng.choice(len(p), p=p) searches, of one distribution or of
    a stack of them, row by row the same numbers."""
    cdf = np.cumsum(dist / dist.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _sample(rng: np.random.Generator, dist: np.ndarray, argmax: bool,
            cdf: np.ndarray | None = None) -> int:
    """One index drawn in proportion to dist (finite, non-negative, with a
    positive sum).  This is the inverse-CDF draw that rng.choice(len(p), p=p)
    makes, without its per-call validation: the same random number and the
    same index.  cdf, when given, is _cdf(dist), computed ahead."""
    if argmax:
        return int(np.argmax(dist))
    if cdf is None:
        cdf = _cdf(dist)
    return int(cdf.searchsorted(rng.random(), side="right"))


def _finite(dist: np.ndarray, what: str, s: int) -> np.ndarray:
    """dist, checked once per pass: a NaN would make _sample return an
    out-of-range index."""
    if not np.isfinite(dist).all():
        raise SamplerError(f"non-finite {what} distribution at step {s}")
    return dist


def _edge_dists(step: EdgeStep, codes: np.ndarray, s: int, first: int = 0) -> np.ndarray:
    """Edge distributions (t - first, b + 1) of step s's candidates from
    first on, given the codes."""
    return _finite(T.softmax(step.edge_logits_teacher(codes, first)[0]).data, "edge", s)


def _draw_edges(step: EdgeStep, draft: np.ndarray, rng: np.random.Generator,
                argmax: bool, s: int) -> tuple:
    """One attempt at a step's edge codes, drawn candidate by candidate.

    draft holds the step's distributions when no candidate gets an edge.
    Row i of a batched pass depends only on the codes before i, so the
    draft stays exact until a candidate draws an edge; a pass then scores
    only the candidates after it (edge_logits_teacher's first row), from
    the codes drawn so far, the rest still "no edge".  Returns (codes, the
    distribution each code was drawn from, the number of passes run).
    """
    t, b = len(draft), step.model.config.b
    codes = np.full(t, b, dtype=np.int64)
    dists = draft.copy()
    cdfs = _cdf(dists)  # one stacked call per pass, not one per draw
    passes = 0
    for i in range(t):
        codes[i] = _sample(rng, dists[i], argmax, cdfs[i])
        if codes[i] < b and i + 1 < t:
            dists[i + 1:] = _edge_dists(step, codes, s, i + 1)
            cdfs[i + 1:] = _cdf(dists[i + 1:])
            passes += 1
    return codes, dists, passes


class _AttentionHelper:
    """A helper process forked for one sample, which runs each block's
    attention sublayer (Model.extract_features with a helper) and keeps no
    state of the sample.  One shared mapping, made before the fork, holds a
    block's input rows, the step's distance buckets and the output rows:
    start(rows, dist) writes the first two and sends the row count, and
    result() waits for the reply and copies the output rows.  Worker
    reports a helper that failed or died, and close() kills and reaps it."""

    def __init__(self, model: Model, max_nodes: int):
        d = model.config.d_model
        # rows and buckets go through the mapping, not the pipe: pickled per
        # block, they made perfbench's sample-grid 5.5 % slower on a 2-core VM
        self.map = mmap.mmap(-1, 8 * max_nodes * (2 * d + max_nodes))
        flat = np.frombuffer(self.map, dtype=np.float64)
        self.inputs, self.outputs = flat[:2 * max_nodes * d].reshape(2, max_nodes, d)
        self.dist = flat[2 * max_nodes * d:].view(np.int64)
        self.rows = 0
        self.worker = Worker("sampling helper", _attend, model, self)

    def start(self, rows: np.ndarray, dist: np.ndarray):
        self.rows = len(rows)
        self.inputs[:self.rows] = rows
        self.dist[:dist.size] = dist.ravel()
        self.worker.put(self.rows)

    def result(self) -> np.ndarray:
        self.worker.get()
        return self.outputs[:self.rows].copy()

    def close(self):
        self.worker.close()


def _attend(worker: Worker, model: Model, helper: _AttentionHelper):
    """The helper's loop, in the forked process: the attention sublayer of
    each block in turn, on the s rows and (1, s, s) distance buckets that
    the sampler wrote, s the row count it sends."""
    radius = model.config.radius
    for _, sub, _, _ in itertools.cycle(model.blocks):
        s = worker.get()
        dist = helper.dist[:s * s].reshape(1, s, s)
        nodes = A.Segments([s])
        ctx = A.AttentionContext(dist, dist <= radius, nodes, nodes)
        helper.outputs[:s] = A.attention_sublayer(T.const(helper.inputs[:s]), ctx, sub).data
        worker.put(None)


def _helper(model: Model, max_nodes: int):
    """An attention helper for a sample, or None to sample in this process:
    with one usable CPU, under an active tape, below HELPER_MIN_COST, or
    when the shared mapping or the fork fails (a budget whose mapping
    exceeds ssize_t raises OverflowError, a smaller one ENOMEM)."""
    c = model.config
    rows = (max_nodes * (max_nodes - 1) - c.seed_size * (c.seed_size - 1)) // 2
    cost = rows * c.d_model ** 2 * c.blocks
    if len(os.sched_getaffinity(0)) < 2 or T.tape_active() or cost < HELPER_MIN_COST:
        return None
    try:
        return _AttentionHelper(model, max_nodes)
    except (OSError, OverflowError):
        return None


def generate_graph(model: Model, bank: SeedBank, max_nodes: int,
                   rng: np.random.Generator, argmax: bool = False) -> GenerationResult:
    """Sample one graph.

    Starts from a uniformly drawn seed, then repeats: sample the next node's
    label (stop class terminates), then sample edge labels over the step's
    candidates (EdgeStep.candidates) in ascending order, each conditioned
    on the decisions before it.  A step whose candidates all come out "no
    edge" is resampled up to 5 times and then resolved by attaching the
    most edge-confident candidate, so the output is always connected.

    Edges are decoded speculatively.  One batched pass of the step's edge
    estimator (EdgeStep.edge_logits_teacher) scores every candidate under
    the draft "no candidate gets an edge"; the decisions are then drawn in
    order from its rows, and a pass is run again only after a drawn edge
    (_draw_edges).  The mask is causal, so a row depends on the codes
    before it alone: every row is exact when drawn, and the pass after an
    edge drawn at candidate i scores only the candidates after i.  With
    one draw per candidate in the same order, the graph is the one that
    deciding each candidate on its own would sample.  An attempt that
    draws no edge leaves the draft untouched for the next.  The result
    counts the resampled attempts, the forced attachments and the passes.
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
    retries = forced = edge_passes = 0
    helper = _helper(model, max_nodes)
    try:
        while True:
            s = len(labels)
            if s >= max_nodes:
                truncated = True
                break
            batch = Prefixes(labels, edges, [s], c.radius)
            hv = model.extract_features(batch, helper)
            hg = model.graph_pool(hv, batch.nodes)
            node_dist = T.softmax(model.node_logits(hg)).data[0]
            lab = _sample(rng, _finite(node_dist, "node", s), argmax)
            if lab == c.a:
                break
            step = EdgeStep(model, hv, hg, [lab], batch)
            draft = _edge_dists(step, np.full(len(step.candidates), c.b), s)
            edge_passes += 1
            for attempt in range(1 if argmax else 6):
                codes, dists, passes = _draw_edges(step, draft, rng, argmax, s)
                edge_passes += passes
                if (codes < c.b).any():
                    break
            retries += attempt
            if not (codes < c.b).any():
                # all candidates declined: attach the one most confident in
                # having some edge, with its most likely edge label
                forced += 1
                best = int(np.argmax(1.0 - dists[:, c.b]))
                codes[best] = int(np.argmax(dists[best, :c.b]))
            hits = np.flatnonzero(codes < c.b)
            edges += [(int(step.candidates[k]), s, int(codes[k])) for k in hits]
            labels.append(lab)
    finally:
        if helper is not None:
            helper.close()
    graph = G.LabeledGraph.create(len(labels), labels, edges, c.a, c.b)
    return GenerationResult(graph, truncated, retries, forced, edge_passes)
