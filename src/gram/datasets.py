"""Synthetic labeled random-graph families, corpus splitting, and JSON Lines
corpus I/O.

Families and their labeling rules:
  grid      - 2D lattices; node label from degree (corner/edge/inside),
              edge label from lattice axis (horizontal/vertical)
  lobster   - backbone path with optional branch and leaf nodes; node label
              is the distance from the backbone, edge label says whether a
              leaf is involved
  community - four equal blocks with dense intra- and sparse inter-block
              wiring; node label is the block, edge label intra vs inter
  ba        - preferential attachment from a 4-clique; node label hub vs
              exterior by the per-graph median degree, edge label from the
              endpoint classes
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import (GraphError, LabeledGraph, connects, field_type_errors, frontier_starts,
                     is_int, is_number, random_ordering)


class CorpusSpecError(ValueError):
    pass


class CorpusFormatError(ValueError):
    pass


FAMILIES = ("grid", "lobster", "community", "ba")

# Draws of one lobster or community graph before the generator gives up with
# a CorpusSpecError.  The most a working spec needs on average is about
# 15,000: community graphs of 8 nodes at the default parameters, which thus
# fail about once in 800 graphs.  A spec that no draw can meet fails after
# about 1 s (lobster, 10 nodes) to 7 s (community, 40 nodes) on a 2-core VM.
MAX_DRAWS = 100_000

# node/edge label alphabet sizes per family
ALPHABETS = {"grid": (3, 2), "lobster": (3, 2), "community": (4, 2), "ba": (2, 3)}


# the parameters each family reads from CorpusSpec.params: name -> (type,
# least value, largest value); a float parameter takes an int too, and
# neither takes a bool, as for CorpusSpec's own fields (field_type_errors)
FAMILY_PARAMS = {
    "grid": {"min_side": (int, 1, math.inf), "max_side": (int, 1, math.inf)},
    "lobster": {"p1": (float, 0, 1), "p2": (float, 0, 1)},
    "community": {"p_in": (float, 0, 1), "p_out": (float, 0, 1)},
    "ba": {"m": (int, 2, math.inf)},  # a seed clique of one node has no degree to draw from
}


@dataclass
class CorpusSpec:
    family: str
    count: int
    n_min: int
    n_max: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        wrong = field_type_errors(self)
        if wrong:
            raise CorpusSpecError("; ".join(wrong))
        if self.family not in FAMILIES:
            raise CorpusSpecError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.count < 1:
            raise CorpusSpecError("count must be >= 1")
        if self.seed < 0:
            raise CorpusSpecError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.n_min <= self.n_max:
            raise CorpusSpecError("need 0 < n_min <= n_max")
        known = FAMILY_PARAMS[self.family]
        for key, value in self.params.items():
            if key not in known:
                raise CorpusSpecError(f"unknown {self.family} parameter {key!r} "
                                      f"(known: {', '.join(known)})")
            kind, low, high = known[key]
            if not (is_int(value) if kind is int else is_number(value)) \
                    or not low <= value <= high:
                what = "an integer" if kind is int else "a number"
                raise CorpusSpecError(f"{self.family} parameter {key!r} must be {what} "
                                      f"in [{low}, {high}], got {value!r}")


def generate_corpus(spec: CorpusSpec) -> list:
    gen = {"grid": gen_grid, "lobster": gen_lobster,
           "community": gen_community, "ba": gen_ba}[spec.family]
    return gen(spec)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _grid_shapes(spec: CorpusSpec):
    # near-square shapes: both sides drawn from [isqrt(n_min), isqrt(n_max)]
    # unless overridden, keeping the node count and BFS frontier width close
    # to square lattices of the requested size
    min_side = int(spec.params.get("min_side", max(2, math.isqrt(spec.n_min))))
    max_side = int(spec.params.get("max_side", max(min_side, math.isqrt(spec.n_max))))
    shapes = [(h, w)
              for h in range(min_side, max_side + 1)
              for w in range(min_side, max_side + 1)
              if spec.n_min <= h * w <= spec.n_max]
    if not shapes:
        raise CorpusSpecError(
            f"no feasible grid shape with sides in [{min_side}, {max_side}] "
            f"and {spec.n_min} <= h*w <= {spec.n_max}")
    return shapes


GRID_CORNER, GRID_EDGE, GRID_INSIDE = 0, 1, 2
GRID_HORIZONTAL, GRID_VERTICAL = 0, 1


def gen_grid(spec: CorpusSpec) -> list:
    rng = np.random.default_rng(spec.seed)
    shapes = _grid_shapes(spec)
    a, b = ALPHABETS["grid"]
    out = []
    for _ in range(spec.count):
        h, w = shapes[int(rng.integers(len(shapes)))]
        nid = lambda r, col: r * w + col
        edges = []
        for r in range(h):
            for col in range(w):
                if col + 1 < w:
                    edges.append((nid(r, col), nid(r, col + 1), GRID_HORIZONTAL))
                if r + 1 < h:
                    edges.append((nid(r, col), nid(r + 1, col), GRID_VERTICAL))
        deg = np.zeros(h * w, dtype=np.int64)
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        labels = np.select([deg == 2, deg == 3], [GRID_CORNER, GRID_EDGE], GRID_INSIDE)
        out.append(LabeledGraph.create(h * w, labels, edges, a, b))
    return out


# ---------------------------------------------------------------------------
# lobster
# ---------------------------------------------------------------------------

LOBSTER_BACKBONE, LOBSTER_BRANCH, LOBSTER_LEAF = 0, 1, 2


def gen_lobster(spec: CorpusSpec) -> list:
    """Backbone path; each backbone node grows a branch node with
    probability p1, each branch node grows a leaf with probability p2;
    whole graphs are resampled, up to MAX_DRAWS times, until the size lands
    in range."""
    rng = np.random.default_rng(spec.seed)
    p1 = float(spec.params.get("p1", 0.7))
    p2 = float(spec.params.get("p2", 0.3))
    a, b = ALPHABETS["lobster"]
    factor = 1.0 + p1 * (1.0 + p2)
    b_lo = max(2, int(round(spec.n_min / factor)))
    b_hi = max(b_lo, int(round(spec.n_max / factor)))
    out = []
    for _ in range(spec.count):
        for _ in range(MAX_DRAWS):
            backbone = int(rng.integers(b_lo, b_hi + 1))
            labels = [LOBSTER_BACKBONE] * backbone
            edges = [(i, i + 1, 0) for i in range(backbone - 1)]
            nxt = backbone
            for i in range(backbone):
                if rng.random() < p1:
                    labels.append(LOBSTER_BRANCH)
                    edges.append((i, nxt, 0))
                    branch = nxt
                    nxt += 1
                    if rng.random() < p2:
                        labels.append(LOBSTER_LEAF)
                        edges.append((branch, nxt, 0))
                        nxt += 1
            if spec.n_min <= nxt <= spec.n_max:
                break
        else:
            raise CorpusSpecError(f"lobster (p1={p1}, p2={p2}): none of {MAX_DRAWS} draws "
                                  f"has {spec.n_min} <= n <= {spec.n_max} nodes")
        edges = [(u, v, 1 if max(labels[u], labels[v]) == LOBSTER_LEAF else 0)
                 for u, v, _ in edges]
        out.append(LabeledGraph.create(nxt, labels, edges, a, b))
    return out


# ---------------------------------------------------------------------------
# community
# ---------------------------------------------------------------------------

COMM_INTRA, COMM_INTER = 0, 1


def _community_edges(rng, k: int, p_in: float, p_out: float) -> np.ndarray:
    """The (m, 3) edges of one raw four-block draw on 4k nodes: one
    rng.random() per node pair u < v, drawn in row-major order."""
    u, v = np.triu_indices(4 * k, 1)
    same = u // k == v // k
    keep = rng.random(len(u)) < np.where(same, p_in, p_out)
    return np.stack([u, v, np.where(same, COMM_INTRA, COMM_INTER)], axis=1)[keep]


def gen_community(spec: CorpusSpec) -> list:
    """Four equal communities; intra edges with p_in, inter with p_out,
    resampled, up to MAX_DRAWS times, until connected.  A draw stays an edge
    array until it connects: only the kept one becomes a LabeledGraph."""
    rng = np.random.default_rng(spec.seed)
    a, b = ALPHABETS["community"]
    p_in = float(spec.params.get("p_in", 0.23))
    p_out = float(spec.params.get("p_out", 0.023))
    if p_out == 0:
        raise CorpusSpecError("p_out = 0 never joins the four communities")
    k_lo = max(1, math.ceil(spec.n_min / 4))
    k_hi = spec.n_max // 4
    if k_hi < k_lo:
        raise CorpusSpecError(f"no multiple of 4 in [{spec.n_min}, {spec.n_max}]")
    out = []
    for _ in range(spec.count):
        for _ in range(MAX_DRAWS):
            k = int(rng.integers(k_lo, k_hi + 1))
            edges = _community_edges(rng, k, p_in, p_out)
            if connects(4 * k, edges[:, :2]):
                out.append(LabeledGraph.create(4 * k, np.arange(4 * k) // k, edges, a, b))
                break
        else:
            raise CorpusSpecError(f"community (p_in={p_in}, p_out={p_out}): none of {MAX_DRAWS} "
                                  f"draws of {spec.n_min} to {spec.n_max} nodes is connected")
    return out


# ---------------------------------------------------------------------------
# preferential attachment
# ---------------------------------------------------------------------------

BA_HUB, BA_EXTERIOR = 0, 1


def gen_ba(spec: CorpusSpec) -> list:
    """Preferential attachment: an m-clique seed, then each new node links
    to m distinct existing nodes chosen proportionally to degree.  Hubs are
    the nodes whose degree reaches the per-graph median (ties included)."""
    rng = np.random.default_rng(spec.seed)
    m = int(spec.params.get("m", 4))
    if spec.n_min <= m:
        raise CorpusSpecError(f"n_min must exceed the attachment count m={m}")
    a, b = ALPHABETS["ba"]
    out = []
    for _ in range(spec.count):
        n = int(rng.integers(spec.n_min, spec.n_max + 1))
        edges = []
        repeated = []
        for u in range(m):
            for v in range(u + 1, m):
                edges.append((u, v))
            repeated.extend([u] * (m - 1))
        for v in range(m, n):
            targets = set()
            while len(targets) < m:
                targets.add(repeated[int(rng.integers(len(repeated)))])
            for t in sorted(targets):
                edges.append((t, v))
                repeated.append(t)
            repeated.extend([v] * m)
        deg = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        med = np.median(deg)
        labels = np.where(deg >= med, BA_HUB, BA_EXTERIOR)
        labeled = [(u, v, int(labels[u]) + int(labels[v])) for u, v in edges]
        out.append(LabeledGraph.create(n, labels, labeled, a, b))
    return out


# ---------------------------------------------------------------------------
# splitting and I/O
# ---------------------------------------------------------------------------

def check_split_counts(counts, size: int):
    """Raise CorpusSpecError unless counts is a (train, test, validation)
    split of a corpus of the given size."""
    if len(counts) != 3:
        raise CorpusSpecError("counts must be (train, test, validation)")
    if min(counts) < 0:
        raise CorpusSpecError(f"split {tuple(counts)} has a negative count")
    if sum(counts) != size:
        raise CorpusSpecError(f"split {tuple(counts)} does not sum to corpus size {size}")


def split_corpus(graphs, counts, seed: int = 0):
    """Seeded shuffle, then contiguous (train, test, validation) split whose
    sizes are exactly the given counts."""
    check_split_counts(counts, len(graphs))
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(graphs))
    shuffled = [graphs[i] for i in idx]
    t, s, v = counts
    return shuffled[:t], shuffled[t:t + s], shuffled[t + s:]


def default_split_counts(count: int):
    """Test and validation get one seventh each (rounded), the rest trains;
    700 graphs split 500/100/100."""
    part = int(round(count / 7))
    part = min(part, (count - 1) // 2)
    return count - 2 * part, part, part


def corpus_stats(graphs, seed: int = 0, orderings_per_graph: int = 1) -> dict:
    """Step-level instrumentation of a corpus under sampled BFS orderings:
    per-step counts of edges back to earlier nodes (alpha) and frontier
    sizes (beta), plus size and degree summaries."""
    if not graphs:
        raise CorpusSpecError("corpus is empty")
    rng = np.random.default_rng(seed)
    alphas, betas = [], []
    for g in graphs:
        for _ in range(orderings_per_graph if g.n else 0):  # no node, no step
            edges = random_ordering(g, rng).edges
            alphas += np.bincount(edges[:, 1], minlength=g.n)[1:].tolist()
            betas += (np.arange(1, g.n) - frontier_starts(edges, g.n)[:-1]).tolist()
    degs = np.concatenate([g.degrees() for g in graphs])
    return {
        "graphs": len(graphs),
        "mean_n": float(np.mean([g.n for g in graphs])),
        "mean_m": float(np.mean([g.m for g in graphs])),
        "mean_alpha": float(np.mean(alphas)) if alphas else 0.0,
        "mean_beta": float(np.mean(betas)) if betas else 0.0,
        "mean_degree": float(degs.mean()) if len(degs) else 0.0,
        "max_degree": int(degs.max()) if len(degs) else 0,
    }


def graph_to_line(g: LabeledGraph) -> str:
    return json.dumps(g.to_json_obj(), separators=(",", ":"), sort_keys=True)


def write_corpus(path, graphs):
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            fh.write(graph_to_line(g))
            fh.write("\n")


def read_corpus(path) -> list:
    """Parse a UTF-8 JSON Lines corpus, rejecting malformed lines by number."""
    out = []
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte has a line number
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                raise CorpusFormatError(f"line {lineno}: empty line")
            try:
                obj = json.loads(line.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: not UTF-8: {exc}") from exc
            try:
                out.append(LabeledGraph.from_json_obj(obj))
            except GraphError as exc:
                raise CorpusFormatError(f"line {lineno}: {exc}") from exc
    return out
