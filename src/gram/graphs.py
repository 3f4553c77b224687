"""Core labeled-graph machinery: representation, validation, JSON form,
BFS orderings, the generation-order graph (OrderedGraph) that training,
the seed bank and the corpus statistics read, and frontier computation.

Graphs are undirected, without self-loops or multi-edges.  Node labels live
in [0, a), edge labels in [0, b).  All indexing is 0-based.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np


class GraphError(ValueError):
    """A graph or ordering violates an invariant."""


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph with integer node and edge labels.

    edges is a sorted tuple of (u, v, label) with u < v, one entry per edge.
    """
    n: int
    node_labels: tuple
    edges: tuple
    a: int
    b: int

    @staticmethod
    def create(n, node_labels, edges, a, b) -> "LabeledGraph":
        """Normalize, validate, and build a graph."""
        labels = tuple(int(x) for x in node_labels)
        norm = []
        for u, v, lab in edges:
            u, v, lab = int(u), int(v), int(lab)
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            norm.append((u, v, lab))
        norm.sort()
        g = LabeledGraph(int(n), labels, tuple(norm), int(a), int(b))
        g.validate()
        return g

    def validate(self):
        if self.n < 0 or self.a < 1 or self.b < 1:
            raise GraphError("n must be >= 0 and label alphabets >= 1")
        if len(self.node_labels) != self.n:
            raise GraphError("node_labels length differs from n")
        for lab in self.node_labels:
            if not 0 <= lab < self.a:
                raise GraphError(f"node label {lab} outside [0, {self.a})")
        seen = set()
        for u, v, lab in self.edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) endpoint out of range")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not stored with u < v")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if not 0 <= lab < self.b:
                raise GraphError(f"edge label {lab} outside [0, {self.b})")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self):
        """Neighbor lists (list of sorted int lists)."""
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> np.ndarray:
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 3)[:, :2].reshape(-1)
        return np.bincount(ends, minlength=self.n).astype(np.int64, copy=False)

    def is_connected(self) -> bool:
        return connects(self.n, np.array(self.edges, dtype=np.int64).reshape(-1, 3)[:, :2])

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "nodes": list(self.node_labels),
            "edges": [[u, v, lab] for u, v, lab in self.edges],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LabeledGraph":
        """The graph of a parsed JSON object {"a": int, "b": int, "nodes":
        [label, ...], "edges": [[u, v, label], ...]} with u < v.  Every
        number must be an integer (not a bool or a float)."""
        try:
            a, b, nodes, edges = obj["a"], obj["b"], obj["nodes"], obj["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"missing or malformed field: {exc}") from exc
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise GraphError("nodes and edges must be lists")
        for what, value in (("field a", a), ("field b", b), *(("node label", x) for x in nodes)):
            _check_int(what, value)
        for e in edges:
            if not isinstance(e, list) or len(e) != 3:
                raise GraphError(f"edge entry {e!r} is not [u, v, label]")
            for value in e:
                _check_int("edge entry", value)
            if e[0] >= e[1]:
                raise GraphError(f"edge {e} must satisfy u < v")
        return LabeledGraph.create(len(nodes), nodes, edges, a, b)


def connects(n: int, ends: np.ndarray) -> bool:
    """Whether edges with these (m, 2) end pairs join all n nodes: a
    breadth-first search from node 0, one numpy pass over the edges per
    level."""
    seen = np.arange(n) == 0
    while (grow := seen[ends[:, 0]] != seen[ends[:, 1]]).any():
        seen[ends[grow]] = True
    return bool(seen.all())


def _check_int(what: str, value):
    if not is_int(value):
        raise GraphError(f"{what} must be an integer, got {value!r}")


def is_int(value) -> bool:
    """Whether value is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether value is an integer or a float, Python's or numpy's, and not a
    bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# the check and its wording for each annotated type of a config field, by
# the annotation's text (the config modules postpone their annotations)
_FIELD_TYPES = {"int": (is_int, "an integer"), "float": (is_number, "a number"),
                "bool": (lambda value: isinstance(value, bool), "true or false"),
                "dict": (lambda value: isinstance(value, dict), "an object")}


def field_type_errors(config) -> list:
    """'name must be ..., got value' for each int, float, bool or dict field
    of the dataclass config whose value is not of that type: an int field
    takes an integer, a float field an integer or a float, a bool field a
    bool, a dict field a dict, and no field a bool in place of a number.
    Fields of other types are not checked."""
    errors = []
    for f in fields(config):
        check, what = _FIELD_TYPES.get(f.type, (None, None))
        value = getattr(config, f.name)
        if check is not None and not check(value):
            errors.append(f"{f.name} must be {what}, got {value!r}")
    return errors


def config_json(config) -> dict:
    """The fields of the dataclass config by name, as json writes them: a
    numpy number, which an int or float field may hold, becomes the Python
    number of the same value, and a dict field a copy converted alike."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.item() if isinstance(value, np.generic) else value

    return {f.name: plain(getattr(config, f.name)) for f in fields(config)}


def bfs_ordering(g: LabeledGraph, start: int, rng: np.random.Generator) -> np.ndarray:
    """Breadth-first visit order from start, as an int64 permutation:
    position i holds node perm[i].  Each dequeued node appends its
    not-yet-seen neighbors in a uniformly shuffled order drawn from rng.

    Shuffling per parent (rather than pooling a whole level) keeps children
    grouped behind their parents, which is what makes the frontier interval
    sound.  Requires a connected graph.
    """
    if not 0 <= start < g.n:
        raise GraphError(f"start node {start} out of range")
    adj = g.adjacency()
    seen = np.zeros(g.n, dtype=bool)
    seen[start] = True
    perm = [start]
    head = 0
    while head < len(perm):
        u = perm[head]
        head += 1
        fresh = [v for v in adj[u] if not seen[v]]
        if fresh:
            for v in fresh:
                seen[v] = True
            perm.extend(int(x) for x in rng.permutation(fresh))
    if len(perm) != g.n:
        raise GraphError("graph is disconnected; BFS ordering undefined")
    return np.array(perm, dtype=np.int64)


class OrderedGraph:
    """A graph in generation order: position i holds node perm[i] of g.
    labels (n,) are the positions' node labels; edges holds the rows (i, j,
    label), i < j, sorted by (j, i), so the edges of the prefix of s nodes
    are the first rows, those with j < s.  A perm that is not a permutation
    of 0..n-1 is a GraphError."""

    def __init__(self, g: LabeledGraph, perm):
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (g.n,) or not np.array_equal(np.sort(perm), np.arange(g.n)):
            raise GraphError("ordering is not a permutation of 0..n-1")
        self.n, self.b = g.n, g.b
        self.labels = np.asarray(g.node_labels, dtype=np.int64)[perm]
        position = np.empty_like(perm)
        position[perm] = np.arange(g.n)
        edges = np.array(g.edges, dtype=np.int64).reshape(-1, 3)
        ends = np.sort(position[edges[:, :2]], axis=1)
        order = np.lexsort((ends[:, 0], ends[:, 1]))
        self.edges = np.column_stack((ends, edges[:, 2]))[order]
        # ascending keys j * n + i of the rows, then n * n, above every pair's
        self._keys = np.append(self.edges[:, 1] * self.n + self.edges[:, 0], self.n * self.n)
        self._codes = np.append(self.edges[:, 2], self.b)

    def edge_codes(self, later, earlier) -> np.ndarray:
        """Ground-truth edge codes of the position pairs (later, earlier),
        earlier < later, broadcast against each other: the edge label, or b
        for no edge."""
        keys = np.asarray(later) * self.n + np.asarray(earlier)
        at = self._keys.searchsorted(keys)
        return np.where(self._keys[at] == keys, self._codes[at], self.b)


def random_ordering(g: LabeledGraph, rng: np.random.Generator) -> OrderedGraph:
    """g in a BFS ordering from a start node drawn uniformly from rng: the
    one ordering draw of training, the seed bank and the corpus statistics.
    Requires a connected graph of at least one node."""
    return OrderedGraph(g, bfs_ordering(g, int(rng.integers(g.n)), rng))


def frontier_starts(edges, n: int) -> np.ndarray:
    """Entry v is the smallest position adjacent to position v among the
    positions before it, or v itself if none is.

    edges are rows (i, j, label) with i < j in generation-order positions,
    as a BFS ordering lays them out.  The node generated at position s can
    only receive edges from the contiguous frontier [starts[s - 1], s).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    starts = np.arange(n, dtype=np.int64)
    np.minimum.at(starts, edges[:, 1], edges[:, 0])
    return starts
