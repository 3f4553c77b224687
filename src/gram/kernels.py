"""Dense graph kernels whose hot loops are float64 matrix products: all-pairs
capped BFS distances, per-node clustering, and per-node counts of the 11
orbits of the connected 4-node graphlets.  Every kernel takes a dense 0/1
adjacency matrix; `orbits_and_clustering` also takes its degree vector and
computes A² once for both statistics.

Counts are held in float64 while they are computed.  Each product of 0/1
matrices and integer vectors here is an integer below 2**53, so it is exact
in any summation order, and BLAS can do the work.

Orbits (the position of a node inside a graphlet), by edge count:

    graphlet   edges   orbits
    P4         3       0 end, 1 middle
    star       3       2 leaf, 3 center
    C4         4       4
    paw        4       5 tail, 6 triangle node of degree 2, 7 center
    diamond    5       8 rim (degree 2), 9 hub (degree 3)
    K4         6       10

Non-induced counts N_k(v), the copies of a graphlet as a subgraph (induced
or not) with node v in orbit k, come from A, d = A 1, A², the triangles on
each edge T = A² ∘ A and the triangles at each node t = T 1 / 2.  Sums run
over u ≠ v, and C(x, k) is the binomial coefficient:

    N0  = (A² (d - 1))_v - d_v (d_v - 1) - 2 t_v
    N1  = (d_v - 1) (A (d - 1))_v - 2 t_v
    N2  = (A C(d - 1, 2))_v
    N3  = C(d_v, 3)
    N4  = sum_u C(A²_vu, 2)
    N5  = (A t)_v - 2 t_v
    N6  = (T (d - 2))_v
    N7  = t_v (d_v - 2)
    N8  = sum_u A_vu ((T - A) A)_uv / 2
    N9  = sum_u C(T_vu, 2)
    N10 = the triangles among the neighbours of v

An induced graphlet holds non-induced copies only of graphlets with fewer
edges, so N(v) = M O(v) for the induced counts O(v) and a unit
upper-triangular 11 x 11 integer matrix M.  Column j of M is N at a node in
orbit j of graphlet j alone, and O follows from N by integer back
substitution (ORCA: Hočevar & Demšar 2014, Bioinformatics 30(4)).
"""
from __future__ import annotations

import numpy as np


def capped_distances(adj, cap: int) -> np.ndarray:
    """All-pairs BFS distances as min(distance, cap + 1), one frontier
    product per level; cap + 1 is the shared bucket for "farther than cap
    or unreachable", and the diagonal is 0.  adj is one (n, n) adjacency
    matrix or a (K, n, n) stack of them, each searched on its own."""
    adj = np.asarray(adj, dtype=np.float64)
    diagonal = np.arange(adj.shape[-1])
    dist = np.full(adj.shape, cap + 1, dtype=np.int64)
    dist[..., diagonal, diagonal] = 0
    reached = dist == 0
    frontier = adj
    for d in range(1, cap + 1):
        new = (frontier > 0) & ~reached
        if not new.any():
            break
        dist[new] = d
        reached |= new
        if d < cap:
            frontier = new.astype(np.float64) @ adj
    return dist


def _triangles(adj):
    """(A², the triangles on each edge T = A² ∘ A, the triangles at each
    node t = T 1 / 2) of a float64 adjacency matrix."""
    a2 = adj @ adj
    tri = a2 * adj
    return a2, tri, tri.sum(axis=-1) / 2


def _clustering(d, t) -> np.ndarray:
    """2 t / (d (d - 1)) at every node of degree d >= 2, else 0."""
    clus = np.zeros(d.shape)
    ok = d >= 2
    clus[ok] = 2.0 * t[ok] / (d[ok] * (d[ok] - 1))
    return clus


def clustering(adj) -> np.ndarray:
    """Local clustering coefficient 2 L / (d (d - 1)) of every node, where
    L = t counts the links among its d neighbours; 0 where d < 2.  Of one
    (n, n) adjacency matrix, or (K, n) of a (K, n, n) stack."""
    adj = np.asarray(adj, dtype=np.float64)
    return _clustering(adj.sum(axis=-1), _triangles(adj)[2])


def _c2(x):
    return x * (x - 1) / 2


# The largest neighbourhood stack _k4 builds at once, in entries (8 MB).
K4_STACK = 1 << 20


def _k4(adj, d, t) -> np.ndarray:
    """N10: the triangles among each node's neighbours, of the nodes with
    t >= 3 (a K4 puts 3 triangles on each of its nodes), 0 elsewhere.  Each
    such node's neighbourhood S, padded with zero rows and columns to the
    largest degree among them, is one slice of a stack, and the triangles
    are trace(S^3) / 6 = sum((S S) * S) / 6 of every slice at once; a stack
    holds at most K4_STACK entries, so a large dense graph takes several."""
    k4 = np.zeros(len(adj))
    rows = np.flatnonzero(t >= 3)
    if len(rows):
        deg = d[rows].astype(np.int64)
        width = int(deg.max())
        # row k: the neighbours of node rows[k], then the index of a zero row
        # and column appended to adj
        first = np.argsort(-adj[rows], axis=1, kind="stable")[:, :width]
        nbrs = np.where(np.arange(width) < deg[:, None], first, len(adj))
        padded = np.zeros((len(adj) + 1, len(adj) + 1))
        padded[:-1, :-1] = adj
        step = max(1, K4_STACK // (width * width))
        for lo in range(0, len(rows), step):
            part = nbrs[lo:lo + step]
            sub = padded[part[:, :, None], part[:, None, :]]
            k4[rows[lo:lo + step]] = ((sub @ sub) * sub).sum(axis=(1, 2)) / 6
    return k4


def _noninduced_orbits(adj, d, a2, tri, t) -> np.ndarray:
    """(n, 11) int64 non-induced orbit counts N (module docstring) from A,
    its degrees and _triangles(A)."""
    counts = np.stack([
        a2 @ (d - 1) - d * (d - 1) - 2 * t,
        (d - 1) * (adj @ (d - 1)) - 2 * t,
        adj @ _c2(d - 1),
        d * (d - 1) * (d - 2) / 6,
        _c2(a2).sum(axis=1) - _c2(d),
        adj @ t - 2 * t,
        tri @ (d - 2),
        t * (d - 2),
        (((tri - adj) @ adj) * adj).sum(axis=0) / 2,
        _c2(tri).sum(axis=1),
        _k4(adj, d, t),
    ], axis=1)
    return counts.astype(np.int64)


# Each graphlet on nodes 0..3: its edges and the orbit of each node.
GRAPHLETS = (
    ("P4", ((0, 1), (1, 2), (2, 3)), (0, 1, 1, 0)),
    ("star", ((0, 1), (0, 2), (0, 3)), (3, 2, 2, 2)),
    ("C4", ((0, 1), (1, 2), (2, 3), (0, 3)), (4, 4, 4, 4)),
    ("paw", ((0, 1), (0, 2), (1, 2), (0, 3)), (7, 6, 6, 5)),
    ("diamond", ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)), (9, 9, 8, 8)),
    ("K4", ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)), (10, 10, 10, 10)),
)


def graphlet_adjacency(edges) -> np.ndarray:
    """4 x 4 float64 adjacency matrix of a graphlet's edge list."""
    adj = np.zeros((4, 4))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return adj


def _orbit_matrix() -> np.ndarray:
    """M with N(v) = M O(v): column j holds N at a node in orbit j of its
    graphlet alone."""
    m = np.zeros((11, 11), dtype=np.int64)
    for _, edges, orbits in GRAPHLETS:
        adj = graphlet_adjacency(edges)
        for orbit, counts in zip(orbits, _noninduced_orbits(adj, adj.sum(axis=1),
                                                            *_triangles(adj))):
            m[:, orbit] = counts
    return m


ORBIT_MATRIX = _orbit_matrix()


def _induced(noninduced: np.ndarray) -> np.ndarray:
    """Induced counts O from N = M O by back substitution."""
    counts = np.zeros_like(noninduced)
    for k in range(10, -1, -1):
        counts[:, k] = noninduced[:, k] - counts[:, k + 1:] @ ORBIT_MATRIX[k, k + 1:]
    return counts


def orbits_and_clustering(adj: np.ndarray, deg: np.ndarray):
    """((n, 11) int64 per-node counts of the induced connected 4-node
    graphlets by orbit, clustering(adj)) of a float64 0/1 adjacency matrix
    and its degree vector, sharing one A² and its triangle counts."""
    a2, tri, t = _triangles(adj)
    return _induced(_noninduced_orbits(adj, deg, a2, tri, t)), _clustering(deg, t)
