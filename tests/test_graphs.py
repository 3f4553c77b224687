import networkx as nx
import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from gram import evaluation
from gram import graphs as G
from gram import kernels
from gram.datasets import CorpusSpec, generate_corpus
from gram.graphs import GraphError, LabeledGraph, OrderedGraph

from conftest import adjacency_matrix, apply_ordering, random_connected_graph
from test_evaluation import to_nx


def test_to_tensors_label_out_of_alphabet():
    with pytest.raises(GraphError, match="label"):
        LabeledGraph.create(2, [0, 5], [(0, 1, 0)], a=2, b=1)


def test_graph_invariants_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        LabeledGraph.create(2, [0, 0], [(1, 1, 0)], a=1, b=1)
    with pytest.raises(GraphError, match="duplicate"):
        LabeledGraph.create(2, [0, 0], [(0, 1, 0), (1, 0, 0)], a=1, b=1)
    with pytest.raises(GraphError, match="out of range"):
        LabeledGraph.create(2, [0, 0], [(0, 5, 0)], a=1, b=1)


def test_bfs_path_from_endpoint(rng):
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], a=1, b=1)
    ordering = G.bfs_ordering(g, 0, rng)
    assert tuple(ordering) == (0, 1, 2, 3)


def test_bfs_star_levels(rng):
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (0, 2, 0), (0, 3, 0)], a=1, b=1)
    ordering = G.bfs_ordering(g, 0, rng)
    assert ordering[0] == 0
    assert sorted(ordering[1:]) == [1, 2, 3]


def test_bfs_rejects_disconnected(rng):
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0)], a=1, b=1)
    with pytest.raises(GraphError, match="disconnected"):
        G.bfs_ordering(g, 0, rng)


def test_bfs_prefix_connectivity_1000(rng):
    """Every BFS prefix induces a connected subgraph (brute-force check)."""
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = apply_ordering(g, ordering)
        for s in range(1, n + 1):
            edges = [(u, v) for u, v, _ in og.edges if v < s]
            seen = {0}
            frontier = [0]
            while frontier:
                u = frontier.pop()
                for x, y in edges:
                    if x == u and y not in seen:
                        seen.add(y)
                        frontier.append(y)
                    elif y == u and x not in seen:
                        seen.add(x)
                        frontier.append(x)
            assert len(seen) == s, f"prefix {s} disconnected"


def ordering_cases(rng):
    """(graph, perm): a BFS and a random, mostly not breadth-first,
    permutation of graphs of every corpus family, a one-node graph and an
    edgeless graph."""
    cases = []
    for family, lo, hi in (("grid", 9, 30), ("lobster", 8, 30), ("community", 20, 28),
                           ("ba", 6, 30)):
        for g in generate_corpus(CorpusSpec(family, 3, lo, hi, seed=int(rng.integers(99)))):
            cases.append((g, G.bfs_ordering(g, int(rng.integers(g.n)), rng)))
            cases.append((g, rng.permutation(g.n)))
    cases.append((LabeledGraph.create(1, [2], [], 3, 2), np.array([0])))
    cases.append((LabeledGraph.create(5, [0, 1, 2, 1, 0], [], 3, 2), rng.permutation(5)))
    return cases


def test_ordered_graph_matches_the_relabelled_graph(rng):
    """OrderedGraph gives the labels, the edge rows in (j, i) order and the
    edge codes of the reference relabelling followed by a sort by (j, i)."""
    for g, perm in ordering_cases(rng):
        og = OrderedGraph(g, perm)
        ref = apply_ordering(g, perm)
        edges = np.array(sorted(ref.edges, key=lambda e: (e[1], e[0])),
                         dtype=np.int64).reshape(-1, 3)
        assert og.n == g.n and og.b == g.b
        assert og.labels.dtype == og.edges.dtype == np.int64
        assert og.labels.tolist() == list(ref.node_labels)
        assert np.array_equal(og.edges, edges)
        codes = np.full((g.n, g.n), g.b)
        for u, v, lab in ref.edges:
            codes[v, u] = lab
        later, earlier = np.tril_indices(g.n, -1)
        assert og.edge_codes(later, earlier).tolist() == codes[later, earlier].tolist()
        broadcast = og.edge_codes(np.arange(g.n)[:, None], np.arange(g.n))
        assert np.array_equal(broadcast[later, earlier], codes[later, earlier])


@pytest.mark.parametrize("perm", [[0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 1, 3], [0, 1, 2, 4],
                                  [-1, 1, 2, 3], [[0, 1], [2, 3]], []])
def test_ordered_graph_rejects_a_non_permutation(perm):
    """A perm that is short, long, repeats a node or holds one out of range
    is not a permutation of 0..n-1."""
    g = LabeledGraph.create(4, [0, 1, 0, 1], [(0, 1, 0), (1, 2, 1), (2, 3, 0)], 2, 2)
    with pytest.raises(GraphError, match="not a permutation"):
        OrderedGraph(g, perm)


def test_frontier_path_example():
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], a=1, b=1)
    starts = G.frontier_starts(g.edges, 4)
    assert list(starts) == [0, 0, 1, 2]
    assert list(range(starts[2], 3)) == [1, 2]  # the frontier of position 3


def test_frontier_star_example():
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (0, 2, 0), (0, 3, 0)], a=1, b=1)
    starts = G.frontier_starts(g.edges, 4)
    assert list(range(starts[1], 2)) == [0, 1]  # the frontier of position 2


def test_frontier_is_contiguous_and_sound(rng):
    """No true edge endpoint ever falls outside the frontier, over random
    connected graphs and BFS orderings."""
    for _ in range(300):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n)
        ordering = G.bfs_ordering(g, int(rng.integers(n)), rng)
        og = apply_ordering(g, ordering)
        starts = G.frontier_starts(og.edges, n)
        for s in range(1, n):
            f = set(range(starts[s - 1], s))
            assert f == set(range(min(f), s))  # contiguous, ends at s-1
            for u, v, _ in og.edges:
                if v == s:
                    assert u in f, f"edge ({u}, {s}) outside frontier {sorted(f)}"


def test_frontier_starts_matches_brute_force(rng):
    """Entry v is the minimum over v's lower neighbours, taken one position
    at a time, or v itself; over random connected graphs under random BFS
    orders."""
    for _ in range(300):
        n = int(rng.integers(1, 31))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.5)))
        og = apply_ordering(g, G.bfs_ordering(g, int(rng.integers(n)), rng))
        starts = G.frontier_starts(og.edges, n)
        brute = [min([u for u, w, _ in og.edges if w == v], default=v) for v in range(n)]
        assert starts.dtype == np.int64 and starts.tolist() == brute


def test_shortest_paths_path_graph():
    g = LabeledGraph.create(4, [0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)], a=1, b=1)
    d = kernels.capped_distances(adjacency_matrix(g), 10)
    assert d[0, 3] == 3 and d[3, 0] == 3 and d[0, 0] == 0


def test_shortest_paths_unreachable_bucket():
    g = LabeledGraph.create(2, [0, 0], [], a=1, b=1)
    d = kernels.capped_distances(adjacency_matrix(g), 5)
    assert d[0, 1] == 6 and d[1, 0] == 6


def test_shortest_paths_vs_floyd_warshall(rng):
    for _ in range(50):
        n = int(rng.integers(2, 25))
        g = random_connected_graph(rng, n)
        cap = int(rng.integers(1, 6))
        d = kernels.capped_distances(adjacency_matrix(g), cap)
        assert np.array_equal(d, d.T)
        full = csgraph.floyd_warshall(adjacency_matrix(g), unweighted=True)
        expected = np.minimum(full, cap + 1).astype(np.int64)
        assert np.array_equal(d, expected)


def test_graph_statistics_triangle_and_path():
    tri = LabeledGraph.create(3, [0] * 3, [(0, 1, 0), (0, 2, 0), (1, 2, 0)], a=1, b=1)
    assert list(tri.degrees()) == [2, 2, 2]
    assert np.allclose(kernels.clustering(adjacency_matrix(tri)), 1.0)
    path = LabeledGraph.create(3, [0] * 3, [(0, 1, 0), (1, 2, 0)], a=1, b=1)
    assert np.allclose(kernels.clustering(adjacency_matrix(path)), 0.0)


def test_graph_statistics_vs_triangle_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(3, 20))
        g = random_connected_graph(rng, n, extra_edge_prob=0.3)
        mat = adjacency_matrix(g)
        degrees, clustering = g.degrees(), kernels.clustering(mat)
        for v in range(n):
            nbrs = [u for u in range(n) if mat[v, u]]
            deg = len(nbrs)
            assert degrees[v] == deg
            links = sum(1 for i in range(deg) for j in range(i + 1, deg)
                        if mat[nbrs[i], nbrs[j]])
            expect = 2 * links / (deg * (deg - 1)) if deg >= 2 else 0.0
            assert clustering[v] == pytest.approx(expect, abs=1e-12)
        via_nx = nx.clustering(to_nx(g))
        assert np.abs(clustering - [via_nx[v] for v in range(n)]).max() <= 1e-12


def test_adjacency_and_degrees_match_edge_loops(rng):
    """The array forms equal the per-edge loops, dtype included, for random
    graphs, an edgeless graph and the empty graph: the test reference's
    adjacency, evaluation's adjacency and degrees, and LabeledGraph's
    degrees."""
    cases = [random_connected_graph(rng, int(rng.integers(1, 30))) for _ in range(20)]
    cases += [LabeledGraph.create(4, [0] * 4, [], 1, 1), LabeledGraph.create(0, [], [], 1, 1)]
    for g in cases:
        mat = np.zeros((g.n, g.n), dtype=np.uint8)
        deg = np.zeros(g.n, dtype=np.int64)
        for u, v, _ in g.edges:
            mat[u, v] = mat[v, u] = 1
            deg[u] += 1
            deg[v] += 1
        adj = adjacency_matrix(g)
        assert adj.dtype == np.uint8 and np.array_equal(adj, mat)
        arrays = evaluation._graph_arrays(g)
        assert arrays.adj.dtype == np.float64 and np.array_equal(arrays.adj, mat)
        assert arrays.deg.dtype == np.int64 and np.array_equal(arrays.deg, deg)
        assert g.degrees().dtype == np.int64 and np.array_equal(g.degrees(), deg)


def _is_connected_dfs(g):
    """LabeledGraph.is_connected as it was before the edge-array search: a
    depth-first search over the neighbour lists."""
    if g.n <= 1:
        return True
    adj, seen, stack = g.adjacency(), {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def test_is_connected_matches_depth_first_search(rng):
    """The level-by-level search over the edge array agrees with a
    depth-first search: random connected graphs, the same with edges
    removed, long paths, edgeless graphs and n = 0, 1, 2."""
    cases = [LabeledGraph.create(n, [0] * n, [], 1, 1) for n in range(4)]
    cases += [LabeledGraph.create(n, [0] * n, [(i, i + 1, 0) for i in range(n - 1)], 1, 1)
              for n in (2, 50, 300)]
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 40)), extra_edge_prob=0.05)
        cases.append(g)
        kept = [e for e in g.edges if rng.random() < 0.8]
        cases.append(LabeledGraph.create(g.n, g.node_labels, kept, g.a, g.b))
    results = [g.is_connected() for g in cases]
    assert results == [_is_connected_dfs(g) for g in cases]
    assert True in results and False in results
    ends = np.array([(0, 1), (2, 3)])
    assert not G.connects(4, ends) and G.connects(4, np.vstack([ends, [(3, 0)]]))
