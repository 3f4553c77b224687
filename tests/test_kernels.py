import itertools

import networkx as nx
import numpy as np
import pytest

from gram import kernels
from gram.graphs import LabeledGraph

from conftest import adjacency_matrix, random_connected_graph
from test_evaluation import to_nx


def test_backends_agree_on_distances(rng):
    """Capped distances equal networkx BFS lengths with cutoff=cap, and
    cap + 1 for every pair the cutoff leaves out."""
    for _ in range(30):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.3)))
        cap = int(rng.integers(1, 6))
        nxg = to_nx(g)
        expect = np.full((n, n), cap + 1, dtype=np.int64)
        for src in range(n):
            for dst, d in nx.single_source_shortest_path_length(nxg, src, cutoff=cap).items():
                expect[src, dst] = d
        assert np.array_equal(kernels.capped_distances(adjacency_matrix(g), cap), expect)


def test_distances_count_past_255_common_neighbours():
    """K_{2,256}: the two hubs share 256 neighbours and sit at distance 2; a
    uint8 frontier product wrapped to 0 there and gave cap + 1."""
    hubs, leaves = 2, 256
    adj = np.zeros((hubs + leaves, hubs + leaves), dtype=np.uint8)
    adj[:hubs, hubs:] = 1
    adj[hubs:, :hubs] = 1
    dist = kernels.capped_distances(adj, 3)
    assert dist[0, 1] == dist[1, 0] == 2
    assert dist[hubs, hubs + 1] == 2
    assert (dist[:hubs, hubs:] == 1).all()


def orbit_counts(adj):
    """(n, 11) per-node orbit counts of a 0/1 adjacency matrix, with its
    float64 row sums as the degree vector."""
    adj = np.asarray(adj, dtype=np.float64)
    return kernels.orbits_and_clustering(adj, adj.sum(axis=1))[0]


def _orbit_of(e, degree, max_degree):
    """Orbit of a node of within-set degree `degree` in a connected 4-set
    with e induced edges and largest degree max_degree."""
    if e == 3:
        return (0 if degree == 1 else 1) if max_degree == 2 else (2 if degree == 1 else 3)
    if e == 4:
        return 4 if max_degree == 2 else (5 if degree == 1 else 6 if degree == 2 else 7)
    if e == 5:
        return 8 if degree == 2 else 9
    return 10


def _orbit_via_networkx(g):
    """Independent recount: enumerate 4-subsets, classify with networkx."""
    nxg = to_nx(g)
    counts = np.zeros((g.n, 11), dtype=np.int64)
    for quad in itertools.combinations(range(g.n), 4):
        sub = nxg.subgraph(quad)
        if not nx.is_connected(sub):
            continue
        degs = dict(sub.degree())
        mx = max(degs.values())
        for v in quad:
            counts[v, _orbit_of(sub.number_of_edges(), degs[v], mx)] += 1
    return counts


def _orbit_counts_dense(adj, counts):
    """The O(n^4) loop over all 4-sets that the closed form replaced: a 4-set
    with e induced edges is connected iff e >= 4, or e == 3 with no isolated
    node, and (e, within-set degree) fixes each node's orbit."""
    n = adj.shape[0]
    for a in range(n - 3):
        for b in range(a + 1, n - 2):
            eab = adj[a, b]
            for c in range(b + 1, n - 1):
                eac = adj[a, c]
                ebc = adj[b, c]
                e3 = eab + eac + ebc
                for d in range(c + 1, n):
                    ead = adj[a, d]
                    ebd = adj[b, d]
                    ecd = adj[c, d]
                    e = e3 + ead + ebd + ecd
                    if e < 3:
                        continue
                    da = eab + eac + ead
                    db = eab + ebc + ebd
                    dc = eac + ebc + ecd
                    dd = ead + ebd + ecd
                    if e == 3 and (da == 0 or db == 0 or dc == 0 or dd == 0):
                        continue
                    if e == 6:
                        counts[a, 10] += 1
                        counts[b, 10] += 1
                        counts[c, 10] += 1
                        counts[d, 10] += 1
                        continue
                    if e == 5:
                        base = 8
                        off = 1
                        lo = 2
                    elif e == 4:
                        if da == 2 and db == 2 and dc == 2 and dd == 2:
                            counts[a, 4] += 1
                            counts[b, 4] += 1
                            counts[c, 4] += 1
                            counts[d, 4] += 1
                            continue
                        base = 5
                        off = 1
                        lo = 1
                    else:
                        mx = max(max(da, db), max(dc, dd))
                        if mx == 3:
                            base = 2
                            off = 2
                            lo = 1
                        else:
                            base = 0
                            off = 1
                            lo = 1
                    counts[a, base + (da - lo) // off] += 1
                    counts[b, base + (db - lo) // off] += 1
                    counts[c, base + (dc - lo) // off] += 1
                    counts[d, base + (dd - lo) // off] += 1
    return counts


def test_orbit_backends_and_oracle(rng):
    """Closed-form orbit counts equal two enumerations of every 4-set, as
    integers; dense graphs make diamonds and K4s common."""
    seen = np.zeros(11, dtype=bool)
    for i in range(60):
        n = int(rng.integers(4, 15))
        g = random_connected_graph(rng, n, extra_edge_prob=0.9 * i / 59)
        main = orbit_counts(adjacency_matrix(g))
        assert main.dtype == np.int64
        assert np.array_equal(main, _orbit_via_networkx(g))
        brute = _orbit_counts_dense(adjacency_matrix(g).astype(np.int64),
                                    np.zeros((n, 11), dtype=np.int64))
        assert np.array_equal(main, brute)
        seen |= main.any(axis=0)
    assert seen.all()


def test_each_graphlet_counts_itself_once():
    """A graphlet alone puts each node once in its own orbit and nowhere
    else; the non-induced-to-induced matrix is unit upper-triangular."""
    for name, edges, orbits in kernels.GRAPHLETS:
        counts = orbit_counts(kernels.graphlet_adjacency(edges))
        assert np.array_equal(counts, np.eye(11, dtype=np.int64)[list(orbits)]), name
    assert np.array_equal(np.tril(kernels.ORBIT_MATRIX), np.eye(11, dtype=np.int64))


def test_orbit_small_graphs_zero():
    g = LabeledGraph.create(3, [0] * 3, [(0, 1, 0), (1, 2, 0)], a=1, b=1)
    assert not orbit_counts(adjacency_matrix(g)).any()
    assert orbit_counts(np.zeros((0, 0))).shape == (0, 11)


def test_orbits_and_clustering_equal_the_separate_kernels(rng):
    """One A² for both statistics, with the int64 degree vector of the
    edges: bit for bit the counts with the float64 row sums as degrees, and
    the coefficients of the clustering kernel."""
    graphs = [random_connected_graph(rng, int(rng.integers(1, 30)),
                                     extra_edge_prob=float(rng.uniform(0.0, 0.5)))
              for _ in range(30)]
    graphs.append(LabeledGraph.create(0, [], [], 1, 1))
    for g in graphs:
        adj = adjacency_matrix(g).astype(np.float64)
        counts, clus = kernels.orbits_and_clustering(adj, g.degrees())
        assert counts.dtype == np.int64 and clus.dtype == np.float64
        assert np.array_equal(counts, orbit_counts(adj))
        assert clus.tobytes() == kernels.clustering(adj).tobytes()


def looped_k4(adj, t):
    """The K4 term as it was computed: one neighbourhood product per node
    with t >= 3."""
    k4 = np.zeros(len(adj))
    for v in np.flatnonzero(t >= 3):
        nbrs = np.flatnonzero(adj[v])
        sub = adj[np.ix_(nbrs, nbrs)]
        k4[v] = ((sub @ sub) * sub).sum() / 6
    return k4


@pytest.mark.parametrize("stack", [kernels.K4_STACK, 40])
def test_padded_k4_count_matches_the_per_node_loop(stack, monkeypatch):
    """The padded neighbourhood product gives the loop's K4 counts on graphs
    with K4s of every kind: K5, a wheel, BA graphs with hubs, and graphs
    with no node of three triangles; in one stack, and in stacks of a few
    neighbourhoods each."""
    monkeypatch.setattr(kernels, "K4_STACK", stack)
    graphs = [nx.complete_graph(5), nx.wheel_graph(9), nx.complete_graph(4),
              nx.path_graph(6), nx.empty_graph(3)]
    graphs += [nx.barabasi_albert_graph(n, 3, seed=n) for n in range(20, 41, 4)]
    graphs += [nx.barabasi_albert_graph(30, 8, seed=1)]
    kinds = set()
    for g in graphs:
        adj = nx.to_numpy_array(g)
        d = adj.sum(axis=1)
        _, _, t = kernels._triangles(adj)
        want = looped_k4(adj, t)
        assert np.array_equal(kernels._k4(adj, d, t), want), g
        kinds.add(bool(want.any()))
    assert kinds == {False, True}
