import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from planerigidity import catalog as cat
from planerigidity import graphs
from planerigidity.formats import parse_graph6
from planerigidity.graphs import (
    Graph,
    _edge_connectivity_upto3,
    _isomorphism,
    _lowpoint_dfs,
    _min_st_edge_cut,
    edge_connectivity,
    enumerate_separations,
    first_cut_vertex,
    is_edge_transitive,
    is_isomorphic,
    is_k_connected,
    is_vertex_transitive,
)
from planerigidity.moves import random_m22_graph
from planerigidity.randomgraphs import gnp_graph

from corpus import BENCHMARK_INPUTS, decision_corpus, joined_graphs, k4_ring_graph
from oracles import (
    all_labeled_graphs,
    automorphism_with_pins,
    components_search,
    edge_connectivity_dominating_flows,
    edge_connectivity_unpruned,
    edge_cuts_triple_scan,
    edges_on_common_cycles,
    enumerate_separations_scan,
    first_cut_vertex_scan,
    graphs_up_to_iso,
    is_3_connected_by_deletions,
    is_k_connected_cut_scan,
    min_st_edge_cut_residual,
)


def two_cliques(k, j):
    """K_k on 0..k-1 and on k..2k-1, joined by the j disjoint edges (i, k + i)."""
    pairs = list(itertools.combinations(range(k), 2))
    cross = [(i, k + i) for i in range(j)]
    return Graph.from_edges(2 * k, pairs + [(u + k, v + k) for u, v in pairs] + cross)


@st.composite
def joined_blobs(draw):
    """Two dense random blobs joined by up to three edges, labels shuffled."""
    a, b = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    n = a + b
    edges = set()
    for lo, hi in ((0, a), (a, n)):
        pairs = list(itertools.combinations(range(lo, hi), 2))
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 4))
        edges.update(e for e in pairs if e not in dropped)
    edges |= draw(st.sets(st.tuples(st.integers(0, a - 1), st.integers(a, n - 1)), max_size=3))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def greedy_dominating_set(G):
    """The vertices, in label order, with no neighbour among those before."""
    D = []
    for v in range(G.n):
        if not G.adj[v] & set(D):
            D.append(v)
    return D


def benchmark_graphs(workload="*"):
    """The committed benchmark input graphs (read only), by file name."""
    paths = sorted(BENCHMARK_INPUTS.glob(f"{workload}/*.g6"))
    assert paths, BENCHMARK_INPUTS
    return {p.parent.name + "/" + p.name: parse_graph6(p.read_text()) for p in paths}


def relabelled(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def small_graphs(max_n=7):
    return st.integers(2, max_n).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda e: (min(e), max(e))
            ).filter(lambda e: e[0] != e[1]),
            max_size=n * (n - 1) // 2,
        ).map(lambda edges: Graph.from_edges(n, edges))
    )


def _block_sets(blocks):
    return [set(b) for b in blocks]


def _bridges(blocks):
    return sorted(tuple(sorted(b)) for b in blocks if len(b) == 2)


class TestGraphBasics:
    def test_rejects_loops_and_bad_labels(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_remove_vertices_relabels(self):
        G = cat.k5_minus()
        H, relabel = G.remove_vertices([2])
        assert H.n == 4
        assert relabel == {0: 0, 1: 1, 3: 2, 4: 3}
        assert H.has_edge(0, 2) and H.has_edge(0, 3)
        assert not H.has_edge(2, 3)  # the missing K5- edge

    def test_subgraph_reports_map(self):
        G = cat.b1()
        H, relabel = G.subgraph([0, 1, 4, 5])
        assert H.n == 4 and H.m == 6
        assert relabel[4] == 2

    def test_deleting_nothing_keeps_the_labels(self):
        G = cat.b1()
        identity = {v: v for v in range(G.n)}
        assert G.remove_vertices([]) == (G, identity)
        assert G.subgraph(range(G.n)) == (G, identity)
        assert G.edit() == (G, None)


def _pairs(n):
    """Pairs of distinct vertices of 0..n-1, in either order."""
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])


class TestEdit:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_set_arithmetic(self, data):
        # (E - R) | A, then induced on the survivors and renumbered by rank
        n = data.draw(st.integers(2, 9))
        grow = data.draw(st.integers(0, 2))
        E = data.draw(st.sets(_pairs(n)))
        remove = data.draw(st.lists(_pairs(n)))
        add = data.draw(st.lists(_pairs(n + grow)))
        drop = data.draw(st.lists(st.integers(0, n + grow - 1)))
        G = Graph.from_edges(n, E)
        H, relabel = G.edit(drop=drop, remove=remove, add=add, grow=grow)

        def norm(es):
            return {tuple(sorted(e)) for e in es}

        edges = (norm(E) - norm(remove)) | norm(add)
        keep = [v for v in range(n + grow) if v not in drop]
        rank = {v: i for i, v in enumerate(keep)}
        assert H == Graph(len(keep), frozenset(
            (rank[u], rank[v]) for u, v in edges if u in rank and v in rank
        ))
        assert relabel == (rank if drop else None)


class TestConnectivity:
    def test_named_examples(self):
        assert not is_k_connected(cat.two_k4_shared_vertex(), 2)
        assert is_k_connected(cat.b1(), 2)
        assert is_k_connected(cat.path_graph(3), 1)
        assert not is_k_connected(cat.b1(), 3)
        assert is_k_connected(cat.k5_minus(), 3)

    def test_complete_graph_convention(self):
        K2 = cat.complete_graph(2)
        assert is_k_connected(K2, 1) and is_k_connected(K2, 2)
        K1 = Graph.from_edges(1, [])
        assert is_k_connected(K1, 1)
        assert not is_k_connected(K1, 2)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(7), st.integers(1, 3))
    def test_against_bruteforce_cut_scan(self, G, k):
        if G.is_complete() or G.n == 1:
            return
        expect = G.is_connected()
        if expect:
            for size in range(1, k):
                for cut in itertools.combinations(range(G.n), size):
                    rest = [v for v in range(G.n) if v not in cut]
                    if len(rest) >= 2 and not G.subgraph(rest)[0].is_connected():
                        expect = False
        assert is_k_connected(G, k) == expect


def _glued(W: Graph, H: Graph, rng: random.Random) -> Graph:
    """W and H identified at a random vertex of W and vertex 0 of H, then
    relabelled at random with the shared vertex never at label 0."""
    g = rng.randrange(W.n)
    n = W.n + H.n - 1
    perm = list(range(n))
    rng.shuffle(perm)
    if perm[g] == 0:
        j = perm.index(n - 1)
        perm[g], perm[j] = n - 1, 0

    def h(x):
        return g if x == 0 else W.n + x - 1

    edges = [(perm[u], perm[v]) for u, v in W.edges]
    edges += [(perm[h(u)], perm[h(v)]) for u, v in H.edges]
    return Graph.from_edges(n, edges)


def _glued_m22_walks():
    """m22 walks up to n = 60, each glued at one vertex to a second graph:
    a smaller walk, a cycle, a path or a G(n, p) sample."""
    rng = random.Random(31)
    out = []
    for i, steps in enumerate(range(4, 48, 3)):
        W = random_m22_graph(steps, 900 + i)
        H = [
            random_m22_graph(i % 4, 950 + i),
            cat.cycle_graph(3 + i % 5),
            cat.path_graph(2 + i % 4),
            gnp_graph(3 + i % 5, 0.5, 970 + i),
        ][i % 4]
        out.append(_glued(W, H, rng))
    return out


def _assert_matches_cut_scans(graphs, ks=(1, 2, 3)):
    for G in graphs:
        for k in ks:
            assert is_k_connected(G, k) == is_k_connected_cut_scan(G, k), (k, G)
        assert first_cut_vertex(G) == first_cut_vertex_scan(G), G


class TestAgainstCutScans:
    def test_every_labelled_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            _assert_matches_cut_scans(all_labeled_graphs(n))

    def test_graphs_up_to_iso_six(self):
        _assert_matches_cut_scans(graphs_up_to_iso(6))

    def test_decision_corpus(self):
        _assert_matches_cut_scans(decision_corpus(150, seed=57))

    def test_glued_m22_walks(self):
        graphs = _glued_m22_walks()
        assert max(G.n for G in graphs) >= 55
        _assert_matches_cut_scans(graphs)
        cuts = [first_cut_vertex(G) for G in graphs]
        assert all(c is not None for c in cuts)
        assert sum(c != 0 for c in cuts) >= len(cuts) - 2

    def test_m22_walks_three_connectivity(self):
        walks = [random_m22_graph(steps, 990 + steps) for steps in range(2, 26, 2)]
        _assert_matches_cut_scans(walks, ks=(2, 3))

    def test_articulation_points_with_a_skipped_vertex(self):
        # the bowtie minus its centre falls apart; the wheel minus its hub
        # is a cycle, and C5 minus vertex 0 is the path 1-2-3-4
        # (the connected flag is one component; the blocks and components
        # are checked along with the cut vertices, each block head first)
        comps, cuts, blocks = _lowpoint_dfs(cat.bowtie())
        assert (len(comps) == 1, cuts) == (True, [0])
        assert comps == [{0, 1, 2, 3, 4}] and _block_sets(blocks) == [{0, 1, 2}, {0, 3, 4}]
        assert [b[0] for b in blocks] == [0, 0]
        comps, cuts, blocks = _lowpoint_dfs(cat.bowtie(), (0,))
        assert (len(comps) == 1, cuts) == (False, [])
        assert comps == [{1, 2}, {3, 4}] and _bridges(blocks) == [(1, 2), (3, 4)]
        W = cat.wheel_graph(5)
        hub = max(range(W.n), key=W.degree)
        comps, cuts, blocks = _lowpoint_dfs(W, (hub,))
        assert (len(comps) == 1, cuts) == (True, [])
        assert comps == [{1, 2, 3, 4, 5}] and _block_sets(blocks) == [{1, 2, 3, 4, 5}]
        comps, cuts, blocks = _lowpoint_dfs(cat.cycle_graph(5), (0,))
        assert (len(comps) == 1, cuts) == (True, [2, 3])
        assert comps == [{1, 2, 3, 4}] and _bridges(blocks) == [(1, 2), (2, 3), (3, 4)]
        assert len(blocks) == 3

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(8), st.data())
    def test_lowpoint_dfs_against_deletions(self, G, data):
        # with the vertices in `drop` deleted: the components are those of
        # the relabelled subgraph, a cut vertex is a vertex whose deletion
        # adds a component, every edge lies in exactly one block, two edges
        # share a block iff they lie on a common cycle, and the two-vertex
        # blocks are the bridges, the edges whose deletion adds a component
        drop = data.draw(st.sets(st.integers(0, G.n - 1), max_size=3))
        comps, cuts, blocks = _lowpoint_dfs(G, drop)
        H, relabel = G.remove_vertices(drop)
        back = {new: old for old, new in relabel.items()}
        base = components_search(H)
        assert comps == [{back[v] for v in c} for c in base]
        assert _bridges(blocks) == sorted(
            (back[u], back[v]) for u, v in H.edges
            if len(components_search(H.remove_edge(u, v))) > len(base)
        )
        assert cuts == [
            back[v] for v in range(H.n)
            if len(components_search(H.remove_vertices([v])[0])) > len(base)
        ]
        block_of = {}
        for i, b in enumerate(_block_sets(blocks)):
            assert len(b) == len(blocks[i]) >= 2
            for e in G.induced_edges(b):
                assert e not in block_of  # no edge lies in two blocks
                block_of[e] = i
        cycles = edges_on_common_cycles(H)
        edges = sorted(block_of)
        assert edges == sorted((back[u], back[v]) for u, v in H.edges)
        for e in edges:
            on_cycle = {(back[u], back[v]) for u, v in cycles[relabel[e[0]], relabel[e[1]]]}
            assert on_cycle == {f for f in edges if block_of[f] == block_of[e]}
        # the heads: every vertex but a root (the smallest of its component)
        # follows the head in exactly one block
        below = sorted(v for b in blocks for v in b[1:])
        assert below == sorted(set().union(*comps) - {min(c) for c in comps})

    def test_first_cut_vertex_on_disconnected_graphs(self):
        # an isolated vertex beside one other component is no cut vertex
        assert first_cut_vertex(Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)])) == 1
        assert first_cut_vertex(Graph.from_edges(4, [(2, 3)])) == 0
        assert first_cut_vertex(Graph.from_edges(2, [])) is None


def _prism(k):
    """Two k-cycles 0..k-1 and k..2k-1 joined by the matching i-(k + i)."""
    ring = [(i, (i + 1) % k) for i in range(k)]
    return Graph.from_edges(2 * k, ring + [(k + u, k + v) for u, v in ring] +
                            [(i, k + i) for i in range(k)])


def _assert_three_connectivity(graphs, scan_up_to=14):
    # the path search against one lowpoint DFS per deleted vertex, and
    # against deleting every vertex and pair on graphs up to scan_up_to
    # vertices
    for G in graphs:
        expect = is_3_connected_by_deletions(G)
        assert is_k_connected(G, 3) == expect, G
        if G.n <= scan_up_to:
            assert is_k_connected_cut_scan(G, 3) == expect, G


class TestThreeConnectivityPathSearch:
    """`is_k_connected(G, 3)` asks one triconnectivity path search
    (`graphs._no_separation_pair`); the n lowpoint DFS runs it replaced are
    the oracle `is_3_connected_by_deletions`, which matches the cut scan on
    every isomorphism class up to six vertices (`TestAgainstCutScans`)."""

    def test_every_labelled_graph_up_to_six_vertices(self):
        for n in range(1, 7):
            _assert_three_connectivity(all_labeled_graphs(n), scan_up_to=5)

    def test_joined_graphs(self):
        # the paper's 1-, 2- and 3-joins reach every exit of the search: a
        # vertex of degree 2, a type-1 pair in the first DFS, a type-2 pair
        # in the path search, and no pair
        graphs = joined_graphs(400, seed=3, max_n=14)
        _assert_three_connectivity(graphs)
        assert 50 < sum(map(is_3_connected_by_deletions, graphs)) < 350

    def test_decision_corpus(self):
        _assert_three_connectivity(decision_corpus(300, seed=5))

    def test_relabelled_m22_walks(self):
        rng = random.Random(25)
        walks = [relabelled(random_m22_graph(steps, 250 + steps), rng) for steps in (80, 160, 320)]
        assert max(G.n for G in walks) >= 340
        _assert_three_connectivity(walks)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(9), st.randoms(use_true_random=False))
    def test_relabelled_small_graphs(self, G, rng):
        _assert_three_connectivity([G, relabelled(G, rng)])

    def test_pair_only_the_type_2_test_catches(self):
        # two K4s on {0, 1, 2, 5} and {1, 2, 3, 4} sharing the edge 1-2,
        # which is removed: {1, 2} separates and every degree is 3; the
        # first DFS, from vertex 0, shows no type-1 pair, so only the path
        # search's type-2 test can answer
        G = Graph.from_edges(6, [
            (0, 1), (0, 2), (0, 5), (1, 5), (2, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ])
        assert G.min_degree() == 3 and is_k_connected(G, 2)
        assert not is_k_connected(G, 3)
        assert not is_3_connected_by_deletions(G)

    @pytest.mark.parametrize("G", [cat.wheel_graph(3999), _prism(2000)], ids=["wheel", "prism"])
    def test_four_thousand_vertices(self, G):
        # iterative searches: no RecursionError at this depth
        assert G.n == 4000
        assert is_k_connected(G, 3)
        H = G.remove_edge(*min(G.edges))
        assert is_k_connected(H, 2) and not is_k_connected(H, 3)


class TestEdgeConnectivity:
    def test_examples(self):
        assert edge_connectivity(cat.complete_graph(6)) == 5
        assert edge_connectivity(cat.cycle_graph(5)) == 2
        assert edge_connectivity(cat.k5_minus()) == 3

    def test_pruned_flows_match_unpruned(self):
        graphs = list(decision_corpus(150, seed=57)) + list(graphs_up_to_iso(6))
        graphs += [random_m22_graph(steps, 40 + steps) for steps in range(0, 40, 5)]
        # disconnected, with no connectivity test before the flows: K5 plus
        # an isolated vertex, and two disjoint K4s
        K4_pairs = list(itertools.combinations(range(4), 2))
        disconnected = [
            cat.complete_graph(5).edit(grow=1)[0],
            Graph.from_edges(8, K4_pairs + [(u + 4, v + 4) for u, v in K4_pairs]),
        ]
        assert not any(G.is_connected() for G in disconnected)
        for G in graphs + disconnected:
            assert edge_connectivity(G) == edge_connectivity_unpruned(G), G
        assert [edge_connectivity(G) for G in disconnected] == [0, 0]

    def test_bounded_flow_is_capped_maximum(self):
        for G in decision_corpus(40, seed=58):
            if not G.is_connected():
                continue
            for t in range(1, G.n):
                full = _min_st_edge_cut(G, 0, t)
                for limit in range(full + 2):
                    assert _min_st_edge_cut(G, 0, t, limit) == min(full, limit)

    def test_arc_set_flow_equals_the_residual_map_flow(self):
        graphs = list(graphs_up_to_iso(6)) + list(decision_corpus(60, seed=5))
        for G in graphs:
            for s, t in itertools.permutations(range(G.n), 2):
                for limit in (None, 0, 1, 2, 3, 4):
                    assert _min_st_edge_cut(G, s, t, limit) == min_st_edge_cut_residual(
                        G, s, t, limit
                    ), (G, s, t, limit)

    def test_min_cut_between_two_cliques(self):
        # two K_k joined by j < k - 1 disjoint edges: lambda = j < delta = k - 1,
        # and the minimum cut is at no single vertex; relabelled at random so
        # that vertex 0 and the dominating set fall anywhere
        rng = random.Random(59)
        for k in range(3, 9):
            for j in range(k - 1):
                G = two_cliques(k, j)
                perm = list(range(G.n))
                for _ in range(3):
                    H = Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])
                    assert edge_connectivity(H) == edge_connectivity_unpruned(H) == j
                    assert H.min_degree() == k - 1
                    rng.shuffle(perm)

    @settings(max_examples=120, deadline=None)
    @given(joined_blobs())
    def test_joined_blobs_match_unpruned(self, G):
        assert edge_connectivity(G) == edge_connectivity_unpruned(G)

    def test_flows_go_only_to_the_dominating_set(self, monkeypatch):
        # one bounded flow per member of D - {0}, D the greedy dominating set
        real, calls = graphs._min_st_edge_cut, []

        def counted(G, s, t, limit=None):
            calls.append(t)
            return real(G, s, t, limit)

        monkeypatch.setattr(graphs, "_min_st_edge_cut", counted)
        rng = random.Random(60)
        cases = [two_cliques(k, j) for k in (4, 6, 8) for j in (0, 1, 2)]
        cases += [
            gnp_graph(rng.randint(8, 16), rng.uniform(0.3, 0.9), rng.randrange(10**6))
            for _ in range(40)
        ]
        cases += list(decision_corpus(60, seed=61))
        for G in cases:
            calls.clear()
            lam = edge_connectivity(G)
            D = greedy_dominating_set(G)
            assert D[0] == 0 and all(v in D or G.adj[v] & set(D) for v in range(G.n))
            assert len(calls) <= len(D) - 1 and set(calls) <= set(D) - {0}
            assert lam == edge_connectivity_unpruned(G)
            assert len(calls) < G.n - 1

    def test_cut_labels_match_unpruned(self):
        rng = random.Random(62)
        cases = [relabelled(G, rng) for G in graphs_up_to_iso(6) for _ in range(2)]
        cases += decision_corpus(150, seed=63)
        cases += [random_m22_graph(steps, 70 + steps) for steps in range(0, 60, 4)]
        cases += [relabelled(two_cliques(k, j), rng) for k in range(2, 8) for j in range(k + 1)]
        for G in cases:
            assert _edge_connectivity_upto3(G) == min(edge_connectivity_unpruned(G), 3), G

    @settings(max_examples=120, deadline=None)
    @given(joined_blobs())
    def test_joined_blobs_cut_labels_match_unpruned(self, G):
        assert _edge_connectivity_upto3(G) == min(edge_connectivity_unpruned(G), 3)

    @staticmethod
    def count_flows(monkeypatch):
        real, calls = graphs._min_st_edge_cut, []

        def counted(G, s, t, limit=None):
            calls.append(t)
            return real(G, s, t, limit)

        monkeypatch.setattr(graphs, "_min_st_edge_cut", counted)
        return calls

    def test_no_flows_below_min_degree_4_or_connectivity_3(self, monkeypatch):
        calls = self.count_flows(monkeypatch)
        cases = {f"two_cliques({k}, {j})": two_cliques(k, j) for k in range(3, 9) for j in range(3)}
        cases.update(benchmark_graphs("check-m22"))
        for name, G in cases.items():
            calls.clear()
            lam = edge_connectivity(G)
            assert calls == [], name
            assert G.min_degree() <= 3 or lam <= 2, name
            assert lam == edge_connectivity_dominating_flows(G), name

    def test_flows_still_run_at_min_degree_4_and_connectivity_3(self, monkeypatch):
        # K6 passes the labels too, but vertex 0 dominates it, so the flow
        # stage answers delta = 5 with no flow to run
        calls = self.count_flows(monkeypatch)
        for G, lam, flows in (
            (two_cliques(6, 3), 3, [7]), (two_cliques(6, 4), 4, [7]),
            (cat.complete_graph(6), 5, []),
        ):
            assert G.min_degree() >= 4 and _edge_connectivity_upto3(G) == 3
            calls.clear()
            assert edge_connectivity(G) == lam
            assert calls == flows

    def test_dominating_flows_oracle_on_corpus_and_benchmark_inputs(self):
        cases = {f"corpus[{i}]": G for i, G in enumerate(decision_corpus(300, seed=5))}
        cases.update(benchmark_graphs())
        for name, G in cases.items():
            assert edge_connectivity(G) == edge_connectivity_dominating_flows(G), name

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(7))
    def test_bounded_by_min_degree(self, G):
        assert edge_connectivity(G) <= min(
            (G.degree(v) for v in range(G.n)), default=0
        )


class TestSeparations:
    def test_b1_vertex_separation(self):
        seps = enumerate_separations(cat.b1(), "vertex-cut-2")
        assert len(seps) == 1
        assert seps[0].cut == (0, 1)  # endpoints of the shared edge

    def test_k5_minus_has_none(self):
        assert enumerate_separations(cat.k5_minus(), "vertex-cut-2") == []

    def test_prism_matching_cut_nontrivial(self):
        seps = enumerate_separations(cat.prism_graph(), "edge-cut-3")
        nontrivial = [s for s in seps if s.nontrivial]
        assert len(nontrivial) == 1
        assert set(nontrivial[0].cut) == {(0, 3), (1, 4), (2, 5)}

    def test_reassembly(self):
        for G in [cat.b1(), cat.b2(), cat.prism_graph(), k4_ring_graph()]:
            for kind in ("vertex-cut-2", "edge-cut-3"):
                for sep in enumerate_separations(G, kind):
                    p1, p2 = sep.parts
                    edges = set(p1.edges) | set(p2.edges)
                    if kind == "edge-cut-3":
                        edges |= set(sep.cut)
                        assert set(p1.vertices) & set(p2.vertices) == set()
                    else:
                        assert set(p1.vertices) & set(p2.vertices) == set(sep.cut)
                    assert edges == set(G.edges)
                    assert set(p1.vertices) | set(p2.vertices) == set(range(G.n))


class TestSeparationsAgainstScan:
    def test_vertex_cuts_match_the_pair_scan(self):
        graphs = [G for G in decision_corpus(150, seed=57) if G.n >= 4]
        graphs += joined_graphs(100, seed=11)
        graphs += [random_m22_graph(steps, 60 + steps) for steps in range(10, 40, 5)]
        found = 0
        for G in graphs:
            seps = enumerate_separations(G, "vertex-cut-2")
            assert seps == enumerate_separations_scan(G), G
            found += len(seps)
        assert found >= 200

    def test_edge_cuts_match_the_triple_scan(self):
        graphs = [G for G in decision_corpus(150, seed=57) if G.n >= 4]
        graphs += joined_graphs(100, seed=11)
        walks = [random_m22_graph(steps, 60 + steps) for steps in (10, 16, 22, 27)]
        assert max(G.m for G in walks) >= 60
        found = 0
        for G in graphs + walks:
            seps = enumerate_separations(G, "edge-cut-3")
            assert seps == edge_cuts_triple_scan(G), G
            found += len(seps)
        assert found >= 1000

    def test_edge_cuts_build_one_graph_per_pair_and_disconnecting_triple(self, monkeypatch):
        # G - {e, f, g} is disconnected iff G - e - f is, or g is one of its
        # bridges: exactly the triples whose graph is built
        G = random_m22_graph(15, 75)
        assert G.m >= 40
        disconnecting = sum(
            len(components_search(Graph(G.n, G.edges - set(cut)))) > 1
            for cut in itertools.combinations(G.sorted_edges(), 3)
        )
        built = []
        real = Graph.__init__
        monkeypatch.setattr(Graph, "__init__", lambda self, *a: built.append(1) or real(self, *a))
        seps = enumerate_separations(G, "edge-cut-3")
        assert len(built) == math.comb(G.m, 2) + disconnecting
        assert len({s.cut for s in seps}) <= disconnecting < math.comb(G.m, 3) // 100

    def test_each_separation_once(self):
        # each cut is visited once and each split of its components made once
        for G in decision_corpus(60, seed=57) + joined_graphs(20, seed=11):
            if G.n < 4:
                continue
            for kind in ("vertex-cut-2", "edge-cut-3"):
                keys = [
                    (frozenset(p.vertices for p in s.parts), s.cut)
                    for s in enumerate_separations(G, kind)
                ]
                assert len(keys) == len(set(keys))


class TestIsomorphism:
    def test_k5_edge_transitivity(self):
        import itertools as it

        a = cat.k5_minus()
        edges = set(it.combinations(range(5), 2)) - {(0, 1)}
        b = Graph.from_edges(5, edges)
        assert is_isomorphic(a, b)

    def test_different_sizes_and_structure(self):
        assert not is_isomorphic(cat.b1(), cat.b2())
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not is_isomorphic(cat.cycle_graph(6), two_triangles)

    def test_equivalence_relation_spot_checks(self):
        graphs = [cat.b1(), cat.b2(), cat.wheel_graph(5), cat.prism_graph()]
        for G in graphs:
            assert is_isomorphic(G, G)
        perm = [3, 0, 4, 1, 5, 2]
        H = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in cat.b1().edges])
        assert is_isomorphic(cat.b1(), H) and is_isomorphic(H, cat.b1())
        K = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in H.edges])
        assert is_isomorphic(cat.b1(), K)


class TestTransitivity:
    def test_vertex_transitive(self):
        assert is_vertex_transitive(cat.complete_graph(6))
        assert is_vertex_transitive(cat.cycle_graph(6))
        assert not is_vertex_transitive(cat.wheel_graph(5))

    def test_edge_transitive(self):
        assert is_edge_transitive(cat.complete_bipartite(3, 4))
        # triangle edges sit in triangles, matching edges do not
        assert not is_edge_transitive(cat.prism_graph())
        assert is_edge_transitive(cat.complete_graph(5))

    def test_one_colouring_per_test(self, monkeypatch):
        calls = []
        real = graphs._wl_colors
        monkeypatch.setattr(graphs, "_wl_colors", lambda G: calls.append(G) or real(G))
        for G in [cat.complete_graph(6), cat.cycle_graph(6), cat.wheel_graph(5),
                  cat.complete_bipartite(3, 4), cat.prism_graph(), cat.complete_graph(5)]:
            for test in (is_vertex_transitive, is_edge_transitive):
                calls.clear()
                test(G)
                assert calls == [G]

    def test_pinned_search_matches_the_old_automorphism_search(self):
        # pins of the shapes the transitivity tests use: one vertex onto any
        # vertex, and an edge onto either orientation of an edge; on six
        # vertices every edge pair is pinned, on the corpus the first edge
        # onto every edge, as is_edge_transitive pins them
        small = graphs_up_to_iso(6)
        checked = 0
        for G in small + decision_corpus(100, seed=61):
            pins = [{}] + [{u: v} for u in range(G.n) for v in range(G.n)]
            edges = G.sorted_edges()
            sources = edges if G in small else edges[:1]
            pins += [{a: x, b: y} for a, b in sources for e in edges for x, y in (e, e[::-1])]
            for pin in pins:
                found = _isomorphism(G, G, pin)
                assert found == automorphism_with_pins(G, pin)
                checked += found is not None
        assert checked > 1000
