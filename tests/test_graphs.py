import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from planerigidity import catalog as cat
from planerigidity import graphs
from planerigidity.graphs import (
    Graph,
    _edge_connectivity_upto3,
    _isomorphism,
    _lowpoint_dfs,
    _min_st_edge_cut,
    _no_separation_pair,
    edge_connectivity,
    enumerate_separations,
    find_isomorphism,
    first_cut_vertex,
    is_edge_transitive,
    is_isomorphic,
    is_k_connected,
    is_vertex_transitive,
)
from planerigidity.moves import random_m22_graph, reduce_to_base
from planerigidity.randomgraphs import gnp_graph, random_regular_graph

import oracles
from corpus import benchmark_graphs, decision_corpus, joined_graphs, k4_ring_graph
from oracles import (
    all_labeled_graphs,
    automorphism_with_pins,
    components_search,
    connected_order,
    edge_connectivity_dominating_flows,
    edge_connectivity_unpruned,
    edge_connectivity_upto3_bfs,
    edge_cuts_triple_scan,
    edges_on_common_cycles,
    enumerate_separations_scan,
    extend_isomorphism_recursive,
    first_cut_vertex_scan,
    graphs_up_to_iso,
    is_3_connected_by_deletions,
    is_edge_transitive_by_search,
    is_k_connected_cut_scan,
    is_vertex_transitive_by_search,
    min_st_edge_cut_residual,
    no_separation_pair_dfs1,
    rarity_order,
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

    def test_add_and_remove_edge_refusals(self):
        # K5- lacks the edge 34 alone
        G = cat.k5_minus()
        with pytest.raises(ValueError, match=r"^edge \(1,0\) already present$"):
            G.add_edge(1, 0)
        with pytest.raises(ValueError, match=r"^edge \(4,3\) not present$"):
            G.remove_edge(4, 3)
        assert G.add_edge(4, 3) == cat.complete_graph(5)
        assert G.remove_edge(1, 0).m == G.m - 1

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
    @pytest.mark.parametrize("k", [0, 4])
    def test_bad_k_refused(self, k):
        with pytest.raises(ValueError, match="^k must be 1, 2 or 3$"):
            is_k_connected(cat.k5_minus(), k)

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_graph_refused(self, k):
        with pytest.raises(ValueError, match="^empty graph$"):
            is_k_connected(Graph.from_edges(0, []), k)


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
        comps, cuts, blocks, _ = _lowpoint_dfs(cat.bowtie())
        assert (len(comps) == 1, cuts) == (True, [0])
        assert comps == [{0, 1, 2, 3, 4}] and _block_sets(blocks) == [{0, 1, 2}, {0, 3, 4}]
        assert [b[0] for b in blocks] == [0, 0]
        comps, cuts, blocks, _ = _lowpoint_dfs(cat.bowtie(), (0,))
        assert (len(comps) == 1, cuts) == (False, [])
        assert comps == [{1, 2}, {3, 4}] and _bridges(blocks) == [(1, 2), (3, 4)]
        W = cat.wheel_graph(5)
        hub = max(range(W.n), key=W.degree)
        comps, cuts, blocks, _ = _lowpoint_dfs(W, (hub,))
        assert (len(comps) == 1, cuts) == (True, [])
        assert comps == [{1, 2, 3, 4, 5}] and _block_sets(blocks) == [{1, 2, 3, 4, 5}]
        comps, cuts, blocks, _ = _lowpoint_dfs(cat.cycle_graph(5), (0,))
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
        comps, cuts, blocks, _ = _lowpoint_dfs(G, drop)
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


def _dfs_by_recursion(G, drop):
    """The DFS tree by its definition: a recursive search over G.adj in its
    order, the roots tried in increasing order, the dropped vertices never
    entered; (order, father) with father -1 at a root."""
    order, father = [], {}

    def visit(v, p):
        order.append(v)
        father[v] = p
        for w in G.adj[v]:
            if w not in father and w not in drop:
                visit(w, v)

    for r in range(G.n):
        if r not in father and r not in drop:
            visit(r, -1)
    return order, father


def _two_wheels(k):
    """Two wheels with k rim vertices each (k odd; hubs 0 and k + 1) that
    share the opposite rim vertices 1 and (k + 1) / 2: n = 2k, m = 4k."""
    s = (k + 1) // 2
    edges = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    rim = [1, *range(k + 2, k + s), s, *range(k + s, 2 * k)]
    edges += [(k + 1, v) for v in rim] + list(zip(rim, rim[1:] + rim[:1]))
    return Graph.from_edges(2 * k, edges)


def _assert_matches_own_searches(graphs):
    # the readers of G's one DFS tree against their earlier versions, each
    # with a spanning search of its own; returns how often the path search
    # ran and how often it found a separating pair
    ran = separated = 0
    for G in graphs:
        assert _edge_connectivity_upto3(G) == edge_connectivity_upto3_bfs(G), G
        if G.n >= 4 and not G.is_complete() and is_k_connected(G, 2):
            found = _no_separation_pair(G)
            assert found == no_separation_pair_dfs1(G), G
            ran += 1
            separated += not found
    return ran, separated


class _Neighbours(frozenset):
    """A neighbour set that counts the times it is iterated."""

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class TestOneSpanningSearch:
    """The path search and the edge-connectivity cut labels read G's one
    lowpoint DFS (`Graph._lowpoint_dfs`); their earlier versions, each with
    a search of its own, are the oracles `no_separation_pair_dfs1` and
    `edge_connectivity_upto3_bfs`."""

    def test_decision_corpus(self):
        ran, separated = _assert_matches_own_searches(decision_corpus(300, seed=5))
        assert 0 < separated < ran

    def test_every_labelled_graph_up_to_six_vertices(self):
        ran = separated = 0
        for n in range(1, 7):
            r, s = _assert_matches_own_searches(all_labeled_graphs(n))
            ran, separated = ran + r, separated + s
        assert 0 < separated < ran

    def test_relabelled_m22_walks(self):
        rng = random.Random(25)
        walks = [relabelled(random_m22_graph(steps, 250 + steps), rng) for steps in (80, 160, 320)]
        assert _assert_matches_own_searches(walks)[0] == 3

    def test_two_wheels_sharing_two_rim_vertices(self):
        # the pair {1, (k + 1) / 2} separates and every degree is at least
        # 3; at these k (not at all: it depends on the adjacency order)
        # step 2 passes, and only the path search's type-2 test finds the
        # pair
        for k in (9, 15, 3999):
            G = _two_wheels(k)
            assert (G.n, G.m, G.min_degree()) == (2 * k, 4 * k, 3)
            assert _assert_matches_own_searches([G]) == (1, 1)
            order, num, father, nd, low, low2 = G._lowpoint_dfs[3]
            assert not any(
                low2[v] >= num[father[v]] > low[v] and G.n - nd[v] >= 3 for v in order[1:]
            )

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(8), st.data())
    def test_tree_records_match_their_definitions(self, G, data):
        # with the vertices in `drop` deleted: the discovery order and the
        # fathers are those of a recursive DFS, nd(v) is the size of the
        # subtree of v, and with E(v) the numbers of the ends of the fronds
        # (non-tree edges to an ancestor) leaving the subtree of v,
        # low(v) = min({num(v)} | E(v)) and low2(v) = min({num(v)} |
        # E(v) - {low(v)})
        drop = data.draw(st.sets(st.integers(0, G.n - 1), max_size=3))
        order, num, father, nd, low, low2 = _lowpoint_dfs(G, drop)[3]
        want_order, want_father = _dfs_by_recursion(G, drop)
        assert order == want_order
        assert [num[v] for v in order] == list(range(1, len(order) + 1))
        assert all(num[v] == G.n + 1 for v in drop)
        assert {v: father[v] for v in order} == want_father
        subtree = {v: {v} for v in order}
        for v in order:
            u = father[v]
            while u >= 0:
                subtree[u].add(v)
                u = father[u]
        for v in order:
            assert nd[v] == len(subtree[v])
            ends = {
                num[y] for x in subtree[v] for y in G.adj[x]
                if y not in drop and num[y] < num[x] and y != father[x]
            }
            assert low[v] == min(ends | {num[v]})
            assert low2[v] == min(ends - {low[v]} | {num[v]})

    def test_a_decision_runs_one_spanning_search(self, monkeypatch):
        # every neighbour set is read once by the DFS; from then on the
        # sets count their reads, and the decision reads each once more,
        # when `_no_separation_pair` lists the arcs of its vertex: a second
        # spanning search would read every set again.  The graphs have
        # least degree 3, so no flow and no transitivity search runs, and
        # the path search runs on each (to its end on the 3-connected ones).
        # The edge-connectivity cut labels serve the sufficient conditions,
        # which run only on a positive verdict: the two wheels and K5- run
        # them once, from the tree kept on G, and the three cubic graphs,
        # negative, not at all
        from planerigidity.decide import is_globally_rigid_analytic

        calls = {"dfs": 0, "pairs": 0, "labels": 0}
        real = {
            "dfs": graphs._lowpoint_dfs,
            "pairs": graphs._no_separation_pair,
            "labels": graphs._edge_connectivity_upto3,
        }

        def dfs(G, drop=()):
            calls["dfs"] += 1
            out = real["dfs"](G, drop)
            G.__dict__["adj"] = tuple(_Neighbours(s) for s in G.adj)
            for s in G.adj:
                s.reads = 0
            return out

        def counted(name):
            def call(G):
                calls[name] += 1
                return real[name](G)
            return call

        monkeypatch.setattr(graphs, "_lowpoint_dfs", dfs)
        monkeypatch.setattr(graphs, "_no_separation_pair", counted("pairs"))
        monkeypatch.setattr(graphs, "_edge_connectivity_upto3", counted("labels"))
        cases = [
            (_prism(8), True, False), (_two_wheels(9), False, True),
            (random_regular_graph(20, 3, 4), True, False),
            (random_regular_graph(14, 3, 8), True, False),
            (cat.k5_minus(), True, True),
        ]
        for G, three_connected, positive in cases:
            G = Graph(G.n, G.edges)  # fresh: no DFS kept on it
            calls.update(dfs=0, pairs=0, labels=0)
            assert is_globally_rigid_analytic(G).globally_rigid_analytic == positive
            assert calls == {"dfs": 1, "pairs": 1, "labels": int(positive)}
            assert [s.reads for s in G.adj] == [1] * G.n
            # the k = 3 answer is read from the tree kept on G
            assert is_k_connected(G, 3) == three_connected
            assert calls["dfs"] == 1


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

    @pytest.mark.parametrize("kind", ["vertex-cut-2", "edge-cut-3"])
    def test_fewer_than_four_vertices_refused(self, kind):
        with pytest.raises(ValueError, match="^separation enumeration needs n >= 4$"):
            enumerate_separations(cat.complete_graph(3), kind)

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

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="^unknown separation kind 'edge-cut-2'$"):
            enumerate_separations(cat.k5_minus(), "edge-cut-2")


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


    def test_iterative_search_matches_the_recursion(self, monkeypatch):
        # every search of the corpus, plain and pinned, finds the mapping
        # the recursive backtracking finds, with its items in the same
        # order, after as many accepted candidates: the recursion calls
        # itself once per accepted candidate, and the search reads G.adj
        # once per level it enters, the first and one after each accepted
        # candidate that leaves the map incomplete
        real = graphs._extend_isomorphism
        found, calls = [], []
        monkeypatch.setattr(oracles, "extend_isomorphism_recursive",
                            lambda *a: calls.append(1) or extend_isomorphism_recursive(*a))

        class Counted:
            def __init__(self, G):
                self.G, self.n, self.reads = G, G.n, 0

            @property
            def adj(self):
                self.reads += 1
                return self.G.adj

        def both(G, H, cg, ch, pins, order):
            counted = Counted(G)
            got = real(counted, H, cg, ch, pins, order)
            calls.clear()
            want = extend_isomorphism_recursive(G, H, cg, ch, pins, {}, set(), order)
            assert (got and list(got.items())) == (want and list(want.items()))
            assert counted.reads == 1 + len(calls) - (got is not None)
            found.append(got is not None)
            return got

        monkeypatch.setattr(graphs, "_extend_isomorphism", both)
        rng = random.Random(29)
        small = graphs_up_to_iso(6)
        corpus = small + decision_corpus(100, seed=29)
        for G in corpus:
            is_isomorphic(G, relabelled(G, rng))
            is_vertex_transitive(G)
            is_edge_transitive(G)
        for G, H in itertools.combinations(small, 2):
            is_isomorphic(G, H)
        assert sum(found) > 500 and not all(found)
        # pairs that agree on n, m and the degrees but are not isomorphic
        # reach the search and fail in it
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for G, H in [(cat.cycle_graph(6), two_triangles),
                     (cat.prism_graph(), cat.complete_bipartite(3, 3))]:
            found.clear()
            assert not is_isomorphic(G, H) and not is_isomorphic(H, G)
            assert found == [False, False]
        # the base searches of `reduce`: every benchmark reduction's final
        # graph against K5- and B1, one of which it matches
        finals = [reduce_to_base(G).final for G in benchmark_graphs("reduce-m22").values()]
        found.clear()
        for F in finals:
            assert is_isomorphic(F, cat.k5_minus()) != is_isomorphic(F, cat.b1())
        assert len(found) == len(finals) == 100 and all(found)

    def test_a_cycle_deeper_than_the_recursion_limit(self):
        # the recursion this search replaced failed on C1200, one level per
        # vertex; a relabelled copy matched with itself puts the vertices of
        # the search order at random places on the cycle
        import sys

        C = cat.cycle_graph(1200)
        assert C.n > sys.getrecursionlimit()
        assert find_isomorphism(C, C) == {v: v for v in range(C.n)}
        R = relabelled(C, random.Random(12))
        assert R != C and find_isomorphism(R, R) == {v: v for v in range(R.n)}
        assert is_isomorphic(C, C) and is_isomorphic(R, R)
        assert not is_isomorphic(C, cat.cycle_graph(1201))
        # C1200 and W400 against relabelled copies, whose labels disagree:
        # a wrong candidate image is refused by its mapped neighbours alone,
        # where a test against every mapped vertex made C1200 take a minute
        for G in (C, cat.wheel_graph(400)):
            R = relabelled(G, random.Random(30))
            start = time.perf_counter()
            f = find_isomorphism(G, R)
            assert time.perf_counter() - start < 10
            assert f is not None and sorted(f.values()) == list(range(G.n))
            assert all(R.has_edge(f[u], f[v]) for u, v in G.edges)


    def test_a_shuffled_cycle_against_the_cycle(self):
        # the relabelled copy first: its search order follows its edges, so
        # each vertex after the first has a mapped neighbour, where the
        # order by key alone backtracked exponentially (15 s at n = 22 with
        # this shuffle)
        for n in (24, 1200):
            C = cat.cycle_graph(n)
            R = relabelled(C, random.Random(12))
            start = time.perf_counter()
            f = find_isomorphism(R, C)
            assert time.perf_counter() - start < 2
            assert f is not None and sorted(f.values()) == list(range(n))
            assert all(C.has_edge(f[u], f[v]) for u, v in R.edges)

    def test_base_searches_keep_the_old_mappings(self):
        # `reduce` reads a mapping only at K5- or B1: against every
        # relabelling of either, both ways, the connected order finds the
        # mapping the order by key alone found
        for base in (cat.k5_minus(), cat.b1()):
            for perm in itertools.permutations(range(base.n)):
                R = Graph.from_edges(base.n, [(perm[u], perm[v]) for u, v in base.edges])
                for A, B in ((R, base), (base, R)):
                    cg, ch = A._colouring[0], B._colouring[0]
                    old = graphs._extend_isomorphism(A, B, cg, ch, {}, rarity_order(A, cg, {}))
                    assert old is not None and find_isomorphism(A, B) == old

    def test_neighbour_candidates_match_the_recursion_at_scale(self):
        # past the small corpus: reduction walks against relabelled copies,
        # both ways, and a cycle and a wheel matched in their own label
        # order, give the recursion's mapping, item for item (a cycle in a
        # random order makes both backtrack exponentially)
        rng = random.Random(31)
        walks = [random_m22_graph(steps, 3100 + steps) for steps in (10, 25, 50, 100)]
        for G in walks + [cat.cycle_graph(200), cat.wheel_graph(100)]:
            R = relabelled(G, rng)
            pairs = ((G, R), (R, G), (R, R)) if G in walks else ((G, R), (R, R))
            for A, B in pairs:
                cg, ch = A._colouring[0], B._colouring[0]
                freq = Counter(cg)
                order = sorted(range(A.n), key=lambda v: (freq[cg[v]], -A.degree(v), v))
                got = graphs._extend_isomorphism(A, B, cg, ch, {}, order)
                want = extend_isomorphism_recursive(A, B, cg, ch, {}, {}, set(), order)
                assert got is not None and list(got.items()) == list(want.items())

    def test_a_vertex_with_a_mapped_neighbour_tries_only_its_neighbours(self):
        # C4800 against a relabelled copy, matched in its own label order,
        # so every vertex after the first has a mapped neighbour: each level
        # reads the colour of at most two candidates, the neighbours of one
        # image, where trying every vertex of H read about n^2 / 2
        class Reads(list):
            count = 0

            def __getitem__(self, i):
                Reads.count += 1
                return list.__getitem__(self, i)

        C = cat.cycle_graph(4800)
        R = relabelled(C, random.Random(12))
        cg, ch = C._colouring[0], Reads(R._colouring[0])
        f = graphs._extend_isomorphism(C, R, cg, ch, {}, list(range(C.n)))
        assert f is not None and all(R.has_edge(f[u], f[v]) for u, v in C.edges)
        assert Reads.count <= C.n + 2 * (C.n - 1)

    def test_two_empty_graphs(self):
        # the empty map is the one bijection between two graphs on no vertex
        empty = Graph.from_edges(0, [])
        assert find_isomorphism(empty, Graph.from_edges(0, [])) == {}
        assert find_isomorphism(empty, Graph.from_edges(1, [])) is None


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

    def test_against_the_automorphism_search(self):
        # the degree refutations answer as the search would, on every graph
        # of at most six vertices
        graphs = [G for n in range(1, 7) for G in graphs_up_to_iso(n)]
        vertex = [is_vertex_transitive(G) for G in graphs]
        edge = [is_edge_transitive(G) for G in graphs]
        assert vertex == [is_vertex_transitive_by_search(G) for G in graphs]
        assert edge == [is_edge_transitive_by_search(G) for G in graphs]
        assert 10 < sum(vertex) < len(graphs) - 10
        assert 10 < sum(edge) < len(graphs) - 10

    @staticmethod
    def _searches(monkeypatch):
        calls = []
        real = graphs._isomorphism
        monkeypatch.setattr(graphs, "_isomorphism", lambda *a: calls.append(1) or real(*a))
        return calls

    def test_degrees_refute_before_any_search(self, monkeypatch):
        # the wheel is not regular and its rim and spokes have end degrees
        # (3, 3) and (3, 5), so neither test colours it or searches
        calls = self._searches(monkeypatch)
        W = cat.wheel_graph(5)
        assert not is_vertex_transitive(W) and not is_edge_transitive(W)
        assert calls == [] and "_colouring" not in W.__dict__

    def test_k34_stays_edge_transitive(self, monkeypatch):
        # every edge of K3,4 has end degrees 3 and 4: one sorted pair, so
        # the search decides, and it maps the least edge onto every edge
        calls = self._searches(monkeypatch)
        K = cat.complete_bipartite(3, 4)
        assert not is_vertex_transitive(K)
        assert calls == []
        assert is_edge_transitive(K)
        assert len(calls) == K.m - 1

    def test_a_regular_graph_is_refuted_by_the_search(self, monkeypatch):
        # C3 + C4 is 2-regular and all its colours agree, yet no
        # automorphism maps a triangle vertex into the square
        calls = self._searches(monkeypatch)
        G = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        assert len(set(G._colouring[0])) == 1
        assert not is_vertex_transitive(G) and not is_vertex_transitive_by_search(G)
        assert calls

    def test_one_colouring_per_graph(self, monkeypatch):
        # the colours are a cached fact of each Graph instance: both
        # transitivity tests and the plain searches against every partner
        # colour an instance once in all, and an equal graph built
        # elsewhere (complete_graph(5) and its relabelled copy) its own
        calls = []
        real = graphs._wl_colors
        monkeypatch.setattr(graphs, "_wl_colors", lambda G: calls.append(G) or real(G))
        rng = random.Random(30)
        pool = [cat.complete_graph(6), cat.cycle_graph(6), cat.wheel_graph(5),
                cat.complete_bipartite(3, 4), cat.prism_graph(), cat.complete_graph(5),
                cat.k5_minus(), cat.b1()]
        pool += [relabelled(G, rng) for G in pool]
        for G in pool:
            is_vertex_transitive(G)
            is_edge_transitive(G)
            for H in pool:
                find_isomorphism(G, H)
        assert sorted(map(id, calls)) == sorted(map(id, pool))

    @staticmethod
    def pinned_searches():
        """(G, pins) of the shapes the transitivity tests use: one vertex
        onto any vertex, and an edge onto either orientation of an edge; on
        six vertices every edge pair is pinned, on the corpus the first
        edge onto every edge, as is_edge_transitive pins them."""
        small = graphs_up_to_iso(6)
        for G in small + decision_corpus(100, seed=61):
            pins = [{}] + [{u: v} for u in range(G.n) for v in range(G.n)]
            edges = G.sorted_edges()
            sources = edges if G in small else edges[:1]
            pins += [{a: x, b: y} for a, b in sources for e in edges for x, y in (e, e[::-1])]
            for pin in pins:
                yield G, pin

    def test_pinned_search_matches_the_old_automorphism_search(self):
        # in the old search's own order, the search gives its automorphism
        checked = 0
        for G, pin in self.pinned_searches():
            cg = G._colouring[0]
            found = graphs._extend_isomorphism(G, G, cg, cg, pin, rarity_order(G, cg, pin))
            assert found == automorphism_with_pins(G, pin)
            checked += found is not None
        assert checked > 1000

    def test_connected_pinned_search_agrees_with_the_old_search(self, monkeypatch):
        # in the connected order, the search finds a map exactly when the
        # old one does, and each map is an automorphism extending its pins
        # (on a few pins a different one); the order is that of its
        # definition, and each vertex after the pins has a placed neighbour
        # unless no unplaced vertex has one
        orders = []
        real = graphs._extend_isomorphism
        monkeypatch.setattr(graphs, "_extend_isomorphism", lambda *a: orders.append(a[5]) or real(*a))
        checked = searched = 0
        for G, pin in self.pinned_searches():
            orders.clear()
            found = _isomorphism(G, G, pin)
            assert (found is None) == (automorphism_with_pins(G, pin) is None)
            if found is not None:
                checked += 1
                assert sorted(found.values()) == list(range(G.n))
                assert all(found[v] == w for v, w in pin.items())
                assert all(G.has_edge(found[u], found[v]) for u, v in G.edges)
            if not orders:  # refused before the search
                continue
            searched += 1
            (order,) = orders
            assert order == connected_order(G, G._colouring[0], pin)
            placed = set(pin)
            for v in order[len(pin):]:
                if placed.isdisjoint(G.adj[v]):
                    assert all(placed.isdisjoint(G.adj[w]) for w in range(G.n) if w not in placed)
                placed.add(v)
        assert checked > 1000 and searched > checked
