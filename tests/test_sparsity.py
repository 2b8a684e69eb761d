import itertools
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from planerigidity import catalog as cat
from planerigidity import moves, sparsity
from planerigidity.formats import parse_graph6
from planerigidity.graphs import Graph, is_k_connected
from planerigidity.moves import random_m22_graph, reduce_to_base
from planerigidity.randomgraphs import gnp_graph
from planerigidity.sparsity import (
    PebbleGame,
    _rank_and_coloops,
    _sorted_game,
    ear_decomposition,
    fundamental_circuit,
    is_circuit22,
    is_m22_connected,
    is_sparse,
    is_tight,
    m22_components,
    rank2k,
    take_m22_game,
)

from corpus import benchmark_graphs, decision_corpus, experiment_graphs
from oracles import (
    PebbleGameDictSearch,
    basis_and_circuits,
    circuit_by_reach,
    circuits_brute,
    coloops_leave_one_out,
    components_brute,
    components_by_edge_circuits,
    components_multipass,
    ear_decomposition_games,
    ear_decomposition_rescan,
    fundamental_circuit_of_rejected,
    is_circuit_brute,
    is_circuit22_by_edge_circuit,
    is_circuit22_leave_one_out,
    is_m22_connected_edge_circuits,
    is_sparse_brute,
    rank_and_coloops,
    rank_brute,
    rank_by_stopped_game,
)


class TestRank:
    def test_spec_examples(self):
        assert rank2k(cat.complete_graph(4).edges, 2) == 6
        assert rank2k(cat.k5_minus().edges, 2) == 8
        assert rank2k(cat.complete_bipartite(3, 3).edges, 3) == 9

    @pytest.mark.parametrize("k", range(4))
    def test_graph_and_edge_list_agree_with_the_stopped_game(self, k):
        # a Graph is read through its own sorted game, an edge list through
        # the sorted game of the graph it spans; the oracle stops its own
        # game at the rank bound
        for G in decision_corpus(300, seed=5):
            rank = rank2k(G, k)
            assert rank2k(list(G.edges), k) == rank == rank_by_stopped_game(G.edges, k)
            if G.n <= 6:
                assert rank == rank_brute(G.edges, k)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_lists_with_gaps_repeats_and_reversals(self, data):
        # labels with gaps between them, pairs listed twice or reversed
        labels = data.draw(st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True))
        pairs = list(itertools.permutations(labels, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=24))
        k = data.draw(st.integers(0, 3))
        rank = rank2k(edges, k)
        G = Graph.from_edges(1 + max(labels), edges)
        assert rank2k(G, k) == rank == rank_by_stopped_game(edges, k) == rank_brute(edges, k)

    def test_pebble_invariant(self):
        game = PebbleGame(5, 2)
        for e in sorted(cat.k5_minus().edges):
            game.insert(*e)
        assert sum(game.pebbles) + len(game.accepted) == 2 * 5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_order_independent(self, data):
        n = data.draw(st.integers(3, 7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
        k = data.draw(st.integers(0, 3))
        base = rank2k(sorted(edges), k)
        perm = data.draw(st.permutations(sorted(edges)))
        assert rank2k(perm, k) == base

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_bruteforce(self, data):
        n = data.draw(st.integers(2, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
        k = data.draw(st.integers(0, 3))
        assert rank2k(edges, k) == rank_brute(edges, k)

    def test_monotone_and_submodular_spot(self):
        rng = random.Random(5)
        pairs = list(itertools.combinations(range(7), 2))
        for _ in range(40):
            a = set(rng.sample(pairs, rng.randint(1, 10)))
            b = set(rng.sample(pairs, rng.randint(1, 10)))
            ra, rb = rank2k(a, 2), rank2k(b, 2)
            ru, ri = rank2k(a | b, 2), rank2k(a & b, 2) if a & b else 0
            assert ra <= ru and rb <= ru
            assert ru + ri <= ra + rb


class TestPebbleSearch:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_every_insert_against_brute_force(self, data):
        # the search may stop at any free pebble it reaches; the invariant,
        # the greedy basis and each circuit read at a rejection must not care
        n = data.draw(st.integers(2, 6))
        pairs = list(itertools.combinations(range(n), 2))
        order = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        k = data.draw(st.integers(0, 3))
        game = PebbleGame(n, k)
        greedy = []
        brute = None
        for f in order:
            accepted = game.insert(*f)
            assert accepted == is_sparse_brute(greedy + [f], k)
            if accepted:
                greedy.append(f)
            assert game.accepted == greedy
            assert all(game.pebbles[v] + len(game.out[v]) == 2 for v in range(n))
            if not accepted and k == 2:
                if brute is None:
                    brute = circuits_brute(Graph.from_edges(n, order))
                inside = set(greedy) | {f}
                circ = fundamental_circuit_of_rejected(game, *f)
                assert [c for c in brute if c <= inside] == [circ]


def _region(game):
    _, seen_u, seen_v = game.rejected
    return frozenset(seen_u).union(seen_v)


def _oracle_sorted_game(G, k):
    """The sorted game of G played by the dict-search game: its basis in
    order and the region of each rejected edge."""
    game, regions = PebbleGameDictSearch(G.n, k), {}
    for e in G.sorted_edges():
        if not game.insert(*e):
            regions[e] = _region(game)
    return game.accepted, regions


class TestSearchAgainstTheDictSearch:
    @staticmethod
    def _sound(game):
        # the invariant, with each out-list at most two distinct heads
        for v in range(game.n):
            assert game.pebbles[v] + len(game.out[v]) == 2
            assert len(set(game.out[v])) == len(game.out[v]) <= 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_insert_against_the_dict_search(self, data):
        # fresh games, and games seeded from one parent's orientation (the
        # identity, or relabelled with dropped vertices); the breadth-first
        # search may pull other pebbles than the depth-first one, but every
        # answer, the basis in order and every region must be the same
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(0, 3))
        pairs = list(itertools.combinations(range(n), 2))
        game, oracle = PebbleGame(n, k), PebbleGameDictSearch(n, k)
        if data.draw(st.booleans()):
            parent = PebbleGame(n, k)
            for e in data.draw(st.permutations(pairs))[:data.draw(st.integers(0, len(pairs)))]:
                parent.insert(*e)
            relabel = None
            if data.draw(st.booleans()):
                perm = data.draw(st.permutations(range(n)))
                dropped = data.draw(st.sets(st.sampled_from(range(n))))
                relabel = {x: y for x, y in enumerate(perm) if x not in dropped}
            edges = frozenset(data.draw(st.sets(st.sampled_from(pairs))))
            game.seed(parent, relabel, edges)
            oracle.seed(parent, relabel, edges)
            assert game.accepted == oracle.accepted
            if relabel is None:  # the identity branch is the identity map
                twin = PebbleGame(n, k)
                twin.seed(parent, dict(enumerate(range(n))), edges)
                assert (twin.out, twin.pebbles, twin.accepted) == (
                    game.out, game.pebbles, game.accepted
                )
        self._sound(game)
        for e in data.draw(st.permutations(pairs)):
            if e in game.accepted:
                continue
            got = game.insert(*e)
            assert got == oracle.insert(*e)
            if not got:
                assert _region(game) == _region(oracle)
                assert fundamental_circuit_of_rejected(game, *e) == (
                    oracle.fundamental_circuit_of_rejected(*e)
                )
            assert game.accepted == oracle.accepted
            self._sound(game)

    def test_sorted_games_of_the_benchmark_inputs(self):
        # every graph a workload reads, as a (2,2) and a (2,3) sorted game
        graphs = list(benchmark_graphs().values()) + experiment_graphs()
        assert len(graphs) == 500
        rejected = 0
        for G in graphs:
            for k in (2, 3):
                game, regions, classes = _sorted_game(G, k)
                assert (game.accepted, regions) == _oracle_sorted_game(G, k)
                assert classes == sparsity._region_classes(regions.values())
                rejected += len(regions)
        assert rejected > 1000


class _UFirstGame(PebbleGame):
    """The game with the earlier tail rule: an accepted edge leaves u
    whenever u holds a free pebble.  The edge just accepted is v -> u only
    if it left v, so turning it back charges u, as that rule did."""

    def insert(self, u, v):
        accepted = super().insert(u, v)
        if accepted and self.out[v] and self.out[v][-1] == u and self.pebbles[u]:
            self.out[v].pop()
            self.pebbles[v] += 1
            self.out[u].append(v)
            self.pebbles[u] -= 1
        return accepted


class TestTailRule:
    """An accepted edge leaves its later end v if v holds a free pebble."""

    def test_a_fresh_edge_leaves_v(self):
        game = PebbleGame(2, 2)
        assert game.insert(0, 1)
        assert game.out[1] == [0] and game.out[0] == []
        assert game.pebbles == [2, 1]

    def test_u_pays_when_v_holds_no_pebble(self):
        # at k = 0 one pebble suffices, so no search runs: vertex 3 spends
        # both of its pebbles on (0, 3) and (1, 3), and (2, 3) leaves 2
        game = PebbleGame(4, 0)
        for e in ((0, 3), (1, 3), (2, 3)):
            assert game.insert(*e)
        assert game.out == [[], [], [3], [0, 1]]
        assert game.pebbles == [2, 2, 1, 0]

    def test_no_more_searches_than_charging_u(self):
        # the sorted games of the check-m22 inputs: the same basis and
        # regions as the earlier rule, and no game makes more searches (a
        # search is one stamp); in all they make fewer
        ours = theirs = 0
        for name, G in benchmark_graphs("check-m22").items():
            for k in (2, 3):
                game, regions = sparsity._play(G.sorted_edges(), PebbleGame(G.n, k))
                old, old_regions = sparsity._play(G.sorted_edges(), _UFirstGame(G.n, k))
                assert (game.accepted, regions) == (old.accepted, old_regions), (name, k)
                assert game._stamp <= old._stamp, (name, k)
                ours, theirs = ours + game._stamp, theirs + old._stamp
        assert ours < theirs


class TestCircuitRecord:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_read_equals_the_reach_walk_and_is_a_circuit(self, data):
        # fresh games and games seeded from another game's orientation; the
        # circuit is read from the searches that rejected the edge, and the
        # earlier walk of the reachable region must give the same set
        n = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(0, 3))
        pairs = list(itertools.combinations(range(n), 2))
        game = PebbleGame(n, k)
        if data.draw(st.booleans()):
            parent = PebbleGame(n, k)
            for e in data.draw(st.permutations(pairs))[:data.draw(st.integers(0, len(pairs)))]:
                parent.insert(*e)
            relabel = dict(enumerate(data.draw(st.permutations(range(n)))))
            dropped = data.draw(st.sets(st.sampled_from(range(n))))
            relabel = {x: y for x, y in relabel.items() if x not in dropped}
            game.seed(parent, relabel, frozenset(pairs))
        for e in data.draw(st.permutations(pairs)):
            if e in game.accepted or game.insert(*e):
                continue
            circ = fundamental_circuit_of_rejected(game, *e)
            assert circ == circuit_by_reach(game, *e)
            assert e in circ and circ - {e} <= set(game.accepted)
            assert is_circuit_brute(sorted(circ), k)

    @staticmethod
    def _k5_minus_rejected():
        # K4 on 0..3 plus 04 and 14 is tight (2n - 2 = 8 edges), so 24 is
        # rejected and closes the circuit K5 - 34; vertex 5 leaves room for 45
        game = PebbleGame(6, 2)
        for e in list(itertools.combinations(range(4), 2)) + [(0, 4), (1, 4)]:
            assert game.insert(*e)
        assert not game.insert(4, 2)
        return game

    def test_read_of_the_rejected_edge(self):
        game = self._k5_minus_rejected()
        K5_minus = frozenset(itertools.combinations(range(5), 2)) - {(3, 4)}
        assert fundamental_circuit_of_rejected(game, 2, 4) == K5_minus
        assert fundamental_circuit_of_rejected(game, 4, 2) == K5_minus

    def test_read_on_a_fresh_game_raises(self):
        with pytest.raises(ValueError, match="not the edge the last insert rejected"):
            fundamental_circuit_of_rejected(PebbleGame(4, 2), 0, 1)

    def test_read_of_an_accepted_edge_raises(self):
        game = PebbleGame(4, 2)
        assert game.insert(0, 1)
        with pytest.raises(ValueError, match="not the edge the last insert rejected"):
            fundamental_circuit_of_rejected(game, 0, 1)
        game = self._k5_minus_rejected()
        with pytest.raises(ValueError, match="not the edge the last insert rejected"):
            fundamental_circuit_of_rejected(game, 1, 4)

    def test_read_after_a_later_accepted_insert_raises(self):
        game = self._k5_minus_rejected()
        assert game.insert(4, 5)
        with pytest.raises(ValueError, match="not the edge the last insert rejected"):
            fundamental_circuit_of_rejected(game, 2, 4)

    def test_read_after_a_later_rejected_insert_raises(self):
        game = self._k5_minus_rejected()
        assert not game.insert(3, 4)
        with pytest.raises(ValueError, match="not the edge the last insert rejected"):
            fundamental_circuit_of_rejected(game, 2, 4)
        circ = fundamental_circuit_of_rejected(game, 3, 4)
        assert circ == circuit_by_reach(game, 3, 4) and is_circuit_brute(sorted(circ))


class TestWarmCheck:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_seeds_keep_the_invariant_and_the_game_stays_exact(self, data):
        # a parent game, a move's relabelling (some vertices dropped, the rest
        # renumbered injectively) and a child edge set holding some images
        n = data.draw(st.integers(3, 6))
        k = data.draw(st.integers(0, 3))
        order = data.draw(st.lists(
            st.sampled_from(list(itertools.combinations(range(n), 2))), min_size=1, unique=True
        ))
        parent = PebbleGame(n, k)
        for e in order:
            parent.insert(*e)
        if data.draw(st.booleans()):
            relabel, n_child = None, n
        else:
            kept = data.draw(st.lists(st.sampled_from(range(n)), min_size=2, unique=True))
            n_child = data.draw(st.integers(len(kept), 6))
            relabel = dict(zip(kept, data.draw(st.permutations(range(n_child)))))
        f = (lambda x: x) if relabel is None else relabel.get
        images = sorted(
            tuple(sorted((f(u), f(v)))) for u, v in parent.accepted
            if f(u) is not None and f(v) is not None
        )
        pairs = list(itertools.combinations(range(n_child), 2))
        edges = data.draw(st.sets(st.sampled_from(images))) if images else set()
        edges |= data.draw(st.sets(st.sampled_from(pairs), max_size=8))

        game = PebbleGame(n_child, k)
        game.seed(parent, relabel, frozenset(edges))
        seeds = list(game.accepted)
        assert sorted(seeds) == [e for e in images if e in edges]
        assert is_sparse_brute(seeds, k)
        assert all(game.pebbles[v] + len(game.out[v]) == 2 for v in range(n_child))
        assert min(game.pebbles) >= 0

        # played on, the game gives a maximal independent set containing the
        # seeds and, for each rejected f, the region of the circuit inside
        # that set plus f; expanded from the final orientation, it is the
        # circuit read as an edge set at the rejection, by a twin game
        twin = PebbleGame(n_child, k)
        twin.seed(parent, relabel, frozenset(edges))
        game, regions = sparsity._play(sorted(edges.difference(seeds)), game)
        basis = game.accepted
        assert basis[:len(seeds)] == seeds
        assert is_sparse_brute(basis, k)
        assert sorted(basis + list(regions)) == sorted(edges)
        circuits = {f: sparsity._circuit(game, f, region) for f, region in regions.items()}
        assert basis_and_circuits(sorted(edges), k, twin) == (basis, circuits)
        for f, circ in circuits.items():
            assert f in circ and circ - {f} <= set(basis)
            assert regions[f] == {v for e in circ for v in e}
            assert is_circuit_brute(sorted(circ), k)
        assert all(game.pebbles[v] + len(game.out[v]) == 2 for v in range(n_child))

    def test_classes_of_any_basis_are_the_components(self):
        # the warm check reads the classes off the basis a seeded game ends
        # with, not the one m22_components plays; by the single-basis rule
        # the circuits of any basis give the components
        a, b, x = {0, 1, 2}, {2, 3, 4}, {1, 2, 3}
        # a and b share one vertex and stay apart; x shares two with each
        assert sparsity._region_classes([a, b]) == [a, b]
        assert sparsity._region_classes([a, b, x]) == [{0, 1, 2, 3, 4}]
        # 34 lies in no class, so it is a coloop
        edges = [(0, 1), (1, 2), (3, 4)]
        classes = sparsity._region_classes([a])
        assert sorted(sparsity._edge_classes(5, edges, classes), key=sorted) == [
            {(0, 1), (1, 2)}, {(3, 4)}
        ]
        rng = random.Random(59)
        graphs = [G for G in decision_corpus(200, seed=59) if G.m > 0 and G.min_degree() > 0]
        split = 0
        for G in graphs:
            edges = G.sorted_edges()
            order = rng.sample(edges, len(edges))
            _, regions = sparsity._play(order, PebbleGame(G.n, 2))
            merged = sparsity._region_classes(regions.values())
            classes = sorted(sparsity._edge_classes(G.n, edges, merged), key=sorted)
            assert classes == components_multipass(G)
            split += bool(regions) and len(classes) > 1
        assert split > 10 and sum(len(m22_components(G)) == 1 for G in graphs) > 10


class TestSparseTight:
    def test_wheel_tight(self):
        W5 = cat.wheel_graph(5)
        assert is_sparse(W5, 2) and is_tight(W5, 2)

    def test_k33_sparse_not_tight(self):
        K33 = cat.complete_bipartite(3, 3)
        assert is_sparse(K33, 2)
        assert not is_tight(K33, 2)

    def test_k5_minus_not_sparse(self):
        assert not is_sparse(cat.k5_minus(), 2)


class TestCircuits:
    def test_small_circuits(self):
        assert is_circuit22(cat.k5_minus())
        assert is_circuit22(cat.b1())
        assert is_circuit22(cat.b2())
        assert is_circuit22(cat.complete_bipartite(3, 5))
        assert not is_circuit22(cat.complete_graph(4))

    def test_circuit_iff_rank_conditions(self):
        for G in [cat.k5_minus(), cat.b1(), cat.wheel_graph(5),
                  cat.complete_bipartite(3, 5), cat.complete_graph(5)]:
            edges = G.sorted_edges()
            cond = rank2k(edges, 2) == G.m - 1 and all(
                rank2k(edges[:i] + edges[i + 1:], 2) == G.m - 1
                for i in range(G.m)
            )
            assert is_circuit22(G) == cond


class TestFundamentalCircuit:
    def test_k5_minus_whole(self):
        edges = cat.k5_minus().sorted_edges()
        base, extra = edges[:-1], edges[-1]
        circ = fundamental_circuit(base, extra)
        assert circ == frozenset(edges)

    def test_inside_k36(self):
        G = cat.complete_bipartite(3, 6)
        edges = G.sorted_edges()
        # a spanning tight base exists; the game builds one greedily
        game_base = []
        from planerigidity.sparsity import PebbleGame

        game = PebbleGame(G.n, 2)
        leftover = []
        for e in edges:
            (game_base if game.insert(*e) else leftover).append(e)
        assert len(game_base) == 2 * G.n - 2
        circ = fundamental_circuit(game_base, leftover[0])
        assert len(circ) <= 2 * 8 - 1
        verts = {v for e in circ for v in e}
        assert len(verts) <= 8
        from oracles import is_circuit_brute

        assert is_circuit_brute(sorted(circ))
        # the circuits living inside K_{3,6} are exactly its K_{3,5}s
        sub, _ = Graph.from_edges(G.n, circ).subgraph(sorted(verts))
        from planerigidity.graphs import is_isomorphic

        assert is_isomorphic(sub, cat.complete_bipartite(3, 5))

    def test_error_when_independent(self):
        tree = [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            fundamental_circuit(tree, (0, 3))

    def test_error_on_dependent_base(self):
        with pytest.raises(ValueError):
            fundamental_circuit(cat.k5_minus().sorted_edges(), (3, 4))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_base_reads_a_repeated_pair_once(self, k):
        # base + e, with e already in base, is base: independent, whatever
        # orientation or repetition names e
        no_circuit = "base + e is independent; no circuit"
        for base, e in [
            ([(0, 1), (1, 0)], (0, 1)), ([(0, 1)], (1, 0)), ([(0, 1), (0, 1)], (1, 0)),
            ([(1, 2), (0, 1), (2, 1)], (2, 1)),
        ]:
            with pytest.raises(ValueError, match=re.escape(no_circuit)):
                fundamental_circuit(base, e, k)
        # a repeated pair of a base adds no edge to its circuit
        edges = cat.k5_minus().sorted_edges()
        base = edges[:-1] + [(v, u) for u, v in edges[:3]]
        assert fundamental_circuit(base, edges[-1]) == frozenset(edges)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_minimal_circuit(self, data):
        n = data.draw(st.integers(4, 6))
        pairs = list(itertools.combinations(range(n), 2))
        rng_edges = data.draw(st.permutations(pairs))
        game_base, rest = [], []
        game = PebbleGame(n, 2)
        for e in rng_edges:
            (game_base if game.insert(*e) else rest).append(e)
        if not rest:
            return
        circ = fundamental_circuit(game_base, rest[0])
        # the circuit is dependent, minimally so
        assert not is_sparse_brute(circ, 2)
        for e in circ:
            assert is_sparse_brute([f for f in circ if f != e], 2)
        assert set(circ) <= set(game_base) | {tuple(sorted(rest[0]))}


class TestComponents:
    def test_coloops_named_examples(self):
        W = cat.wheel_graph(5)
        assert _rank_and_coloops(cat.k5_minus(), 2) == (8, frozenset())
        assert _rank_and_coloops(W, 2) == (W.m, W.edges)
        assert _rank_and_coloops(cat.complete_graph(4), 3) == (5, frozenset())

    def test_named_examples(self):
        assert len(m22_components(cat.k5_minus())) == 1
        assert len(m22_components(cat.complete_graph(4))) == 6
        assert len(m22_components(cat.two_k4_shared_vertex())) == 12

    def test_against_bruteforce_random(self):
        rng = random.Random(11)
        pairs5 = list(itertools.combinations(range(5), 2))
        pairs6 = list(itertools.combinations(range(6), 2))
        checked = 0
        while checked < 40:
            pairs = pairs5 if rng.random() < 0.5 else pairs6
            edges = rng.sample(pairs, rng.randint(4, len(pairs)))
            G = Graph.from_edges(1 + max(v for e in edges for v in e), edges)
            if G.m < 1 or G.min_degree() == 0:
                continue
            assert m22_components(G) == components_brute(G)
            checked += 1

    def test_against_bruteforce_seven_vertices(self):
        # sparser draws keep the all-circuit enumeration affordable
        rng = random.Random(13)
        pairs7 = list(itertools.combinations(range(7), 2))
        checked = 0
        while checked < 12:
            edges = rng.sample(pairs7, rng.randint(9, 14))
            G = Graph.from_edges(7, edges)
            if G.min_degree() == 0:
                continue
            assert m22_components(G) == components_brute(G)
            checked += 1


class TestM22Connected:
    def test_named_examples(self):
        assert is_m22_connected(cat.complete_bipartite(3, 6))
        assert not is_m22_connected(cat.wheel_graph(5))
        assert is_m22_connected(cat.b2())

    def test_implies_spanning_tight_and_min_degree(self):
        for G in [cat.k5_minus(), cat.b1(), cat.b2(),
                  cat.complete_bipartite(3, 6), cat.complete_graph(6)]:
            assert is_m22_connected(G)
            assert rank2k(G.edges, 2) == 2 * G.n - 2
            assert G.min_degree() >= 3

    def test_the_warm_check_stops_at_the_rank(self, monkeypatch):
        # two K5s joined by the edge 0-5 pass the degree and edge-count
        # filters but have rank 17 < 2n - 2 = 18: the unseeded warm check
        # answers at the rank, before it merges a region (the cold check
        # reads the sorted game, whose regions are merged as it is played)
        k5 = cat.complete_graph(5).edges
        H = Graph.from_edges(10, [*k5, *((u + 5, v + 5) for u, v in k5), (0, 5)])
        assert (H.n, H.m, H.min_degree(), rank2k(H, 2)) == (10, 21, 4, 17)
        merged = []
        real = sparsity._region_classes
        monkeypatch.setattr(sparsity, "_region_classes", lambda r: merged.append(1) or real(r))
        assert not is_m22_connected(Graph(H.n, H.edges), seed=(None, None))
        assert merged == []
        assert not is_m22_connected(Graph(H.n, H.edges))

    def test_a_cold_check_plays_the_sorted_game_once(self, monkeypatch):
        # the rank and the components are read off one game, which inserts
        # each edge once, in sorted order
        games, inserts = [], []
        real_init, real_insert = PebbleGame.__init__, PebbleGame.insert
        monkeypatch.setattr(
            PebbleGame, "__init__", lambda self, *a: games.append(a) or real_init(self, *a)
        )
        monkeypatch.setattr(
            PebbleGame, "insert", lambda game, *e: inserts.append(e) or real_insert(game, *e)
        )
        graphs = [cat.k5_minus(), cat.b1(), cat.complete_bipartite(3, 6), cat.complete_graph(6)]
        graphs += [random_m22_graph(steps, 40 + steps) for steps in (3, 9, 20)]
        # two K5s joined by an edge (rank 2n - 3) and two K5s on one vertex
        # (rank 2n - 2, two components) pass the degree and edge-count filters
        k5 = cat.complete_graph(5).edges
        graphs += [
            Graph.from_edges(10, [*k5, *((u + 5, v + 5) for u, v in k5), (4, 5)]),
            Graph.from_edges(9, [*k5, *((u + 4, v + 4) for u, v in k5)]),
        ]
        verdicts = set()
        for G in graphs:
            G = Graph(G.n, G.edges)  # fresh: nothing computed on it yet
            games.clear()
            inserts.clear()
            verdicts.add(is_m22_connected(G))
            assert games == [(G.n, 2)]
            assert inserts == G.sorted_edges()
        assert verdicts == {True, False}


class TestM22VerdictOnInstance:
    def test_verdict_answers_only_on_its_instance(self, monkeypatch):
        calls = []
        real = sparsity.m22_components
        monkeypatch.setattr(sparsity, "m22_components", lambda G: calls.append(G) or real(G))
        G = cat.b1()  # a circuit, so every G - e is independent
        H = Graph.from_edges(G.n, [((u + 1) % G.n, (v + 1) % G.n) for u, v in G.edges])
        assert H != G
        assert is_m22_connected(G) and calls == [G]
        assert is_m22_connected(G) and calls == [G]  # answered by the game G keeps
        for e in G.sorted_edges():
            assert not is_m22_connected(G.remove_edge(*e))
        assert not is_m22_connected(Graph(G.n + 1, G.edges))  # isolated vertex
        assert is_m22_connected(H) and calls == [G, H]
        assert is_m22_connected(G) and calls == [G, H]
        twin = Graph(G.n, G.edges)  # equal to G, built elsewhere: decided in full
        assert twin == G and is_m22_connected(twin) and len(calls) == 3 and calls[2] is twin
        # the cold check keeps G's sorted game; once taken, G is decided again
        assert take_m22_game(G) is _sorted_game(G)[0]
        assert take_m22_game(G) is None
        assert is_m22_connected(G) and len(calls) == 4 and calls[3] is G

    def test_kept_verdict_against_fresh_decisions(self):
        graphs = decision_corpus(150, seed=57)
        for G in [random_m22_graph(steps, 5700 + steps) for steps in range(1, 19, 3)]:
            graphs += [G] + [step.result for step in reduce_to_base(G).steps]
        warm = [is_m22_connected(G) for G in graphs for _ in range(2)]
        cold = [is_m22_connected(Graph(G.n, G.edges)) for G in graphs for _ in range(2)]
        assert warm == cold
        assert warm[::2] == [
            G.m >= 2 and G.min_degree() > 0 and len(components_multipass(G)) == 1
            for G in graphs
        ]

    def test_a_finished_reduction_keeps_no_game(self):
        reduced = 0
        for steps in range(0, 19, 3):
            walk = random_m22_graph(steps, 5800 + steps)  # may keep its last split's game
            cold = Graph(walk.n, walk.edges)
            assert is_m22_connected(cold) and cold._m22_game
            for G in (walk, cold):
                trace = reduce_to_base(G)
                reduced += len(trace.steps)
                assert not G._m22_game
                assert not any(step.result._m22_game for step in trace.steps)
        assert reduced > 0

    def test_threads_share_instances(self):
        graphs = decision_corpus(40, seed=58)
        want = [is_m22_connected(Graph(G.n, G.edges)) for G in graphs]
        assert 0 < sum(want) < len(want)
        parts = [
            m22_components(Graph(G.n, G.edges)) if G.m >= 1 and G.min_degree() > 0 else None
            for G in graphs
        ]
        errors = []

        def work(seed):
            # every thread decides the same instances, and takes their games
            # now and then, so that some are decided again while others read;
            # each empties the parts it is handed
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    j = rng.randrange(len(graphs))
                    G = graphs[j]
                    if is_m22_connected(G) != want[j]:
                        errors.append(j)
                    if parts[j] is not None:  # the kept parts, handed out as copies
                        got = m22_components(G)
                        if got != parts[j]:
                            errors.append((j, "parts"))
                        got.clear()
                    if rng.random() < 0.3:
                        game = take_m22_game(G)
                        if game is not None and not (want[j] and game.rank == 2 * G.n - 2):
                            errors.append((j, "game"))
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        workers = min((os.cpu_count() or 1) + 1, 9)
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestEarDecomposition:
    def test_k36_structure(self):
        ed = ear_decomposition(cat.complete_bipartite(3, 6))
        assert ed is not None and ed.t == 2
        assert len(ed.circuits[0]) == 15  # a K_{3,5}
        assert len(ed.new_parts()[1]) == 3

    def test_k36_rank_increment(self):
        ed = ear_decomposition(cat.complete_bipartite(3, 6))
        d1, d2 = itertools.accumulate(ed.circuits, frozenset.union)
        assert rank2k(d1, 2) == 14
        assert rank2k(d2, 2) == 16
        assert rank2k(d2, 2) - rank2k(d1, 2) == len(ed.new_parts()[1]) - 1

    def test_single_circuit(self):
        ed = ear_decomposition(cat.k5_minus())
        assert ed.t == 1 and ed.circuits[0] == cat.k5_minus().edges

    def test_deterministic_golden_output(self):
        # candidate ordering is pinned, so repeated runs agree exactly
        a = ear_decomposition(cat.complete_bipartite(3, 6))
        b = ear_decomposition(cat.complete_bipartite(3, 6))
        assert a.circuits == b.circuits
        # the bipartite parts are 0,1,2 and 3..8; the first ear is the
        # circuit on the eight vertices missing the lexicographically last
        # degree-3 vertex, and the second ear restores its three edges
        missing = {v for v in range(3, 9)} - {
            v for e in a.circuits[0] for v in e
        }
        assert len(missing) == 1
        v = missing.pop()
        assert a.new_parts()[1] == frozenset({(0, v), (1, v), (2, v)})

    def test_absent_cases(self):
        assert ear_decomposition(cat.wheel_graph(5)) is None
        assert ear_decomposition(cat.complete_graph(4)) is None
        assert ear_decomposition(cat.two_k4_shared_vertex()) is None

    def test_disconnected_matroid_without_coloops(self):
        # two K5- sharing a vertex: every edge lies in a circuit, yet no
        # circuit meets both
        K = cat.k5_minus()
        G = Graph.from_edges(9, list(K.edges) + [(u + 4, v + 4) for u, v in K.edges])
        assert _rank_and_coloops(G, 2)[1] == frozenset()
        assert len(m22_components(G)) == 2
        assert ear_decomposition(G) is None

    def test_rejects_isolated_vertices(self):
        G = Graph.from_edges(6, cat.k5_minus().edges)
        with pytest.raises(ValueError):
            ear_decomposition(G)

    def test_axioms_on_produced_decompositions(self):
        producers = [
            cat.k5_minus(), cat.b1(), cat.b2(), cat.complete_bipartite(3, 6),
            cat.complete_graph(6), cat.complete_graph(7),
            cat.complete_bipartite(4, 6),
        ]
        for G in producers:
            ed = ear_decomposition(G)
            assert ed is not None
            check_ear_axioms(G, ed)

    def test_pinned_ears_are_circuits(self):
        # random_m22_graph(14, 12), n=13, m=32: reading a circuit after
        # later inserts had moved pebbles once made ear 8 a dependent set
        # of 21 edges on 11 vertices
        G = parse_graph6("Lxrg{gAOop|CGB")
        ed = ear_decomposition(G)
        assert ed is not None
        check_ear_axioms(G, ed)


class TestAgainstManyGameReferences:
    """The one-game answers against the routines they replaced."""

    @staticmethod
    def graphs():
        out = [G for G in decision_corpus(150, seed=57) if G.m >= 1 and G.min_degree() > 0]
        # walks well past the brute-force caps of seven vertices
        out += [random_m22_graph(steps, seed) for seed, steps in enumerate(range(4, 16))]
        return out

    def test_components(self):
        for G in self.graphs():
            assert m22_components(G) == components_multipass(G)

    def test_coloops(self):
        for G in self.graphs():
            for k in (2, 3):
                rank, cols = _rank_and_coloops(G, k)
                assert (rank, cols) == rank_and_coloops(G.edges, k)
                assert cols == coloops_leave_one_out(G.edges, k)
                # the subset search of rank_brute is affordable up to six vertices
                assert rank == (
                    rank_brute(G.edges, k) if G.n <= 6 else rank_by_stopped_game(G.edges, k)
                )

    def test_is_circuit22(self):
        graphs = self.graphs()
        # every ear is a circuit, so these cover the positive answers
        for G in list(graphs):
            ed = ear_decomposition(G)
            for C in ed.circuits if ed is not None else ():
                vs = sorted({v for e in C for v in e})
                graphs.append(Graph.from_edges(G.n, C).subgraph(vs)[0])
        assert any(is_circuit22(G) for G in graphs)
        for G in graphs:
            assert is_circuit22(G) == is_circuit22_leave_one_out(G)


class TestOneGameEars:
    """The one-game ear decomposition against the game-per-ear routine it
    replaced."""

    def test_same_ears_as_one_game_per_ear(self):
        # the oracle picks each ear by the full key (number of new edges,
        # sorted new edges) over every candidate; the library sorts only the
        # candidates of the least size, and in 151 of the 321 later ear
        # choices on decision_corpus(300, seed=5) more than one has it
        graphs = [G for G in decision_corpus(300, seed=5) if G.m >= 1 and G.min_degree() > 0]
        graphs += [random_m22_graph(steps, 300 + steps) for steps in range(1, 41)]
        rng = random.Random(12)
        gnp = [
            gnp_graph(rng.randint(6, 13), rng.choice((0.4, 0.5, 0.6, 0.7)), seed)
            for seed in range(200)
        ]
        graphs += [G for G in gnp if G.min_degree() > 0]
        graphs.append(parse_graph6("Lxrg{gAOop|CGB"))
        found = 0
        for G in graphs:
            ed = ear_decomposition(G)
            assert ed == ear_decomposition_games(G)
            found += ed is not None and ed.t > 1
        assert found > 200

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_the_sorted_game_serves_every_ear(self, data):
        # the basis B0 and circuits of the one game over the sorted edges are
        # those of the game over sorted(D) + sorted(E - D) for every union D
        # of the ears, and each held circuit is a circuit inside B0 + g
        n = data.draw(st.integers(5, 7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs), min_size=2 * n)))
        G = Graph.from_edges(n, edges)
        if G.min_degree() == 0:
            return
        basis, circuits = basis_and_circuits(edges, 2)
        game, regions, _ = _sorted_game(G)
        assert {f: sparsity._circuit(game, f, R) for f, R in regions.items()} == circuits
        ed = ear_decomposition(G)
        unions = [] if ed is None else list(itertools.accumulate(ed.circuits, frozenset.union))
        for D in unions[:-1]:
            order = sorted(D) + sorted(set(edges) - D)
            basis_d, circuits_d = basis_and_circuits(order, 2)
            assert set(basis_d) == set(basis)
            for g, circ in circuits_d.items():
                if g not in D:
                    assert circ == circuits[g]
        for g, circ in circuits.items():
            assert g == max(circ) and circ - {g} <= set(basis)
            assert is_circuit_brute(sorted(circ))

    def test_one_game_per_decomposition(self, monkeypatch):
        games = []
        init = PebbleGame.__init__
        monkeypatch.setattr(
            PebbleGame, "__init__", lambda self, *a: games.append(a) or init(self, *a)
        )
        for G in [cat.complete_bipartite(3, 6), cat.wheel_graph(5), cat.complete_graph(7),
                  random_m22_graph(40, 9), parse_graph6("Lxrg{gAOop|CGB")]:
            games.clear()
            ed = ear_decomposition(G)
            assert games == [(G.n, 2)]
            assert (ed is None) == (G == cat.wheel_graph(5))


class TestEarsInPlace:
    """The ears with each C - D kept current in place against the loop
    that formed C - D anew for every circuit on every ear
    (oracles.ear_decomposition_rescan)."""

    @staticmethod
    def _agree(graphs):
        ears = 0
        for G in graphs:
            if G.n > 0 and G.min_degree() == 0:  # isolated vertices: both refuse
                continue
            ed = ear_decomposition(G)
            assert ed == ear_decomposition_rescan(G), G.sorted_edges()
            ears += 0 if ed is None else ed.t
        return ears

    def test_decision_corpus(self):
        assert self._agree(decision_corpus(300, seed=5)) > 400

    def test_benchmark_inputs(self):
        graphs = list(benchmark_graphs("check-m22").values()) + experiment_graphs()
        assert self._agree(graphs) > 1000

    def test_large_graphs(self):
        # hundreds of ears each, where the in-place loop pays off most
        graphs = [cat.complete_graph(40), gnp_graph(100, 0.2, 1), random_m22_graph(640, 7)]
        assert [ear_decomposition(G).t for G in graphs] == [702, 792, 128]
        assert self._agree(graphs) == 702 + 792 + 128

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(5, 14), st.sampled_from((0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
        st.integers(0, 2**32),
    )
    def test_dense_gnp(self, n, p, seed):
        self._agree([gnp_graph(n, p, seed)])


def check_ear_axioms(G, ed, circuits=None):
    """(E1), (E2), circuit-hood, rank increments and coverage.

    When the full circuit list is supplied (small graphs), (E3) inclusion
    minimality is checked exactly as well.
    """
    covered = set()
    for i, C in enumerate(ed.circuits):
        sub_edges = sorted(C)
        assert rank2k(sub_edges, 2) == len(C) - 1
        for j in range(len(sub_edges)):
            assert rank2k(sub_edges[:j] + sub_edges[j + 1:], 2) == len(C) - 1
        new = set(C) - covered
        if i > 0:
            assert C & covered, "E1"
            assert new, "E2"
            if circuits is not None:
                for C2 in circuits:
                    if C2 & covered and C2 - covered:
                        assert not (C2 - covered) < new, "E3"
            inc = rank2k(covered | C, 2) - rank2k(covered, 2)
            assert inc == len(new) - 1, "rank increment"
        covered |= C
    assert covered == set(G.edges)


def _tight_sets(n, basis, k):
    """Every vertex set of at least two vertices spanning 2|S| - k edges of
    the (2,k)-sparse `basis`, by brute force."""
    out = []
    for size in range(2, n + 1):
        for S in itertools.combinations(range(n), size):
            S = set(S)
            if sum(u in S and v in S for u, v in basis) == 2 * size - k:
                out.append(frozenset(S))
    return out


def _inside(basis, S):
    return {(u, v) for u, v in basis if u in S and v in S}


class TestRegionsAgainstEdgeCircuits:
    """The circuits kept as vertex regions against the edge-set circuits
    they replaced (tests/oracles.py)."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_two_shared_vertices_lemma(self, data):
        # in a (2,k)-sparse B, k = 2 or 3, two tight sets sharing two
        # vertices share an edge, and their union is tight and spans the
        # union of their edges; two circuits share an edge iff their
        # regions share two vertices, and every region is tight
        k = data.draw(st.sampled_from((2, 3)))
        n = data.draw(st.integers(4, 7))
        pairs = list(itertools.combinations(range(n), 2))
        order = data.draw(st.permutations(pairs))[:data.draw(st.integers(2 * n - k, len(pairs)))]
        game, regions = sparsity._play(order, PebbleGame(n, k))
        basis = game.accepted
        tight = _tight_sets(n, basis, k)
        assert set(regions.values()) <= set(tight)
        for T1, T2 in itertools.combinations(tight, 2):
            if len(T1 & T2) >= 2:
                assert len(_inside(basis, T1 & T2)) == 2 * len(T1 & T2) - k >= 1
                union = _inside(basis, T1 | T2)
                assert len(union) == 2 * len(T1 | T2) - k
                assert union == _inside(basis, T1) | _inside(basis, T2)
        circuits = {f: sparsity._circuit(game, f, R) for f, R in regions.items()}
        for f, g in itertools.combinations(regions, 2):
            shared = not circuits[f].isdisjoint(circuits[g])
            assert shared == (len(regions[f] & regions[g]) >= 2)

    @staticmethod
    def _agree(G):
        """Components, coloops at k = 2 and 3, the circuit test, the cold
        and the unseeded warm verdict, and the ears, against the oracles."""
        assert m22_components(G) == components_by_edge_circuits(G)
        for k in (2, 3):
            assert _rank_and_coloops(G, k) == rank_and_coloops(G.edges, k)
        assert is_circuit22(G) == is_circuit22_by_edge_circuit(G)
        want = is_m22_connected_edge_circuits(G, (None, None))
        assert is_m22_connected(Graph(G.n, G.edges)) == want
        assert is_m22_connected(Graph(G.n, G.edges), seed=(None, None)) == want
        assert ear_decomposition(G) == ear_decomposition_games(G)
        return want

    def test_decision_corpus(self):
        graphs = [G for G in decision_corpus(300, seed=5) if G.m >= 1 and G.min_degree() > 0]
        verdicts = [self._agree(G) for G in graphs]
        assert 10 < sum(verdicts) < len(verdicts) - 10

    def test_reduce_benchmark_inputs(self):
        graphs = list(benchmark_graphs("reduce-m22").values())
        assert len(graphs) == 100
        assert all(self._agree(G) for G in graphs)

    def test_warm_check_on_every_candidate_of_20_walks(self, monkeypatch):
        # each candidate's warm check against the edge-set warm check,
        # seeded from the same parent game and relabelling
        verdicts = []
        real = moves.is_m22_connected

        def both(G, **kw):
            if not kw:
                return real(G)
            want = is_m22_connected_edge_circuits(G, kw["seed"])
            got = real(G, **kw)
            verdicts.append(got)
            assert got == want, G.sorted_edges()
            return got

        monkeypatch.setattr(moves, "is_m22_connected", both)
        for steps in range(3, 43, 2):
            reduce_to_base(random_m22_graph(steps, 3300 + steps))
        assert verdicts.count(True) > 300 and verdicts.count(False) > 20

    def test_coloops_at_k3_against_brute_force(self):
        # what `certify` reads at p = 2: the (2,3) rank and coloops
        checked = 0
        for G in decision_corpus(300, seed=5):
            if G.m < 1 or G.n > 6:
                continue
            rank, cols = _rank_and_coloops(G, 3)
            assert cols == coloops_leave_one_out(G.edges, 3)
            assert rank == rank_brute(G.edges, 3)
            checked += bool(cols) + 1
        assert checked > 100


class TestThePapersTwoStatements:
    """The paper decides global rigidity by 2-connectivity and redundant
    (2,2)-rigidity (G - e holds two edge-disjoint spanning trees for every
    e); the library by 2-connectivity and M(2,2)-connectivity."""

    @staticmethod
    def _check(G):
        rank, cols = _rank_and_coloops(G, 2)
        redundant = rank == 2 * G.n - 2 and not cols
        m22 = is_m22_connected(G)
        two = is_k_connected(G, 2)
        assert not m22 or two  # a circuit has no cut vertex
        assert m22 == (two and redundant)
        return m22

    def test_corpus_and_reduction_walks(self):
        graphs = [G for G in decision_corpus(300, seed=5) if G.n >= 5]
        for steps in range(4, 40, 5):
            trace = reduce_to_base(random_m22_graph(steps, 3500 + steps))
            for H in [step.result for step in trace.steps]:
                graphs += [H] + [H.remove_edge(*e) for e in H.sorted_edges()[:3]]
        verdicts = [self._check(G) for G in graphs if G.n >= 5]
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50

    def test_redundant_rigidity_alone_is_not_enough(self):
        # two K5s on one vertex: rank 2n - 2, no coloop, two components
        k5 = cat.complete_graph(5).edges
        G = Graph.from_edges(9, [*k5, *((u + 4, v + 4) for u, v in k5)])
        assert _rank_and_coloops(G, 2) == (2 * G.n - 2, frozenset())
        assert not is_k_connected(G, 2) and not is_m22_connected(G)
        assert not self._check(G)
