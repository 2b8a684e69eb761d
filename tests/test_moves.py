import contextlib
import io
import itertools
import random
import runpy
from functools import lru_cache
from pathlib import Path

import pytest

from planerigidity import catalog as cat
from planerigidity import graphs, moves, sparsity
from planerigidity.graphs import Graph, is_isomorphic
from planerigidity.moves import (
    KINDS,
    REDUCTION_KINDS,
    Move,
    MoveError,
    ReductionTrace,
    TraceStep,
    _apply_full,
    _reduction_candidates,
    apply,
    base_graph,
    base_name_of,
    find_admissible_reduction,
    graph_hash,
    inverse,
    join,
    random_m22_graph,
    rebuild_from_trace,
    reduce_to_base,
    separations_of,
)
from planerigidity.sparsity import is_circuit22, is_m22_connected

from corpus import (
    benchmark_graphs, decision_corpus, join_pool, joined_graphs, k4_ring_graph, random_gluing,
)
from oracles import (
    apply_per_kind, forward_script_per_kind, join_per_kind, reduction_candidates_both_ways,
    separations_of_per_kind,
)


@lru_cache(maxsize=None)
def _benchmark_traces() -> tuple[ReductionTrace, ...]:
    """The traces of the 100 committed `reduce-m22` inputs, reduced once."""
    return tuple(reduce_to_base(G) for G in benchmark_graphs("reduce-m22").values())


@lru_cache(maxsize=None)
def _reduced_walk(steps: int) -> ReductionTrace:
    """The trace of `random_m22_graph(steps, 7)`, the walk that
    `planerigidity random --model m22 --steps <steps> --seed 7` prints:
    n = 90, 173 and 344 at 80, 160 and 320 steps."""
    return reduce_to_base(random_m22_graph(steps, 7))


def _replay(base: str, script) -> list[Graph]:
    """The graphs a forward script builds from its base, in order."""
    out, G = [], base_graph(base)
    for move in script:
        G = apply(G, move)
        out.append(G)
    return out


def _one_move_of_each_kind():
    """(graph, move) for every move kind, each move valid on its graph."""
    cases = [
        (cat.b1(), Move("edge-deletion", (2, 3))),
        (cat.k5_minus(), Move("edge-addition", (3, 4))),
        (cat.b1(), Move("1-extension", (0, 1, 4))),
        (cat.k5_minus(), Move("k4minus-extension", (0, 1))),
        (cat.b1(), Move("generalized-vertex-split", (1, 2, 2, 3))),
        (cat.b2(), Move("edge-reduction", (1, 4, 0))),
    ]
    # a 1-reduction and k4minus-reduction need suitable hosts
    host = apply(cat.b1(), Move("1-extension", (0, 1, 2)))  # vertex 6 deg 3
    cases.append((host, Move("1-reduction", (6, 0, 1))))
    host2 = apply(cat.k5_minus(), Move("k4minus-extension", (0, 1)))
    cases.append((host2, Move("k4minus-reduction", (5, 6))))
    return cases


class TestApply:
    def test_k4minus_extension_makes_circuit(self):
        for e in cat.k5_minus().sorted_edges():
            G = apply(cat.k5_minus(), Move("k4minus-extension", e))
            assert (G.n, G.m) == (7, 13)
            assert is_circuit22(G)
            assert is_m22_connected(G)

    def test_one_extension_on_b1(self):
        G = apply(cat.b1(), Move("1-extension", (0, 1, 2)))
        assert (G.n, G.m) == (7, 13)
        assert is_circuit22(G)

    def test_split_then_edge_reduction_roundtrip(self):
        G = cat.b1()
        mv = Move("generalized-vertex-split", (0, 2, 2, 3))
        H = apply(G, mv)
        assert (H.n, H.m) == (7, 13)
        back = apply(H, inverse(G, mv))
        assert is_isomorphic(back, G)

    def test_edge_reduction_b2_to_b1(self):
        H = apply(cat.b2(), Move("edge-reduction", (1, 4, 0)))
        assert is_isomorphic(H, cat.b1())

    def test_precondition_messages(self):
        with pytest.raises(MoveError, match="must be an edge"):
            apply(cat.b1(), Move("k4minus-extension", (2, 4)))
        with pytest.raises(MoveError, match="degree 3"):
            apply(cat.b1(), Move("k4minus-reduction", (0, 1)))
        with pytest.raises(MoveError, match="already present"):
            apply(cat.b1(), Move("edge-addition", (0, 1)))
        with pytest.raises(MoveError, match="no neighbour besides"):
            apply(cat.complete_graph(4), Move("edge-reduction", (0, 1, 2)))

    # K5- lacks the edge 34, so 3 and 4 have degree 3 and the rest degree
    # 4; B1 is the K4s on 0123 and 0145; the 3-prism is the triangles 012
    # and 345 joined by 03, 14 and 25, so 0 and 1 share the neighbour 2 only
    @pytest.mark.parametrize("graph, kind, params, message", [
        ("K5-", "1-reduction", (0, 1, 2), "v must have degree 3"),
        ("K5-", "1-reduction", (3, 4, 0), "x and y must be distinct neighbours of v"),
        ("K5-", "1-reduction", (3, 0, 0), "x and y must be distinct neighbours of v"),
        ("K5-", "1-reduction", (3, 0, 1), "xy must not already be an edge"),
        ("K5-", "k4minus-reduction", (3, 4), "u1u2 must be an edge"),
        ("B1", "k4minus-reduction", (0, 2), "u1 and u2 must have degree 3"),
        ("prism", "k4minus-reduction", (0, 1), "|N(u1) ∩ N(u2)| must be 2"),
        ("B1", "k4minus-reduction", (2, 3), "completing edge already present"),
        ("K5-", "edge-reduction", (3, 4, 0), "ab must be an edge"),
        ("K5-", "edge-reduction", (0, 1, 1), "c must be a neighbour of a other than b"),
        ("K5-", "edge-reduction", (3, 0, 4), "c must be a neighbour of a other than b"),
    ])
    def test_reduction_preconditions(self, graph, kind, params, message):
        G = {
            "K5-": cat.k5_minus(),
            "B1": cat.b1(),
            "prism": Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                                          (0, 3), (1, 4), (2, 5)]),
        }[graph]
        with pytest.raises(MoveError) as err:
            apply(G, Move(kind, params))
        assert str(err.value) == f"{kind}: {message}"

    # K5- lacks the edge 34, so N(3) = {0, 1, 2}
    @pytest.mark.parametrize("params, message", [
        ((3, 4, 0, 4), "n2 must be neighbours of v"),  # 4 is no neighbour
        ((3, 4, 0, 3), "n2 must be neighbours of v"),  # nor is v itself
        ((3, 3, 0, 1), "x must be another existing vertex"),
        ((3, 2, 0, 1), "x must avoid the part kept at v"),  # N(3) - n2 = {2}
        # the checks run in this order
        ((3, 3, 0, 4), "n2 must be neighbours of v"),
        ((3, 2, 0, 4), "n2 must be neighbours of v"),
        ((3, 0, 0, 1), None),  # x in n2 is allowed
        ((3, 4, 0, 1), None),  # and so is a non-neighbour
        ((1, 0, 0, 2, 3), None),
    ])
    def test_split_checks_read_the_edge_set(self, params, message):
        K = cat.k5_minus()
        G = Graph(K.n, K.edges)  # a fresh copy, with no adjacency built
        move = Move("generalized-vertex-split", params)
        if message is None:
            assert _apply_full(G, move) == apply_per_kind(G, move)
        else:
            with pytest.raises(MoveError) as err:
                apply(G, move)
            assert str(err.value) == f"generalized-vertex-split: {message}"
        assert "adj" not in G.__dict__

    @pytest.mark.parametrize("kind, params, message", [
        ("edge-addition", (0,), "needs 2 parameters, got 1"),
        ("edge-deletion", (0, 1, 2), "needs 2 parameters, got 3"),
        ("1-reduction", (0, 1), "needs 3 parameters"),
        ("k4minus-extension", (), "needs 2 parameters"),
        ("generalized-vertex-split", (0,), "needs at least 2 parameters"),
    ])
    def test_parameter_count_checked_at_construction(self, kind, params, message):
        with pytest.raises(MoveError, match=message):
            Move(kind, params)

    def test_split_takes_any_number_of_neighbours(self):
        assert Move("generalized-vertex-split", (0, 1)).params == (0, 1)
        assert len(Move("generalized-vertex-split", (0, 1, 2, 3, 4)).params) == 5

    @pytest.mark.parametrize("kind, params", [
        ("1-reduction", (99, 0, 1)),
        ("1-reduction", (-1, 0, 1)),  # would read as the last vertex
        ("edge-deletion", (0, 5)),
        ("edge-reduction", (0, 1, -2)),
        ("generalized-vertex-split", (0, 1, 7)),
        ("1-extension", (0, 1, 5)),
    ])
    def test_every_vertex_must_exist(self, kind, params):
        with pytest.raises(MoveError, match="does not exist"):
            apply(cat.k5_minus(), Move(kind, params))

    def test_inverse_roundtrip_all_kinds(self):
        for G, mv in _one_move_of_each_kind():
            H = apply(G, mv)
            back = apply(H, inverse(G, mv))
            assert is_isomorphic(back, G), mv.kind


class TestOneEdit:
    """Each move is one `Graph.edit`, against the earlier per-kind
    constructions."""

    def test_matches_per_kind_oracle(self, monkeypatch):
        # every candidate the searches of 150 walks try (the accepted steps
        # among them), every move of their forward scripts, and seeded
        # 1-reductions with the 1-extensions that undo them
        calls = []
        real = moves._apply_full

        def recorded(G, mv):
            out = real(G, mv)
            calls.append((G, mv, out))
            return out

        monkeypatch.setattr(moves, "_apply_full", recorded)
        rng = random.Random(14)
        for s in range(150):
            G = random_m22_graph(s % 30 + 5, 9000 + s)
            rebuild_from_trace(reduce_to_base(G))
            for v in rng.sample(range(G.n), G.n):
                if G.degree(v) != 3:
                    continue
                x, y = rng.sample(sorted(G.adj[v]), 2)
                if not G.has_edge(x, y):
                    one = Move("1-reduction", (v, x, y))
                    apply(apply(G, one), inverse(G, one))
                    break
        for G, mv, out in calls:
            assert out == apply_per_kind(G, mv), mv
        assert {mv.kind for _, mv, _ in calls} == set(KINDS)

    def test_one_graph_per_move(self, monkeypatch):
        cases = _one_move_of_each_kind()
        built = []
        real = Graph.__init__
        monkeypatch.setattr(Graph, "__init__", lambda self, *a: built.append(1) or real(self, *a))
        for G, mv in cases:
            built.clear()
            _apply_full(G, mv)
            assert len(built) == 1, mv.kind
        assert {mv.kind for _, mv in cases} == set(KINDS)


class TestReplay:
    """Replaying forward scripts: each move against the earlier per-kind
    construction, with no adjacency built on the way."""

    @staticmethod
    def _scripts():
        traces = (*_benchmark_traces(), _reduced_walk(160))
        return [(trace.base, trace.forward_script()) for trace in traces]

    def test_every_move_matches_per_kind_oracle(self):
        moves_seen = 0
        for base, script in self._scripts():
            G = base_graph(base)
            for move in script:
                H = _apply_full(G, move)
                assert H == apply_per_kind(G, move), move
                G = H[0]
                moves_seen += 1
        assert moves_seen > 2000

    def test_replay_builds_no_adjacency(self):
        # each move reads the edge set only, so no graph the replay builds
        # gains the `adj` cache; a split that read N(v) from `adj` built it
        # on 144 of the 192 graphs of the n = 173 walk's replay
        for base, script in self._scripts():
            built = _replay(base, script)
            assert not [H for H in built if "adj" in H.__dict__], base
        assert len(built) == 192


class TestJoins:
    def test_1_join_of_k5minus_and_b1(self):
        G = join(cat.k5_minus(), cat.b1(), 1, ((0, 1), (0, 1, 2, 3)))
        assert (G.n, G.m) == (7, 13)
        assert is_circuit22(G)

    def test_2_join_of_two_b1(self):
        G = join(cat.b1(), cat.b1(), 2, ((0, 1, 2, 3), (0, 1, 2, 3)))
        assert (G.n, G.m) == (6, 11)
        assert is_circuit22(G)
        assert G.has_edge(0, 1)  # the added edge ab
        assert is_isomorphic(G, cat.b1())

    def test_3_join_of_two_k5minus(self):
        G = join(cat.k5_minus(), cat.k5_minus(), 3, ((3, (0, 1, 2)), (3, (0, 1, 2))))
        assert (G.n, G.m) == (8, 15)
        assert is_circuit22(G)

    def test_degree_checks(self):
        # in K5- the K4 0123 has the degree-4 vertices 0 and 1; in B1 the
        # K4 0123 has the degree-3 vertices 2 and 3
        k5m, b1 = cat.k5_minus(), cat.b1()
        with pytest.raises(MoveError, match="^1-join: c and d must have degree 3 in G2$"):
            join(b1, k5m, 1, ((0, 1), (2, 3, 0, 1)))
        with pytest.raises(MoveError, match="^2-join: c and d must have degree 3 in G1$"):
            join(k5m, b1, 2, ((2, 3, 0, 1), (0, 1, 2, 3)))
        with pytest.raises(MoveError, match="^2-join: c and d must have degree 3 in G2$"):
            join(b1, k5m, 2, ((0, 1, 2, 3), (2, 3, 0, 1)))

    def test_circuit_preservation_seeded(self):
        # Joining circuits gives circuits; M(2,2)-connected pieces glue too.
        rng = random.Random(7)
        pool = [cat.k5_minus(), cat.b1(), cat.b2()]
        count = 0
        while count < 200:
            G1, G2 = rng.choice(pool), rng.choice(pool)
            j = rng.choice([1, 2, 3])
            gl = _random_gluing(G1, G2, j, rng)
            if gl is None:
                continue
            G = join(G1, G2, j, gl)
            assert is_circuit22(G)
            assert is_m22_connected(G)
            count += 1


def _degree3_k4s(G):
    """K4 subgraphs with two degree-3 vertices, as (a, b, c, d) tuples."""
    import itertools

    out = []
    for vs in itertools.combinations(range(G.n), 4):
        if len(G.induced_edges(vs)) != 6:
            continue
        deg3 = [v for v in vs if G.degree(v) == 3]
        others = [v for v in vs if G.degree(v) != 3]
        if len(deg3) == 2:
            out.append((others[0], others[1], deg3[0], deg3[1]))
    return out


def _random_gluing(G1, G2, j, rng):
    if j == 1:
        k4s = _degree3_k4s(G2)
        if not k4s:
            return None
        e = rng.choice(G1.sorted_edges())
        return (e, rng.choice(k4s))
    if j == 2:
        k1, k2 = _degree3_k4s(G1), _degree3_k4s(G2)
        if not k1 or not k2:
            return None
        return (rng.choice(k1), rng.choice(k2))
    nodes1 = [v for v in range(G1.n) if G1.degree(v) == 3]
    nodes2 = [v for v in range(G2.n) if G2.degree(v) == 3]
    if not nodes1 or not nodes2:
        return None
    v1, v2 = rng.choice(nodes1), rng.choice(nodes2)
    return ((v1, tuple(sorted(G1.adj[v1]))), (v2, tuple(sorted(G2.adj[v2]))))


class TestSeparations:
    def test_b1_2_separation(self):
        seps = separations_of(cat.b1(), 2)
        assert len(seps) == 1
        g1, g2 = seps[0]
        assert is_isomorphic(g1, cat.b1()) and is_isomorphic(g2, cat.b1())
        assert is_m22_connected(g1) and is_m22_connected(g2)

    def test_1_separations_of_1_join_recover_circuits_one_ordering(self):
        G = join(cat.k5_minus(), cat.b1(), 1, ((0, 1), (0, 1, 2, 3)))
        found = []
        for g1, g2 in separations_of(G, 1):
            found.append(is_circuit22(g1) and is_circuit22(g2))
        assert found.count(True) >= 1
        # orderings pair up: exactly one of each swapped pair is a circuit pair
        assert not all(found)

    def test_prism_3_separation(self):
        seps = separations_of(cat.prism_graph(), 3)
        assert len(seps) == 1
        g1, g2 = seps[0]
        assert g1.n == 4 and g1.m == 6 and g2.n == 4 and g2.m == 6
        assert is_isomorphic(g1, cat.complete_graph(4))

    def test_separating_a_joined_circuit_recovers_circuits(self):
        # 2- and 3-separations of a circuit have circuit parts
        g2 = join(cat.b1(), cat.b2(), 2, ((0, 1, 2, 3), (0, 4, 5, 6)))
        assert is_circuit22(g2)
        found = [
            is_circuit22(a) and is_circuit22(b) for a, b in separations_of(g2, 2)
        ]
        assert found and all(found)
        g3 = join(cat.k5_minus(), cat.b1(), 3, ((3, (0, 1, 2)), (2, (0, 1, 3))))
        assert is_circuit22(g3)
        pairs = separations_of(g3, 3)
        assert pairs and all(
            is_circuit22(a) and is_circuit22(b) for a, b in pairs
        )
        names = {
            frozenset(
                ("K5-" if is_isomorphic(x, cat.k5_minus()) else
                 "B1" if is_isomorphic(x, cat.b1()) else "?")
                for x in pair
            )
            for pair in pairs
        }
        assert frozenset({"K5-", "B1"}) in names

    def test_separations_of_m22_connected_graph_stay_connected(self):
        # gluing two connected pieces and separating again keeps both sides
        # M(2,2)-connected, for the 2- and 3-edge flavours
        host2 = join(cat.b1(), cat.b2(), 2, ((0, 1, 2, 3), (0, 4, 5, 6)))
        for a, b in separations_of(host2, 2):
            assert is_m22_connected(a) and is_m22_connected(b)
        host3 = join(cat.k5_minus(), cat.b1(), 3, ((3, (0, 1, 2)), (2, (0, 1, 3))))
        for a, b in separations_of(host3, 3):
            assert is_m22_connected(a) and is_m22_connected(b)


def _outcome(f, *args):
    """The graph f returns, or the message of the MoveError it raises."""
    try:
        return "graph", f(*args)
    except MoveError as e:
        return "error", str(e)


def _spoiled(gluing, j, n, rng):
    """`gluing` with one of its vertices replaced by a random label in
    -2..n+1 (so it may name no vertex at all)."""
    k = rng.randrange(6 if j == 1 else 8)
    count = itertools.count()

    def put(x):
        if isinstance(x, tuple):
            return tuple(put(y) for y in x)
        return rng.randint(-2, n + 1) if next(count) == k else x

    return put(gluing)


class TestGluingRule:
    """One gluing and one completion rule against the per-kind versions."""

    def test_join_matches_per_kind_oracle(self):
        rng = random.Random(23)
        pool = join_pool()
        valid, invalid = set(), {}
        trials = 0
        while len(valid) < 500 or trials < 1000:
            G1, G2 = rng.choice(pool), rng.choice(pool)
            j = rng.choice((1, 2, 3))
            gluing = random_gluing(G1, G2, j, rng)
            if gluing is None:
                continue
            if rng.random() < 0.3:
                gluing = _spoiled(gluing, j, max(G1.n, G2.n), rng)
            kind, result = _outcome(join, G1, G2, j, gluing)
            assert (kind, result) == _outcome(join_per_kind, G1, G2, j, gluing), (j, gluing)
            if kind == "graph":
                valid.add((G1, G2, j, gluing))
            else:
                invalid[G1, G2, j, gluing] = result
            trials += 1
        assert len(invalid) >= 100
        assert any("does not exist" in m for m in invalid.values())
        assert any("must induce a K4" in m for m in invalid.values())

    def test_separations_match_per_kind_oracle(self):
        graphs = [G for G in decision_corpus(150, seed=57) if G.n >= 4]
        graphs += joined_graphs(100, seed=11)
        found = {1: 0, 2: 0, 3: 0}
        for G in graphs:
            for j in (1, 2, 3):
                got = separations_of(G, j)
                assert got == separations_of_per_kind(G, j), (G, j)
                found[j] += len(got)
        assert min(found.values()) >= 50

    def test_3_join_checks_that_every_vertex_exists(self):
        # -1 would read the last vertex's neighbours, 99 would be an IndexError
        K = cat.k5_minus()
        for gluing, x in [
            (((-1, (0, 1, 2)), (4, (0, 1, 2))), -1),
            (((99, (0, 1, 2)), (4, (0, 1, 2))), 99),
            (((4, (0, 1, 2)), (4, (0, 1, -5))), -5),
        ]:
            with pytest.raises(MoveError) as info:
                join(K, K, 3, gluing)
            assert str(info.value) == f"3-join: vertex {x} does not exist"
        G = join(K, K, 3, ((4, (0, 1, 2)), (4, (0, 1, 2))))
        assert (G.n, G.m) == (8, 15)

    def test_3_join_needs_three_distinct_neighbours(self):
        # vertex 0 of C5 has degree 2 and neighbours {1, 4}, which the list
        # (1, 1, 4) names with a repeat
        with pytest.raises(MoveError) as info:
            join(cat.cycle_graph(5), cat.k5_minus(), 3, ((0, (1, 1, 4)), (4, (0, 1, 2))))
        assert str(info.value) == "3-join: the three neighbours must be distinct in G1"

    def test_join_needs_j_from_one_to_three(self):
        with pytest.raises(MoveError, match="j must be 1, 2 or 3"):
            join(cat.b1(), cat.b1(), 4, ((0, 1), (0, 1, 2, 3)))
        with pytest.raises(MoveError, match="j must be 1, 2 or 3"):
            separations_of(cat.b1(), 0)


class TestReductionEngine:
    def test_a_reduced_graph_that_is_no_base_is_refused(self, monkeypatch):
        # the search hands back None only on K5- and B1, so base_name_of
        # always names the graph the loop ends on; with it patched to name
        # nothing, the "cannot happen" refusal is what reduce_to_base raises
        monkeypatch.setattr(moves, "base_name_of", lambda G: None)
        with pytest.raises(MoveError, match="^no admissible reduction found$"):
            reduce_to_base(cat.k5_minus())

    def test_entry_checks_after_the_first_are_free(self, monkeypatch):
        # every search starts by checking the graph the previous search
        # accepted; only the first one (the input) plays a game, its sorted
        # game, which answers its cold rank and component pass, and each
        # candidate plays one warm game.
        # Each walk is reduced as a fresh Graph: the generator's last check
        # may have left its sorted game on the instance it returns
        walks = [
            Graph(G.n, G.edges)
            for G in (random_m22_graph(steps, 880 + steps) for steps in range(2, 23, 4))
        ]
        checks, components, games = [], [], []
        real_check, real_components = moves.is_m22_connected, sparsity.m22_components
        real_init = sparsity.PebbleGame.__init__
        monkeypatch.setattr(
            moves, "is_m22_connected", lambda G, **kw: checks.append(kw) or real_check(G, **kw)
        )
        monkeypatch.setattr(
            sparsity, "m22_components", lambda G: components.append(G) or real_components(G)
        )
        monkeypatch.setattr(
            sparsity.PebbleGame, "__init__", lambda self, *a: games.append(a) or real_init(self, *a)
        )
        for G in walks:
            checks.clear()
            components.clear()
            games.clear()
            steps = len(reduce_to_base(G).steps)
            assert steps > 0
            candidates = sum(1 for kw in checks if kw)
            # one entry check per search, the last one on the base graph
            assert len(checks) - candidates == steps + 1
            assert components == [G]
            assert len(games) == 1 + candidates

    def test_warm_checks_match_cold_on_every_candidate(self, monkeypatch):
        # each candidate is decided again from scratch, on a fresh copy,
        # rejected ones too, so the search goes on as it would have
        verdicts, seeded, inserts = [], [], []
        real_check, real_insert = moves.is_m22_connected, sparsity.PebbleGame.insert

        def warm_and_cold(G, **kw):
            before = len(inserts)
            warm = real_check(G, **kw)
            if kw:
                if kw["seed"][0] is not None:
                    seeded.append((G.m, len(inserts) - before))
                verdicts.append((warm, real_check(Graph(G.n, G.edges))))
            return warm

        monkeypatch.setattr(moves, "is_m22_connected", warm_and_cold)
        monkeypatch.setattr(
            sparsity.PebbleGame, "insert", lambda *a: inserts.append(1) or real_insert(*a)
        )
        for s in range(150):
            reduce_to_base(random_m22_graph(s % 30 + 5, 9000 + s))
        warm, cold = map(list, zip(*verdicts))
        assert warm == cold
        assert warm.count(False) > 100 and len(seeded) > len(verdicts) // 2
        # the seeds carry most of each graph: a seeded game inserts few edges
        edges, played = map(sum, zip(*seeded))
        assert played * 4 < edges

    def test_candidates_match_both_ways_oracle(self):
        # every graph of the 100 `reduce-m22` traces and of the n = 90 and
        # n = 173 walks' traces: testing each edge once, then trying both
        # directions, yields the moves of testing each direction alone, in
        # the same order
        traces = (*_benchmark_traces(), _reduced_walk(80), _reduced_walk(160))
        kinds, graphs = set(), 0
        for trace in traces:
            for G in (trace.start, *(step.result for step in trace.steps)):
                got = list(_reduction_candidates(G))
                assert got == list(reduction_candidates_both_ways(G)), graph_hash(G)
                kinds |= {move.kind for move in got}
                graphs += 1
        assert graphs > 2000
        assert kinds == {"edge-deletion", "k4minus-reduction", "edge-reduction"}

    def test_each_search_hands_back_its_move_applied(self):
        # the step a search returns is the move applied to the graph it
        # searched, with the relabelling of that application
        for seed in range(40):
            G = random_m22_graph(seed % 9 + 1, 4100 + seed)
            while (step := find_admissible_reduction(G)) is not None:
                H, relabel = _apply_full(G, step.move)
                assert step.result == H
                assert step.relabel == (tuple(sorted(relabel.items())) if relabel else None)
                G = step.result
            assert base_name_of(G) is not None

    def test_each_candidate_is_applied_once(self, monkeypatch):
        # the accepted candidate's application is the step, so reduce_to_base
        # applies no move beyond the candidates its searches try
        applied, candidates = [], []
        real_apply, real_check = moves._apply_full, moves.is_m22_connected
        monkeypatch.setattr(
            moves, "_apply_full", lambda G, mv: applied.append(mv) or real_apply(G, mv)
        )
        monkeypatch.setattr(
            moves, "is_m22_connected",
            lambda G, **kw: (kw and candidates.append(G)) or real_check(G, **kw),
        )
        for steps in range(2, 23, 4):
            G = random_m22_graph(steps, 890 + steps)
            applied.clear()
            candidates.clear()
            trace = reduce_to_base(G)
            assert trace.steps
            assert len(applied) == len(candidates)

    def test_k4ring_reduction_sequence(self):
        trace = reduce_to_base(k4_ring_graph())
        kinds = [s.move.kind for s in trace.steps]
        assert kinds == [
            "edge-deletion",
            "k4minus-reduction",
            "edge-reduction",
            "k4minus-reduction",
            "edge-reduction",
        ]
        assert trace.base == "B1"

    def test_b2_single_edge_reduction(self):
        step = find_admissible_reduction(cat.b2())
        assert step is not None and step.move.kind == "edge-reduction"
        assert step.result == apply(cat.b2(), step.move)
        assert is_isomorphic(step.result, cat.b1())
        trace = reduce_to_base(cat.b2())
        assert len(trace.steps) == 1 and trace.base == "B1"

    def test_unknown_base_graph_refused(self):
        with pytest.raises(MoveError, match="^unknown base graph 'K5'$"):
            base_graph("K5")

    def test_every_searched_graph_has_minimum_degree_three(self, monkeypatch):
        # the candidates test no degree sum: every graph a search sees is
        # M(2,2)-connected, so each of its vertices has degree 3 or more
        searched = []
        real = moves._reduction_candidates
        monkeypatch.setattr(
            moves, "_reduction_candidates", lambda G: searched.append(G) or real(G)
        )
        for G in benchmark_graphs("reduce-m22").values():
            reduce_to_base(G)
        assert len(searched) > 1000
        assert min(G.min_degree() for G in searched) == 3

    def test_base_graphs_have_no_reduction(self):
        assert find_admissible_reduction(cat.k5_minus()) is None
        assert find_admissible_reduction(cat.b1()) is None
        assert reduce_to_base(cat.k5_minus()).steps == []

    def test_base_graphs_offer_no_candidate_in_any_labelling(self):
        # the search ends where its candidates run out, with no isomorphism
        # test, so no relabelling of a base graph may offer one
        rng = random.Random(22)
        for B in (cat.k5_minus(), cat.b1()):
            for _ in range(20):
                perm = rng.sample(range(B.n), B.n)
                H = Graph.from_edges(B.n, [(perm[u], perm[v]) for u, v in B.edges])
                assert list(moves._reduction_candidates(H)) == []
                assert find_admissible_reduction(H) is None

    def test_searches_make_no_isomorphism_test(self, monkeypatch):
        # only the end of reduce_to_base names the base, and only the
        # forward script maps it
        inside, searched = [], []
        real_search = moves.find_admissible_reduction

        def search(G):
            inside.append(G)
            try:
                return real_search(G)
            finally:
                inside.pop()

        def counted(real):
            return lambda *a: (inside and searched.append(a)) or real(*a)

        monkeypatch.setattr(moves, "find_admissible_reduction", search)
        for module in (moves, graphs):
            monkeypatch.setattr(module, "find_isomorphism", counted(module.find_isomorphism))
        monkeypatch.setattr(moves, "is_isomorphic", counted(moves.is_isomorphic))
        trace = reduce_to_base(random_m22_graph(30, 5))
        assert len(trace.steps) > 10
        assert searched == []
        assert is_isomorphic(rebuild_from_trace(trace), trace.start)

    def test_rejects_non_m22_input(self):
        with pytest.raises(MoveError):
            find_admissible_reduction(cat.wheel_graph(5))

    def test_trace_invariants_seeded(self):
        for seed in range(12):
            G = random_m22_graph(seed % 7, seed)
            trace = reduce_to_base(G)
            assert len(trace.steps) <= G.n + G.m - 14
            for step in trace.steps:
                # the search took the game each step kept, so this decides afresh
                assert is_m22_connected(step.result)
            assert is_isomorphic(rebuild_from_trace(trace), G)

    def test_reduction_exists_up_to_n14(self):
        # every generated graph away from the bases admits a move
        from planerigidity.moves import base_name_of

        found = 0
        for seed in range(40):
            G = random_m22_graph(seed % 5, 7000 + seed)
            if G.n > 14 or base_name_of(G) is not None:
                continue
            assert find_admissible_reduction(G) is not None
            found += 1
        assert found >= 15


def _walk_trace(seed: int, sort_pairs: bool = True) -> ReductionTrace:
    """A hand-built trace that undoes a random construction walk.

    The walk grows a base graph by all four construction moves.  The trace
    starts at the grown graph under a random relabelling and applies the
    walk's inverses in reverse order, renamed into the current labels, so
    it holds 1-reductions, which the engine never chooses, and deletes
    vertices that are not the last labels.  With sort_pairs false the pair
    of a K4--reduction is left in random order.
    """
    rng = random.Random(seed)
    G = cat.k5_minus() if rng.random() < 0.5 else cat.b1()
    walk = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["edge-addition", "1-extension", "k4minus-extension",
                           "generalized-vertex-split"])
        x, y = rng.choice(G.sorted_edges())
        if kind == "edge-addition":
            non_edges = [(u, v) for u in range(G.n) for v in range(u + 1, G.n)
                         if not G.has_edge(u, v)]
            if not non_edges:
                continue
            mv = Move(kind, rng.choice(non_edges))
        elif kind == "1-extension":
            mv = Move(kind, (x, y, rng.choice([w for w in range(G.n) if w not in (x, y)])))
        elif kind == "k4minus-extension":
            mv = Move(kind, (x, y))
        else:
            n2 = rng.sample(sorted(G.adj[x]), rng.randint(2, G.degree(x) - 1))
            n1 = G.adj[x] - set(n2)
            z = rng.choice([w for w in range(G.n) if w != x and w not in n1])
            mv = Move(kind, (x, z, *n2))
        walk.append((G, mv))
        G = apply(G, mv)
    pi = list(range(G.n))  # walk labels -> trace labels
    rng.shuffle(pi)
    current = Graph.from_edges(G.n, {(pi[u], pi[v]) for u, v in G.edges})
    trace = ReductionTrace(start=current)
    for H, mv in reversed(walk):
        red = inverse(H, mv)  # deletes only labels >= H.n of the walk
        params = [pi[x] for x in red.params]
        if red.kind == "k4minus-reduction" and (sort_pairs or rng.random() < 0.5):
            params.sort()
        move = Move(red.kind, tuple(params))
        nxt, relabel = _apply_full(current, move)
        trace.steps.append(TraceStep(
            move, tuple(sorted(relabel.items())) if relabel else None, nxt
        ))
        pi = [relabel[pi[w]] if relabel else pi[w] for w in range(H.n)]
        current = nxt
    trace.base = base_name_of(current)
    return trace


DEMO_02_GOLDEN = """\
grown graph: n=18, m=35
reduces to B1 in 10 moves:
  k4minus-reduction      (11, 12)           -> n=16 m=31  [4e0e0648d3c1b7ea]
  k4minus-reduction      (13, 14)           -> n=14 m=27  [5326a88f8507e2c8]
  edge-reduction         (0, 2, 1)          -> n=13 m=25  [179c50391dff4ac1]
  edge-reduction         (0, 4, 2)          -> n=12 m=23  [dbb2ea47bac25b6c]
  edge-reduction         (0, 1, 3)          -> n=11 m=21  [79262fc87dda5a28]
  edge-reduction         (1, 6, 0)          -> n=10 m=19  [4d41fa08e6e2eba0]
  edge-reduction         (0, 1, 6)          -> n= 9 m=17  [d55025e1046a925e]
  edge-reduction         (1, 7, 0)          -> n= 8 m=15  [b5248d9109bc384d]
  edge-reduction         (1, 7, 0)          -> n= 7 m=13  [94299ae10f37a5be]
  edge-reduction         (1, 2, 0)          -> n= 6 m=11  [7b947b7255e8317e]

replaying the forward script from the base:
  rebuilt graph: n=18, m=35
  isomorphic to the original: True

the forward script itself (what `planerigidity reduce` emits):
  base B1
  generalized-vertex-split 1 0 0 2
  generalized-vertex-split 1 0 0 3 6
  generalized-vertex-split 1 0 0 4 5
  generalized-vertex-split 0 4 4 5 8
  generalized-vertex-split 9 0 0 5 8
  generalized-vertex-split 0 1 1 9
  generalized-vertex-split 0 9 3 4 6 10
  generalized-vertex-split 0 11 1 2 11 12
  k4minus-extension 2 3
  k4minus-extension 11 1
"""


class TestForwardScript:
    """The undo rule against the earlier per-kind forward script."""

    def test_matches_per_kind_oracle_on_reduction_walks(self):
        for seed in range(100):
            trace = reduce_to_base(random_m22_graph(seed % 10 + 1, 900 + seed))
            assert trace.forward_script() == forward_script_per_kind(trace), seed

    def test_matches_per_kind_oracle_on_benchmark_inputs_and_large_walks(self):
        # the 100 `reduce-m22` inputs and the n = 173 and n = 344 walks
        walks = [_reduced_walk(160), _reduced_walk(320)]
        assert [trace.start.n for trace in walks] == [173, 344]
        for trace in (*_benchmark_traces(), *walks):
            assert trace.forward_script() == forward_script_per_kind(trace), trace.start.n

    def test_matches_per_kind_oracle_on_hand_built_traces(self):
        kinds = set()
        for seed in range(200):
            trace = _walk_trace(seed)
            kinds |= {s.move.kind for s in trace.steps}
            assert trace.base in ("K5-", "B1")
            assert trace.forward_script() == forward_script_per_kind(trace), seed
            assert is_isomorphic(rebuild_from_trace(trace), trace.start), seed
        assert kinds == set(REDUCTION_KINDS)

    def test_k4minus_pair_order_does_not_matter(self):
        # the two vertices a K4--extension makes are interchangeable
        reversed_pairs = 0
        for seed in range(80):
            trace = _walk_trace(seed, sort_pairs=False)
            reversed_pairs += sum(
                s.move.kind == "k4minus-reduction" and s.move.params[0] > s.move.params[1]
                for s in trace.steps
            )
            assert is_isomorphic(rebuild_from_trace(trace), trace.start), seed
        assert reversed_pairs > 0

    def test_demo_02_output_is_unchanged(self):
        demo = Path(__file__).resolve().parent.parent / "demos" / "02_construct_and_reduce.py"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        assert out.getvalue() == DEMO_02_GOLDEN

    def test_trace_that_does_not_end_at_its_base_refused(self):
        with pytest.raises(MoveError, match="^trace does not end at its base graph$"):
            ReductionTrace(cat.b1(), "K5-").forward_script()

    def test_a_construction_move_has_no_undo(self):
        with pytest.raises(MoveError, match="^unexpected reduction kind 'edge-addition'$"):
            moves._undo(cat.b1(), Move("edge-addition", (0, 1)))


class TestRandomGenerator:
    def test_zero_steps_is_base(self):
        for seed in range(6):
            G = random_m22_graph(0, seed)
            assert is_isomorphic(G, cat.k5_minus()) or is_isomorphic(G, cat.b1())

    def test_outputs_connected(self):
        for seed in range(10):
            G = random_m22_graph(seed % 5 + 1, seed)
            # fresh: the generator's last accepted split may be G, deciding it
            assert is_m22_connected(Graph(G.n, G.edges))

    def test_every_walk_step_has_minimum_degree_three(self, monkeypatch):
        # a split draws n2, 2 to deg v - 1 neighbours of v, and x from a
        # list that holds n2, with no re-roll for a vertex of degree below
        # 3 or an empty list: every graph the walk builds, and every graph
        # a split is drawn on, keeps minimum degree 3
        built, split = [], []
        real_apply, real_split = moves.apply, moves._random_split
        monkeypatch.setattr(
            moves, "apply", lambda G, mv: built.append(real_apply(G, mv)) or built[-1]
        )
        monkeypatch.setattr(
            moves, "_random_split", lambda G, rng: split.append(G) or real_split(G, rng)
        )
        G = random_m22_graph(160, 7)
        assert G.n == 173 and built[-1] == G
        assert len(built) >= 160 and len(split) > 30
        assert min(H.min_degree() for H in built + split) == 3

    def test_move_preservation_seeded(self):
        # 1-extensions, edge additions, K4--extensions and accepted splits
        # keep the matroid connected, checked over fresh random hosts.
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            G = random_m22_graph(rng.randint(0, 3), rng.randrange(2**32))
            kind = rng.choice(["edge-addition", "1-extension", "k4minus-extension"])
            if kind == "edge-addition":
                non_edges = [
                    (u, v)
                    for u in range(G.n)
                    for v in range(u + 1, G.n)
                    if not G.has_edge(u, v)
                ]
                if not non_edges:
                    continue
                H = apply(G, Move("edge-addition", rng.choice(non_edges)))
            elif kind == "1-extension":
                x, y = rng.choice(G.sorted_edges())
                z = rng.choice([w for w in range(G.n) if w not in (x, y)])
                H = apply(G, Move("1-extension", (x, y, z)))
            else:
                H = apply(G, Move("k4minus-extension", rng.choice(G.sorted_edges())))
            assert is_m22_connected(H)
            checked += 1

    def test_negative_steps_refused(self):
        with pytest.raises(MoveError, match="^steps must be non-negative$"):
            random_m22_graph(-1, 0)

    def test_split_falls_back_to_a_k4minus_extension(self, monkeypatch):
        # when all 40 drawn splits are refused, the split step is a
        # K4--extension on a drawn edge
        refused = []
        monkeypatch.setattr(moves, "is_m22_connected", lambda H: refused.append(H) or False)
        G = cat.b1()
        H = moves._random_split(G, random.Random(4))
        assert len(refused) == 40
        assert any(H == apply(G, Move("k4minus-extension", e)) for e in G.sorted_edges())
