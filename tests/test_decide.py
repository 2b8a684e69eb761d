import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planerigidity import catalog as cat
from planerigidity import decide, geometry, graphs, sparsity
from planerigidity.decide import (
    _vertex_deletion_rigid,
    certify,
    euclidean_transfer,
    hendrickson_check,
    is_globally_rigid_analytic,
    is_globally_rigid_euclidean,
    sufficient_checks,
)
from planerigidity.geometry import NormedPlane, Placement
from planerigidity.graphs import Graph, first_cut_vertex, is_k_connected
from planerigidity.moves import find_admissible_reduction, random_m22_graph
from planerigidity.randomgraphs import gnp_graph
from planerigidity.sparsity import (
    PebbleGame,
    _rank_and_coloops,
    _sorted_game,
    ear_decomposition,
    is_circuit22,
    is_m22_connected,
    m22_components,
    rank2k,
    take_m22_game,
)

from corpus import benchmark_graphs, decision_corpus, experiment_graphs, named_graphs
from oracles import (
    coloops_leave_one_out,
    components_brute,
    components_multipass,
    components_search,
    ear_decomposition_games,
    euclidean_by_stopped_game,
    first_cut_vertex_scan,
    graphs_up_to_iso,
    is_circuit22_leave_one_out,
    is_k_connected_cut_scan,
    negative_reason_from_parts,
    rank_and_coloops,
    report_single_pass,
    vertex_deletion_rigid_games,
)


@st.composite
def dense_graphs(draw):
    """Complete graphs on 3..9 vertices with up to a third of the edges gone."""
    n = draw(st.integers(3, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dropped = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs) // 3))
    return Graph.from_edges(n, [e for e in pairs if e not in dropped])


class TestMainDecision:
    def test_named_verdicts(self):
        assert is_globally_rigid_analytic(cat.b1()).globally_rigid_analytic
        assert not is_globally_rigid_analytic(cat.wheel_graph(5)).globally_rigid_analytic
        assert is_globally_rigid_analytic(cat.complete_bipartite(3, 6)).globally_rigid_analytic
        assert not is_globally_rigid_analytic(cat.two_k4_shared_vertex()).globally_rigid_analytic
        assert is_globally_rigid_analytic(cat.complete_graph(6)).globally_rigid_analytic

    def test_small_graph_convention(self):
        r = is_globally_rigid_analytic(cat.complete_graph(4))
        assert not r.globally_rigid_analytic
        assert "small_graph" in r.reasons

    def test_wheel_reason_names_circuit_free_edge(self):
        r = is_globally_rigid_analytic(cat.wheel_graph(5))
        assert "edge_in_no_circuit" in r.reasons

    def test_cut_vertex_reason(self):
        r = is_globally_rigid_analytic(cat.two_k4_shared_vertex())
        assert r.reasons.get("cut_vertex") == "0"

    def test_matroid_disconnected_reason(self):
        # two K5s sharing vertex 4: rank 2n - 2 with no coloop, but the
        # matroid has two components, so no edge is named
        K5 = cat.complete_graph(5).edges
        G = Graph.from_edges(9, [*K5, *((u + 4, v + 4) for u, v in K5)])
        text = is_globally_rigid_analytic(G).to_text()
        assert "reason.cut_vertex: 4\n" in text
        assert "reason.matroid_disconnected: 2 components\n" in text
        assert "edge_in_no_circuit" not in text

    def test_negative_matroid_reasons_against_the_oracles(self):
        # the reason reads the parts that the cold check built; the circuit
        # enumeration of components_brute is affordable up to 8 vertices
        # (over a minute for some graphs on 10), the many-game oracle
        # checks the rest and two K5s on one vertex
        K5 = cat.complete_graph(5).edges
        graphs = decision_corpus(300, seed=5)
        graphs.append(Graph.from_edges(9, [*K5, *((u + 4, v + 4) for u, v in K5)]))
        found = []
        for G in graphs:
            if G.n < 5:
                continue
            got = {
                k: v for k, v in is_globally_rigid_analytic(G).reasons.items()
                if k in ("edge_in_no_circuit", "matroid_disconnected")
            }
            if not got:
                continue
            comps = components_brute(G) if G.n <= 8 else components_multipass(G)
            singleton = next((c for c in comps if len(c) == 1), None)
            if singleton is not None:
                (e,) = singleton
                want = {"edge_in_no_circuit": f"{e[0]}-{e[1]}"}
            else:
                want = {"matroid_disconnected": f"{len(comps)} components"}
            assert got == want, G.sorted_edges()
            found += want
        assert len(found) > 100 and set(found) == {"edge_in_no_circuit", "matroid_disconnected"}

    def test_cut_vertex_reason_on_corpus(self):
        # past n = 4 a graph that is not 2-connected always has a cut
        # vertex: deleting it leaves a disconnected graph
        count = 0
        for G in decision_corpus(300, seed=5):
            if G.n < 5 or is_k_connected(G, 2):
                continue
            cut = is_globally_rigid_analytic(G).reasons["cut_vertex"]
            assert cut.isdigit() and int(cut) == first_cut_vertex_scan(G), G.sorted_edges()
            count += 1
        assert count > 10

    def test_positive_report_carries_ear_decomposition(self):
        r = is_globally_rigid_analytic(cat.complete_bipartite(3, 6))
        assert "ear_decomposition" in r.reasons
        assert r.reasons["ear_decomposition"].startswith("t=2")

    def test_report_invariant(self):
        for G in decision_corpus(60, seed=2):
            if G.n < 2:
                continue
            r = is_globally_rigid_analytic(G)
            assert r.globally_rigid_analytic == (
                r.two_connected and r.m22_connected
            )


def _antiprisms_sharing_a_vertex(k: int) -> Graph:
    """Two k-vertex antiprisms (edges i-(i+1) and i-(i+2) mod k) sharing
    vertex k - 1: n = 2k - 1, least degree 4, one cut vertex."""
    ring = [(i, (i + d) % k) for i in range(k) for d in (1, 2)]
    return Graph.from_edges(2 * k - 1, ring + [(u + k - 1, v + k - 1) for u, v in ring])


class TestSufficientOnlyOnAPositiveVerdict:
    """The sufficient conditions run only on a positive verdict; the
    earlier report, which ran them on every graph, is the oracle
    `report_single_pass`."""

    def test_reports_equal_the_single_pass_report(self, monkeypatch):
        corpora = {
            "decision_corpus(300, seed=5)": decision_corpus(300, seed=5),
            "decision_corpus(500, seed=31)": decision_corpus(500, seed=31),
            "graphs up to six vertices": [G for n in (5, 6) for G in graphs_up_to_iso(n)],
            "check-m22 inputs": list(benchmark_graphs("check-m22").values()),
            "certify-lp inputs": list(benchmark_graphs("certify-lp").values()),
            "experiment-gnp samples": experiment_graphs(),
        }
        assert len(corpora["experiment-gnp samples"]) == 200
        calls = []
        real = sufficient_checks
        monkeypatch.setattr(
            decide, "sufficient_checks", lambda G: calls.append(G) or real(G)
        )
        for name, members in corpora.items():
            verdicts = []
            for G in members:
                if G.n < 2:
                    continue
                calls.clear()
                got = is_globally_rigid_analytic(Graph(G.n, G.edges))
                assert got == report_single_pass(Graph(G.n, G.edges)), (name, sorted(G.edges))
                # the oracle calls the condition itself, not the patched name
                assert len(calls) == (1 if got.globally_rigid_analytic else 0), name
                verdicts.append(got.globally_rigid_analytic)
            assert True in verdicts and False in verdicts, name

    def test_a_negative_verdict_keeps_the_transitivity_notice(self):
        # connected, least degree 4 and n > TRANSITIVITY_CAP, so the notice
        # is due, and a cut vertex makes the verdict negative
        for k in (7, 8, 20):
            G = _antiprisms_sharing_a_vertex(k)
            got = is_globally_rigid_analytic(G)
            assert got == report_single_pass(Graph(G.n, G.edges)), k
            assert not got.globally_rigid_analytic
            assert got.sufficient_conditions_hit == []
            assert got.notices == [
                f"transitivity check skipped (n > {decide.TRANSITIVITY_CAP})"
            ]

    def test_the_notice_rule_against_its_cases(self):
        # below the cap, least degree 3, or disconnected: no notice
        K7 = cat.complete_graph(7)
        two_k7s = Graph.from_edges(14, list(K7.edges) + [(u + 7, v + 7) for u, v in K7.edges])
        for G, want in (
            (_antiprisms_sharing_a_vertex(6), []),  # n = 11
            (two_k7s, []),
            (cat.wheel_graph(14), []),
            (cat.complete_bipartite(7, 7), ["transitivity check skipped (n > 12)"]),
        ):
            assert is_globally_rigid_analytic(G).notices == want
            assert report_single_pass(Graph(G.n, G.edges)).notices == want


class TestTripleEquivalence:
    def test_on_corpus(self):
        for G in decision_corpus(120, seed=9):
            if G.n < 4:
                continue
            a = is_m22_connected(G)
            b = _two_conn_and_redundant_by_ranks(G)
            has_isolated = G.min_degree() == 0
            if has_isolated:
                c = False
            else:
                c = ear_decomposition(G) is not None and is_k_connected(G, 2)
            assert a == b == c, sorted(G.edges)


def _two_conn_and_redundant_by_ranks(G: Graph) -> bool:
    """2-connected + spanning tight + no coloop, computed from ranks only."""
    if G.m < 2 or not is_k_connected(G, 2):
        return False
    edges = G.sorted_edges()
    r = rank2k(edges, 2)
    if r != 2 * G.n - 2:
        return False
    return all(
        rank2k(edges[:i] + edges[i + 1:], 2) == r for i in range(G.m)
    )


class TestHendrickson:
    def test_circuit_passes_both(self):
        rep = hendrickson_check(cat.k5_minus())
        assert rep.two_connected and rep.spanning_tight and rep.every_edge_redundant

    def test_k4_fails_redundancy(self):
        rep = hendrickson_check(cat.complete_graph(4))
        assert rep.two_connected and rep.spanning_tight
        assert not rep.every_edge_redundant

    def test_bowtie_fails_connectivity(self):
        rep = hendrickson_check(cat.bowtie())
        assert not rep.two_connected

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_refused(self, n):
        with pytest.raises(ValueError, match="^needs at least 2 vertices$"):
            hendrickson_check(Graph(n, frozenset()))

    def test_necessity_on_corpus(self):
        for G in decision_corpus(80, seed=4):
            if G.n < 2:
                continue
            if is_globally_rigid_analytic(G).globally_rigid_analytic:
                assert hendrickson_check(G).passes


class TestSufficientConditions:
    def test_k6_fires_named_conditions(self):
        fired, _ = sufficient_checks(cat.complete_graph(6))
        assert {
            "edge_connectivity_4",
            "min_degree_half_order",
            "vertex_deletion_rigid",
            "vertex_or_edge_transitive",
        } <= set(fired)

    def test_k36_fires_none_yet_rigid(self):
        fired, _ = sufficient_checks(cat.complete_bipartite(3, 6))
        assert fired == []
        assert is_globally_rigid_analytic(cat.complete_bipartite(3, 6)).globally_rigid_analytic

    def test_c6_fires_none(self):
        assert sufficient_checks(cat.cycle_graph(6))[0] == []

    def test_transitivity_cap_notice(self):
        G = cat.complete_bipartite(7, 7)  # n = 14 > cap, min degree 7
        fired, notes = sufficient_checks(G)
        assert any("skipped" in n for n in notes)

    def test_vertex_deletion_filter_against_the_games(self):
        # m - Delta < 2n - 4 skips the n games; the condition must fire
        # exactly when every G - v is rigid
        graphs = decision_corpus(300, seed=5) + [
            cat.complete_graph(6), cat.complete_bipartite(4, 5), cat.wheel_graph(7)
        ]
        filtered = fired = 0
        for G in graphs:
            if G.n < 3 or G.m == 0:
                continue
            want = vertex_deletion_rigid_games(G)
            assert ("vertex_deletion_rigid" in sufficient_checks(G)[0]) == want
            filtered += G.m - max(G.degree(v) for v in range(G.n)) < 2 * G.n - 4
            fired += want
        assert filtered > 50 and fired > 10

    def test_vertex_deletion_shortcut_against_the_games(self, monkeypatch):
        # one basis B of G, then a game seeded with B - v only where
        # deg_B(v) > 2; compared without the edge-count filter in front
        rng = random.Random(12)
        dense = [
            gnp_graph(rng.randint(6, 13), rng.uniform(0.45, 0.85), rng.randrange(10**6))
            for _ in range(150)
        ]
        K6, K7 = cat.complete_graph(6), cat.complete_graph(7)
        nonrigid = [
            K7.edit(add=[(0, 7)], grow=1)[0],  # a pendant vertex
            K7.edit(add=[(0, 7), (1, 8), (7, 8)], grow=2)[0],  # a hanging triangle
            K6.edit(add=[(u + 6, v + 6) for u, v in K6.edges] + [(0, 6)], grow=6)[0],
            cat.complete_bipartite(3, 3),
            cat.cycle_graph(8),
        ]
        seeded = []
        real_seed = PebbleGame.seed
        monkeypatch.setattr(
            PebbleGame, "seed", lambda *args: seeded.append(1) or real_seed(*args)
        )
        want_counts = {True: 0, False: 0}
        rigid_but_not = 0
        for G in decision_corpus(300, seed=5) + dense + nonrigid:
            if G.n < 3:
                continue
            want = vertex_deletion_rigid_games(G)
            assert _vertex_deletion_rigid(G) == want, sorted(G.edges)
            want_counts[want] += 1
            rigid_but_not += not want and rank2k(G.edges, 2) == 2 * G.n - 2
        for G in nonrigid:
            assert rank2k(G.edges, 2) < 2 * G.n - 2 and not _vertex_deletion_rigid(G)
        # the seeded games ran, and they rejected rigid graphs as well as passed them
        assert want_counts[True] > 100 and want_counts[False] > 100
        assert rigid_but_not > 50 and len(seeded) > 100

    @settings(max_examples=150, deadline=None)
    @given(dense_graphs())
    def test_vertex_deletion_shortcut_property(self, G):
        assert _vertex_deletion_rigid(G) == vertex_deletion_rigid_games(G)

    def test_vertex_deletion_builds_no_graph(self, monkeypatch):
        # each G - v is G's edge list without v, played in G's labels
        graphs = [
            G for G in decision_corpus(100, seed=5) + [cat.complete_bipartite(4, 5)]
            if G.n >= 3 and G.m - max(G.degree(v) for v in range(G.n)) >= 2 * G.n - 4
        ]
        built = []
        real = Graph.__init__
        monkeypatch.setattr(Graph, "__init__", lambda self, *a: built.append(1) or real(self, *a))
        fired = sum("vertex_deletion_rigid" in sufficient_checks(G)[0] for G in graphs)
        assert built == [] and fired > 5

    @staticmethod
    def k5s(j):
        """Two K5s on 0..4 and 5..9 joined by the edges i-(i+5), i < j."""
        K5 = list(cat.complete_graph(5).edges)
        edges = K5 + [(u + 5, v + 5) for u, v in K5] + [(i, i + 5) for i in range(j)]
        return Graph.from_edges(10, edges)

    def test_vertex_deletion_reads_the_regions(self, monkeypatch):
        # only the non-basis f avoiding v with v in R_f can raise the rank
        # of B - v: too few of them answer no game, one at deg_B(v) = 3
        # answers yes, and the seeded game plays only them
        seeded = []
        real_seed = PebbleGame.seed
        monkeypatch.setattr(
            PebbleGame, "seed", lambda *args: seeded.append(1) or real_seed(*args)
        )
        graphs = decision_corpus(300, seed=5) + experiment_graphs() + [
            self.k5s(j) for j in range(1, 6)
        ]
        verdicts = []
        for G in graphs:
            if G.n < 3:
                continue
            want = vertex_deletion_rigid_games(G)
            assert _vertex_deletion_rigid(G) == want, sorted(G.edges)
            verdicts.append(want)
        assert verdicts.count(True) > 150 and verdicts.count(False) > 300
        # a game at every vertex of basis degree > 2 up to the first that
        # fails made 1428 games here; the regions leave 855 to play
        assert 50 < len(seeded) < 1000
        assert [_vertex_deletion_rigid(self.k5s(j)) for j in range(1, 6)] == [
            False, False, True, True, True
        ]

    def test_soundness_on_corpus(self):
        count = 0
        for G in decision_corpus(500, seed=31):
            if G.n < 2:
                continue
            fired, _ = sufficient_checks(G)
            if fired:
                count += 1
                assert is_globally_rigid_analytic(G).globally_rigid_analytic, (
                    fired, sorted(G.edges)
                )
        assert count > 10  # the corpus must actually exercise the checks


class TestEuclidean:
    def test_named(self):
        assert is_globally_rigid_euclidean(cat.wheel_graph(5))
        assert not is_globally_rigid_euclidean(cat.b1())
        assert is_globally_rigid_euclidean(cat.complete_graph(4))
        assert is_globally_rigid_euclidean(cat.complete_graph(3))
        assert not is_globally_rigid_euclidean(cat.path_graph(3))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_refused(self, n):
        for decision in (is_globally_rigid_euclidean, euclidean_transfer):
            with pytest.raises(ValueError, match="^needs at least 2 vertices$"):
                decision(Graph(n, frozenset()))

    def test_transfer_needs_a_euclidean_globally_rigid_graph(self):
        with pytest.raises(
            ValueError, match="^precondition: G must be globally rigid in the Euclidean plane$"
        ):
            euclidean_transfer(cat.b1())

    def test_transfer_values(self):
        assert not euclidean_transfer(cat.wheel_graph(5))
        assert euclidean_transfer(cat.complete_graph(5))
        assert not euclidean_transfer(cat.complete_graph(4))

    def test_transfer_requires_euclidean_rigidity(self):
        with pytest.raises(ValueError):
            euclidean_transfer(cat.b1())

    @pytest.mark.parametrize("seed", [5, 11, 71])
    def test_stopped_game_against_rank_and_coloops(self, seed, monkeypatch):
        # the verdict reads G's sorted (2,3) game; the earlier verdict's own
        # game, stopped once the rank is 2n - 3 and every basis edge lies in
        # a circuit read, agrees, and some of its games stop before the
        # last edge
        inserts = []
        insert = PebbleGame.insert
        monkeypatch.setattr(
            PebbleGame, "insert", lambda game, u, v: inserts.append(1) or insert(game, u, v)
        )
        games = stopped = 0
        for G in decision_corpus(300, seed=seed):
            if G.n < 2:
                continue
            got = is_globally_rigid_euclidean(G)
            inserts.clear()
            assert euclidean_by_stopped_game(G) == got, G.sorted_edges()
            played = len(inserts)
            if G.n <= 3 or not is_k_connected(G, 3):
                assert got == (G.n <= 3 and G.is_complete())
                continue
            rank, cols = _rank_and_coloops(Graph(G.n, G.edges), 3)
            assert got == (rank == 2 * G.n - 3 and not cols), G.sorted_edges()
            games += 1
            stopped += played < G.m
        assert games > 30 and stopped > 10

    def test_transfer_matches_analytic_on_corpus(self):
        for G in decision_corpus(150, seed=13):
            if G.n < 5:
                continue
            if is_globally_rigid_euclidean(G):
                assert euclidean_transfer(G) == \
                    is_globally_rigid_analytic(G).globally_rigid_analytic


class TestMonotonicity:
    def test_edge_addition_never_breaks_rigidity(self):
        rng = random.Random(17)
        checked = 0
        for G in decision_corpus(120, seed=23):
            if G.n < 5 or G.is_complete():
                continue
            if not is_globally_rigid_analytic(G).globally_rigid_analytic:
                continue
            non_edges = [
                (u, v)
                for u in range(G.n)
                for v in range(u + 1, G.n)
                if not G.has_edge(u, v)
            ]
            e = rng.choice(non_edges)
            assert is_globally_rigid_analytic(G.add_edge(*e)).globally_rigid_analytic
            checked += 1
        assert checked >= 5


class TestCertify:
    def test_k36(self):
        r = certify(cat.complete_bipartite(3, 6), NormedPlane(4), 3)
        na = r.numeric_agreement
        assert r.globally_rigid_analytic
        assert na.mode == "exact"
        assert na.rank == 16 and na.target == 16
        assert na.redundant_numeric
        assert all(v == 16 for v in na.edge_ranks.values())
        assert na.matches_combinatorial

    def test_wheel_rigid_not_redundant(self):
        r = certify(cat.wheel_graph(5), NormedPlane(4), 3)
        na = r.numeric_agreement
        assert na.inf_rigid_numeric and not na.redundant_numeric
        assert min(na.edge_ranks.values()) == 9
        assert na.matches_combinatorial

    def test_k33_flexible(self):
        r = certify(cat.complete_bipartite(3, 3), NormedPlane(4), 3)
        na = r.numeric_agreement
        assert na.rank == 9 and na.target == 10
        assert not na.inf_rigid_numeric
        assert na.matches_combinatorial

    def test_euclidean_mode(self):
        r = certify(cat.wheel_graph(5), NormedPlane(2), 5)
        na = r.numeric_agreement
        assert na.target == 2 * 6 - 3
        assert na.inf_rigid_numeric and na.redundant_numeric
        assert na.matches_combinatorial

    def test_numeric_agreement_across_corpus(self):
        plane = NormedPlane(4)
        checked = 0
        for i, G in enumerate(decision_corpus(50, seed=77, max_n=8)):
            if G.n < 2 or G.m == 0:
                continue
            r = certify(G, plane, seed=6000 + i)
            assert r.numeric_agreement.matches_combinatorial, sorted(G.edges)
            checked += 1
        assert checked >= 40

    def test_degenerate_placement_names_disagreeing_edges(self):
        # K5 plus a vertex of degree 2, drawn on the line y = x: the rank
        # collapses to n - 1, so no edge is numerically redundant, while
        # every K5 edge lies in a circuit; the two edges at vertex 5 are
        # coloops and agree
        G = Graph.from_edges(6, cat.complete_graph(5).edges | {(0, 5), (1, 5)})
        pl = Placement(tuple((v, v) for v in range(6)))
        r = certify(G, NormedPlane(4), 0, placement=pl)
        na = r.numeric_agreement
        assert na.rank == 5 and na.target == 10
        assert not na.matches_combinatorial
        assert na.disagreeing_edges == tuple(sorted(cat.complete_graph(5).edges))
        assert r.to_text().endswith(
            "numeric.matches_combinatorial: false\n"
            "numeric.disagreeing_edges: 0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4"
        )

    @pytest.mark.parametrize("p, floats", [(40.5, False), (41, True)], ids=["p40.5", "p41-floats"])
    def test_a_disagreement_without_integer_rows_stands(self, monkeypatch, p, floats):
        # K5- loses rows to the float tolerance at a large p.  certify asks
        # for integer rows; at a non-integer p, or on a float placement,
        # rigidity_operator refuses them, and the float answer is reported
        asked = []
        real = decide.rigidity_operator
        monkeypatch.setattr(
            decide, "rigidity_operator",
            lambda *a, exact=False: asked.append(exact) or real(*a, exact=exact),
        )
        G, plane = cat.k5_minus(), NormedPlane(p)
        pl = geometry.random_regular_placement(G, plane, 0)
        if floats:
            pl = Placement(tuple((float(x), float(y)) for x, y in pl.coords))
        text = certify(G, plane, 0, placement=pl).to_text()
        assert asked == [False, True]
        assert text.endswith(
            f"numeric.plane_p: {p:g}\nnumeric.seed: 0\nnumeric.mode: float\nnumeric.rank: 8/8\n"
            "numeric.inf_rigid: true\nnumeric.redundant: false\n"
            "numeric.matches_combinatorial: false\n"
            "numeric.disagreeing_edges: 0-1 0-2 0-3 0-4 1-3 2-3"
        )

    def test_no_disagreement_line_when_agreeing(self):
        for i, G in enumerate(decision_corpus(30, seed=78, max_n=8)):
            if G.n < 2 or G.m == 0:
                continue
            r = certify(G, NormedPlane(4), seed=6100 + i)
            assert r.numeric_agreement.matches_combinatorial
            assert r.numeric_agreement.disagreeing_edges == ()
            assert "disagreeing" not in r.to_text()


class TestPerGraphFacts:
    """G's sorted (2,2) game and its lowpoint DFS are computed once per
    Graph instance and read by every stage of the decision."""

    @staticmethod
    def positives():
        walks = [random_m22_graph(steps, 700 + steps) for steps in (3, 12, 30)]
        return [cat.k5_minus(), cat.b1(), cat.complete_bipartite(3, 6)] + walks

    def test_one_sorted_game_per_decision(self, monkeypatch):
        # a full sorted game inserts every edge of G in sorted order; the
        # cold check's rank, its components and the extras all read it
        played = {}
        insert = PebbleGame.insert

        def record(game, u, v):
            played.setdefault(id(game), (game, []))[1].append((u, v))
            return insert(game, u, v)

        monkeypatch.setattr(PebbleGame, "insert", record)
        for G in self.positives():
            G = Graph(G.n, G.edges)  # fresh: nothing computed on it yet
            played.clear()

            def full_games():
                return sum(
                    game.k == 2 and seq == G.sorted_edges() for game, seq in played.values()
                )

            assert is_globally_rigid_analytic(G).globally_rigid_analytic
            assert full_games() == 1
            certify(G, NormedPlane(4), 3)
            assert full_games() == 1

    def test_one_game_per_k(self, monkeypatch):
        # certify at p = 2 reads the (2,3) game the Euclidean verdict
        # played, and a full report plays at most one game per k besides
        # the seeded games of the vertex-deletion condition
        made, seeded = [], []
        init, seed = PebbleGame.__init__, PebbleGame.seed
        monkeypatch.setattr(
            PebbleGame, "__init__", lambda game, n, k: made.append(k) or init(game, n, k)
        )
        monkeypatch.setattr(
            PebbleGame, "seed", lambda game, *args: seeded.append(game.k) or seed(game, *args)
        )
        certified = 0
        for i, G in enumerate(decision_corpus(300, seed=5)):
            if G.n < 4 or not is_k_connected(G, 3):
                continue
            made.clear()
            seeded.clear()
            is_globally_rigid_analytic(Graph(G.n, G.edges))
            assert all(made.count(k) - seeded.count(k) <= 1 for k in (2, 3)), made
            if certified < 20:
                made.clear()
                certify(Graph(G.n, G.edges), NormedPlane(2), 7000 + i)
                assert made.count(3) == 1, made
                certified += 1
        assert certified == 20

    def test_one_lowpoint_dfs_per_exact_certify(self, monkeypatch):
        # the exact ranks split the operator at the blocks of the DFS its
        # graph already holds: `rigidity_operator` hands the operator G
        runs = []
        real = graphs._lowpoint_dfs

        def counted(G, drop=()):
            runs.append(drop)
            return real(G, drop)

        monkeypatch.setattr(graphs, "_lowpoint_dfs", counted)
        monkeypatch.setattr(geometry, "_lowpoint_dfs", counted)
        for G in (cat.k5_minus(), cat.wheel_graph(8)):
            G = Graph(G.n, G.edges)
            runs.clear()
            report = certify(G, NormedPlane(4), 3).to_text()
            assert "two_connected: true" in report and "numeric.mode: exact" in report
            assert runs == [()]

    def test_no_reader_mutates_the_sorted_game(self, monkeypatch):
        parents = []
        seed = PebbleGame.seed

        def record(game, parent, *args):
            parents.append(parent)
            return seed(game, parent, *args)

        monkeypatch.setattr(PebbleGame, "seed", record)
        for G in self.positives()[2:]:  # K5- and B1 are base graphs: no search
            G = Graph(G.n, G.edges)
            game, regions, classes = _sorted_game(G)
            before = copy.deepcopy((vars(game), regions, classes))
            ear_decomposition(G)
            ear_decomposition(G)
            m22_components(G)
            assert is_m22_connected(G)  # cold: G keeps its sorted game
            assert G._m22_game == [game]
            parents.clear()
            find_admissible_reduction(G)
            assert take_m22_game(G) is None  # the search took it
            assert parents and all(p is game for p in parents)
            assert _sorted_game(G)[0] is game
            assert (vars(game), *_sorted_game(G)[1:]) == before

    @staticmethod
    def readers(G):
        """Every reader of the per-graph facts that applies to G, by name,
        in the order a decision reads them."""
        out = {
            "k1": lambda H: is_k_connected(H, 1),
            "k2": lambda H: is_k_connected(H, 2),
            "k3": lambda H: is_k_connected(H, 3),
            "cut": first_cut_vertex,
            "components": Graph.components,
            "connected": Graph.is_connected,
            "m22": is_m22_connected,
            "coloops2": lambda H: _rank_and_coloops(H, 2),
            "coloops3": lambda H: _rank_and_coloops(H, 3),
            "vertex_deletion": _vertex_deletion_rigid,
            "hendrickson": hendrickson_check,
            "euclidean": is_globally_rigid_euclidean,
            "report": lambda H: is_globally_rigid_analytic(H).to_text(),
        }
        if G.m >= 1 and G.min_degree() > 0:
            out.update(m22_components=m22_components, circuit=is_circuit22, ears=ear_decomposition)
        return out

    def test_every_reader_against_a_fresh_copy_and_the_oracles(self):
        for G in [G for G in decision_corpus(300, seed=5) if G.n >= 3]:
            readers = self.readers(G)
            cached = {}
            for _ in range(2):  # the second pass reads what the first stored
                for key, read in readers.items():
                    got = read(G)
                    assert cached.setdefault(key, got) == got, key
            for key, read in readers.items():
                # each reader alone, on a graph that holds nothing yet
                assert read(Graph(G.n, G.edges)) == cached[key], key
            for k in (1, 2, 3):
                assert cached[f"k{k}"] == is_k_connected_cut_scan(G, k)
            assert cached["cut"] == first_cut_vertex_scan(G)
            assert cached["components"] == components_search(G)
            assert cached["connected"] == (len(components_search(G)) == 1)
            if "ears" in cached:
                assert cached["m22_components"] == components_multipass(G)
                assert cached["circuit"] == is_circuit22_leave_one_out(G)
                assert cached["ears"] == ear_decomposition_games(G)
            for k in (2, 3):
                rank, cols = cached[f"coloops{k}"]
                assert (rank, cols) == rank_and_coloops(G.edges, k)
                assert cols == coloops_leave_one_out(G.sorted_edges(), k)
            assert cached["vertex_deletion"] == vertex_deletion_rigid_games(G)

    def test_components_hands_out_copies(self):
        G = cat.bowtie()
        comps = G.components()
        comps[0].add(99)
        comps.append({7})
        assert G.components() == [{0, 1, 2, 3, 4}]
        assert is_k_connected(G, 1) and first_cut_vertex(G) == 0

    def test_m22_components_hands_out_copies(self):
        G = cat.two_k4_shared_vertex()
        want = m22_components(G)
        got = m22_components(G)
        assert got == want and got is not want
        got.clear()
        want.append(frozenset({(0, 1)}))
        assert m22_components(G) == m22_components(Graph(G.n, G.edges))
        assert len(m22_components(G)) == 12

    def test_each_sorted_game_merges_its_regions_once(self, monkeypatch):
        # check, certify at p = 2 and certify at p = 4 read the classes of
        # each sorted game they play, the (2,2) game and at p = 2 or on a
        # 3-connected graph the (2,3) game, for the cold check, the
        # coloops and a negative reason; the classes are merged once, with
        # the game, so the merges are as many as the kept games
        merged = []
        real = sparsity._region_classes
        monkeypatch.setattr(sparsity, "_region_classes", lambda r: merged.append(1) or real(r))
        runs = (
            is_globally_rigid_analytic,
            lambda G: certify(G, NormedPlane(2), 1),
            lambda G: certify(G, NormedPlane(4), 1),
        )
        kept = []
        for G in benchmark_graphs().values():
            for run in runs:
                G = Graph(G.n, G.edges)
                merged.clear()
                run(G)
                assert len(merged) == len(G._sorted_games), G
                kept.append(len(G._sorted_games))
        assert set(kept) == {1, 2}

    def test_negative_reasons_match_the_parts_oracle(self):
        # the least coloop, else the number of classes, against the rule
        # on the sorted edge parts: its first singleton part, else the
        # part count; the degenerate test comes first on both sides
        reasons = {"degenerate", "edge_in_no_circuit", "matroid_disconnected"}
        corpora = {
            "corpus": decision_corpus(300, seed=5),
            "check-m22": list(benchmark_graphs("check-m22").values()),
            "certify-lp": list(benchmark_graphs("certify-lp").values()),
            "experiment-gnp": experiment_graphs(),
        }
        negatives = Counter()
        for name, graphs in corpora.items():
            for G in graphs:
                report = is_globally_rigid_analytic(Graph(G.n, G.edges))
                if G.n < 5 or report.m22_connected:
                    continue
                got = {k: v for k, v in report.reasons.items() if k in reasons}
                if G.min_degree() == 0 or G.m < 2:
                    assert got.keys() == {"degenerate"}
                else:
                    assert got == negative_reason_from_parts(Graph(G.n, G.edges)), G
                (reason,) = got
                negatives[name, reason] += 1
        # every negative of the three workloads: 30, 73 and 89 of them
        assert negatives == {
            ("corpus", "edge_in_no_circuit"): 118, ("corpus", "degenerate"): 16,
            ("check-m22", "edge_in_no_circuit"): 20, ("check-m22", "matroid_disconnected"): 10,
            ("certify-lp", "edge_in_no_circuit"): 55, ("certify-lp", "matroid_disconnected"): 18,
            ("experiment-gnp", "edge_in_no_circuit"): 85, ("experiment-gnp", "degenerate"): 4,
        }

    def test_equality_and_hash_ignore_the_facts(self):
        G = cat.complete_bipartite(3, 6)
        H = Graph(G.n, G.edges)
        certify(G, NormedPlane(4), 3)
        facts = {"_lowpoint_dfs", "_sorted_games", "_m22_game"}
        assert facts <= vars(G).keys() and G._m22_game
        assert not facts & vars(H).keys()
        assert G == H and hash(G) == hash(H) and {H: 1}[G] == 1
        assert repr(G) == repr(H) == f"Graph(n={G.n}, edges={G.edges!r})"
        assert vars(H).keys() == {"n", "edges"}
