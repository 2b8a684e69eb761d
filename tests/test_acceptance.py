"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances and time budgets are pinned here; run with -s to watch the
lines stream."""

import time

import pytest

from planerigidity import catalog as cat
from planerigidity.decide import (
    euclidean_transfer,
    is_globally_rigid_analytic,
    is_globally_rigid_euclidean,
)
from planerigidity.geometry import (
    NormedPlane,
    cut_vertex_counterexample,
    equivalent_exactly,
    is_congruent,
    random_regular_placement,
    rank_of,
    rigidity_operator,
)
from planerigidity.graphs import Graph, is_isomorphic, is_k_connected
from planerigidity.moves import (
    random_m22_graph,
    rebuild_from_trace,
    reduce_to_base,
)
from planerigidity.randomgraphs import gnp_graph
from planerigidity.sparsity import (
    ear_decomposition,
    is_circuit22,
    is_m22_connected,
    m22_components,
    rank2k,
)

from corpus import decision_corpus, k4_ring_graph
from oracles import (
    circuits_brute,
    components_brute,
    components_multipass,
    graphs_up_to_iso,
    rank_brute,
)
from test_decide import _two_conn_and_redundant_by_ranks

L4 = NormedPlane(4)
L2 = NormedPlane(2)


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_base_graph_classification():
    t0 = time.time()
    circuits = all(
        is_circuit22(G) for G in (cat.k5_minus(), cat.b1(), cat.b2())
    )
    rigid = (
        is_globally_rigid_analytic(cat.k5_minus()).globally_rigid_analytic
        and is_globally_rigid_analytic(cat.b1()).globally_rigid_analytic
    )
    elapsed = time.time() - t0
    report(
        1,
        circuits and rigid and elapsed < 1.0,
        f"K5-/B1/B2 circuits={circuits} K5-/B1 globally rigid={rigid} "
        f"({elapsed:.2f}s < 1s)",
    )


def test_criterion_2_decision_on_named_graphs():
    t0 = time.time()
    expected = [
        (cat.wheel_graph(5), False),
        (cat.complete_bipartite(3, 6), True),
        (cat.two_k4_shared_vertex(), False),
        (cat.b1(), True),
        (cat.complete_graph(6), True),
    ]
    results = [
        is_globally_rigid_analytic(G).globally_rigid_analytic == want
        for G, want in expected
    ]
    elapsed = time.time() - t0
    report(
        2,
        all(results) and elapsed < 1.0,
        f"W5/K36/2K4v/B1/K6 verdicts {sum(results)}/5 exact ({elapsed:.2f}s < 1s)",
    )


def test_criterion_3_triple_equivalence_500_graphs():
    t0 = time.time()
    corpus = decision_corpus(500, seed=101, max_n=10)
    assert len(corpus) == 500
    agreements = 0
    for G in corpus:
        a = is_m22_connected(G)
        b = _two_conn_and_redundant_by_ranks(G)
        c = (
            G.n > 0
            and G.min_degree() > 0
            and ear_decomposition(G) is not None
            and is_k_connected(G, 2)
        )
        if a == b == c:
            agreements += 1
        else:
            break
    elapsed = time.time() - t0
    report(
        3,
        agreements == 500 and elapsed < 60.0,
        f"three predicates agree on {agreements}/500 graphs ({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_reduction_roundtrip_200_graphs():
    t0 = time.time()
    failures = 0
    for i in range(200):
        steps = i % 26  # up to 25 moves
        G = random_m22_graph(steps, seed=1000 + i)
        trace = reduce_to_base(G)
        ok = trace.base in ("K5-", "B1")
        ok = ok and all(len(components_multipass(s.result)) == 1 for s in trace.steps)
        ok = ok and is_isomorphic(rebuild_from_trace(trace), G)
        if not ok:
            failures += 1
    elapsed = time.time() - t0
    report(
        4,
        failures == 0 and elapsed < 300.0,
        f"200 reduce/rebuild round trips, {failures} failures ({elapsed:.1f}s < 300s)",
    )


def test_criterion_5_k4ring_reduction_replay():
    trace = reduce_to_base(k4_ring_graph())
    kinds = [s.move.kind for s in trace.steps]
    expected = [
        "edge-deletion",
        "k4minus-reduction",
        "edge-reduction",
        "k4minus-reduction",
        "edge-reduction",
    ]
    report(
        5,
        kinds == expected and trace.base == "B1",
        f"kind sequence {kinds} base={trace.base}",
    )


def test_criterion_6_rank_agreement_100_graphs():
    t0 = time.time()
    agree = 0
    checked = 0
    i = 0
    while checked < 100:
        i += 1
        n = 4 + (i % 5)  # n in 4..8
        G = gnp_graph(n, 0.35 + (i % 7) * 0.09, seed=2000 + i)
        if G.m == 0:
            continue
        checked += 1
        placement = random_regular_placement(G, L4, seed=3000 + i)
        op = rigidity_operator(G, placement, L4)
        if rank_of(op, "exact") == rank2k(G.edges, 2):
            agree += 1
    elapsed = time.time() - t0
    report(
        6,
        agree == 100 and elapsed < 120.0,
        f"exact operator rank equals pebble rank on {agree}/100 graphs "
        f"({elapsed:.1f}s < 120s)",
    )


def test_criterion_7_euclidean_contrast():
    k33 = cat.complete_bipartite(3, 3)
    pl2 = random_regular_placement(k33, L2, 41)
    r2 = rank_of(rigidity_operator(k33, pl2, L2), "exact")
    pl4 = random_regular_placement(k33, L4, 43)
    r4 = rank_of(rigidity_operator(k33, pl4, L4), "exact")
    two = cat.two_k4_shared_vertex()
    plt = random_regular_placement(two, L4, 47)
    t4 = rank_of(rigidity_operator(two, plt, L4), "exact")
    t2 = rank_of(rigidity_operator(two, plt, L2), "exact")
    ok = (
        r2 == 2 * 6 - 3
        and r4 == 9 < 2 * 6 - 2
        and t4 == 2 * 7 - 2
        and t2 < 2 * 7 - 3
    )
    report(
        7,
        ok,
        f"K33 ranks p2/p4 = {r2}/{r4}, two-K4 ranks p4/p2 = {t4}/{t2}",
    )


def test_criterion_8_transfer_on_euclidean_rigid_corpus():
    corpus = decision_corpus(300, seed=404, max_n=10)
    checked = 0
    discrepancies = 0
    for G in corpus:
        if G.n < 5:
            continue
        if not is_globally_rigid_euclidean(G):
            continue
        checked += 1
        if euclidean_transfer(G) != is_globally_rigid_analytic(G).globally_rigid_analytic:
            discrepancies += 1
    report(
        8,
        discrepancies == 0 and checked >= 20,
        f"transfer matched the analytic verdict on all {checked} "
        f"Euclidean-globally-rigid graphs ({discrepancies} discrepancies)",
    )


def test_criterion_9_cut_vertex_counterexamples():
    t0 = time.time()
    G = cat.bowtie()
    equivalent = 0
    non_congruent = 0
    for seed in range(20):
        pl = random_regular_placement(G, L4, seed=500 + seed)
        q = cut_vertex_counterexample(G, pl, L4)
        if q is None:
            continue
        if equivalent_exactly(G, pl, q, L4):
            equivalent += 1
        origin_pl = pl.translated(-pl.coords[0][0], -pl.coords[0][1])
        if not is_congruent(origin_pl, q, L4):
            non_congruent += 1
    elapsed = time.time() - t0
    report(
        9,
        equivalent == 20 and non_congruent >= 19 and elapsed < 10.0,
        f"20/20 exactly equivalent, {non_congruent}/20 non-congruent "
        f"({elapsed:.1f}s < 10s)",
    )


@pytest.fixture(scope="module")
def small_graphs():
    out = []
    for n in range(1, 7):
        out.extend(graphs_up_to_iso(n))
    return out


class TestCriterion10OracleSuites:
    def test_pebble_rank_vs_bruteforce(self, small_graphs):
        t0 = time.time()
        mismatches = 0
        checked = 0
        for G in small_graphs:
            if G.m == 0:
                continue
            for k in (2, 3):
                checked += 1
                if rank2k(G.edges, k) != rank_brute(G.edges, k):
                    mismatches += 1
        elapsed = time.time() - t0
        report(
            10,
            mismatches == 0,
            f"pebble vs brute-force rank: {checked} checks over all graphs "
            f"n<=6, {mismatches} mismatches ({elapsed:.1f}s)",
        )

    def test_components_vs_circuit_enumeration(self, small_graphs):
        t0 = time.time()
        mismatches = 0
        checked = 0
        for G in small_graphs:
            if G.m == 0 or G.min_degree() == 0:
                continue
            checked += 1
            if m22_components(G) != components_brute(G):
                mismatches += 1
        elapsed = time.time() - t0
        report(
            10,
            mismatches == 0,
            f"components vs all-circuit enumeration: {checked} graphs, "
            f"{mismatches} mismatches ({elapsed:.1f}s)",
        )

    def test_ear_axioms_on_all_produced_decompositions(self, small_graphs):
        from test_sparsity import check_ear_axioms

        t0 = time.time()
        produced = 0
        for G in small_graphs:
            if G.m == 0 or G.min_degree() == 0:
                continue
            ed = ear_decomposition(G)
            if ed is None:
                continue
            produced += 1
            check_ear_axioms(G, ed, circuits=circuits_brute(G))
        # larger named producers, with rank-based checks only
        for G in [cat.complete_bipartite(3, 6), cat.complete_graph(7),
                  k4_ring_graph()]:
            ed = ear_decomposition(G)
            assert ed is not None
            check_ear_axioms(G, ed)
            produced += 1
        elapsed = time.time() - t0
        report(
            10,
            produced > 10,
            f"ear axioms (E1)-(E3) + rank increments on {produced} "
            f"decompositions ({elapsed:.1f}s)",
        )
