"""Decision procedures for global rigidity in analytic normed planes,
Euclidean comparison checkers, sufficient conditions that follow from the
main characterisation, and the numeric cross-validation harness.

The headline decision: a graph on at least five vertices is globally rigid
in every analytic normed plane iff it is 2-connected and M(2,2)-connected.
No graph on fewer than five vertices qualifies, the smallest circuit of the
matroid being K5-.
"""

from __future__ import annotations

from .formats import edge_set_text
from .geometry import (
    NormedPlane,
    Placement,
    deletion_ranks,
    random_regular_placement,
    rigidity_operator,
)
from .graphs import (
    Edge,
    Graph,
    edge_connectivity,
    first_cut_vertex,
    is_edge_transitive,
    is_k_connected,
    is_vertex_transitive,
)
from .records import Record
from .sparsity import (
    EarDecomposition,
    _rank_and_coloops,
    _sorted_game,
    _vertex_deletion_rigid,
    ear_decomposition,
    is_m22_connected,
)

TRANSITIVITY_CAP = 12  # brute-force automorphism search beyond this is skipped


class NumericAgreement(Record):
    _fields = (
        "p", "seed", "mode", "rank", "target", "edge_ranks", "inf_rigid_numeric",
        "redundant_numeric", "matches_combinatorial", "disagreeing_edges",
    )

    def __init__(
        self, p: float, seed: int, mode: str, rank: int, target: int,
        edge_ranks: dict[Edge, int], inf_rigid_numeric: bool, redundant_numeric: bool,
        matches_combinatorial: bool, disagreeing_edges: tuple[Edge, ...] = (),
    ):
        self.p = p
        self.seed = seed
        self.mode = mode
        self.rank = rank
        self.target = target
        self.edge_ranks = edge_ranks
        self.inf_rigid_numeric = inf_rigid_numeric
        self.redundant_numeric = redundant_numeric
        self.matches_combinatorial = matches_combinatorial
        self.disagreeing_edges = disagreeing_edges


class RigidityReport(Record):
    """The decision, its certificate or witness, and the extras; `reasons`,
    `sufficient_conditions_hit` and `notices` default to new empty
    containers."""

    _fields = (
        "globally_rigid_analytic", "two_connected", "m22_connected", "reasons",
        "sufficient_conditions_hit", "euclidean_verdict", "numeric_agreement", "notices",
        "ear_certificate",
    )

    def __init__(
        self, globally_rigid_analytic: bool, two_connected: bool, m22_connected: bool,
        reasons: dict | None = None, sufficient_conditions_hit: list[str] | None = None,
        euclidean_verdict: bool = False, numeric_agreement: NumericAgreement | None = None,
        notices: list[str] | None = None, ear_certificate: EarDecomposition | None = None,
    ):
        self.globally_rigid_analytic = globally_rigid_analytic
        self.two_connected = two_connected
        self.m22_connected = m22_connected
        self.reasons = {} if reasons is None else reasons
        self.sufficient_conditions_hit = (
            [] if sufficient_conditions_hit is None else sufficient_conditions_hit
        )
        self.euclidean_verdict = euclidean_verdict
        self.numeric_agreement = numeric_agreement
        self.notices = [] if notices is None else notices
        self.ear_certificate = ear_certificate

    def to_text(self) -> str:
        lines = [
            f"globally_rigid_analytic: {_yn(self.globally_rigid_analytic)}",
            f"two_connected: {_yn(self.two_connected)}",
            f"m22_connected: {_yn(self.m22_connected)}",
        ]
        for key in sorted(self.reasons):
            lines.append(f"reason.{key}: {self.reasons[key]}")
        lines.append(
            "sufficient_conditions: "
            + (" ".join(self.sufficient_conditions_hit) or "none")
        )
        lines.append(f"euclidean_verdict: {_yn(self.euclidean_verdict)}")
        for note in self.notices:
            lines.append(f"notice: {note}")
        if self.numeric_agreement is not None:
            na = self.numeric_agreement
            lines.append(f"numeric.plane_p: {na.p:g}")
            lines.append(f"numeric.seed: {na.seed}")
            lines.append(f"numeric.mode: {na.mode}")
            lines.append(f"numeric.rank: {na.rank}/{na.target}")
            lines.append(f"numeric.inf_rigid: {_yn(na.inf_rigid_numeric)}")
            lines.append(f"numeric.redundant: {_yn(na.redundant_numeric)}")
            lines.append(
                f"numeric.matches_combinatorial: {_yn(na.matches_combinatorial)}"
            )
            if not na.matches_combinatorial:
                lines.append(
                    "numeric.disagreeing_edges: "
                    + (edge_set_text(na.disagreeing_edges) or "none")
                )
        return "\n".join(lines)


def _yn(b: bool) -> str:
    return "true" if b else "false"


def is_globally_rigid_analytic(G: Graph) -> RigidityReport:
    """The combinatorial decision with certificates attached.

    True iff 2-connected and M(2,2)-connected; the report carries either an
    ear decomposition (connectivity certificate for the matroid) or a
    witness for failure (cut vertex / an edge in no circuit).  Every stage
    reads G's one lowpoint DFS (Graph._lowpoint_dfs) and its one sorted
    (2,2) game (sparsity._sorted_game), each computed once per graph.

    The sufficient conditions run only on a positive verdict.  Sound,
    because each condition that `sufficient_checks` fires implies global
    rigidity in every analytic normed plane, which at n >= 5 is the
    verdict: on a negative one none of them can fire, and the list stays
    empty, as evaluating them would leave it.  Their one notice, that the
    transitivity test was skipped, does not depend on the verdict, so
    both paths read it from _transitivity_notices.  A negative verdict so
    costs no O(n*m) condition.

    A negative reason names a split of the (2,2) matroid: the least
    coloop, else the number of components, both read off the sorted
    game's coloops and kept classes with no edge part built.  They are
    the reasons the sorted parts of `m22_components` give (its first
    singleton part, else its part count).  Every class holds a circuit,
    and a (2,2) circuit of a simple graph has at least 9 edges (2|V| - 1
    edges on |V| >= 5 vertices, as K4 has only 6), so the singleton parts
    are exactly the coloops; the parts are ordered by their least edges,
    so the first singleton is the least coloop.  With no coloop the parts
    are the classes, one each.
    """
    if G.n < 2:
        raise ValueError("decision defined for graphs on at least 2 vertices")
    report = RigidityReport(
        globally_rigid_analytic=False,
        two_connected=is_k_connected(G, 2),
        m22_connected=False,
    )
    if G.n < 5:
        report.reasons["small_graph"] = (
            "fewer than 5 vertices; the smallest M(2,2)-connected graph is K5-"
        )
        report.euclidean_verdict = is_globally_rigid_euclidean(G)
        return report
    report.m22_connected = is_m22_connected(G)
    report.globally_rigid_analytic = report.two_connected and report.m22_connected
    if not report.two_connected:
        # not None at n >= 5: a cut vertex if G is connected, else 0 or a vertex with a neighbour
        report.reasons["cut_vertex"] = str(first_cut_vertex(G))
    if report.m22_connected:
        report.ear_certificate = ear_decomposition(G)  # not None: see there
        report.reasons["ear_decomposition"] = _ears_text(report.ear_certificate)
    else:
        if G.min_degree() == 0 or G.m < 2:
            report.reasons["degenerate"] = "isolated vertex or fewer than 2 edges"
        else:
            _, cols = _rank_and_coloops(G, 2)
            if cols:
                e = min(cols)
                report.reasons["edge_in_no_circuit"] = f"{e[0]}-{e[1]}"
            else:
                report.reasons["matroid_disconnected"] = f"{len(_sorted_game(G)[2])} components"
    if report.globally_rigid_analytic:
        report.sufficient_conditions_hit, notes = sufficient_checks(G)
        report.notices.extend(notes)
    else:
        report.notices.extend(_transitivity_notices(G, G.min_degree()))
    report.euclidean_verdict = is_globally_rigid_euclidean(G)
    return report


def _ears_text(ed: EarDecomposition) -> str:
    sizes = ",".join(str(len(c)) for c in ed.circuits)
    new = ",".join(str(len(p)) for p in ed.new_parts())
    return f"t={ed.t} circuit_sizes=[{sizes}] new_edges=[{new}]"


# ---------------------------------------------------------------------------
# necessary conditions, separately


class HendricksonReport(Record):
    _fields = ("two_connected", "spanning_tight", "every_edge_redundant")

    def __init__(self, two_connected: bool, spanning_tight: bool, every_edge_redundant: bool):
        self.two_connected = two_connected
        self.spanning_tight = spanning_tight
        self.every_edge_redundant = every_edge_redundant

    @property
    def passes(self) -> bool:
        return self.two_connected and self.spanning_tight and self.every_edge_redundant


def hendrickson_check(G: Graph) -> HendricksonReport:
    """The two necessary conditions, evaluated independently.

    Redundancy here is purely rank-based: a spanning (2,2)-tight subgraph
    must exist and no edge may be a coloop of the matroid, so a failure
    names which necessity broke without going through the component
    machinery.
    """
    if G.n < 2:
        raise ValueError("needs at least 2 vertices")
    two_conn = is_k_connected(G, 2)
    r, cols = _rank_and_coloops(G, 2)
    spanning = r == 2 * G.n - 2 and G.m > 0
    every_edge = G.m > 0 and not cols
    return HendricksonReport(two_conn, spanning, every_edge)


# ---------------------------------------------------------------------------
# sufficient conditions


def sufficient_checks(G: Graph) -> tuple[list[str], list[str]]:
    """Evaluate sufficient conditions for global rigidity.

    Returns (fired condition names, notices).  Every fired condition implies
    global rigidity in every analytic normed plane.  Transitivity detection
    is brute-force and capped at n <= 12; past the cap it is skipped with a
    notice rather than guessed.
    """
    fired: list[str] = []
    if G.n < 3 or G.m == 0:
        return fired, []
    degs = [G.degree(v) for v in range(G.n)]
    delta, Delta = min(degs), max(degs)
    two_conn = is_k_connected(G, 2)
    lam = edge_connectivity(G)

    if two_conn and lam >= 4:
        fired.append("edge_connectivity_4")
    if delta >= max(4, G.n / 2):
        fired.append("min_degree_half_order")
    # rank(G - v) <= |E(G - v)| = m - deg(v), so rank 2(n-1) - 2 at every v
    # needs m - Delta >= 2n - 4; without it some G - v fails
    if G.m - Delta >= 2 * G.n - 4 and _vertex_deletion_rigid(G):
        fired.append("vertex_deletion_rigid")
    if delta >= 4 and G.n <= TRANSITIVITY_CAP and G.is_connected():
        if is_vertex_transitive(G) or is_edge_transitive(G):
            fired.append("vertex_or_edge_transitive")
    # graph-or-complement window landing on G (lam >= 4 gives delta >= 4)
    if Delta <= G.n - 5 and two_conn and lam >= 4:
        fired.append("complement_window")
    # spectral condition: algebraic connectivity above 4/(delta+1)
    if two_conn and delta >= 5:
        mu = _algebraic_connectivity(G)
        if mu > 4.0 / (delta + 1) + 1e-9:
            fired.append("spectral_gap")
    return fired, _transitivity_notices(G, delta)


def _transitivity_notices(G: Graph, delta: int) -> list[str]:
    """The notice that the transitivity test was skipped: it would run, G
    being connected with least degree delta >= 4, but n is past
    TRANSITIVITY_CAP."""
    if delta >= 4 and G.n > TRANSITIVITY_CAP and G.is_connected():
        return [f"transitivity check skipped (n > {TRANSITIVITY_CAP})"]
    return []


def _algebraic_connectivity(G: Graph) -> float:
    import numpy as np

    L = np.zeros((G.n, G.n))
    for u, v in G.edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    eig = np.linalg.eigvalsh(L)
    return float(eig[1])


# ---------------------------------------------------------------------------
# Euclidean plane comparison


def is_globally_rigid_euclidean(G: Graph) -> bool:
    """Global rigidity in the Euclidean plane: complete on <= 3 vertices,
    or 3-connected and redundantly rigid in the (2,3) sense.

    Redundant rigidity is rank 2n - 3 with no coloop, read off G's sorted
    (2,3) game by `sparsity._rank_and_coloops` (the coloops are the basis
    edges in no fundamental circuit), the game `certify` at p = 2 reads too.
    """
    if G.n < 2:
        raise ValueError("needs at least 2 vertices")
    if G.n <= 3:
        return G.is_complete()
    if not is_k_connected(G, 3):
        return False
    rank, coloops = _rank_and_coloops(G, 3)
    return rank == 2 * G.n - 3 and not coloops


def euclidean_transfer(G: Graph) -> bool:
    """For an Euclidean-globally-rigid graph: analytic global rigidity holds
    iff |E| > 2|V| - 2, which the edge count decides outright."""
    if G.n < 2:
        raise ValueError("needs at least 2 vertices")
    if not is_globally_rigid_euclidean(G):
        raise ValueError("precondition: G must be globally rigid in the Euclidean plane")
    return G.m > 2 * G.n - 2


# ---------------------------------------------------------------------------
# numeric cross-validation


def certify(
    G: Graph, plane: NormedPlane, seed: int, placement: Placement | None = None
) -> RigidityReport:
    """Combinatorial decision plus rank checks at a random regular placement.

    Cross-validates: numeric infinitesimal rigidity against the spanning
    tight subgraph, and numeric redundant rigidity against every edge lying
    in a circuit plus the spanning tight subgraph.  When they disagree,
    the report names the edges whose numeric redundancy (deletion rank at
    the target) differs from the combinatorial one (spanning tight and in
    some circuit).  A placement may be supplied; by default one is sampled
    from the seed.

    The ranks are those of `rigidity_operator`'s default rows: exact at an
    even integer p with a rational placement, float otherwise.  A float
    answer that disagrees is not reported as it stands if the operator
    has integer rows too: the float rank can lose a row whose stress
    weights fall below its tolerance (K5- at p = 41 reads rank 2 of 8),
    so the ranks are taken again from `rigidity_operator(..., exact=True)`
    and those are reported.  That call alone decides which rows can be
    integer, and refuses the others with a ValueError (a non-integer p, a
    float placement, entries past EXACT_ENTRY_BITS); the float answer
    then stands, as does one that agrees.
    """
    report = is_globally_rigid_analytic(G)
    if placement is None:
        placement = random_regular_placement(G, plane, seed)
    target = 2 * G.n - plane.trivial_flex_dim
    comb_rank, cols = _rank_and_coloops(G, plane.trivial_flex_dim)
    spanning_tight = comb_rank == target

    def agreement(op) -> NumericAgreement:
        rank, row_ranks = deletion_ranks(op, op.mode)
        edge_ranks = dict(zip(op.edges, row_ranks))
        inf_rigid_num = rank == target
        redundant_num = inf_rigid_num and all(r == target for r in edge_ranks.values())
        agree = (inf_rigid_num == spanning_tight) and (
            redundant_num == (spanning_tight and not cols)
        )
        disagreeing = tuple(
            e for e in op.edges
            if (edge_ranks[e] == target) != (spanning_tight and e not in cols)
        )
        return NumericAgreement(
            p=plane.p,
            seed=seed,
            mode=op.mode,
            rank=rank,
            target=target,
            edge_ranks=edge_ranks,
            inf_rigid_numeric=inf_rigid_num,
            redundant_numeric=redundant_num,
            matches_combinatorial=agree,
            disagreeing_edges=disagreeing,
        )

    na = agreement(rigidity_operator(G, placement, plane))
    if not na.matches_combinatorial and na.mode == "float":
        try:
            op = rigidity_operator(G, placement, plane, exact=True)
        except ValueError:  # no integer rows: the float answer stands
            pass
        else:
            na = agreement(op)
    report.numeric_agreement = na
    return report
