"""Independent oracles the library is checked against.

The brute-force oracles work straight from the counting definition of
(2,k)-sparsity (|E'| <= 2|V'| - k over all vertex subsets), never through
the pebble game, so agreement is meaningful.  The reference routines at the
end are the library's earlier many-game versions of questions it now
answers from the fundamental circuits of one game, its rank by a game of
its own that stops at the rank bound (the library reads the rank off each
graph's sorted game; the leave-one-out oracles play this game), its rank
and coloops of an edge list in its own order (the library reads them off
each graph's sorted game), its Euclidean verdict by a (2,3) game of its
own that stops once the rank is 2n - 3 and every basis edge lies in a
circuit read (the library reads each graph's sorted (2,3) game), its ear
decomposition with one game per ear (the library now reads every ear off
the one game over the sorted edges) and, after that, with C - D formed
anew for every circuit C on every ear (the library keeps each C - D
current in place), its earlier m + 1 eliminations for
the deletion ranks of a rigidity operator, its exact profile (the rank
with the rows known to be stressed and the coloops; the library's exact
rank now sums the block ranks alone), its split of an exact rank
at the bridges and into the pieces between them (the library now splits
at blocks), its dense modular elimination (the library now eliminates
a sparse transpose), its float operator rows from Fraction differences
(the library now divides
integer differences of the scaled coordinates) and, before that, through
the support functional and a second norm (the library now takes each entry
as a signed power), its float rank of the raw rows (the library now
divides each row by its largest entry), its
cut scans for k-connectivity and the first cut vertex (one subgraph per
candidate cut, where the library now runs lowpoint DFS), its
3-connectivity by one lowpoint DFS per deleted vertex (the library now
runs one triconnectivity path search), its path search with a DFS 1 of
its own and its edge-connectivity cut labels on a BFS tree of its own
(the library reads both off each graph's one lowpoint DFS), its edge
connectivity without the bound on each flow, and with bounded flows but no
spanning-tree cut labels first, its unit flow with a residual
map over every arc (the library keeps only the arcs the flow uses), its
circuit read by walking the reachable region again after a rejected insert
(the library keeps what the rejecting searches visited), its read of
the circuit of the last rejected edge of a game as an edge set (the
library keeps the region and expands it only where the ears print it),
its pebble
game whose every search builds a map and a stack of its own, depth
first, and searches again from a root that already failed (the library
searches breadth first with visit stamps kept on the game), its
vertex-deletion test without the edge-count filter, its automorphism search
with its own pin setup, its isomorphism backtracking by recursion (the
library keeps an explicit stack), its forward scripts with one rule per reduction
kind, its reduction candidates with the edge-reduction tests made once per
direction of each edge (the library tests each edge once), its moves with
one construction and relabelling per kind, its joins
and separations with one relabel-and-union or completion rule per kind, its
2-vertex-separation scan (one subgraph per vertex pair) and its
3-edge-separation scan (one graph per edge triple); they run on graphs far
past the brute-force caps.  The edge-set circuit routines keep each
fundamental circuit as its set of edges and merge circuits that meet,
where the library keeps each circuit's vertex region and merges regions
that share two vertices; they are the oracles of its warm M(2,2) check,
components, coloops and circuit test.  Its report is the library's
earlier single-pass decision, which evaluated every sufficient condition
whatever the verdict (the library evaluates them only on a positive
verdict), and its negative reason, read off the sorted edge parts (the
library reads the coloops and classes of the sorted game).  Its graph6
writer probes every vertex pair (the library sets each edge's bit), and
its graph6 reader visits every data byte (the library visits only the
bytes that hold a set bit).  Its Euclidean congruence fits the best
rotation and the best reflection apart, each with a determinant fix (the
library takes the one orthogonal Procrustes solution U V^T).
"""

import itertools
import math
from collections import deque
from functools import lru_cache

import numpy as np

from planerigidity import geometry
from planerigidity.decide import (
    RigidityReport, _ears_text, is_globally_rigid_euclidean, sufficient_checks,
)
from planerigidity.formats import MAX_VERTICES, FormatError, _G6_SET_BITS, _g6_size_bytes
from planerigidity.geometry import RigidityOperator, _bareiss_rank, rank_of, support_functional
from planerigidity.graphs import (
    Edge, Graph, Separation, _bipartitions, _is_k4_part, _lowpoint_dfs, _norm_edge, _part,
    _min_st_edge_cut, _wl_colors, enumerate_separations, find_isomorphism, first_cut_vertex,
    is_k_connected,
)
from planerigidity.moves import Move, MoveError, ReductionTrace, base_graph
from planerigidity.sparsity import (
    EarDecomposition, PebbleGame, _circuit, _sorted_game, ear_decomposition, is_m22_connected,
    m22_components,
)


def vertices_of(edges):
    return sorted({v for e in edges for v in e})


def is_sparse_brute(edges, k):
    """Counting definition, checked over every vertex subset."""
    edges = list(edges)
    if not edges:
        return True
    vs = vertices_of(edges)
    for size in range(2, len(vs) + 1):
        for sub in itertools.combinations(vs, size):
            subset = set(sub)
            count = sum(1 for u, v in edges if u in subset and v in subset)
            if count > 2 * size - k:
                return False
    return True


def rank_brute(edges, k):
    """Size of a maximum independent subset, by descending-size search."""
    edges = list(dict.fromkeys(tuple(sorted(e)) for e in edges))
    m = len(edges)
    upper = min(m, max(0, 2 * len(vertices_of(edges)) - k))
    for size in range(upper, 0, -1):
        for sub in itertools.combinations(edges, size):
            if is_sparse_brute(sub, k):
                return size
    return 0


def is_circuit_brute(edges, k=2):
    edges = list(edges)
    if is_sparse_brute(edges, k):
        return False
    return all(
        is_sparse_brute(edges[:i] + edges[i + 1:], k) for i in range(len(edges))
    )


def circuits_brute(G: Graph):
    """All (2,2)-circuits of G, via the |C| = 2|V(C)|-1 size constraint."""
    out = []
    for size in range(5, G.n + 1):
        for sub in itertools.combinations(range(G.n), size):
            pool = sorted(G.induced_edges(sub))
            want = 2 * size - 1
            if len(pool) < want:
                continue
            for cand in itertools.combinations(pool, want):
                if set(vertices_of(cand)) != set(sub):
                    continue
                if is_circuit_brute(list(cand)):
                    out.append(frozenset(cand))
    return out


def components_brute(G: Graph):
    """Matroid components as the transitive closure of circuit sharing."""
    edges = G.sorted_edges()
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for circ in circuits_brute(G):
        circ = sorted(circ)
        for f in circ[1:]:
            parent[find(f)] = find(circ[0])
    groups = {}
    for e in edges:
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def all_labeled_graphs(n):
    """Every labeled simple graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def _canonical_code(n, edges):
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            mask |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best


@lru_cache(maxsize=None)
def graphs_up_to_iso(n):
    """Non-isomorphic graphs on exactly n vertices (fine for n <= 6).

    Grown by adding one vertex with every possible neighbourhood to each
    smaller class, deduplicated by exact canonical codes.
    """
    if n == 1:
        return [Graph.from_edges(1, [])]
    smaller = graphs_up_to_iso(n - 1)
    seen = {}
    for G in smaller:
        for nb_mask in range(1 << (n - 1)):
            edges = set(G.edges)
            for v in range(n - 1):
                if nb_mask >> v & 1:
                    edges.add((v, n - 1))
            code = _canonical_code(n, edges)
            if code not in seen:
                seen[code] = Graph.from_edges(n, edges)
    return list(seen.values())


# ---------------------------------------------------------------------------
# the pebble game with a map per search


class PebbleGameDictSearch:
    """The library's earlier `PebbleGame`, whose every search builds a
    parent dict and a stack of its own (depth first) and searches again from
    a root that already failed.

    Mutable (2,k) pebble game state over vertices 0..n-1.

    Invariant: pebbles[v] + outdeg(v) == 2 for every vertex, so the total
    pebble count plus the number of accepted edges is 2n.  The accepted set
    is (2,k)-sparse at all times.
    """

    def __init__(self, n: int, k: int):
        if not 0 <= k <= 3:
            raise ValueError("k must be in 0..3")
        self.n = n
        self.k = k
        self.pebbles = [2] * n
        self.out: list[set[int]] = [set() for _ in range(n)]
        self.accepted: list[Edge] = []
        self.rejected = None  # (uv, seen_u, seen_v) if the last insert failed

    def _grab_pebble(self, root: int, keep: tuple[int, int]) -> dict | None:
        """Pull one pebble to `root` along a reversed directed path.

        Pebbles sitting on the two endpoints in `keep` are off limits; they
        are the ones being gathered.  Each vertex is tested when it is first
        reached, so the search stops at the first free pebble it sees.
        Returns None if it pulls one, else the `parent` map it visited.
        """
        pebbles, out = self.pebbles, self.out
        parent = {root: None}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w in parent:
                    continue
                parent[w] = u
                if pebbles[w] > 0 and w not in keep:
                    pebbles[w] -= 1
                    while w != root:  # reverse the path root -> w
                        u = parent[w]
                        out[u].remove(w)
                        out[w].add(u)
                        w = u
                    pebbles[root] += 1
                    return None
                stack.append(w)
        return parent

    def insert(self, u: int, v: int) -> bool:
        """Try to accept edge uv; return whether it stays independent.  A
        rejection is recorded for fundamental_circuit_of_rejected."""
        if u == v:
            raise ValueError("loops are not allowed")
        pebbles, need, keep = self.pebbles, self.k + 1, (u, v)
        self.rejected = None
        while pebbles[u] + pebbles[v] < need:
            seen_u = self._grab_pebble(u, keep)
            seen_v = seen_u and self._grab_pebble(v, keep)  # a map holds its root
            if seen_v:
                self.rejected = (_norm_edge(u, v), seen_u, seen_v)
                return False
        tail, head = (u, v) if pebbles[u] > 0 else (v, u)
        pebbles[tail] -= 1
        self.out[tail].add(head)
        self.accepted.append(_norm_edge(u, v))
        return True

    def seed(self, parent, relabel, edges) -> None:
        """Accept, without a search, each basis edge of `parent` whose image
        is in `edges`, oriented as in `parent`.

        `relabel` maps parent vertices to this game's (a dict that omits the
        deleted vertices, or None for the identity); call this on a fresh
        game.  Proof that the result is a valid game state: the seeds are
        part of parent's independent set, and the map is injective on the
        vertices it keeps, so their images are distinct edges forming an
        isomorphic copy of an independent set, hence independent.  Each
        image keeps its orientation, so outdeg(v) here is at most outdeg of
        v's preimage in parent, at most 2, and pebbles = 2 - outdeg keeps
        the invariant with no negative count.  The accept and reject proofs
        of insert() and fundamental_circuit_of_rejected() use only that
        invariant and the independence of the accepted set, so the game
        played on from here is as sound as one played from empty (Lee and
        Streinu, "Pebble game algorithms and sparse graphs", 2008).
        """
        pebbles, out, accepted = self.pebbles, self.out, self.accepted
        self.rejected = None
        for x, heads in enumerate(parent.out):
            fx = x if relabel is None else relabel.get(x)
            if fx is None:
                continue
            for w in heads:
                fw = w if relabel is None else relabel.get(w)
                if fw is None:
                    continue
                e = (fx, fw) if fx < fw else (fw, fx)
                if e in edges:
                    out[fx].add(fw)
                    pebbles[fx] -= 1
                    accepted.append(e)

    def fundamental_circuit_of_rejected(self, u: int, v: int) -> frozenset[Edge]:
        """Circuit created by the edge uv that the last insert() rejected.

        A failed search moves no pebble and stops early only at a free
        one, so the two searches that rejected uv ran on one state and each
        visited every vertex reachable from its root: their union is the
        region R reachable from u and v.  u and v hold k pebbles and no other
        pebble is reachable from them, so R has no out-edge leaving it: its
        accepted edges are the out-edges of its vertices, 2|R| - k of them,
        and R is tight.  A tight T that contains u and v holds those k
        pebbles, so no out-edge leaves it either, and R is a subset of T.
        So R is the minimal tight set spanning uv, which is V(C), and C is
        uv plus the out-edges of R.  Later inserts can enlarge R, so each
        replaces the record, and a read of any other edge raises ValueError.
        """
        uv, seen_u, seen_v = self.rejected or (None, {}, {})
        if uv != _norm_edge(u, v):
            raise ValueError(f"({u},{v}) is not the edge the last insert rejected")
        return _circuit(self, uv, seen_u.keys() | seen_v.keys())

    @property
    def rank(self) -> int:
        return len(self.accepted)


def fundamental_circuit_of_rejected(game: PebbleGame, u: int, v: int) -> frozenset[Edge]:
    """The library's earlier `PebbleGame.fundamental_circuit_of_rejected`:
    the circuit created by the edge uv that the last game.insert()
    rejected, uv plus the basis edges inside the region that its two
    failed searches reached (`sparsity._play` proves it).  Later inserts
    can enlarge the region, so each replaces the record, and a read of any
    other edge raises ValueError."""
    uv, seen_u, seen_v = game.rejected or (None, (), ())
    if uv != _norm_edge(u, v):
        raise ValueError(f"({u},{v}) is not the edge the last insert rejected")
    return _circuit(game, uv, set(seen_u).union(seen_v))


# ---------------------------------------------------------------------------
# many-game reference routines


def basis_and_circuits(order, k, game=None):
    """The library's earlier `sparsity._basis_and_circuits`: one game over
    distinct normalised edges in the given order (played on from a seeded
    `game` if one is given), returning its basis in order and each
    rejected edge's circuit C(f,B) as an edge set, read when f is
    rejected."""
    if game is None:
        game = PebbleGame(1 + max((v for e in order for v in e), default=-1), k)
    seeded = set(game.accepted)
    circuits = {}
    for e in order:
        if e not in seeded and not game.insert(*e):
            circuits[e] = fundamental_circuit_of_rejected(game, *e)
    return game.accepted, circuits


def circuit_classes(edges, circuits):
    """The library's earlier `sparsity._circuit_classes`: the classes of
    "lies in a common fundamental circuit" on `edges`, each circuit an edge
    set absorbing every class it meets; the edges in no circuit (the
    coloops) are then a class each."""
    classes = []
    for circ in circuits.values():
        merged = set(circ)
        rest = []
        for cl in classes:
            if cl.isdisjoint(circ):
                rest.append(cl)
            else:
                merged |= cl
        rest.append(merged)
        classes = rest
    coloops = set(edges).difference(*classes)
    return classes + [{e} for e in coloops]


def components_by_edge_circuits(G: Graph):
    """The library's earlier `m22_components`: the classes of the edge-set
    circuits of the sorted game."""
    _, circuits = basis_and_circuits(G.sorted_edges(), 2)
    return sorted((frozenset(c) for c in circuit_classes(G.edges, circuits)), key=sorted)


def is_circuit22_by_edge_circuit(G: Graph):
    """The library's earlier `is_circuit22`: one rejected edge, whose
    edge-set circuit is E."""
    if G.m != 2 * G.n - 1:
        return False
    _, circuits = basis_and_circuits(G.sorted_edges(), 2)
    return len(circuits) == 1 and next(iter(circuits.values())) == G.edges


def is_m22_connected_edge_circuits(G: Graph, seed) -> bool:
    """The library's earlier warm M(2,2) check: the game seeded from
    `seed` = (parent game or None, relabel) plays on over the sorted edges,
    and G passes iff its basis has 2n - 2 edges and its edge-set circuits
    make one class.  Reads the parent game only."""
    if G.min_degree() < 3 or G.m < 2 * G.n - 1:
        return False
    parent, relabel = seed
    game = PebbleGame(G.n, 2)
    if parent is not None:
        game.seed(parent, relabel, G.edges)
    basis, circuits = basis_and_circuits(G.sorted_edges(), 2, game)
    return len(basis) == 2 * G.n - 2 and len(circuit_classes(G.edges, circuits)) == 1


def components_multipass(G: Graph):
    """Matroid components from fundamental-circuit passes over differently
    ordered bases (sorted, reversed, then rotations), repeated until a pass
    merges nothing."""
    edges = G.sorted_edges()
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def one_pass(order):
        game = PebbleGame(G.n, 2)
        merged = False
        for u, v in order:
            if not game.insert(u, v):
                circ = list(fundamental_circuit_of_rejected(game, u, v))
                for f in circ[1:]:
                    rx, ry = find(circ[0]), find(f)
                    if rx != ry:
                        parent[rx] = ry
                        merged = True
        return merged

    i = 0
    while True:
        if i < 2:
            order = edges if i == 0 else list(reversed(edges))
        else:
            j = i % len(edges)
            order = edges[j:] + edges[:j]
        merged = one_pass(order)
        i += 1
        if i >= 2 and not merged:
            break
    groups = {}
    for e in edges:
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def ear_decomposition_games(G: Graph):
    """The ear decomposition with one game per ear: ear i + 1 is chosen
    from a game over sorted(D_i) + sorted(E - D_i), whose basis B splits
    into B_D (inside D_i) and B_N.  For a rejected f outside D_i and e in
    B_N: e lies in the circuit of f in M/D_i iff B - e + f is a basis iff
    e lies in C(f,B).  So that contraction circuit is K_f = C(f,B) - B_D, a
    circuit of M/D_i exactly when C(f,B) meets B_D, and C(f,B) is the ear
    with new edges K_f."""
    if G.n > 0 and G.min_degree() == 0:
        raise ValueError("no isolated vertices allowed")
    if G.m < 2:
        return None
    edges = G.sorted_edges()
    _, circuits = basis_and_circuits(edges, 2)
    if not circuits:
        return None
    ears = [next(iter(circuits.values()))]
    covered = set(ears[0])
    while len(covered) < G.m:
        basis, circuits = basis_and_circuits(
            sorted(covered) + sorted(e for e in edges if e not in covered), 2
        )
        bd = covered.intersection(basis)
        qualifying = [
            circ for f, circ in circuits.items()
            if f not in covered and not circ.isdisjoint(bd)
        ]
        if not qualifying:
            return None
        ear = min(qualifying, key=lambda circ: (len(circ - bd), sorted(circ - bd)))
        ears.append(ear)
        covered |= ear
    return EarDecomposition(tuple(ears))


def ear_decomposition_rescan(G: Graph):
    """The library's earlier loop of `sparsity.ear_decomposition`: the
    circuits of G's sorted game expanded once, and on every ear C - D
    formed anew for every remaining circuit C."""
    if G.n > 0 and G.min_degree() == 0:
        raise ValueError("no isolated vertices allowed")
    if G.m < 2:
        return None
    game, regions, _ = _sorted_game(G)
    circuits = {f: _circuit(game, f, region) for f, region in regions.items()}
    if not circuits:
        return None  # independent: no circuits at all
    f, ear = next(iter(circuits.items()))
    ears, covered = [], set()
    while True:
        ears.append(ear)
        del circuits[f]
        covered |= ear
        qualifying = [
            (g, circ - covered) for g, circ in circuits.items() if not circ.isdisjoint(covered)
        ]
        if not qualifying:
            break
        # the key (len, sorted): sort only the candidates of the least size
        size = min(len(new) for _, new in qualifying)
        tied = [item for item in qualifying if len(item[1]) == size]
        f, _ = min(tied, key=lambda item: sorted(item[1]))
        ear = circuits[f]
    if len(covered) < G.m:
        return None  # matroid disconnected
    return EarDecomposition(tuple(ears))


def rank_and_coloops(edges, k):
    """The (2,k) rank of an edge list and its coloops, from one game in the
    list's order: the coloops are the basis edges in no fundamental circuit
    (the rule `sparsity._rank_and_coloops` applies to G's sorted game)."""
    basis, circuits = basis_and_circuits(list(dict.fromkeys(_norm_edge(*e) for e in edges)), k)
    in_circuit = set().union(*circuits.values())
    return len(basis), frozenset(b for b in basis if b not in in_circuit)


def rank_by_stopped_game(edges, k):
    """Rank of an edge set in the (2,k)-sparsity matroid.

    The game stops once it holds 2n' - k edges, with n' the number of
    labels that occur in the edges (a label without an edge, such as a
    deleted vertex left in place, does not count): a (2,k)-sparse set whose
    edges touch n' vertices has at most 2n' - k edges.
    """
    uniq = list(dict.fromkeys(_norm_edge(u, v) for u, v in edges))
    touched = {v for e in uniq for v in e}
    game = PebbleGame(1 + max(touched, default=-1), k)
    bound = 2 * len(touched) - k
    for e in uniq:
        if game.rank == bound:
            break
        game.insert(*e)
    return game.rank


def euclidean_by_stopped_game(G: Graph) -> bool:
    """The library's earlier `decide.is_globally_rigid_euclidean`: complete
    on <= 3 vertices, or 3-connected and redundantly rigid in the (2,3)
    sense, from a (2,3) game of its own over the sorted edges.

    Redundant rigidity is rank 2n - 3 with no coloop (the coloops are the
    basis edges in no circuit C(f,B) read).  The game stops at the first
    rejection after which the rank is 2n - 3 and every basis edge lies in
    a circuit read so far.  Sound: the rank cannot pass 2n - 3, so every
    later edge is rejected and the basis so far is the final basis B;
    each circuit read lies in the basis at its time plus its edge f,
    inside B + f, so it is C(f,B); and later circuits can only cover
    more.  Complete: an accepted edge is uncovered when accepted, so if
    the full game ends at rank 2n - 3 with every basis edge covered, no
    edge was accepted after its last rejection, and the test after that
    rejection saw the final state.
    """
    if G.n < 2:
        raise ValueError("needs at least 2 vertices")
    if G.n <= 3:
        return G.is_complete()
    if not is_k_connected(G, 3):
        return False
    game, target, uncovered = PebbleGame(G.n, 3), 2 * G.n - 3, set()
    for e in G.sorted_edges():
        if game.insert(*e):
            uncovered.add(e)
        else:
            uncovered -= fundamental_circuit_of_rejected(game, *e)
            if game.rank == target and not uncovered:
                return True
    return False


def coloops_leave_one_out(edges, k):
    """Edges whose deletion lowers the (2,k) rank, one game per edge."""
    edges = sorted(edges)
    r = rank_by_stopped_game(edges, k)
    return frozenset(
        e for i, e in enumerate(edges) if rank_by_stopped_game(edges[:i] + edges[i + 1:], k) != r
    )


def is_circuit22_leave_one_out(G: Graph):
    """|E| = 2|V| - 1 and every G - e independent, one game per edge."""
    if G.m != 2 * G.n - 1:
        return False
    edges = G.sorted_edges()
    return all(rank_by_stopped_game(edges[:i] + edges[i + 1:], 2) == G.m - 1 for i in range(G.m))


def modular_profile_gauss_jordan(rows, cols: int, prime: int):
    """Rank of an integer matrix modulo prime and its stressed rows, by dense
    Gauss-Jordan on the transpose: every pivot updates whole list rows, and
    the first unused row holding the column is its pivot.  A free column j
    gives the self-stress e_j - sum_k R[k][j] e_pk, so the stressed rows are
    the free columns and each pivot column whose reduced row is nonzero on
    a free column."""
    P = prime
    m = len(rows)
    T = [[row[c] % P for row in rows] for c in range(cols)]
    pivots = []
    for j in range(m):
        r = len(pivots)
        if r == cols:
            break
        piv = next((i for i in range(r, cols) if T[i][j]), None)
        if piv is None:
            continue
        T[r], T[piv] = T[piv], T[r]
        inv = pow(T[r][j], P - 2, P)
        prow = T[r] = [x * inv % P for x in T[r]]
        for i in range(cols):
            f = T[i][j]
            if f and i != r:
                T[i] = [(a - f * b) % P for a, b in zip(T[i], prow)]
        pivots.append(j)
    free = set(range(m)).difference(pivots)
    return len(pivots), frozenset(free).union(
        pj for k, pj in enumerate(pivots) if any(T[k][j] for j in free)
    )


def modular_profile_dense(rows, cols: int) -> tuple[int, frozenset[int]]:
    """The library's earlier `geometry._modular_profile`, which took dense
    rows: the same sparse Gauss-Jordan elimination modulo
    `geometry._PRIME`, its sparse transpose built by a scan of every entry
    of the rows, zeros included.  The library now builds that transpose
    from the two residues of each edge's pair, which gives every column
    dict the same keys in the same order, and so the same pivots.

    Gauss-Jordan on the transpose: its columns are the rows of the matrix,
    and each free column j gives the self-stress e_j - sum_k R[k][j] e_pk
    (pk the pivot column of reduced row k).  These stresses span the left
    kernel mod p, so a free column is always stressed and a pivot column
    pk is stressed iff R[k] is nonzero on some free column.  The shortest
    unused row holding column j becomes its pivot, and after the last
    pivot pk is stressed iff R[k] has more than one key.
    """
    P = geometry._PRIME
    m = len(rows)
    T = [{} for _ in range(cols)]
    for j, row in enumerate(rows):
        for c, a in enumerate(row):
            a %= P
            if a:
                T[c][j] = a
    free = set(range(m))
    unused = set(range(cols))
    pivot_rows = []
    for j in range(m):
        if not unused:
            break
        holders = [i for i, row in enumerate(T) if j in row]
        candidates = unused.intersection(holders)
        if not candidates:
            continue
        k = min(candidates, key=lambda i: len(T[i]))
        prow = T[k]
        inv = pow(prow[j], -1, P)
        items = [(key, b * inv % P) for key, b in prow.items()]
        prow.update(items)
        for i in holders:
            if i != k:
                row = T[i]
                f = row[j]
                for key, b in items:
                    # f * b is nonzero mod p, so a cancelled key was present
                    x = (row.get(key, 0) - f * b) % P
                    if x:
                        row[key] = x
                    else:
                        del row[key]
        unused.remove(k)
        free.remove(j)
        pivot_rows.append((j, prow))
    return len(pivot_rows), frozenset(free).union(
        j for j, prow in pivot_rows if len(prow) > 1
    )


def deletion_ranks_loop(op: RigidityOperator, mode: str, tol: float = 1e-9):
    """Rank of the operator and of each single-row deletion, one elimination
    per row: fraction-free (`_bareiss_rank`) in exact mode, SVD in float."""

    def rank(sub):
        if mode == "exact":
            return _bareiss_rank(sub.matrix) if sub.matrix else 0
        return rank_of(sub, "float", tol)

    phis, edges = op.phis, op.edges
    return rank(op), tuple(
        rank(RigidityOperator(
            phis[:i] + phis[i + 1:], edges[:i] + edges[i + 1:], op.n, op.exact,
            op.trivial_flex_dim,
        ))
        for i in range(len(edges))
    )


def exact_profile_by_pieces(op: RigidityOperator):
    """The library's earlier split of an exact rank: each bridge (an edge
    whose deletion adds a component, found by a search per edge) adds one,
    and each connected piece of G - bridges is eliminated alone, modulo
    `geometry._PRIME` and by Bareiss when below its bound min(m, 2n - f).
    Returns the rank and the rows known to be stressed."""
    G = Graph.from_edges(op.n, op.edges)
    base = len(components_search(G))
    bridges = {e for e in G.edges if len(components_search(G.remove_edge(*e))) > base}
    rank, stressed = len(bridges), set()
    for comp in components_search(Graph(op.n, G.edges - bridges)):
        rows = [i for i, (u, v) in enumerate(op.edges) if u in comp and (u, v) not in bridges]
        if not rows:
            continue
        cols = [c for v in sorted(comp) for c in (2 * v, 2 * v + 1)]
        piece = [[op.matrix[i][c] for c in cols] for i in rows]
        rank_p, piece_stressed = modular_profile_dense(piece, len(cols))
        rank_q = rank_p
        if rank_p < min(len(rows), len(cols) - op.trivial_flex_dim):
            rank_q = _bareiss_rank(piece)
        rank += rank_q
        if rank_q == rank_p:
            stressed.update(rows[j] for j in piece_stressed)
    return rank, frozenset(stressed)


def exact_profile(op: RigidityOperator) -> tuple[int, frozenset[int], frozenset[int]]:
    """The exact rank of an integer operator, rows known to be stressed,
    and rows known to be coloops, summed over its blocks
    (`RigidityOperator._exact_blocks`): the rows of a block of full row
    rank are coloops.  The library's earlier exact `rank_of` built all
    three, where it now sums the block ranks alone."""
    rank, stressed, coloops = 0, set(), set()
    for _, rows, rank_b, known in op._exact_blocks:
        rank += rank_b
        if rank_b == len(rows):
            coloops.update(rows)
        else:
            stressed.update(rows[j] for j in known)
    return rank, frozenset(stressed), frozenset(coloops)


def float_rows_by_fractions(G: Graph, placement, plane):
    """The float rows of the rigidity operator, each edge difference d taken
    in the placement's own numbers (Fractions for a rational placement),
    rounded to floats x once, and every entry sign(x_i) |x_i|^(p-1)."""
    def entries(d):
        return tuple(math.copysign(abs(x) ** (plane.p - 1), x) for x in map(float, d))
    return _float_rows(G, placement, entries)


def float_rows_by_support_functional(G: Graph, placement, plane):
    """The float rows as the library built them before it took each entry
    directly: the support functional of d times |d|^(p-2), d in the
    placement's own numbers.  Equal to the direct entries up to rounding."""
    def entries(d):
        phi = support_functional(d, plane)
        s = plane.norm(d) ** (plane.p - 2)
        return (phi[0] * s, phi[1] * s)
    return _float_rows(G, placement, entries)


def _float_rows(G: Graph, placement, entries):
    rows = []
    for u, v in G.sorted_edges():
        pu, pv = placement.coords[u], placement.coords[v]
        phi = entries((pv[0] - pu[0], pv[1] - pu[1]))
        row = [0] * (2 * G.n)
        row[2 * u], row[2 * u + 1] = -phi[0], -phi[1]
        row[2 * v], row[2 * v + 1] = phi[0], phi[1]
        rows.append(tuple(row))
    return tuple(rows)


def float_rank_unscaled(op: RigidityOperator, tol: float = 1e-9) -> int:
    """The float rank of the raw rows: singular values above tol times the
    largest, with no row scaled."""
    A = np.array([[float(c) for c in row] for row in op.matrix], dtype=float)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def is_congruent_two_cosets(p, q, tol: float = 1e-9) -> bool:
    """Euclidean congruence as the library tested it before: the best
    rotation of p, and then of p reflected in the x-axis, onto q after
    both are centred (an SVD each, with the last left singular vector
    negated when U V^T is a reflection), each passing when its largest
    residual entry is at most tol times max(1, the largest centred
    coordinate of q)."""
    P = np.array([[float(x), float(y)] for x, y in p.coords])
    Q = np.array([[float(x), float(y)] for x, y in q.coords])
    Pc = P - P.mean(axis=0)
    Qc = Q - Q.mean(axis=0)
    scale = max(1.0, float(np.abs(Qc).max()))
    for reflect in (False, True):
        Pr = Pc.copy()
        if reflect:
            Pr[:, 1] = -Pr[:, 1]
        U, _, Vt = np.linalg.svd(Qc.T @ Pr)
        R = U @ Vt
        if np.linalg.det(R) < 0:
            U[:, -1] = -U[:, -1]
            R = U @ Vt
        if float(np.abs(Pr @ R.T - Qc).max()) <= tol * scale:
            return True
    return False


# ---------------------------------------------------------------------------
# connectivity by cut scans


def is_k_connected_cut_scan(G: Graph, k: int) -> bool:
    """k-connectivity (k in 1..3) by deleting every vertex set of size
    below k, with the library's conventions: complete graphs pass, K1 is
    only 1-connected, and only deletions that leave two vertices count."""
    if G.n == 1:
        return k == 1
    if G.is_complete():
        return True
    if not G.is_connected():
        return False
    for size in range(1, k):
        for cut in itertools.combinations(range(G.n), size):
            rest = [v for v in range(G.n) if v not in cut]
            if len(rest) >= 2 and not G.subgraph(rest)[0].is_connected():
                return False
    return True


def is_3_connected_by_deletions(G: Graph) -> bool:
    """The library's earlier `is_k_connected(G, 3)`: a non-complete G is
    3-connected iff it is 2-connected and G - v is 2-connected for every v,
    one lowpoint DFS per vertex, O(n * m)."""
    if G.n == 1:
        return False
    if G.is_complete():
        return True
    if not is_k_connected(G, 2):
        return False
    for v in range(G.n):
        comps, cuts, *_ = _lowpoint_dfs(G, (v,))
        if len(comps) != 1 or cuts:
            return False
    return True


def components_search(G: Graph) -> list[set[int]]:
    """The library's earlier `Graph.components`: one plain graph search per
    unvisited vertex, in increasing order."""
    seen = [False] * G.n
    out = []
    for s in range(G.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in G.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def edges_on_common_cycles(G: Graph) -> dict:
    """Edge e -> the edges that lie on a simple cycle through e, e itself
    included: for e = ab, the edges of every simple a-b path in G - e,
    found by listing those paths.  For small graphs only."""
    out = {}
    for a, b in G.edges:
        found = {(a, b)}
        path = [a]

        def extend(u):
            for w in G.adj[u]:
                if (u, w) in ((a, b), (b, a)) or w in path:
                    continue
                path.append(w)
                if w == b:
                    found.update(_norm_edge(x, y) for x, y in zip(path, path[1:]))
                else:
                    extend(w)
                path.pop()

        extend(a)
        out[(a, b)] = found
    return out


def first_cut_vertex_scan(G: Graph):
    """The smallest vertex whose deletion leaves a disconnected graph on at
    least two vertices, one subgraph per vertex; None if there is none."""
    for u in range(G.n):
        rest = [v for v in range(G.n) if v != u]
        if len(rest) >= 2 and not G.subgraph(rest)[0].is_connected():
            return u
    return None


def edge_connectivity_unpruned(G: Graph) -> int:
    """Least s-t flow from vertex 0, each flow run to its maximum."""
    if G.n < 2 or not G.is_connected():
        return 0
    return min(min_st_edge_cut_residual(G, 0, t) for t in range(1, G.n))


def edge_connectivity_dominating_flows(G: Graph) -> int:
    """The library's earlier `edge_connectivity`: min(delta, the bounded
    flows from vertex 0 to each other member of the greedy dominating set),
    run on every graph, with no spanning-tree cut labels before them."""
    adj, best = G.adj, G.min_degree()
    dominated = set()
    for d in range(G.n):
        if d in dominated:
            continue
        dominated.add(d)
        dominated.update(adj[d])
        if d:
            best = _min_st_edge_cut(G, 0, d, best)
    return best


def min_st_edge_cut_residual(G: Graph, s: int, t: int, limit: int | None = None) -> int:
    """Max-flow with unit edge capacities via repeated BFS augmentation.

    With `limit` set, augmentation stops once the flow reaches it, so the
    result is min(max flow, limit).
    """
    # residual capacities on directed arcs
    cap = {}
    for u, v in G.edges:
        cap[(u, v)] = 1
        cap[(v, u)] = 1
    flow = 0
    while flow != limit:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for w in G.adj[u]:
                if w not in parent and cap[(u, w)] > 0:
                    parent[w] = u
                    queue.append(w)
        if t not in parent:
            return flow
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return flow


def circuit_by_reach(game: PebbleGame, u: int, v: int) -> frozenset:
    """The circuit of the edge uv that game.insert just rejected, read by
    walking the region reachable from u and v again and taking uv plus its
    out-edges; right only while nothing has been inserted since."""
    seen = {u, v}
    stack = [u, v]
    while stack:
        x = stack.pop()
        for w in game.out[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    circ = {_norm_edge(x, w) for x in seen for w in game.out[x]}
    circ.add(_norm_edge(u, v))
    return frozenset(circ)


def vertex_deletion_rigid_games(G: Graph) -> bool:
    """rank(G - v) = 2(n - 1) - 2 for every v, one game per v, with no
    edge-count filter first."""
    return all(
        rank_by_stopped_game(G.subgraph([w for w in range(G.n) if w != v])[0].edges, 2)
        == 2 * (G.n - 1) - 2
        for v in range(G.n)
    )


# ---------------------------------------------------------------------------
# cut questions on spanning searches of their own


def no_separation_pair_dfs1(G: Graph) -> bool:
    """The library's earlier `_no_separation_pair`, with a DFS 1 of its own.

    Whether a 2-connected, non-complete simple G (so n >= 4) has no
    separating pair, i.e. is 3-connected, in O(n + m): Hopcroft & Tarjan's
    triconnectivity path search (SIAM J. Comput. 2(3), 1973) as corrected
    by Gutwenger & Mutzel ("A linear time implementation of SPQR-trees",
    GD 2000), stopped at the first split.  All three searches are
    iterative.

    1. A vertex of degree 2 has its two neighbours as a separating pair.
    2. DFS 1 from vertex 0 numbers the vertices and records fathers,
       descendant counts ND, lowpt1 and lowpt2 (the least and second least
       number in {v} and the ends of fronds leaving the subtree of v), and
       the out-arcs: tree arcs and fronds, each frond from a vertex to a
       proper ancestor.  At the tree edge (p, v) it answers False when
       lowpt2(v) >= num(p) > lowpt1(v) and n - ND(v) >= 3: every edge
       leaving the subtree of v then ends at p or at lowpt1(v), and some
       vertex lies outside the subtree and off the pair.
    3. Each out-arc list is sorted by phi: 2 lowpt1(w) for a tree arc
       v -> w, 2w + 1 for a frond v ~> w, the order of Gutwenger &
       Mutzel's 3 lowpt1(w) and 3w + 1.  They add 2 for a tree arc with
       lowpt2(w) >= v; that changes no order once step 2 has passed,
       because then such an arc is the only out-arc of v.  Either v is the root,
       whose one child w is its one out-arc; or lowpt1(w) < v and the side
       condition failed, n - ND(w) = 2, so v and the root are all that lie
       outside the subtree of w: v is the root's child, w its one child,
       and v has no frond, as a frond to its father would double an edge.
    4. DFS 2 follows the sorted arcs.  It renumbers the vertices (entering
       v, NEWNUM(v) = count - ND(v) + 1, count starting at n and falling by
       one after each return from a tree child, so the subtree of w holds
       w .. w + ND(w) - 1) and sets high(v), the NEWNUM of the source of
       the first frond into v it meets, or 0.  lowpt1(w) names an ancestor
       of w, so it maps to the new numbers vertex by vertex.
    5. The path search follows the same arcs, the first arc and each arc
       after a frond starting a path, with Gutwenger & Mutzel's stack of
       triples (h, a, b) and end-of-segment markers, and answers
       False at its first type-2 pair, True if it finishes.  Its type-1
       test is left out: it is step 2's condition on the same vertices
       under a stronger side condition (father(v) not the root, or a tree
       arc of v still to come, both leave three vertices outside the
       subtree of w), so step 2 has answered first.

    Soundness: Gutwenger & Mutzel's algorithm changes the graph only when
    it splits off a component, so a run stopped at its first split is in
    the state of the full run up to that point.  A 2-connected simple graph
    on n >= 4 vertices is 3-connected iff the full run splits nothing.
    With no multiple edges and every degree at least 3, its bond handling
    (a frond to the father) and its deg(w) = 2 branch never apply before
    the first split.  And each of the exits 1, 2 and the type-2 split
    names a real separating pair: in a simple graph a split pair has two
    split classes holding vertices off the pair.
    """
    n, adj = G.n, G.adj
    if min(map(len, adj)) < 3:
        return False
    # DFS 1: numbers 1..n; out[v] lists tree children w and fronds ~w
    num, father, nd = [0] * n, [-1] * n, [1] * n
    low1, low2 = [0] * n, [0] * n
    out = [[] for _ in range(n)]
    num[0] = low1[0] = low2[0] = clock = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not num[w]:
                clock += 1
                num[w] = low1[w] = low2[w] = clock
                father[w] = v
                out[v].append(w)
                stack.append((w, iter(adj[w])))
                break
            x = num[w]
            if x < num[v] and w != father[v]:
                out[v].append(~w)
                if x < low1[v]:
                    low1[v], low2[v] = x, low1[v]
                elif low1[v] < x < low2[v]:
                    low2[v] = x
        else:
            stack.pop()
            p = father[v]
            if p < 0:
                break
            nd[p] += nd[v]
            l1, l2 = low1[v], low2[v]
            if l2 >= num[p] > l1 and n - nd[v] >= 3:
                return False
            if l1 < low1[p]:
                low1[p], low2[p] = l1, min(low1[p], l2)
            elif l1 == low1[p]:
                low2[p] = min(low2[p], l2)
            else:
                low2[p] = min(low2[p], l1)

    def phi(w):
        return 2 * num[~w] + 1 if w < 0 else 2 * low1[w]

    for arcs in out:
        arcs.sort(key=phi)
    # DFS 2: new numbers and high
    vertex = [0] * (n + 1)  # old number -> vertex
    for v in range(n):
        vertex[num[v]] = v
    new, high = [0] * n, [0] * n
    count = n
    new[0] = 1
    stack = [(0, 0)]
    while stack:
        v, i = stack.pop()
        if i:
            count -= 1  # back from the tree child out[v][i - 1]
        arcs = out[v]
        while i < len(arcs):
            w = arcs[i]
            i += 1
            if w >= 0:
                new[w] = count - nd[w] + 1
                stack += ((v, i), (w, 0))
                break
            if not high[~w]:
                high[~w] = new[v]
    # the path search along the same arcs: h and a are new numbers, b is
    # a vertex, and each frame keeps whether its last tree arc started a path
    low1 = [new[vertex[x]] for x in low1]
    eos = (0, 0, 0)
    tstack = [eos]  # a sentinel EOS: no triple below it is ever read
    start = True
    stack = [(0, 0, False)]
    while stack:
        v, i, started = stack.pop()
        nv, arcs = new[v], out[v]
        if i:
            # back from w = arcs[i - 1]: the type-2 pairs {v, b}
            while nv != 1 and tstack[-1][1] == nv:
                if father[tstack[-1][2]] != v:
                    return False
                tstack.pop()
            if started:
                while tstack.pop() is not eos:
                    pass
            h, a, b = tstack[-1]
            while tstack[-1] is not eos and a != nv and b != v and high[v] > h:
                tstack.pop()
                h, a, b = tstack[-1]
        while i < len(arcs):
            w = arcs[i]
            i += 1
            lw = low1[w] if w >= 0 else new[~w]
            if start:
                y, last = 0, -1
                while tstack[-1][1] > lw:
                    h, _, last = tstack.pop()
                    y = max(y, h)
                if last >= 0:
                    tstack.append((y, lw, last))
                elif w >= 0:
                    tstack.append((new[w] + nd[w] - 1, lw, v))
                else:
                    tstack.append((nv, lw, v))
                if w >= 0:
                    tstack.append(eos)
            if w >= 0:
                stack += ((v, i, start), (w, 0, False))
                start = False
                break
            start = True
    return True


def edge_connectivity_upto3_bfs(G: Graph) -> int:
    """The library's earlier `_edge_connectivity_upto3`, on a BFS tree of
    its own.

    min(lambda, 3), lambda the edge connectivity (0 for n < 2), from the
    cut-space labels of one BFS spanning tree T (Pritchard & Thurimella,
    "Fast computation of small cuts via cycle space sampling", ACM TALG
    7(4), 2011), kept exact as Python-int bitsets instead of sampled.

    Each non-tree edge g gets its own bit, XORed into the accumulators of
    both its ends; the tree edge (parent(v), v) gets the XOR of the
    accumulators over the subtree of v.  So the label of a non-tree edge g
    is {g}, and that of a tree edge is the set of non-tree edges with
    exactly one end in the subtree, i.e. whose fundamental cycle holds it.
    Over GF(2) the cut space is the orthogonal complement of the cycle
    space, which the fundamental cycles span: an edge set D is a cut iff it
    meets every fundamental cycle an even number of times, i.e. iff its
    labels sum to 0.  Hence G - X is disconnected iff some nonempty D in X
    has labels summing to 0.  With |X| = 1 that is a zero label (a tree
    edge on no cycle); with |X| = 2 and no zero label it is two equal
    labels, which are a tree edge's label equal to one bit {g}, or two
    equal tree-edge labels (two non-tree labels are distinct bits).  If T
    does not span, G is disconnected and lambda = 0.
    """
    n = G.n
    if n < 2:
        return 0
    adj = G.adj
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for u in order:  # BFS: the list grows while it is read
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    if len(order) < n:
        return 0
    label = [0] * n
    bit = 1
    for u, w in G.edges:
        if parent[w] != u and parent[u] != w:
            label[u] ^= bit
            label[w] ^= bit
            bit <<= 1
    # children before parents: label[v] is final when v is reached
    seen, two = set(), False
    for v in order[:0:-1]:
        x = label[v]
        if not x:
            return 1
        if not x & (x - 1) or x in seen:
            two = True
        seen.add(x)
        label[parent[v]] ^= x
    return 2 if two else 3


# ---------------------------------------------------------------------------
# automorphisms by a search of their own


def automorphism_with_pins(G: Graph, pins: dict[int, int]):
    """The library's earlier automorphism search: an automorphism of G
    extending the pinned partial map, or None.  The pins are checked for
    color, repeated images and pinned edges up front, then placed, and the
    search extends them over the other vertices, rarest color first."""
    c = _wl_colors(G)
    for v, w in pins.items():
        if c[v] != c[w]:
            return None
    order = rarity_order(G, c, pins)
    mapping = {}
    used = set()
    for v, w in pins.items():
        if w in used:
            return None
        mapping[v] = w
        used.add(w)
    for u in pins:
        for v in pins:
            if u < v and G.has_edge(u, v) != G.has_edge(pins[u], pins[v]):
                return None
    return _extend_automorphism(G, c, mapping, used, order)


def is_vertex_transitive_by_search(G: Graph) -> bool:
    """Vertex-transitivity by the old automorphism search alone: an
    automorphism maps vertex 0 to every vertex."""
    return all(automorphism_with_pins(G, {0: v}) is not None for v in range(1, G.n))


def is_edge_transitive_by_search(G: Graph) -> bool:
    """Edge-transitivity by the old automorphism search alone: an
    automorphism maps the least edge to every edge, in one orientation or
    the other."""
    edges = G.sorted_edges()
    return all(
        automorphism_with_pins(G, {edges[0][0]: x, edges[0][1]: y}) is not None
        or automorphism_with_pins(G, {edges[0][0]: y, edges[0][1]: x}) is not None
        for x, y in edges[1:]
    )


def rarity_order(G: Graph, colours, pins) -> list[int]:
    """The library's earlier isomorphism search order: the pins, then the
    other vertices by (colour frequency, -degree, label), rarest colour
    first, whatever their edges."""
    freq = {x: colours.count(x) for x in set(colours)}
    return list(pins) + sorted(
        (v for v in range(G.n) if v not in pins),
        key=lambda v: (freq[colours[v]], -G.degree(v), v),
    )


def connected_order(G: Graph, colours, pins) -> list[int]:
    """The isomorphism search order by its definition, in O(n^2): the
    pins, then at each step the least unplaced vertex by (colour
    frequency, -degree, label) among those with a placed neighbour, or
    among all unplaced vertices when none has one."""
    key = {v: (colours.count(colours[v]), -G.degree(v), v) for v in range(G.n)}
    order = list(pins)
    while len(order) < G.n:
        rest = [v for v in range(G.n) if v not in order]
        near = [v for v in rest if any(u in order for u in G.adj[v])]
        order.append(min(near or rest, key=key.get))
    return order


def _extend_automorphism(G: Graph, c, mapping, used, order):
    if len(mapping) == G.n:
        return dict(mapping)
    v = order[len(mapping)]
    for w in range(G.n):
        if w in used or c[w] != c[v]:
            continue
        if all(G.has_edge(u, v) == G.has_edge(img, w) for u, img in mapping.items()):
            mapping[v] = w
            used.add(w)
            res = _extend_automorphism(G, c, mapping, used, order)
            if res is not None:
                return res
            del mapping[v]
            used.remove(w)
    return None


# ---------------------------------------------------------------------------
# isomorphisms by recursion


def extend_isomorphism_recursive(G: Graph, H: Graph, cg, ch, pins, mapping, used, order):
    """The library's earlier `_extend_isomorphism`: the same backtracking,
    one recursion level per vertex."""
    if len(mapping) == G.n:
        return dict(mapping)
    v = order[len(mapping)]
    for w in (pins[v],) if v in pins else range(H.n):
        if w in used or ch[w] != cg[v]:
            continue
        ok = True
        for u, img in mapping.items():
            if G.has_edge(u, v) != H.has_edge(img, w):
                ok = False
                break
        if ok:
            mapping[v] = w
            used.add(w)
            res = extend_isomorphism_recursive(G, H, cg, ch, pins, mapping, used, order)
            if res is not None:
                return res
            del mapping[v]
            used.remove(w)
    return None


# ---------------------------------------------------------------------------
# forward scripts by per-kind rules


def forward_script_per_kind(trace: ReductionTrace) -> list[Move]:
    """The library's earlier `ReductionTrace.forward_script`: one hand-written
    undo and relabelling rule per reduction kind, 1-reductions included."""
    base = base_graph(trace.base)
    sigma = find_isomorphism(trace.final, base)
    if sigma is None:
        raise MoveError("trace does not end at its base graph")
    n_re = base.n
    out = []
    for i in range(len(trace.steps) - 1, -1, -1):
        step = trace.steps[i]
        prev = trace.graph_before(i)
        m = step.move
        rel = dict(step.relabel) if step.relabel else {v: v for v in range(prev.n)}
        if m.kind == "edge-deletion":
            u, v = m.params
            out.append(Move("edge-addition", tuple(sorted((sigma[u], sigma[v])))))
        elif m.kind == "k4minus-reduction":
            u1, u2 = m.params
            v1, v2 = sorted((prev.adj[u1] & prev.adj[u2]) - {u1, u2})
            out.append(Move("k4minus-extension", (sigma[rel[v1]], sigma[rel[v2]])))
            sigma = {w: sigma[rel[w]] for w in rel}
            sigma[u1], sigma[u2] = n_re, n_re + 1
            n_re += 2
        elif m.kind == "edge-reduction":
            a, b, c = m.params
            n2 = sorted(sigma[rel[w]] for w in prev.adj[b] if w != a)
            out.append(Move("generalized-vertex-split", (sigma[rel[a]], sigma[rel[c]], *n2)))
            sigma = {w: sigma[rel[w]] for w in rel}
            sigma[b] = n_re
            n_re += 1
        elif m.kind == "1-reduction":
            v, x, y = m.params
            z = next(w for w in prev.adj[v] if w not in (x, y))
            out.append(Move("1-extension", (sigma[rel[x]], sigma[rel[y]], sigma[rel[z]])))
            sigma = {w: sigma[rel[w]] for w in rel}
            sigma[v] = n_re
            n_re += 1
        else:
            raise MoveError(f"unexpected reduction kind {m.kind!r}")
    return out


def reduction_candidates_both_ways(G: Graph):
    """The library's earlier `moves._reduction_candidates`: the same
    deletions and K4--reductions, and the edge-reductions with the common
    neighbours and the degree sum of each edge tested once per direction,
    the intersection first."""
    adj = G.adj
    deg = [len(nbrs) for nbrs in adj]
    edges = G.sorted_edges()

    if G.m >= 2 * G.n:
        for u, v in edges:
            if deg[u] >= 4 and deg[v] >= 4:
                yield Move("edge-deletion", (u, v))

    for u1, u2 in edges:
        if deg[u1] != 3 or deg[u2] != 3:
            continue
        common = sorted(adj[u1] & adj[u2])
        if len(common) == 2 and not G.has_edge(*common):
            yield Move("k4minus-reduction", (u1, u2))

    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            common = adj[a] & adj[b]
            if len(common) > 1 or deg[a] + deg[b] - 3 < 3:
                continue
            for c in sorted(common) if common else sorted(adj[a] - {b}):
                if deg[c] - 1 >= 3:
                    yield Move("edge-reduction", (a, b, c))


def _remove_vertices(G: Graph, drop):
    """The library's earlier `Graph.remove_vertices`."""
    drop = set(drop)
    keep = [v for v in range(G.n) if v not in drop]
    relabel = {old: new for new, old in enumerate(keep)}
    edges = frozenset(
        _norm_edge(relabel[u], relabel[v])
        for u, v in G.edges
        if u not in drop and v not in drop
    )
    return Graph(len(keep), edges), relabel


def apply_per_kind(G: Graph, move: Move):
    """The library's earlier constructions in `moves._apply_full`, one per
    kind, for a move whose preconditions hold: the graph and the
    relabelling map (None when no vertex vanishes).  Vertex deletions
    renumber through the earlier `Graph.remove_vertices`."""
    kind, p = move.kind, move.params
    if kind == "edge-addition":
        return G.add_edge(*p), None
    if kind == "edge-deletion":
        return G.remove_edge(*p), None
    if kind == "1-extension":
        x, y, z = p
        w = G.n
        edges = (G.edges - {_norm_edge(x, y)}) | {(x, w), (y, w), (z, w)}
        return Graph.from_edges(G.n + 1, edges), None
    if kind == "1-reduction":
        v, x, y = p
        H, relabel = _remove_vertices(G, [v])
        return H.add_edge(relabel[x], relabel[y]), relabel
    if kind == "k4minus-extension":
        u, v = p
        w1, w2 = G.n, G.n + 1
        edges = (G.edges - {_norm_edge(u, v)}) | {
            (u, w1), (u, w2), (v, w1), (v, w2), (w1, w2)
        }
        return Graph.from_edges(G.n + 2, edges), None
    if kind == "k4minus-reduction":
        u1, u2 = p
        v1, v2 = sorted((G.adj[u1] & G.adj[u2]) - {u1, u2})
        H, relabel = _remove_vertices(G, [u1, u2])
        return H.add_edge(relabel[v1], relabel[v2]), relabel
    if kind == "generalized-vertex-split":
        v, x = p[0], p[1]
        n2 = set(p[2:])
        v2 = G.n
        edges = (G.edges - {_norm_edge(v, w) for w in n2}) | {(w, v2) for w in n2}
        return Graph.from_edges(G.n + 1, edges | {(v, v2), (v, x)}), None
    if kind == "edge-reduction":
        a, b, c = p
        edges = {
            _norm_edge(a if u == b else u, a if w == b else w)
            for u, w in G.edges - {_norm_edge(a, b), _norm_edge(a, c)}
        }
        return _remove_vertices(Graph.from_edges(G.n, edges), [b])
    raise MoveError(f"unknown move kind {kind!r}")


# ---------------------------------------------------------------------------
# joins and separations by per-kind rules


def _all_pairs(vs):
    return [_norm_edge(x, y) for x, y in itertools.combinations(vs, 2)]


def _require_k4(G: Graph, vs, ctx: str):
    if len(set(vs)) != 4 or any(not 0 <= v < G.n for v in vs):
        raise MoveError(f"{ctx}: need four distinct vertices")
    if len(G.induced_edges(vs)) != 6:
        raise MoveError(f"{ctx}: the four vertices must induce a K4")


def join_per_kind(G1: Graph, G2: Graph, j: int, gluing) -> Graph:
    """The library's earlier `moves.join`: one hand-written relabel-and-union
    rule per kind, with the vertex range and distinct-neighbour checks of
    the 3-join added."""
    if j == 1:
        (a1, b1), (a2, b2, c2, d2) = gluing
        if not G1.has_edge(a1, b1):
            raise MoveError("1-join: a1b1 must be an edge of G1")
        _require_k4(G2, (a2, b2, c2, d2), "1-join")
        if G2.degree(c2) != 3 or G2.degree(d2) != 3:
            raise MoveError("1-join: c and d must have degree 3 in G2")
        keep2 = [v for v in range(G2.n) if v not in (a2, b2, c2, d2)]
        lab2 = {v: G1.n + i for i, v in enumerate(keep2)}
        lab2[a2], lab2[b2] = a1, b1
        f2 = set(_all_pairs((a2, b2, c2, d2)))
        edges = set(G1.edges) - {_norm_edge(a1, b1)}
        edges |= {
            _norm_edge(lab2[u], lab2[v]) for u, v in G2.edges if (u, v) not in f2
        }
        return Graph.from_edges(G1.n + len(keep2), edges)

    if j == 2:
        (a1, b1, c1, d1), (a2, b2, c2, d2) = gluing
        _require_k4(G1, (a1, b1, c1, d1), "2-join")
        _require_k4(G2, (a2, b2, c2, d2), "2-join")
        for H, (c, d), name in ((G1, (c1, d1), "G1"), (G2, (c2, d2), "G2")):
            if H.degree(c) != 3 or H.degree(d) != 3:
                raise MoveError(f"2-join: c and d must have degree 3 in {name}")
        keep1 = [v for v in range(G1.n) if v not in (c1, d1)]
        lab1 = {v: i for i, v in enumerate(keep1)}
        keep2 = [v for v in range(G2.n) if v not in (a2, b2, c2, d2)]
        lab2 = {v: len(keep1) + i for i, v in enumerate(keep2)}
        lab2[a2], lab2[b2] = lab1[a1], lab1[b1]
        f1 = set(_all_pairs((a1, b1, c1, d1)))
        f2 = set(_all_pairs((a2, b2, c2, d2)))
        edges = {
            _norm_edge(lab1[u], lab1[v]) for u, v in G1.edges if (u, v) not in f1
        }
        edges |= {
            _norm_edge(lab2[u], lab2[v]) for u, v in G2.edges if (u, v) not in f2
        }
        edges.add(_norm_edge(lab1[a1], lab1[b1]))
        return Graph.from_edges(len(keep1) + len(keep2), edges)

    if j == 3:
        (v1, (a1, b1, c1)), (v2, (a2, b2, c2)) = gluing
        for H, v, nbrs, name in (
            (G1, v1, (a1, b1, c1), "G1"),
            (G2, v2, (a2, b2, c2), "G2"),
        ):
            for x in (v, *nbrs):
                if not 0 <= x < H.n:
                    raise MoveError(f"3-join: vertex {x} does not exist")
            if H.adj[v] != frozenset(nbrs):
                raise MoveError(f"3-join: v must have exactly those neighbours in {name}")
            if len(set(nbrs)) != 3:
                raise MoveError(f"3-join: the three neighbours must be distinct in {name}")
        keep1 = [v for v in range(G1.n) if v != v1]
        lab1 = {v: i for i, v in enumerate(keep1)}
        keep2 = [v for v in range(G2.n) if v != v2]
        lab2 = {v: len(keep1) + i for i, v in enumerate(keep2)}
        edges = {
            _norm_edge(lab1[u], lab1[w]) for u, w in G1.edges if v1 not in (u, w)
        }
        edges |= {
            _norm_edge(lab2[u], lab2[w]) for u, w in G2.edges if v2 not in (u, w)
        }
        edges |= {
            _norm_edge(lab1[a1], lab2[a2]),
            _norm_edge(lab1[b1], lab2[b2]),
            _norm_edge(lab1[c1], lab2[c2]),
        }
        return Graph.from_edges(len(keep1) + len(keep2), edges)

    raise MoveError("j must be 1, 2 or 3")


def separations_of_per_kind(G: Graph, j: int) -> list[tuple[Graph, Graph]]:
    """The library's earlier `moves.separations_of`: one completion helper
    per kind."""
    out = []
    if j in (1, 2):
        for sep in enumerate_separations(G, "vertex-cut-2"):
            a, b = sep.cut
            has_ab = G.has_edge(a, b)
            if (j == 1 and has_ab) or (j == 2 and not has_ab):
                continue
            p1, p2 = sep.parts
            if j == 1:
                out.append(_one_separation(G, p1, p2, a, b))
                out.append(_one_separation(G, p2, p1, a, b))
            else:
                out.append(_two_separation(G, p1, p2, a, b))
    elif j == 3:
        for sep in enumerate_separations(G, "edge-cut-3"):
            if not sep.nontrivial:
                continue
            out.append(_three_separation(G, sep))
    else:
        raise MoveError("j must be 1, 2 or 3")
    return out


def _one_separation(G, p1, p2, a, b):
    H1, lab1 = G.subgraph(p1.vertices)
    G1 = H1.add_edge(lab1[a], lab1[b])
    H2, lab2 = G.subgraph(p2.vertices)
    c, d = H2.n, H2.n + 1
    edges = set(H2.edges) | {
        (lab2[a], lab2[b]), (lab2[a], c), (lab2[a], d),
        (lab2[b], c), (lab2[b], d), (c, d),
    }
    G2 = Graph.from_edges(H2.n + 2, {_norm_edge(u, v) for u, v in edges})
    return G1, G2


def _two_separation(G, p1, p2, a, b):
    def complete(part):
        H, lab = G.subgraph(part.vertices)
        c, d = H.n, H.n + 1
        edges = set(H.edges) | {
            (lab[a], c), (lab[a], d), (lab[b], c), (lab[b], d), (c, d),
        }
        return Graph.from_edges(H.n + 2, {_norm_edge(u, v) for u, v in edges})

    return complete(p1), complete(p2)


def _three_separation(G, sep):
    p1, p2 = sep.parts

    def complete(part):
        H, lab = G.subgraph(part.vertices)
        apex = H.n
        ends = [
            e[0] if e[0] in set(part.vertices) else e[1] for e in sep.cut
        ]
        edges = set(H.edges) | {(lab[x], apex) for x in ends}
        return Graph.from_edges(H.n + 1, {_norm_edge(u, v) for u, v in edges})

    return complete(p1), complete(p2)


def enumerate_separations_scan(G: Graph) -> list[Separation]:
    """The library's earlier `enumerate_separations(G, "vertex-cut-2")`: one
    subgraph and component search per vertex pair, then a dedupe pass."""
    if G.n < 4:
        raise ValueError("separation enumeration needs n >= 4")
    out = []
    for a, b in itertools.combinations(range(G.n), 2):
        rest = [v for v in range(G.n) if v not in (a, b)]
        H, back = G.subgraph(rest)
        comps = H.components()
        if len(comps) < 2:
            continue
        inv = {new: old for old, new in back.items()}
        comps_old = [{inv[v] for v in c} for c in comps]
        for left, right in _bipartitions(comps_old):
            v1 = set().union(*left) | {a, b}
            v2 = set().union(*right) | {a, b}
            p1, p2 = _part(G, v1), _part(G, v2)
            nontriv = not (
                _is_k4_part(G, v1) or _is_k4_part(G, v2)
            )
            out.append(
                Separation("vertex-cut-2", (p1, p2), (a, b), nontriv)
            )
    seen = set()
    uniq = []
    for s in out:
        key = frozenset((s.parts[0].vertices, s.parts[1].vertices)), s.cut
        if key not in seen:
            seen.add(key)
            uniq.append(s)
    return uniq


def edge_cuts_triple_scan(G: Graph) -> list[Separation]:
    """The library's earlier `enumerate_separations(G, "edge-cut-3")`: one
    graph and component search for each of the C(m, 3) edge triples."""
    if G.n < 4:
        raise ValueError("separation enumeration needs n >= 4")
    out = []
    edges = G.sorted_edges()
    for cut in itertools.combinations(edges, 3):
        rem = Graph(G.n, G.edges - set(cut))
        comps = rem.components()
        if len(comps) < 2:
            continue
        for left, right in _bipartitions(comps):
            v1 = set().union(*left)
            v2 = set().union(*right)
            crossing = {
                e for e in cut
                if (e[0] in v1) != (e[1] in v1)
            }
            if len(crossing) != 3:
                continue
            ends = [x for e in cut for x in e]
            nontriv = len(set(ends)) == 6
            out.append(
                Separation("edge-cut-3", (_part(G, v1), _part(G, v2)), cut, nontriv)
            )
    return out


# ---------------------------------------------------------------------------
# the single-pass decision


def report_single_pass(G: Graph) -> RigidityReport:
    """The library's earlier `decide.is_globally_rigid_analytic`, which
    evaluated every sufficient condition whatever the verdict."""
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
            report.reasons.update(negative_reason_from_parts(G))
    report.sufficient_conditions_hit, notes = sufficient_checks(G)
    report.notices.extend(notes)
    report.euclidean_verdict = is_globally_rigid_euclidean(G)
    return report


def negative_reason_from_parts(G: Graph) -> dict[str, str]:
    """The library's earlier reason for a negative M(2,2) verdict, read off
    the sorted edge parts of `m22_components`: its first singleton part,
    an edge in no circuit, or else the number of parts.  G has an edge and
    no isolated vertex."""
    comps = m22_components(G)
    singleton = next((c for c in comps if len(c) == 1), None)
    if singleton is not None:
        (e,) = singleton
        return {"edge_in_no_circuit": f"{e[0]}-{e[1]}"}
    return {"matroid_disconnected": f"{len(comps)} components"}


def emit_graph6_by_pairs(G: Graph) -> str:
    """The library's earlier graph6 writer: one `has_edge` probe per vertex
    pair, columnwise over the upper triangle, packed six bits a byte."""
    out = _g6_size_bytes(G.n)
    bits = []
    for v in range(1, G.n):
        for u in range(v):
            bits.append(1 if G.has_edge(u, v) else 0)
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6] + [0] * (6 - len(bits[i:i + 6]))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(val + 63)
    return "".join(chr(c) for c in out)


def parse_graph6_by_bytes(text: str) -> Graph:
    """The library's earlier graph6 reader: every data byte, set bits or
    not, is visited in a Python loop after a per-byte range check."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("graph6: empty input")
    data = [ord(ch) - 63 for ch in s]
    for pos, val in enumerate(data):
        if not 0 <= val <= 63:
            raise FormatError(f"graph6: invalid byte at position {pos}")
    if data[0] == 63:
        if len(data) > 1 and data[1] == 63:
            raise FormatError(
                f"graph6: the 8-byte size form '~~' names n above {MAX_VERTICES}, "
                "the most vertices a graph file holds"
            )
        if len(data) < 4:
            raise FormatError("graph6: truncated long-form size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6: expected {need} data bytes for n={n}, got {len(body)}"
        )
    edges = []
    for pos, val in enumerate(body):
        for k in _G6_SET_BITS[val]:
            i = 6 * pos + k
            if i >= total:
                break
            v = (1 + math.isqrt(8 * i + 1)) >> 1
            edges.append((i - v * (v - 1) // 2, v))
    return Graph.from_edges(n, edges)
