"""The simple (2,k)-sparse matroid for 0 <= k <= 3.

Rank and independence come from the standard pebble game: every vertex
starts with two pebbles, and an edge is accepted when k+1 pebbles can be
gathered on its endpoints by reversing directed paths.

Every matroid question is answered from a single game: the basis B it
accepts and, for each rejected edge f, the fundamental circuit C(f,B),
read from the pebbles at the moment f is rejected.  The rank is |B|, the
components are the classes of "lies in a common fundamental circuit" (the
single-basis component rule), the coloops are the basis edges in no
fundamental circuit, G is a circuit when exactly one edge is rejected and
its circuit is E, and each ear of an ear decomposition is one of the
fundamental circuits of the game over the sorted edges.  That game is
played once per Graph instance and kept on it (_sorted_game), so the rank,
the components, the circuit test, the ear decomposition, the cold M(2,2)
check and the callers in `decide` all read the same game.  A game may
also start from the final orientation of another game (PebbleGame.seed),
which is how the reduction engine checks each candidate from its parent's
game.

The k = 2 case (rank2k(..., 2), circuits, M(2,2)-components, connectivity,
ear decompositions) is the one the rigidity theory uses; k = 3 serves the
Euclidean comparisons.
"""

from __future__ import annotations

from .graphs import Edge, Graph, _norm_edge
from .records import FrozenRecord


class PebbleGame:
    """Mutable (2,k) pebble game state over vertices 0..n-1.

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

    def seed(self, parent: PebbleGame, relabel, edges) -> None:
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
        circ = {_norm_edge(x, w) for x in seen_u.keys() | seen_v.keys() for w in self.out[x]}
        circ.add(uv)
        return frozenset(circ)

    @property
    def rank(self) -> int:
        return len(self.accepted)


def _basis_and_circuits(
    order, k: int, game: PebbleGame | None = None
) -> tuple[list[Edge], dict[Edge, frozenset[Edge]]]:
    """Play one game over distinct normalised edges in the given order.

    Returns the basis B it accepts, in order, and a dict that maps each
    rejected edge f, in order, to its fundamental circuit C(f,B).  The
    circuit is read when f is rejected; it lies in the basis so far plus f,
    which is inside B + f, so it is C(f,B).

    A seeded `game` (see PebbleGame.seed) is played on instead of a fresh
    one: its accepted edges are skipped, and B is the seeds followed by the
    edges it accepts.  The argument above holds unchanged, since the seeds
    are in the basis before any edge is rejected.
    """
    if game is None:
        game = PebbleGame(1 + max((v for e in order for v in e), default=-1), k)
    seeded = set(game.accepted)
    circuits = {}
    for e in order:
        if e not in seeded and not game.insert(*e):
            circuits[e] = game.fundamental_circuit_of_rejected(*e)
    return game.accepted, circuits


def _sorted_game(G: Graph, k: int = 2) -> tuple[PebbleGame, dict[Edge, frozenset[Edge]]]:
    """The (2,k) game over G.sorted_edges() and the circuit C(f,B) of each
    edge f it rejects (see _basis_and_circuits), played once per Graph
    instance and kept on it (Graph._sorted_games).

    Every reader of the sorted-order game of G shares this pair, so no
    caller may mutate either: a reader that edits the circuits copies the
    dict first, and PebbleGame.seed only reads the game it seeds from.
    Sound, because the pair depends only on (n, E) and k, which a frozen
    Graph never changes; it is kept on the instance, not keyed by graph
    equality, so each command's work still depends only on the graphs it
    builds.
    """
    games = G._sorted_games
    if k not in games:
        game = PebbleGame(G.n, k)
        games[k] = (game, _basis_and_circuits(G.sorted_edges(), k, game)[1])
    return games[k]


def rank2k(edges, k: int) -> int:
    """Rank of an edge set in the (2,k)-sparsity matroid: the size of the
    basis of its sorted game (_sorted_game).

    `edges` is a Graph, whose own game is read, so its rank is free once
    any other (2,k) question about it has been asked; or an iterable of
    pairs, read as Graph.from_edges(1 + max label, edges), so a repeated or
    reversed pair counts once and a label without an edge adds nothing.
    """
    if not isinstance(edges, Graph):
        edges = list(edges)
        edges = Graph.from_edges(1 + max((v for e in edges for v in e), default=-1), edges)
    return _sorted_game(edges, k)[0].rank


def is_sparse(G: Graph, k: int) -> bool:
    """Every subgraph satisfies |E'| <= 2|V'| - k, i.e. E is independent."""
    if G.m < 1:
        raise ValueError("needs at least one edge")
    return rank2k(G, k) == G.m


def is_tight(G: Graph, k: int) -> bool:
    return is_sparse(G, k) and G.m == 2 * G.n - k


def is_circuit22(G: Graph) -> bool:
    """Whether G is a circuit of the simple (2,2) matroid.

    Equivalent formulations: |E| = 2|V|-1 with every proper subgraph
    (2,2)-sparse, or G dependent with G-e independent for every edge.

    One game decides it: E is a circuit iff it has nullity one and its
    one circuit is E.  Nullity one means exactly one edge f is rejected,
    and then the one circuit in E is C(f,B).
    """
    if G.m < 1 or G.min_degree() == 0:
        raise ValueError("needs at least one edge and no isolated vertices")
    if G.m != 2 * G.n - 1:
        return False
    _, circuits = _sorted_game(G)
    return len(circuits) == 1 and next(iter(circuits.values())) == G.edges


def _rank_and_coloops(G: Graph, k: int) -> tuple[int, frozenset[Edge]]:
    """The rank of the (2,k) matroid on E and its coloops (the edges that
    lie in every basis), read off G's sorted game.

    The rank is |B|.  The coloops are the edges of B that lie in no
    fundamental circuit.  A basis edge b in C(f,B) is not a coloop,
    because B - b + f is a basis that avoids b.  If b lies in no C(f,B),
    every f outside B is spanned by B - b, so E - b has rank |B| - 1 and b
    is a coloop.
    """
    game, circuits = _sorted_game(G, k)
    in_circuit = set().union(*circuits.values())
    return game.rank, frozenset(b for b in game.accepted if b not in in_circuit)


def fundamental_circuit(base, e: Edge, k: int = 2) -> frozenset[Edge]:
    """The unique circuit inside base + e, given base independent.

    Raises if base is dependent or if base + e stays independent.
    """
    base, e = [_norm_edge(u, v) for u, v in base], _norm_edge(*e)
    basis, circuits = _basis_and_circuits(base + [e], k)
    if basis[:len(base)] != base:
        raise ValueError("base edge set is not independent")
    if e not in circuits:
        raise ValueError("base + e is independent; no circuit")
    return circuits[e]


# ---------------------------------------------------------------------------
# matroid components


def m22_components(G: Graph) -> list[frozenset[Edge]]:
    """Partition of E into components of the (2,2) matroid.

    Single-basis component rule: for any basis B, the components are the
    classes of the relation "lies in a common fundamental circuit C(f,B)",
    so the fundamental circuits of one game, G's sorted game, give them
    (Krogdahl 1977; Oxley, Matroid Theory, section 4.3).
    """
    if G.m < 1 or G.min_degree() == 0:
        raise ValueError("needs at least one edge and no isolated vertices")
    _, circuits = _sorted_game(G)
    return sorted((frozenset(c) for c in _circuit_classes(G.edges, circuits)), key=sorted)


def _circuit_classes(edges, circuits) -> list[set[Edge]]:
    """The classes of "lies in a common fundamental circuit" on `edges`,
    the circuits being all the C(f,B) of one basis B.

    Each circuit in turn absorbs every class it meets, so the classes stay
    disjoint and are the connected pieces of the circuits seen so far; the
    edges in no circuit (the coloops) are then a class each.  The work is
    set operations on the circuits and the classes, not a step per edge,
    which keeps the reduction engine's warm checks (a circuit or two per
    candidate) cheap.
    """
    classes: list[set[Edge]] = []
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


def take_m22_game(G: Graph) -> PebbleGame | None:
    """The final game of the check that found G M(2,2)-connected, taken off
    G, so that G keeps no game; None if G holds none.  Do not mutate it."""
    try:
        return G._m22_game.pop()  # one step, so two takers never get one game
    except IndexError:
        return None


def is_m22_connected(
    G: Graph, seed: tuple[PebbleGame | None, dict[int, int] | None] | None = None
) -> bool:
    """Every pair of edges lies in a common (2,2)-circuit.

    Cheap necessary filters (minimum degree 3, so n >= 4 and m >= 6, then
    a spanning tight subgraph) run before the component computation since
    this sits on the reduction engine's hot path.

    Cold path (no seed): `rank2k`, then `m22_components`, both read off G's
    sorted game (_sorted_game), which is played once, by `rank2k`; that
    game is the one G keeps.

    Warm path: `seed` is (parent, relabel), with `parent` the final game of
    a graph G was derived from (or None) and `relabel` the map of its kept
    vertices into G's labels (None for the identity).  One game decides:
    it starts from parent's basis edges whose images are edges of G (see
    PebbleGame.seed; none when parent is None) and inserts the rest.  Its
    basis B has size rank(E), so rank 2n - 2 is |B| = 2n - 2; and each
    circuit it reads is C(f,B) for its final B (see _basis_and_circuits),
    so the single-basis component rule of m22_components applies to its
    circuits, through the same _circuit_classes.  The verdict is that of
    the cold path.

    A graph that passes keeps the game that decided it (the warm game, or
    its sorted game after a cold check) on its instance (Graph._m22_game)
    until take_m22_game takes it, and while it does, a call on it returns
    True at once: the instance is frozen and held a game only after it
    passed.  `reduce_to_base` starts every search with this check on the
    graph the previous search just accepted, which is answered so, and
    the search seeds its candidates from the game it then takes.  The slot
    is read here and not in `moves`, so every search still makes its entry
    check through this function, and a count of its calls per search (the
    benchmark's trace derives the candidates tried that way) stays true.
    """
    slot = G._m22_game
    if slot:
        return True
    if G.min_degree() < 3:
        return False
    if G.m < 2 * G.n - 1:
        return False
    if seed is None:
        if rank2k(G, 2) != 2 * G.n - 2:
            return False
        if len(m22_components(G)) != 1:
            return False
        game = _sorted_game(G)[0]
    else:
        parent, relabel = seed
        game = PebbleGame(G.n, 2)
        if parent is not None:
            game.seed(parent, relabel, G.edges)
        basis, circuits = _basis_and_circuits(G.sorted_edges(), 2, game)
        if len(basis) != 2 * G.n - 2:
            return False
        if len(_circuit_classes(G.edges, circuits)) != 1:
            return False
    slot[:] = [game]
    return True


# ---------------------------------------------------------------------------
# ear decompositions


class EarDecomposition(FrozenRecord):
    """Ordered circuits C1..Ct with D_i = C1 ∪ ... ∪ C_i covering E.

    Each ear after the first meets the previous union (E1), adds new edges
    (E2), and its new-edge set is inclusion-minimal among circuits doing
    both (E3).
    """

    _fields = ("circuits",)

    def __init__(self, circuits: tuple[frozenset[Edge], ...]):
        self.__dict__["circuits"] = circuits

    @property
    def t(self) -> int:
        return len(self.circuits)

    def new_parts(self) -> list[frozenset[Edge]]:
        out = []
        d: set[Edge] = set()
        for c in self.circuits:
            out.append(frozenset(c - d))
            d |= c
        return out


def ear_decomposition(G: Graph) -> EarDecomposition | None:
    """An ear decomposition of the (2,2) matroid of G, or None.

    None is returned exactly when G is not M(2,2)-connected.  Each step
    picks, among the circuits of the contraction M/D_{i-1} realisable as a
    qualifying circuit, one with the fewest new edges (ties broken by the
    sorted edge list), which makes the output deterministic and gives the
    inclusion-minimality property (E3).

    The first ear is the circuit of the first edge rejected in sorted
    order.  Each later ear is read off B, the greedy basis for the order
    sorted(D) + sorted(E-D), split into B_D (inside D) and B_N.  For f
    outside D and B, and e in B_N: e lies in the circuit of f in M/D iff
    B - e + f is a basis iff e lies in C = C(f,B).  So that contraction
    circuit is K_f = C - B_D, a circuit of M/D exactly when C meets B_D
    (otherwise K_f = C is dependent in M).  C is the one circuit inside
    B_D + K_f, it is the ear, and K_f is its set of new edges.  Two
    candidates f, g with equal K_f are equal, since f and g both lie in
    K_f and C(f,B) - f is inside B; so the choice never depends on the
    order the candidates are seen in.

    One game, G's sorted game (_sorted_game), serves every ear: its basis
    B0 is B at every step, so its circuits C(g,B0), read once, are all the
    candidates.  Proof: a basis is the greedy basis for an order iff each
    edge g outside it comes last, in that order, in its fundamental
    circuit (Edmonds' greedy algorithm; Oxley, Matroid Theory, section
    1.8).  In sorted order g is spanned by the basis edges before it, so g
    is the largest edge of C(g,B0).  In sorted(D) + sorted(E-D), an
    uncovered g still comes after the rest of C(g,B0): the edges of D come
    first, and the others are smaller than g.  By induction each earlier
    ear is C(f,B0) for its f, with every other edge in B0; so a covered g
    outside B0 is such an f, and C(g,B0), its ear, lies in D, where it
    keeps its sorted order.  So B0 meets the criterion for every D.  B_D
    is D minus the ears' rejected edges, and no C(g,B0) of an uncovered g
    holds one of those, so K_g = C(g,B0) - D and C(g,B0) qualifies iff it
    meets D.
    """
    if G.n > 0 and G.min_degree() == 0:
        raise ValueError("no isolated vertices allowed")
    if G.m < 2:
        return None
    circuits = dict(_sorted_game(G)[1])  # a copy: the loop deletes from it
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
