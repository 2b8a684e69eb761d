"""The simple (2,k)-sparse matroid for 0 <= k <= 3.

Rank and independence come from the standard pebble game: every vertex
starts with two pebbles, and an edge is accepted when k+1 pebbles can be
gathered on its endpoints by reversing directed paths.

Every other matroid question is answered from a single game: the basis B
it accepts and, for each rejected edge f, the fundamental circuit C(f,B),
read from the pebbles at the moment f is rejected.  The components are the
classes of "lies in a common fundamental circuit" (the single-basis
component rule), the coloops are the basis edges in no fundamental
circuit, G is a circuit when exactly one edge is rejected and its circuit
is E, and each ear of an ear decomposition is one fundamental circuit of a
game that plays the previous ears first.

The k = 2 case (rank2k(..., 2), circuits, M(2,2)-components, connectivity,
ear decompositions) is the one the rigidity theory uses; k = 3 serves the
Euclidean comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph, _norm_edge


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

    def _grab_pebble(self, root: int, keep: tuple[int, int]) -> bool:
        """Pull one pebble to `root` along a reversed directed path.

        Pebbles sitting on the two endpoints in `keep` are off limits; they
        are the ones being gathered.
        """
        parent = {root: None}
        stack = [root]
        target = None
        while stack:
            u = stack.pop()
            if u != root and u not in keep and self.pebbles[u] > 0:
                target = u
                break
            for w in self.out[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
        if target is None:
            return False
        self.pebbles[target] -= 1
        v = target
        while parent[v] is not None:
            u = parent[v]
            self.out[u].remove(v)
            self.out[v].add(u)
            v = u
        self.pebbles[root] += 1
        return True

    def insert(self, u: int, v: int) -> bool:
        """Try to accept edge uv; return whether it stays independent."""
        if u == v:
            raise ValueError("loops are not allowed")
        need = self.k + 1
        while self.pebbles[u] + self.pebbles[v] < need:
            if not (self._grab_pebble(u, (u, v)) or self._grab_pebble(v, (u, v))):
                return False
        tail, head = (u, v) if self.pebbles[u] > 0 else (v, u)
        self.pebbles[tail] -= 1
        self.out[tail].add(head)
        self.accepted.append(_norm_edge(u, v))
        return True

    def reach(self, u: int, v: int) -> set[int]:
        seen = {u, v}
        stack = [u, v]
        while stack:
            x = stack.pop()
            for w in self.out[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def fundamental_circuit_of_rejected(self, u: int, v: int) -> frozenset[Edge]:
        """Circuit created by the edge uv that insert() just rejected.

        It must be read before the next insert.  When insert(u, v) fails,
        u and v hold k pebbles and no other pebble is reachable from them,
        so the region R reachable from u and v has no out-edge leaving it:
        its accepted edges are the out-edges of its vertices, 2|R| - k of
        them, and R is tight.  A tight T that contains u and v holds those
        k pebbles, so it has no out-edge leaving it either, and R is a
        subset of T.  So R is the minimal tight set spanning uv, which is
        V(C), and C is uv plus the out-edges of R.  Later inserts move
        pebbles and can enlarge R.
        """
        region = self.reach(u, v)
        circ = {_norm_edge(x, w) for x in region for w in self.out[x]}
        circ.add(_norm_edge(u, v))
        return frozenset(circ)

    @property
    def rank(self) -> int:
        return len(self.accepted)


def _basis_and_circuits(order, k: int) -> tuple[list[Edge], dict[Edge, frozenset[Edge]]]:
    """Play one game over the edges in the given order.

    Returns the basis B it accepts, in order, and a dict that maps each
    rejected edge f, in order, to its fundamental circuit C(f,B).  The
    circuit is read when f is rejected; it lies in the basis so far plus f,
    which is inside B + f, so it is C(f,B).
    """
    order = list(dict.fromkeys(_norm_edge(u, v) for u, v in order))
    game = PebbleGame(1 + max((v for e in order for v in e), default=-1), k)
    circuits = {}
    for e in order:
        if not game.insert(*e):
            circuits[e] = game.fundamental_circuit_of_rejected(*e)
    return game.accepted, circuits


def rank2k(edges, k: int) -> int:
    """Rank of an edge set in the (2,k)-sparsity matroid."""
    uniq = list(dict.fromkeys(_norm_edge(u, v) for u, v in edges))
    game = PebbleGame(1 + max((v for e in uniq for v in e), default=-1), k)
    for e in uniq:
        game.insert(*e)
    return game.rank


def is_sparse(G: Graph, k: int) -> bool:
    """Every subgraph satisfies |E'| <= 2|V'| - k, i.e. E is independent."""
    if G.m < 1:
        raise ValueError("needs at least one edge")
    return rank2k(G.edges, k) == G.m


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
    _, circuits = _basis_and_circuits(G.sorted_edges(), 2)
    return len(circuits) == 1 and next(iter(circuits.values())) == G.edges


def coloops(edges, k: int) -> frozenset[Edge]:
    """The edges that lie in every basis of the (2,k) matroid on edges.

    These are the basis edges of one game that lie in no fundamental
    circuit.  A basis edge b in C(f,B) is not a coloop, because B - b + f
    is a basis that avoids b.  If b lies in no C(f,B), every f outside B
    is spanned by B - b, so E - b has rank |B| - 1 and b is a coloop.
    """
    basis, circuits = _basis_and_circuits(edges, k)
    in_circuit = set().union(*circuits.values())
    return frozenset(b for b in basis if b not in in_circuit)


def fundamental_circuit(base, e: Edge, k: int = 2) -> frozenset[Edge]:
    """The unique circuit inside base + e, given base independent.

    Raises if base is dependent or if base + e stays independent.
    """
    base = [_norm_edge(u, v) for u, v in base]
    e = _norm_edge(*e)
    n = 1 + max(max((v for d in base for v in d), default=-1), e[1])
    game = PebbleGame(n, k)
    for u, v in base:
        if not game.insert(u, v):
            raise ValueError("base edge set is not independent")
    if game.insert(*e):
        raise ValueError("base + e is independent; no circuit")
    return game.fundamental_circuit_of_rejected(*e)


# ---------------------------------------------------------------------------
# matroid components


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)


def m22_components(G: Graph) -> list[frozenset[Edge]]:
    """Partition of E into components of the (2,2) matroid.

    Single-basis component rule: for any basis B, the components are the
    classes of the relation "lies in a common fundamental circuit C(f,B)",
    so the fundamental circuits of one game, merged by union-find, give
    them (Krogdahl 1977; Oxley, Matroid Theory, section 4.3).
    """
    if G.m < 1 or G.min_degree() == 0:
        raise ValueError("needs at least one edge and no isolated vertices")
    edges = G.sorted_edges()
    uf = _UnionFind(edges)
    _, circuits = _basis_and_circuits(edges, 2)
    for f, circ in circuits.items():
        for e in circ:
            uf.union(f, e)
    groups: dict[Edge, set[Edge]] = {}
    for e in edges:
        groups.setdefault(uf.find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def is_m22_connected(G: Graph) -> bool:
    """Every pair of edges lies in a common (2,2)-circuit.

    Requires no isolated vertices and at least two edges.  Cheap necessary
    filters (minimum degree 3, a spanning tight subgraph) run before the
    component computation since this sits on the reduction engine's hot
    path.
    """
    if G.n == 0 or G.m < 2 or G.min_degree() == 0:
        return False
    if G.min_degree() < 3:
        return False
    if G.m < 2 * G.n - 1:
        return False
    edges = G.sorted_edges()
    if rank2k(edges, 2) != 2 * G.n - 2:
        return False
    return len(m22_components(G)) == 1


# ---------------------------------------------------------------------------
# ear decompositions


@dataclass(frozen=True)
class EarDecomposition:
    """Ordered circuits C1..Ct with D_i = C1 ∪ ... ∪ C_i covering E.

    Each ear after the first meets the previous union (E1), adds new edges
    (E2), and its new-edge set is inclusion-minimal among circuits doing
    both (E3).
    """

    circuits: tuple[frozenset[Edge], ...]

    @property
    def t(self) -> int:
        return len(self.circuits)

    def unions(self) -> list[frozenset[Edge]]:
        out = []
        d: frozenset[Edge] = frozenset()
        for c in self.circuits:
            d = d | c
            out.append(d)
        return out

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
    order.  Each later ear comes from one game over sorted(D) + sorted(E-D),
    whose basis B splits into B_D (inside D) and B_N.  For a rejected f
    outside D and e in B_N: e lies in the circuit of f in M/D iff B - e + f
    is a basis iff e lies in C = C(f,B).  So that contraction circuit is
    K_f = C - B_D, a circuit of M/D exactly when C meets B_D (otherwise K_f
    = C is dependent in M).  C is the one circuit inside B_D + K_f, it is
    the ear, and K_f is its set of new edges.
    """
    if G.n > 0 and G.min_degree() == 0:
        raise ValueError("no isolated vertices allowed")
    if G.m < 2:
        return None
    edges = G.sorted_edges()
    _, circuits = _basis_and_circuits(edges, 2)
    if not circuits:
        return None  # independent: no circuits at all
    ears = [next(iter(circuits.values()))]
    covered = set(ears[0])
    while len(covered) < G.m:
        basis, circuits = _basis_and_circuits(
            sorted(covered) + sorted(e for e in edges if e not in covered), 2
        )
        bd = covered.intersection(basis)
        qualifying = [
            circ for f, circ in circuits.items()
            if f not in covered and not circ.isdisjoint(bd)
        ]
        if not qualifying:
            return None  # matroid disconnected
        ear = min(qualifying, key=lambda circ: (len(circ - bd), sorted(circ - bd)))
        ears.append(ear)
        covered |= ear
    return EarDecomposition(tuple(ears))
