"""Construction and deconstruction moves on M(2,2)-connected graphs.

The forward moves (edge additions, 1-extensions, K4--extensions,
generalised vertex splits) grow a graph from the base graphs K5- and B1;
the reductions invert them.  The reduction engine searches for an
admissible move semantically: apply the candidate, keep it if the result is
still M(2,2)-connected.
"""

from __future__ import annotations

import random

from . import catalog
from .graphs import (
    Graph, enumerate_separations, find_isomorphism, is_isomorphic,
)
from .records import FrozenRecord, Record
from .sparsity import is_m22_connected, take_m22_game

FORWARD_KINDS = (
    "edge-addition",
    "1-extension",
    "k4minus-extension",
    "generalized-vertex-split",
)
REDUCTION_KINDS = (
    "edge-deletion",
    "1-reduction",
    "k4minus-reduction",
    "edge-reduction",
)
KINDS = FORWARD_KINDS + REDUCTION_KINDS
# parameter counts (see Move); a split takes at least two
_ARITY = {
    "edge-addition": 2, "1-extension": 3, "k4minus-extension": 2, "generalized-vertex-split": 2,
    "edge-deletion": 2, "1-reduction": 3, "k4minus-reduction": 2, "edge-reduction": 3,
}


class MoveError(ValueError):
    """A move precondition failed; the message names the condition."""


class Move(FrozenRecord):
    """One construction step or its inverse.

    params by kind:
      edge-addition / edge-deletion   (u, v)
      1-extension                     (x, y, z)    delete xy, new vertex adjacent to x,y,z
      1-reduction                     (v, x, y)    delete degree-3 vertex v, add xy
      k4minus-extension               (u, v)       replace edge uv by the K4-minus-edge gadget
      k4minus-reduction               (u1, u2)     delete the adjacent degree-3 pair, add the missing edge
      generalized-vertex-split        (v, x, *n2)  split v; the new vertex takes the neighbours in n2
      edge-reduction                  (a, b, c)    contract ab onto a and drop the edge ac
    """

    _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        if kind not in KINDS:
            raise MoveError(f"unknown move kind {kind!r}")
        n, want = len(params), _ARITY[kind]
        split = kind == "generalized-vertex-split"
        if n < want or (n > want and not split):
            raise MoveError(f"{kind}: needs {'at least ' * split}{want} parameters, got {n}")
        fields = self.__dict__
        fields["kind"] = kind
        fields["params"] = params


def graph_hash(G: Graph) -> str:
    import hashlib

    text = f"{G.n}:" + ",".join(f"{u}-{v}" for u, v in G.sorted_edges())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _apply_full(G: Graph, move: Move) -> tuple[Graph, dict[int, int] | None]:
    """Apply a move as one `Graph.edit`; also return its relabeling map.
    `Move` admits only the eight kinds below, and each returns or raises."""
    kind, p = move.kind, move.params
    for x in p:
        if not 0 <= x < G.n:
            raise MoveError(f"{kind}: vertex {x} does not exist")

    if kind == "edge-addition":
        u, v = p
        if u == v:
            raise MoveError("edge-addition: endpoints must be distinct existing vertices")
        if G.has_edge(u, v):
            raise MoveError("edge-addition: edge already present")
        return G.edit(add=[p])

    if kind == "edge-deletion":
        u, v = p
        if not G.has_edge(u, v):
            raise MoveError("edge-deletion: edge not present")
        return G.edit(remove=[p])

    if kind == "1-extension":
        x, y, z = p
        if not G.has_edge(x, y):
            raise MoveError("1-extension: xy must be an edge")
        if z in (x, y):
            raise MoveError("1-extension: z must be a third existing vertex")
        return G.edit(remove=[(x, y)], add=[(x, G.n), (y, G.n), (z, G.n)], grow=1)

    if kind == "1-reduction":
        v, x, y = p
        if G.degree(v) != 3:
            raise MoveError("1-reduction: v must have degree 3")
        if x not in G.adj[v] or y not in G.adj[v] or x == y:
            raise MoveError("1-reduction: x and y must be distinct neighbours of v")
        if G.has_edge(x, y):
            raise MoveError("1-reduction: xy must not already be an edge")
        return G.edit(drop=[v], add=[(x, y)])

    if kind == "k4minus-extension":
        u, v = p
        if not G.has_edge(u, v):
            raise MoveError("k4minus-extension: uv must be an edge")
        w1, w2 = G.n, G.n + 1
        gadget = [(u, w1), (u, w2), (v, w1), (v, w2), (w1, w2)]
        return G.edit(remove=[p], add=gadget, grow=2)

    if kind == "k4minus-reduction":
        u1, u2 = p
        if not G.has_edge(u1, u2):
            raise MoveError("k4minus-reduction: u1u2 must be an edge")
        if G.degree(u1) != 3 or G.degree(u2) != 3:
            raise MoveError("k4minus-reduction: u1 and u2 must have degree 3")
        common = sorted(G.adj[u1] & G.adj[u2])
        if len(common) != 2:
            raise MoveError("k4minus-reduction: |N(u1) ∩ N(u2)| must be 2")
        v1, v2 = common
        if G.has_edge(v1, v2):
            raise MoveError("k4minus-reduction: completing edge already present")
        return G.edit(drop=[u1, u2], add=[(v1, v2)])

    if kind == "generalized-vertex-split":
        v, x = p[0], p[1]
        n2 = set(p[2:])
        if not n2 <= G.adj[v]:
            raise MoveError("generalized-vertex-split: n2 must be neighbours of v")
        n1 = G.adj[v] - n2
        if x == v:
            raise MoveError("generalized-vertex-split: x must be another existing vertex")
        if x in n1:
            raise MoveError("generalized-vertex-split: x must avoid the part kept at v")
        v2 = G.n
        moved = [(w, v2) for w in n2] + [(v, v2), (v, x)]
        return G.edit(remove=[(v, w) for w in n2], add=moved, grow=1)

    if kind == "edge-reduction":
        a, b, c = p
        if not G.has_edge(a, b):
            raise MoveError("edge-reduction: ab must be an edge")
        if c not in G.adj[a] or c == b:
            raise MoveError("edge-reduction: c must be a neighbour of a other than b")
        common = G.adj[a] & G.adj[b]
        if not common <= {c}:
            raise MoveError("edge-reduction: a and b may share no neighbour besides c")
        # every edge bw other than ba moves to aw; this re-adds ac if bc is an
        # edge, and no other aw exists, since N(a) ∩ N(b) ⊆ {c}
        return G.edit(drop=[b], remove=[(a, b), (a, c)], add=[(a, w) for w in G.adj[b] if w != a])


def apply(G: Graph, move: Move) -> Graph:
    """Apply a move, with deterministic relabeling on vertex deletions."""
    return _apply_full(G, move)[0]


def inverse(G: Graph, move: Move) -> Move:
    """The move that undoes `move` when applied to apply(G, move).

    Round trips land on a graph isomorphic to G (labels may shift when the
    forward move deleted vertices).
    """
    kind, p = move.kind, move.params
    if kind == "edge-addition":
        return Move("edge-deletion", p)
    if kind == "1-extension":
        return Move("1-reduction", (G.n, p[0], p[1]))
    if kind == "k4minus-extension":
        return Move("k4minus-reduction", (G.n, G.n + 1))
    if kind == "generalized-vertex-split":
        return Move("edge-reduction", (p[0], G.n, p[1]))
    _, relabel = _apply_full(G, move)
    return _mapped(_undo(G, move), relabel or range(G.n))


def _undo(G: Graph, move: Move) -> Move:
    """The construction move that undoes the reduction `move` of G, in G's
    labels; it names only vertices that the reduction keeps."""
    kind, p = move.kind, move.params
    if kind == "edge-deletion":
        return Move("edge-addition", p)
    if kind == "1-reduction":
        v, x, y = p
        z = next(w for w in G.adj[v] if w not in (x, y))
        return Move("1-extension", (x, y, z))
    if kind == "k4minus-reduction":
        u1, u2 = p
        return Move("k4minus-extension", tuple(sorted(G.adj[u1] & G.adj[u2])))
    if kind == "edge-reduction":
        a, b, c = p
        return Move("generalized-vertex-split", (a, c, *(w for w in G.adj[b] if w != a)))
    raise MoveError(f"unexpected reduction kind {kind!r}")


def _mapped(move: Move, f) -> Move:
    """`move` with every vertex x renamed f[x]; the pair of an edge-addition
    and the neighbour tail of a split are sorted."""
    p = tuple(f[x] for x in move.params)
    if move.kind == "edge-addition":
        p = tuple(sorted(p))
    elif move.kind == "generalized-vertex-split":
        p = (p[0], p[1], *sorted(p[2:]))
    return Move(move.kind, p)


# ---------------------------------------------------------------------------
# joins and separations


def join(G1: Graph, G2: Graph, j: int, gluing) -> Graph:
    """Glue two graphs across a shared edge, K4 pair, or degree-3 vertices.

    gluing by j:
      1: ((a1, b1), (a2, b2, c2, d2))   edge of G1, K4 of G2 with deg-3 c2, d2;
                                        a1 is identified with a2 and b1 with b2
      2: ((a1, b1, c1, d1), (a2, b2, c2, d2))   K4 of each side, deg-3 c_i, d_i
      3: ((v1, (a1, b1, c1)), (v2, (a2, b2, c2)))  degree-3 vertices, paired
                                        neighbours a1-a2, b1-b2, c1-c2

    All three are one `_glue`.  A 2-join glues G1 - {c1, d1} to
    G2 - {c2, d2} at a and b, where the two copies of ab become one edge.
    A 1-join glues all of G1 to G2 - {c2, d2} the same way and then removes
    ab.  A 3-join glues G1 - v1 to G2 - v2 at no vertex and then adds the
    three paired edges.
    """
    if j == 1:
        (a1, b1), (a2, b2, c2, d2) = gluing
        if not G1.has_edge(a1, b1):
            raise MoveError("1-join: a1b1 must be an edge of G1")
        _require_k4(G2, (a2, b2, c2, d2), "1-join")
        if G2.degree(c2) != 3 or G2.degree(d2) != 3:
            raise MoveError("1-join: c and d must have degree 3 in G2")
        G, _, _ = _glue(G1, (), G2, (c2, d2), {a2: a1, b2: b1})
        return G.remove_edge(a1, b1)  # G1 keeps its labels

    if j == 2:
        (a1, b1, c1, d1), (a2, b2, c2, d2) = gluing
        _require_k4(G1, (a1, b1, c1, d1), "2-join")
        _require_k4(G2, (a2, b2, c2, d2), "2-join")
        for H, (c, d), name in ((G1, (c1, d1), "G1"), (G2, (c2, d2), "G2")):
            if H.degree(c) != 3 or H.degree(d) != 3:
                raise MoveError(f"2-join: c and d must have degree 3 in {name}")
        return _glue(G1, (c1, d1), G2, (c2, d2), {a2: a1, b2: b1})[0]

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
        G, lab1, lab2 = _glue(G1, (v1,), G2, (v2,), {})
        pairs = ((a1, a2), (b1, b2), (c1, c2))
        return G.edit(add=[(lab1[x], lab2[y]) for x, y in pairs])[0]

    raise MoveError("j must be 1, 2 or 3")


def _glue(G1: Graph, drop1, G2: Graph, drop2, ident: dict[int, int]):
    """G1 - drop1 and G2 - drop2 side by side, with each G2 vertex in `ident`
    merged into its G1 image; also the label maps of both sides.

    G1's kept vertices come first, in order, then G2's kept and unmerged
    ones.  Edges that coincide after the merge are one edge.
    """
    H1, lab1 = G1.remove_vertices(drop1)
    keep2 = [v for v in range(G2.n) if v not in drop2 and v not in ident]
    lab2 = {v: H1.n + i for i, v in enumerate(keep2)}
    lab2.update((v, lab1[w]) for v, w in ident.items())
    edges = {(lab2[u], lab2[w]) for u, w in G2.edges if u in lab2 and w in lab2}
    return Graph.from_edges(H1.n + len(keep2), H1.edges | edges), lab1, lab2


def _require_k4(G: Graph, vs, ctx: str):
    if len(set(vs)) != 4 or any(not 0 <= v < G.n for v in vs):
        raise MoveError(f"{ctx}: need four distinct vertices")
    if len(G.induced_edges(vs)) != 6:
        raise MoveError(f"{ctx}: the four vertices must induce a K4")


def separations_of(G: Graph, j: int) -> list[tuple[Graph, Graph]]:
    """All j-separations of G, as pairs of completed (relabeled) graphs.

    Each part is completed by `_completed`: for j = 1 the first part gains
    the edge ab of the cut {a, b} and the second the K4 on a, b and two new
    vertices; for j = 2 both parts gain that K4 (ab is already there); for
    j = 3 each part gains an apex joined to its ends of the three cut edges.

    For j = 1 both orderings of each underlying 2-vertex-separation are
    produced, since the K4 completion is attached to the second part only.
    j = 2 and j = 3 are symmetric and each underlying separation appears
    once.
    """
    out = []
    if j in (1, 2):
        c, d = G.n, G.n + 1
        for sep in enumerate_separations(G, "vertex-cut-2"):
            a, b = sep.cut
            if G.has_edge(a, b) != (j == 2):
                continue
            p1, p2 = (p.vertices for p in sep.parts)
            k4 = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
            if j == 1:
                out.append((_completed(G, p1, k4[:1]), _completed(G, p2, k4)))
                out.append((_completed(G, p2, k4[:1]), _completed(G, p1, k4)))
            else:
                out.append((_completed(G, p1, k4[1:]), _completed(G, p2, k4[1:])))
    elif j == 3:
        # one lowpoint DFS per edge pair, cost m^2 (n + m) (see
        # enumerate_separations)
        for sep in enumerate_separations(G, "edge-cut-3"):
            if sep.nontrivial:
                # the apex G.n meets each part at its ends of the cut edges
                out.append(tuple(
                    _completed(G, vs, [(x if x in vs else y, G.n) for x, y in sep.cut])
                    for vs in (p.vertices for p in sep.parts)
                ))
    else:
        raise MoveError("j must be 1, 2 or 3")
    return out


def _completed(G: Graph, part, extra) -> Graph:
    """The subgraph of G induced on `part`, plus the `extra` edges.

    Extra edges join part vertices and at most two new vertices, which they
    name G.n and G.n + 1 (the first new vertex is always G.n); the new
    vertices are numbered after the part's.
    """
    grow = len({x for e in extra for x in e if x >= G.n})
    return G.edit(drop=set(range(G.n)).difference(part), add=extra, grow=grow)[0]


# ---------------------------------------------------------------------------
# the reduction engine


class TraceStep(FrozenRecord):
    """One reduction step: the move, the map of the kept vertices into the
    result's labels (sorted (old, new) pairs, or None when no vertex
    vanished) and the reduced graph."""

    _fields = ("move", "relabel", "result")

    def __init__(self, move: Move, relabel: tuple[tuple[int, int], ...] | None, result: Graph):
        fields = self.__dict__
        fields["move"] = move
        fields["relabel"] = relabel
        fields["result"] = result

    @property
    def result_hash(self) -> str:
        """graph_hash of the result, computed when read."""
        return graph_hash(self.result)


class ReductionTrace(Record):
    """Record of a reduction down to K5- or B1.

    Replaying the forward script (the inverse moves, conjugated into the
    rebuild's label space) from the named base rebuilds a graph isomorphic
    to the input; see forward_script().
    """

    _fields = ("start", "base", "steps")

    def __init__(self, start: Graph, base: str = "", steps: list[TraceStep] | None = None):
        self.start = start
        self.base = base
        self.steps = [] if steps is None else steps

    @property
    def final(self) -> Graph:
        return self.steps[-1].result if self.steps else self.start

    def graph_before(self, i: int) -> Graph:
        return self.start if i == 0 else self.steps[i - 1].result

    def forward_script(self) -> list[Move]:
        """Construction moves that rebuild the input from the base graph.

        Reduction moves renumber vertices, so the raw inverses do not
        compose.  Walking the trace backwards, σ maps the graph after each
        step into the rebuild; the step from `prev` emits its `_undo`
        through τ = σ∘rel, then gives prev's deleted vertices, in increasing
        order, the next rebuild labels, and σ becomes τ.

        Proof sketch: σ stays an isomorphism onto the rebuild so far; at the
        base it comes from find_isomorphism.  τ is injective on prev's kept
        vertices, and the emitted move, read through τ, restores prev's edges
        among them (it drops what the reduction added and re-adds what it
        removed) and appends vertices with the deleted ones' neighbourhoods,
        so the extended τ is one from prev.  The two new vertices of a
        K4--extension are adjacent to each other and to the same pair, so
        they are interchangeable and either order works.
        """
        base = base_graph(self.base)
        sigma = find_isomorphism(self.final, base)
        if sigma is None:
            raise MoveError("trace does not end at its base graph")
        n_re = base.n
        out = []
        for i in range(len(self.steps) - 1, -1, -1):
            step = self.steps[i]
            prev = self.graph_before(i)
            rel = dict(step.relabel) if step.relabel else {v: v for v in range(prev.n)}
            tau = {w: sigma[rel[w]] for w in rel}
            out.append(_mapped(_undo(prev, step.move), tau))
            for w in range(prev.n):
                if w not in tau:
                    tau[w] = n_re
                    n_re += 1
            sigma = tau
        return out


_BASES = (("K5-", catalog.k5_minus()), ("B1", catalog.b1()))


def base_name_of(G: Graph) -> str | None:
    for name, B in _BASES:
        if is_isomorphic(G, B):
            return name
    return None


def base_graph(name: str) -> Graph:
    for base, B in _BASES:
        if base == name:
            return B
    raise MoveError(f"unknown base graph {name!r}")


def find_admissible_reduction(G: Graph) -> TraceStep | None:
    """The first edge-deletion, K4--reduction or edge-reduction that keeps
    the graph M(2,2)-connected, as the step it makes (the move, the
    relabelling and the reduced graph); None exactly on the base graphs.

    Candidates are tried in a fixed order (deletions, then K4--reductions,
    then edge-reductions, parameters sorted) so reductions are reproducible.
    Cheap degree filters run before the full connectivity check, which is
    warm: each candidate's game starts from the game that found G
    M(2,2)-connected, relabelled by the move.  The search takes that game
    off G right after its entry check (see is_m22_connected), so G keeps
    none: it is the warm game of the search that accepted G or, for an
    input checked cold, G's sorted game.  The accepted candidate is
    applied once, and the step handed back is that application.

    The search ends where its candidates run out.  They read degrees and
    adjacency only, and there are none on any copy of K5- or B1: m < 2n
    (no edge-deletion), every edge has two or more common neighbours (no
    edge-reduction), and no adjacent degree-3 pair has non-adjacent common
    neighbours (no K4--reduction).  Every other M(2,2)-connected graph has
    an admissible reduction by the paper's construction theorem.
    """
    if not is_m22_connected(G):
        raise MoveError("input is not M(2,2)-connected")
    parent = take_m22_game(G)
    for move in _reduction_candidates(G):
        H, relabel = _apply_full(G, move)
        if is_m22_connected(H, seed=(parent, relabel)):
            return TraceStep(move, tuple(sorted(relabel.items())) if relabel else None, H)
    return None


def _reduction_candidates(G: Graph):
    """The reductions find_admissible_reduction tries, in its order, after
    the degree filters; the degrees are looked up once.  A Graph has no
    loops, so neither end of an edge is a common neighbour of its ends."""
    adj = G.adj
    deg = [len(nbrs) for nbrs in adj]
    edges = G.sorted_edges()

    if G.m >= 2 * G.n:  # a deletion can only survive with |E|-1 >= 2n-1
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


def reduce_to_base(G: Graph) -> ReductionTrace:
    """Reduce an M(2,2)-connected graph to K5- or B1 move by move.

    Every intermediate graph is M(2,2)-connected; each move strictly
    decreases |V| + |E|, so the loop terminates.  Each step is the one
    find_admissible_reduction hands back, so no move is applied twice, and
    it hands back None exactly on the base graphs, which ends the loop.
    Each search takes the game its entry check left on its graph, so a
    finished trace keeps no game on any of its graphs.
    """
    trace = ReductionTrace(start=G)
    while (step := find_admissible_reduction(trace.final)) is not None:
        trace.steps.append(step)
    trace.base = base_name_of(trace.final)
    if trace.base is None:
        raise MoveError("no admissible reduction found")  # cannot happen
    return trace


def rebuild_from_trace(trace: ReductionTrace) -> Graph:
    """Apply the trace's forward script starting at its base graph."""
    G = base_graph(trace.base)
    for move in trace.forward_script():
        G = apply(G, move)
    return G


# ---------------------------------------------------------------------------
# random generation


def random_m22_graph(steps: int, seed: int) -> Graph:
    """Grow a random M(2,2)-connected graph from K5- or B1.

    Edge additions, 1-extensions and K4--extensions always preserve
    connectivity of the matroid; vertex splits are re-rolled until the
    result passes, falling back to a K4--extension if none does.
    """
    if steps < 0:
        raise MoveError("steps must be non-negative")
    rng = random.Random(seed)
    G = catalog.k5_minus() if rng.random() < 0.5 else catalog.b1()
    for _ in range(steps):
        kind = rng.choices(
            ["edge-addition", "1-extension", "k4minus-extension",
             "generalized-vertex-split"],
            weights=[2, 3, 3, 3],
        )[0]
        if kind == "edge-addition":
            non_edges = [
                (u, v)
                for u in range(G.n)
                for v in range(u + 1, G.n)
                if not G.has_edge(u, v)
            ]
            if not non_edges:
                kind = "k4minus-extension"
            else:
                G = apply(G, Move("edge-addition", rng.choice(non_edges)))
                continue
        if kind == "1-extension":
            x, y = rng.choice(G.sorted_edges())
            z = rng.choice([w for w in range(G.n) if w not in (x, y)])
            G = apply(G, Move("1-extension", (x, y, z)))
        elif kind == "k4minus-extension":
            G = apply(G, Move("k4minus-extension", rng.choice(G.sorted_edges())))
        else:
            G = _random_split(G, rng)
    return G


def _random_split(G: Graph, rng: random.Random) -> Graph:
    for _ in range(40):
        v = rng.randrange(G.n)
        nbrs = sorted(G.adj[v])
        if len(nbrs) < 3:
            continue
        # both pieces must keep degree >= 3: |n2| >= 2 and |n1| >= 1
        size = rng.randint(2, len(nbrs) - 1)
        n2 = sorted(rng.sample(nbrs, size))
        n1 = set(nbrs) - set(n2)
        cands = [x for x in range(G.n) if x != v and x not in n1]
        if not cands:
            continue
        x = rng.choice(cands)
        H = apply(G, Move("generalized-vertex-split", (v, x, *n2)))
        if is_m22_connected(H):
            return H
    return apply(G, Move("k4minus-extension", rng.choice(G.sorted_edges())))
