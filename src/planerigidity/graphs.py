"""Simple graphs with dense integer labels, plus the connectivity and
separation primitives the rest of the library is built on.

Vertices are always 0..n-1.  Operations that delete vertices renumber the
survivors and report the relabeling map, so matrix column indexing stays
trivial downstream.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: no loops, no parallel edges, labels 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbr = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return tuple(frozenset(s) for s in nbr)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def add_edge(self, u: int, v: int) -> "Graph":
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        return Graph(self.n, self.edges | {_norm_edge(u, v)})

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = _norm_edge(u, v)
        if e not in self.edges:
            raise ValueError(f"edge ({u},{v}) not present")
        return Graph(self.n, self.edges - {e})

    def remove_vertices(self, drop) -> tuple["Graph", dict[int, int]]:
        """Delete the given vertices; return the renumbered graph and the
        old-label -> new-label map for the survivors."""
        drop = set(drop)
        keep = [v for v in range(self.n) if v not in drop]
        relabel = {old: new for new, old in enumerate(keep)}
        edges = frozenset(
            _norm_edge(relabel[u], relabel[v])
            for u, v in self.edges
            if u not in drop and v not in drop
        )
        return Graph(len(keep), edges), relabel

    def induced_edges(self, vertices) -> frozenset[Edge]:
        vs = set(vertices)
        return frozenset(e for e in self.edges if e[0] in vs and e[1] in vs)

    def subgraph(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices, renumbered densely."""
        keep = sorted(set(vertices))
        relabel = {old: new for new, old in enumerate(keep)}
        edges = frozenset(
            _norm_edge(relabel[u], relabel[v]) for u, v in self.induced_edges(keep)
        )
        return Graph(len(keep), edges), relabel

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def components(self) -> list[set[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = {s}
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        stack.append(w)
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1


@dataclass(frozen=True)
class InducedPart:
    """One side of a separation, in the original vertex labels."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class Separation:
    """A 2-vertex-separation or 3-edge-separation of a graph.

    For the vertex kind the parts are induced subgraphs sharing exactly the
    two cut vertices; for the edge kind the parts are vertex-disjoint and the
    cut is the set of three removed edges.  Nontriviality follows the usual
    conventions: vertex kind, neither part is a K4; edge kind, the three cut
    edges are pairwise non-adjacent.
    """

    kind: str  # "vertex-cut-2" | "edge-cut-3"
    parts: tuple[InducedPart, InducedPart]
    cut: tuple
    nontrivial: bool


def _articulation_points(G: Graph, skip: int = -1) -> tuple[bool, list[int]]:
    """Whether G - skip is connected, and its cut vertices in sorted order.

    One iterative lowpoint DFS (Hopcroft & Tarjan, CACM 16(6), 1973), in
    O(n + m) time and without recursion; `skip` names a vertex to treat as
    deleted (-1 for none).  Number the vertices in discovery order and let
    low(v) be the smallest number reachable from the subtree of v by tree
    edges down and at most one back edge up.  A DFS of an undirected graph
    leaves no cross edges, so every non-tree edge joins a vertex to an
    ancestor.  Hence, for a non-root v with tree child w, the subtree of w
    stays attached to the rest after deleting v iff some edge leaves that
    subtree above v, i.e. iff low(w) < num(v): v is a cut vertex iff some
    child has low(w) >= num(v).  The root is a cut vertex iff it has at
    least two tree children, since distinct child subtrees are joined only
    through it.  On a disconnected graph every component gets its own DFS,
    and the cut vertices are those within the components.
    """
    n = G.n
    adj = G.adj
    num = [0] * n  # discovery numbers start at 1; 0 marks unvisited
    low = [0] * n
    if 0 <= skip < n:
        # visited but never entered, and above every number: an edge to it
        # never lowers a lowpoint
        num[skip] = n + 1
    cuts = set()
    roots = 0
    clock = 0
    for r in range(n):
        if num[r]:
            continue
        roots += 1
        clock += 1
        num[r] = low[r] = clock
        children = 0
        stack = [(r, -1, iter(adj[r]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if not num[w]:
                    clock += 1
                    num[w] = low[w] = clock
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and num[w] < low[v]:
                    low[v] = num[w]
            else:
                stack.pop()
                if parent == r:
                    children += 1
                elif parent >= 0:
                    if low[v] >= num[parent]:
                        cuts.add(parent)
                    if low[v] < low[parent]:
                        low[parent] = low[v]
        if children >= 2:
            cuts.add(r)
    return roots == 1, sorted(cuts)


def is_k_connected(G: Graph, k: int) -> bool:
    """k-connectivity for k in {1,2,3}.

    Complete graphs have no vertex cut at all, so they count as k-connected
    for every k here (in particular K2 passes for k=1 and k=2); K1 is only
    1-connected.

    k = 1 and k = 2 take one lowpoint DFS (`_articulation_points`).  k = 3
    takes n + 1: a non-complete G is 3-connected iff it is 2-connected and
    G - v is 2-connected for every v.  A 2-connected non-complete G has
    n >= 4, and each G - a is connected on n - 1 >= 3 vertices.  Deleting
    {a, b} leaves (G - a) - b, on n - 2 >= 2 vertices, and that is
    disconnected iff b is a cut vertex of G - a.  So a separating pair
    exists iff some G - a has a cut vertex, and 3-connectivity is O(n * m).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if G.n < 1:
        raise ValueError("empty graph")
    if G.n == 1:
        return k == 1
    if G.is_complete():
        return True
    connected, cuts = _articulation_points(G)
    if not connected:
        return False
    if k == 1:
        return True
    if cuts:
        return False
    if k == 2:
        return True
    for v in range(G.n):
        connected, cuts = _articulation_points(G, skip=v)
        if not connected or cuts:
            return False
    return True


def first_cut_vertex(G: Graph) -> int | None:
    """The smallest vertex whose deletion disconnects G, or None.

    Only deletions that leave at least two vertices count.  On a connected
    graph these are its articulation points.  On a disconnected graph with
    n >= 3, deleting a vertex leaves a disconnected graph unless the vertex
    is isolated and exactly one other component remains: so the answer is
    vertex 0 when there are at least three components, and otherwise the
    smallest vertex that has a neighbour.
    """
    connected, cuts = _articulation_points(G)
    if connected:
        return cuts[0] if cuts else None
    if G.n < 3:
        return None
    if len(G.components()) > 2:
        return 0
    return next(u for u in range(G.n) if G.adj[u])


def _min_st_edge_cut(G: Graph, s: int, t: int, limit: int | None = None) -> int:
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


def edge_connectivity(G: Graph) -> int:
    """Size of a minimum edge cut (0 for disconnected or single-vertex).

    Every minimum edge cut separates vertex 0 from some t, so the answer is
    the least s-t flow from 0.  The edges at a vertex of least degree form
    a cut, and each flow is stopped once it reaches the smallest cut found
    so far: a flow at least that large cannot lower the minimum, so only
    min(flow, best) matters, and that is what the bounded flow returns.
    """
    if G.n < 2 or not G.is_connected():
        return 0
    best = G.min_degree()
    for t in range(1, G.n):
        best = _min_st_edge_cut(G, 0, t, best)
    return best


def _part(G: Graph, vertices) -> InducedPart:
    vs = tuple(sorted(vertices))
    return InducedPart(vs, tuple(sorted(G.induced_edges(vs))))


def _bipartitions(items):
    """Unordered two-block partitions of a list, both blocks non-empty."""
    n = len(items)
    for mask in range(1, 1 << (n - 1)):
        left = [items[i] for i in range(n) if mask >> i & 1]
        right = [items[i] for i in range(n) if not mask >> i & 1]
        yield left, right


def enumerate_separations(G: Graph, kind: str) -> list[Separation]:
    """All 2-vertex- or 3-edge-separations, exhaustively.

    kind: "vertex-cut-2" or "edge-cut-3".  Each separation is reported once
    up to part order: each cut is visited once, and `_bipartitions` yields
    each unordered split of its components once.

    vertex-cut-2 runs one lowpoint DFS per vertex a and builds the subgraph
    G - a - b only for the pairs that can separate.  Proof sketch: G - a has
    n - 1 >= 3 vertices; if it is connected, G - a - b (n - 2 >= 2
    vertices) is disconnected iff b is a cut vertex of G - a.  So a pair
    {a, b} with G - a connected and b no cut vertex of it is no cut, and is
    skipped; the other pairs are scanned in increasing order.

    edge-cut-3 is brute force: it builds G minus each of the C(m, 3) edge
    triples and finds its components, so the cost grows as m^3 (n + m).
    Keep it to m of about 50 or less (about 0.1 s at m = 30 and 1 s at
    m = 56 on a 2-core Xeon).
    """
    if G.n < 4:
        raise ValueError("separation enumeration needs n >= 4")
    out = []
    if kind == "vertex-cut-2":
        for a in range(G.n):
            connected, cuts = _articulation_points(G, skip=a)
            cuts = set(cuts)
            for b in range(a + 1, G.n):
                if connected and b not in cuts:
                    continue
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
                    nontriv = not (_is_k4_part(G, v1) or _is_k4_part(G, v2))
                    out.append(Separation(
                        "vertex-cut-2", (_part(G, v1), _part(G, v2)), (a, b), nontriv
                    ))
    elif kind == "edge-cut-3":
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
    else:
        raise ValueError(f"unknown separation kind {kind!r}")
    return out


def _is_k4_part(G: Graph, vertices) -> bool:
    return len(vertices) == 4 and len(G.induced_edges(vertices)) == 6


# ---------------------------------------------------------------------------
# isomorphism


def _wl_colors(G: Graph) -> list[int]:
    """Iterated neighbourhood color refinement (1-WL)."""
    color = [G.degree(v) for v in range(G.n)]
    for _ in range(G.n):
        sig = [
            (color[v], tuple(sorted(color[w] for w in G.adj[v])))
            for v in range(G.n)
        ]
        canon = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [canon[s] for s in sig]
        if new == color:
            break
        color = new
    return color


def _extend_isomorphism(G: Graph, H: Graph, cg, ch, pins, mapping, used, order):
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
            res = _extend_isomorphism(G, H, cg, ch, pins, mapping, used, order)
            if res is not None:
                return res
            del mapping[v]
            used.remove(w)
    return None


def _isomorphism(G: Graph, H: Graph, pins: dict[int, int]) -> dict[int, int] | None:
    """An edge-preserving bijection G -> H extending the partial map `pins`,
    or None.

    Backtracking over WL color classes.  The pinned vertices come first in
    the order and each tries only its pin, so a repeated image or a pinned
    edge that is not preserved fails there; a pin of the wrong color fails
    before the search.  The other vertices follow, rarest color first.
    With no pins this is the plain search of find_isomorphism.  A search
    for automorphisms (H is G) skips the invariant checks, which it passes
    trivially.
    """
    if H is G:
        cg = ch = _wl_colors(G)
    else:
        if G.n != H.n or G.m != H.m:
            return None
        if sorted(G.degree(v) for v in range(G.n)) != sorted(
            H.degree(v) for v in range(H.n)
        ):
            return None
        cg, ch = _wl_colors(G), _wl_colors(H)
        if sorted(cg) != sorted(ch):
            return None
    if any(cg[v] != ch[w] for v, w in pins.items()):
        return None  # the usual failure of a transitivity pin, caught before the sort
    # match rarest colors first to cut the branching early
    freq = {c: cg.count(c) for c in set(cg)}
    order = list(pins) + sorted(
        (v for v in range(G.n) if v not in pins),
        key=lambda v: (freq[cg[v]], -G.degree(v), v),
    )
    return _extend_isomorphism(G, H, cg, ch, pins, {}, set(), order)


def find_isomorphism(G: Graph, H: Graph) -> dict[int, int] | None:
    """An edge-preserving bijection G -> H, or None.

    Intended for the small graphs this library works with (roughly n <= 60
    for the structured inputs here); see _isomorphism.
    """
    return _isomorphism(G, H, {})


def is_isomorphic(G: Graph, H: Graph) -> bool:
    return find_isomorphism(G, H) is not None


def is_vertex_transitive(G: Graph) -> bool:
    return all(
        _isomorphism(G, G, {0: v}) is not None for v in range(1, G.n)
    )


def is_edge_transitive(G: Graph) -> bool:
    edges = G.sorted_edges()
    if not edges:
        return True
    a, b = edges[0]
    for e in edges[1:]:
        if _isomorphism(G, G, {a: e[0], b: e[1]}) is None and \
           _isomorphism(G, G, {a: e[1], b: e[0]}) is None:
            return False
    return True
