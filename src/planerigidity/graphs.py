"""Simple graphs with dense integer labels, plus the connectivity and
separation primitives the rest of the library is built on.

Vertices are always 0..n-1.  Operations that delete vertices renumber the
survivors and report the relabeling map, so matrix column indexing stays
trivial downstream.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .records import FrozenRecord

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph(FrozenRecord):
    """Finite simple graph: no loops, no parallel edges, labels 0..n-1.

    Frozen, with the fields n and edges (a frozenset of normalised pairs)."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Edge]):
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = edges

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

    # Per-instance facts, computed at most once for each Graph: like `adj`
    # they are cached properties, not fields, so ==, hash and repr ignore
    # them (see `records`), and an equal graph built elsewhere computes its
    # own.  `_m22_game` alone is not kept for good: a reduction search
    # takes the game it holds.

    @cached_property
    def _lowpoint_dfs(self) -> tuple[list[set[int]], list[int], list[list[int]]]:
        """The module's `_lowpoint_dfs` of the whole graph: its components,
        cut vertices and blocks.  Read only: `components()` hands out copies
        of its sets."""
        return _lowpoint_dfs(self)

    @cached_property
    def _sorted_games(self) -> dict:
        """k -> the game over the sorted edges and its circuits, filled
        by `sparsity._sorted_game`."""
        return {}

    @cached_property
    def _m22_game(self) -> list:
        """[the game that found this graph M(2,2)-connected], or [] if none
        did or the game was taken: filled by `sparsity.is_m22_connected`,
        emptied by `sparsity.take_m22_game`."""
        return []

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(map(len, self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def add_edge(self, u: int, v: int) -> "Graph":
        """G + uv: public as the counterpart of remove_edge."""
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        return Graph(self.n, self.edges | {_norm_edge(u, v)})

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = _norm_edge(u, v)
        if e not in self.edges:
            raise ValueError(f"edge ({u},{v}) not present")
        return Graph(self.n, self.edges - {e})

    def edit(self, drop=(), remove=(), add=(), grow=0) -> tuple["Graph", dict[int, int] | None]:
        """One edit: delete the edges in `remove`, insert those in `add`
        (which may name the new vertices n .. n + grow - 1), then delete the
        vertices in `drop` with their edges; the survivors keep their order.
        Returns the graph and the old-label -> new-label map of the
        survivors, or None when no vertex is dropped.  That map is
        increasing, so normalised edges stay normalised under it.
        """
        edges = self.edges.difference(_norm_edge(u, v) for u, v in remove)
        edges = edges.union(_norm_edge(u, v) for u, v in add)
        n, drop = self.n + grow, set(drop)
        if not drop:
            return Graph(n, edges), None
        relabel = {old: new for new, old in enumerate(v for v in range(n) if v not in drop)}
        edges = frozenset(
            (relabel[u], relabel[v]) for u, v in edges if u in relabel and v in relabel
        )
        return Graph(len(relabel), edges), relabel

    def remove_vertices(self, drop) -> tuple["Graph", dict[int, int]]:
        """Delete the given vertices; return the renumbered graph and the
        old-label -> new-label map for the survivors."""
        H, relabel = self.edit(drop=drop)
        return H, {v: v for v in range(self.n)} if relabel is None else relabel

    def induced_edges(self, vertices) -> frozenset[Edge]:
        vs = set(vertices)
        return frozenset(e for e in self.edges if e[0] in vs and e[1] in vs)

    def subgraph(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices, renumbered densely."""
        return self.remove_vertices(set(range(self.n)).difference(vertices))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def components(self) -> list[set[int]]:
        return [set(c) for c in self._lowpoint_dfs[0]]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self._lowpoint_dfs[0]) == 1


class InducedPart(FrozenRecord):
    """One side of a separation, in the original vertex labels."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(vertices=vertices, edges=edges)


class Separation(FrozenRecord):
    """A 2-vertex-separation or 3-edge-separation of a graph.

    For the vertex kind the parts are induced subgraphs sharing exactly the
    two cut vertices; for the edge kind the parts are vertex-disjoint and the
    cut is the set of three removed edges.  Nontriviality follows the usual
    conventions: vertex kind, neither part is a K4; edge kind, the three cut
    edges are pairwise non-adjacent.
    """

    _fields = ("kind", "parts", "cut", "nontrivial")

    def __init__(
        self, kind: str, parts: tuple[InducedPart, InducedPart], cut: tuple, nontrivial: bool
    ):
        # kind: "vertex-cut-2" | "edge-cut-3"
        self.__dict__.update(kind=kind, parts=parts, cut=cut, nontrivial=nontrivial)


def _lowpoint_dfs(G: Graph, drop=()) -> tuple[list[set[int]], list[int], list[list[int]]]:
    """The components, cut vertices and blocks of G minus `drop`.

    Components are vertex sets in G's labels, ordered by their smallest
    vertex (the roots are tried in increasing order); cut vertices are
    sorted.  A block is a maximal 2-connected subgraph or a bridge with its
    two ends: every edge lies in exactly one, two edges share one iff they
    lie on a common cycle, and two blocks share at most one vertex, a cut
    vertex.  Each block is listed as its vertices, the one nearest the root
    (its head) first; an isolated vertex lies in no block.  One iterative
    lowpoint DFS in O(n + m) (Hopcroft & Tarjan, CACM 16(6), 1973; Tarjan,
    IPL 2(6), 1974).  A dropped vertex is marked visited above every
    discovery number: it is never entered and never lowers a lowpoint.
    low(v) is the smallest number reachable from the subtree of v by tree
    edges down and at most one back edge up.  A DFS leaves no cross edges,
    so every non-tree edge joins a vertex to an ancestor.  For a tree edge
    (p, v): deleting p cuts off the subtree of v iff no edge leaves it
    above p, i.e. low(v) >= num(p).  Then the vertices found since v and
    not yet placed in a block, with p, form one block headed by p (they are
    kept on a stack in discovery order), and a non-root p is a cut vertex.
    The root is a cut vertex iff it heads two blocks, since distinct child
    subtrees are joined only through it.  So every vertex but a root is a
    non-head vertex of exactly one block, the one that holds the tree edge
    to its parent.
    """
    n = G.n
    adj = G.adj
    num = [0] * n  # discovery numbers start at 1; 0 marks unvisited
    low = [0] * n
    for x in drop:
        num[x] = n + 1
    comps = []
    cuts = set()
    blocks = []
    below = []  # the visited non-root vertices in no block yet, in discovery order
    push = below.append
    clock = 0
    for r in range(n):
        if num[r]:
            continue
        clock += 1
        num[r] = low[r] = clock
        first = len(blocks)
        stack = [(r, -1, iter(adj[r]), 0)]
        while stack:
            v, parent, it, at = stack[-1]
            for w in it:
                if not num[w]:
                    clock += 1
                    num[w] = low[w] = clock
                    stack.append((w, v, iter(adj[w]), len(below)))
                    push(w)
                    break
                if w != parent and num[w] < low[v]:
                    low[v] = num[w]
            else:
                stack.pop()
                if parent < 0:
                    break
                # low(v) >= num(p) >= low(p) leaves low(p) as it is
                lv = low[v]
                if lv >= num[parent]:
                    blocks.append([parent, *below[at:]])
                    del below[at:]
                    cuts.add(parent)
                elif lv < low[parent]:
                    low[parent] = lv
        # r heads one block per tree child, and has one child iff its last
        # child was found right after it
        if len(blocks) > first and num[blocks[-1][1]] == num[r] + 1:
            cuts.discard(r)
        comps.append({r}.union(*blocks[first:]))
    return comps, sorted(cuts), blocks


def is_k_connected(G: Graph, k: int) -> bool:
    """k-connectivity for k in {1,2,3}.

    Complete graphs have no vertex cut at all, so they count as k-connected
    for every k here (in particular K2 passes for k=1 and k=2); K1 is only
    1-connected.

    k = 1 and k = 2 read G's one lowpoint DFS (`Graph._lowpoint_dfs`, run
    once per graph).  k = 3 then asks `_no_separation_pair`, one
    triconnectivity path search in O(n + m): a 2-connected non-complete G
    has n >= 4, and it is 3-connected iff no pair of vertices separates it.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if G.n < 1:
        raise ValueError("empty graph")
    if G.n == 1:
        return k == 1
    if G.is_complete():
        return True
    comps, cuts, _ = G._lowpoint_dfs
    if len(comps) != 1:
        return False
    if k == 1:
        return True
    if cuts:
        return False
    if k == 2:
        return True
    return _no_separation_pair(G)


def _no_separation_pair(G: Graph) -> bool:
    """Whether a 2-connected, non-complete simple G (so n >= 4) has no
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


def first_cut_vertex(G: Graph) -> int | None:
    """The smallest vertex whose deletion disconnects G, or None.

    Only deletions that leave at least two vertices count.  On a connected
    graph these are its articulation points.  On a disconnected graph with
    n >= 3, deleting a vertex leaves a disconnected graph unless the vertex
    is isolated and exactly one other component remains: so the answer is
    vertex 0 when there are at least three components, and otherwise the
    smallest vertex that has a neighbour.
    """
    comps, cuts, _ = G._lowpoint_dfs
    if len(comps) == 1:
        return cuts[0] if cuts else None
    if G.n < 3:
        return None
    if len(comps) > 2:
        return 0
    return next(u for u in range(G.n) if G.adj[u])


def _min_st_edge_cut(G: Graph, s: int, t: int, limit: int | None = None) -> int:
    """Max-flow with unit edge capacities via repeated BFS augmentation.

    With `limit` set, augmentation stops once the flow reaches it, so the
    result is min(max flow, limit).

    The flow is the set of arcs that carry a unit: the residual capacity of
    u->w is 1 - f(u,w), f antisymmetric in {-1, 0, 1}, so it is 0 exactly
    when (u, w) is in the set, and a push along u->w removes (w, u) if it
    is there and adds (u, w) otherwise.
    """
    adj, used, flow = G.adj, set(), 0
    while flow != limit:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent and (u, w) not in used:
                    parent[w] = u
                    queue.append(w)
        if t not in parent:
            return flow
        v = t
        while parent[v] is not None:
            u = parent[v]
            if (v, u) in used:
                used.remove((v, u))
            else:
                used.add((u, v))
            v = u
        flow += 1
    return flow


def _edge_connectivity_upto3(G: Graph) -> int:
    """min(lambda, 3), lambda the edge connectivity (0 for n < 2), from the
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


def edge_connectivity(G: Graph) -> int:
    """Size of a minimum edge cut (0 for disconnected or single-vertex).

    First `_edge_connectivity_upto3`, which gives min(lambda, 3) from the
    cut-space labels of one spanning tree.  Since lambda <= delta, the
    least degree, a value below 3 is lambda itself, and a value of 3 with
    delta <= 3 means lambda = 3 = delta; either way it is the answer.
    Only when delta >= 4 and lambda >= 3 do the flows below run.

    The flows give min(delta, the least flow from vertex 0 to a vertex of
    D - {0}), with D the greedy dominating set that holds 0: the vertices,
    in label order, that have no neighbour in D so far (Matula,
    "Determining edge connectivity in O(nm)", FOCS 1987).  The edges at a
    vertex of least degree form a cut, and every s-t flow is at least
    lambda, so the answer is at least lambda and at most delta.  When
    lambda < delta, let S be one side of a minimum cut.  If |S| = 1 the cut
    is one vertex's edges and lambda >= delta, so |S| >= 2; counting
    degrees, delta |S| <= |S| (|S| - 1) + lambda < |S| (|S| - 1) + delta,
    so |S| > delta > lambda.  If every vertex of S had a neighbour outside
    S the cut would have at least |S| > lambda edges; so some x in S has
    all its neighbours in S, and the member of D that dominates x (x itself
    or a neighbour) lies in S.  The same holds for the other side, so D
    meets both sides, 0 lies on one, and the flow from 0 to a member of D
    on the other is lambda.
    Each flow is stopped once it reaches the smallest cut found so far: a
    flow at least that large cannot lower the minimum, so only min(flow,
    best) matters, and that is what the bounded flow returns.
    """
    best = G.min_degree()
    small = _edge_connectivity_upto3(G)
    if small < 3 or best <= 3:
        return small
    adj = G.adj
    dominated = set()
    for d in range(G.n):
        if d in dominated:
            continue
        dominated.add(d)
        dominated.update(adj[d])
        if d:
            best = _min_st_edge_cut(G, 0, d, best)
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

    vertex-cut-2 runs one lowpoint DFS per vertex a, and one more on
    G - a - b only for the pairs that can separate.  Proof sketch: G - a
    has n - 1 >= 3 vertices; if it is connected, G - a - b (n - 2 >= 2
    vertices) is disconnected iff b is a cut vertex of G - a.  So a pair
    {a, b} with G - a connected and b no cut vertex of it is no cut, and is
    skipped; the other pairs are scanned in increasing order.

    edge-cut-3 runs one lowpoint DFS per edge pair e < f, on G - e - f.
    If G - e - f is connected, then G - {e, f, g} is disconnected iff g is
    a bridge (a two-vertex block) of G - e - f; so only its bridges g > f
    are tried as the third edge, or every g > f when G - e - f is already
    disconnected.  The triples skipped leave G connected and give no
    separation.  g runs over sorted edges greater than f, so the triples
    come in `itertools.combinations` order, and the cost is
    O(m^2 (n + m)).
    """
    if G.n < 4:
        raise ValueError("separation enumeration needs n >= 4")
    out = []
    if kind == "vertex-cut-2":
        for a in range(G.n):
            comps, cuts, _ = _lowpoint_dfs(G, (a,))
            cuts = set(cuts)
            for b in range(a + 1, G.n):
                if len(comps) == 1 and b not in cuts:
                    continue
                for left, right in _bipartitions(_lowpoint_dfs(G, (a, b))[0]):
                    v1 = set().union(*left) | {a, b}
                    v2 = set().union(*right) | {a, b}
                    nontriv = not (_is_k4_part(G, v1) or _is_k4_part(G, v2))
                    out.append(Separation(
                        "vertex-cut-2", (_part(G, v1), _part(G, v2)), (a, b), nontriv
                    ))
    elif kind == "edge-cut-3":
        edges = G.sorted_edges()
        for i, e in enumerate(edges):
            for j in range(i + 1, len(edges)):
                f = edges[j]
                H = Graph(G.n, G.edges - {e, f})
                comps, _, blocks = _lowpoint_dfs(H)
                bridges = sorted(_norm_edge(*b) for b in blocks if len(b) == 2)
                thirds = edges[j + 1:] if len(comps) > 1 else [g for g in bridges if g > f]
                for g in thirds:
                    cut = (e, f, g)
                    for left, right in _bipartitions(Graph(G.n, H.edges - {g}).components()):
                        v1 = set().union(*left)
                        v2 = set().union(*right)
                        if not all((x in v1) != (y in v1) for x, y in cut):
                            continue
                        nontriv = len({x for c in cut for x in c}) == 6
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


def _isomorphism(
    G: Graph, H: Graph, pins: dict[int, int], colors: list[int] | None = None
) -> dict[int, int] | None:
    """An edge-preserving bijection G -> H extending the partial map `pins`,
    or None.

    Backtracking over WL color classes.  The pinned vertices come first in
    the order and each tries only its pin, so a repeated image or a pinned
    edge that is not preserved fails there; a pin of the wrong color fails
    before the search.  The other vertices follow, rarest color first.
    With no pins this is the plain search of find_isomorphism.  A search
    for automorphisms (H is G) skips the invariant checks, which it passes
    trivially, and uses `colors` as the colouring of G when given, so that a
    transitivity test colours G once for all its searches.
    """
    if H is G:
        cg = ch = _wl_colors(G) if colors is None else colors
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
    colors = _wl_colors(G)
    return all(
        _isomorphism(G, G, {0: v}, colors) is not None for v in range(1, G.n)
    )


def is_edge_transitive(G: Graph) -> bool:
    edges = G.sorted_edges()
    if not edges:
        return True
    a, b = edges[0]
    colors = _wl_colors(G)
    for e in edges[1:]:
        if _isomorphism(G, G, {a: e[0], b: e[1]}, colors) is None and \
           _isomorphism(G, G, {a: e[1], b: e[0]}, colors) is None:
            return False
    return True
