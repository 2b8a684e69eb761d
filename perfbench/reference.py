"""Independent reference for the benchmark's output checks.

Nothing here calls into `planerigidity`.  Graphs are `(n, edges)` pairs
with edges as sorted `(u, v)` tuples, u < v.

* Connectivity comes from depth-first search (articulation points by
  lowpoints).
* The (2,2) matroid comes from linear algebra: the generic rigidity
  matroid of an analytic normed plane is the (2,2)-sparsity matroid, and
  the l4 rigidity matrix (row of edge uv: d^3 componentwise at v, -d^3 at
  u, d = p_v - p_u) realises it at a random integer placement.  All
  arithmetic is modulo the prime 2^31 - 1.  A rank over F_p never exceeds
  the rank over Q, and equals it unless the placement hits a polynomial of
  degree O(n) modulo p, which has probability about n / 2^31.  The l2
  matrix (row d) does the same for the Euclidean (2,3) matroid.
* Matroid components come from the fundamental circuits of one basis:
  two elements share a component iff a chain of fundamental circuits
  links them.

By the paper's theorem a graph is globally rigid in an analytic normed
plane iff n >= 5, it is 2-connected and its (2,2) matroid is connected,
equivalently iff it is 2-connected, rank 2n-2 and every edge is stressed.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

PRIME = 2_147_483_647  # products of two residues fit in int64

# ---------------------------------------------------------------------------
# formats


def parse_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n, body = data[0], data[1:]
    bits = [(val >> k) & 1 for val in body for k in range(5, -1, -1)]
    edges, i = [], 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return n, sorted(edges)


def parse_edgelist(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0])
    return n, sorted(tuple(sorted((int(a), int(b)))) for a, b in lines[1:])


def parse_placement(text: str) -> list[tuple[int, int]]:
    """Coordinates `k/1000` scaled to the integers k (rank is unchanged)."""
    coords = {}
    for ln in text.splitlines():
        if not ln.strip():
            continue
        v, x, y = ln.split()
        coords[int(v)] = (_thousandths(x), _thousandths(y))
    return [coords[v] for v in range(len(coords))]


def _thousandths(tok: str) -> int:
    num, _, den = tok.partition("/")
    den = int(den) if den else 1
    if 1000 % den:
        raise ValueError(f"coordinate {tok} is not a multiple of 1/1000")
    return int(num) * (1000 // den)


# ---------------------------------------------------------------------------
# connectivity


def adjacency(n, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(n, adj, removed=frozenset()) -> int:
    seen = set(removed)
    count = 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def articulation_points(n, adj, removed=frozenset()) -> set[int]:
    """Cut vertices of the graph minus `removed`, by iterative lowpoint DFS."""
    disc, low, cut = {}, {}, set()
    for root in range(n):
        if root in removed or root in disc:
            continue
        disc[root] = low[root] = len(disc)
        children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w in removed:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent == -1:
                    continue
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    children += 1
                elif low[v] >= disc[parent]:
                    cut.add(parent)
        if children > 1:
            cut.add(root)
    return cut


def is_complete(n, edges) -> bool:
    return len(edges) == n * (n - 1) // 2


def is_k_connected(n, edges, k: int) -> bool:
    """k in {2, 3}; complete graphs count as k-connected, as in the CLI."""
    if is_complete(n, edges):
        return True
    adj = adjacency(n, edges)
    if components(n, adj) != 1 or articulation_points(n, adj):
        return False
    if k == 2:
        return True
    return all(not articulation_points(n, adj, {v}) for v in range(n))


def is_cut_vertex(n, edges, v: int) -> bool:
    adj = adjacency(n, edges)
    return components(n, adj, {v}) > components(n, adj)


# ---------------------------------------------------------------------------
# linear algebra over F_p


def rigidity_rows(n, edges, coords, power: int) -> np.ndarray:
    """Row of edge uv: sign(d) |d|^power at v and its negative at u, mod p."""
    mat = np.zeros((len(edges), 2 * n), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        for axis in (0, 1):
            d = coords[v][axis] - coords[u][axis]
            entry = (1 if d >= 0 else -1) * abs(d) ** power % PRIME
            mat[i, 2 * v + axis] = entry % PRIME
            mat[i, 2 * u + axis] = -entry % PRIME
    return mat


def column_matroid(mat: np.ndarray):
    """Rank and fundamental circuits of the rows of `mat`, over F_p.

    Reduces the transpose to reduced row echelon form, so each row of `mat`
    becomes a column.  Returns (rank, basis, circuits), where basis lists
    the pivot rows and circuits maps every other row f to the set of row
    indices of its fundamental circuit (f included).
    """
    a = mat.T.copy() % PRIME
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = pow(int(a[r, c]), PRIME - 2, PRIME)
        a[r] = a[r] * inv % PRIME
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, c], a[r]) % PRIME) % PRIME
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    circuits = {}
    for f in range(cols):
        if f in pivot_set:
            continue
        circuits[f] = {f} | {pivots[i] for i in np.flatnonzero(a[:r, f])}
    return r, pivots, circuits


def random_coords(n, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(1, PRIME), rng.randrange(1, PRIME)) for _ in range(n)]


class Matroid:
    """Rank, stressed edges and components of a graph's rigidity matroid."""

    def __init__(self, n, edges, coords, power: int):
        self.edges = list(edges)
        rank, _, circuits = column_matroid(rigidity_rows(n, self.edges, coords, power))
        self.rank = rank
        parent = list(range(len(self.edges)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        stressed = set()
        for circ in circuits.values():
            stressed |= circ
            first, *rest = circ
            for g in rest:
                parent[find(g)] = find(first)
        self.stressed = {self.edges[i] for i in stressed}
        groups = Counter(find(i) for i in range(len(self.edges)))
        self.components = len(groups)

    def all_stressed(self) -> bool:
        return len(self.stressed) == len(self.edges)


def generic_matroid(n, edges, k: int) -> Matroid:
    """The (2,2) matroid for k = 2 (l4 rows), the (2,3) matroid for k = 3."""
    return Matroid(n, edges, random_coords(n, 20220615 + n), 3 if k == 2 else 1)


def is_circuit(edges, k: int = 2) -> bool:
    """Whether the edge set is a circuit of the generic (2,k) matroid."""
    edges = sorted(edges)
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    local = [(index[u], index[v]) for u, v in edges]
    mat = rigidity_rows(len(verts), local, random_coords(len(verts), 7 + len(verts)),
                        3 if k == 2 else 1)
    rank, _, circuits = column_matroid(mat)
    return rank == len(edges) - 1 and all(len(c) == len(edges) for c in circuits.values())


# ---------------------------------------------------------------------------
# verdicts


class Verdict:
    """Everything the checks need to know about one graph."""

    def __init__(self, n, edges):
        self.n, self.edges = n, list(edges)
        self.adj = adjacency(n, edges)
        self.two_connected = n >= 2 and is_k_connected(n, edges, 2)
        nontrivial = n >= 5 and len(edges) >= 2 and min(map(len, self.adj)) > 0
        self.m22 = generic_matroid(n, edges, 2) if nontrivial else None
        self.m22_connected = bool(
            self.m22 and self.m22.components == 1 and self.m22.all_stressed()
        )
        self.globally_rigid = self.m22_connected and self.two_connected
        # the theorem's other form: 2-connected, rank 2n-2, every edge stressed
        redundant = bool(
            self.m22 and self.m22.rank == 2 * n - 2 and self.m22.all_stressed()
        )
        if self.globally_rigid != (n >= 5 and self.two_connected and redundant):
            raise AssertionError("reference: the two forms of the theorem disagree")

    def euclidean(self) -> bool:
        n, edges = self.n, self.edges
        if n <= 3:
            return is_complete(n, edges)
        if not is_k_connected(n, edges, 3):
            return False
        mat = generic_matroid(n, edges, 3)
        return mat.rank == 2 * n - 3 and mat.all_stressed()


def verdict_of_edges(n, edges) -> bool:
    return Verdict(n, edges).globally_rigid


# ---------------------------------------------------------------------------
# moves and isomorphism invariants


def base_graph(name: str) -> tuple[int, set[tuple[int, int]]]:
    pairs = lambda vs: {(a, b) for a in vs for b in vs if a < b}  # noqa: E731
    if name == "K5-":
        return 5, pairs(range(5)) - {(3, 4)}
    if name == "B1":
        return 6, pairs((0, 1, 2, 3)) | pairs((0, 1, 4, 5))
    raise ValueError(f"unknown base {name!r}")


def apply_forward(n, edges: set, kind: str, params: list[int]):
    """The four construction moves, from their documented semantics."""
    e = lambda a, b: (min(a, b), max(a, b))  # noqa: E731
    nbrs = lambda v: {a if b == v else b for a, b in edges if v in (a, b)}  # noqa: E731
    if kind == "edge-addition":
        u, v = params
        if u == v or not (0 <= u < n and 0 <= v < n) or e(u, v) in edges:
            raise ValueError("edge-addition precondition")
        return n, edges | {e(u, v)}
    if kind == "1-extension":
        x, y, z = params
        if e(x, y) not in edges or z in (x, y) or not 0 <= z < n:
            raise ValueError("1-extension precondition")
        return n + 1, (edges - {e(x, y)}) | {(x, n), (y, n), (z, n)}
    if kind == "k4minus-extension":
        u, v = params
        if e(u, v) not in edges:
            raise ValueError("k4minus-extension precondition")
        w1, w2 = n, n + 1
        return n + 2, (edges - {e(u, v)}) | {(u, w1), (u, w2), (v, w1), (v, w2), (w1, w2)}
    if kind == "generalized-vertex-split":
        v, x, n2 = params[0], params[1], set(params[2:])
        n1 = nbrs(v) - n2
        if not n2 <= nbrs(v) or x == v or not 0 <= x < n or x in n1:
            raise ValueError("generalized-vertex-split precondition")
        out = set(edges) - {e(v, w) for w in n2}
        out |= {(w, n) for w in n2} | {(v, n), e(v, x)}
        return n + 1, out
    raise ValueError(f"not a construction move: {kind!r}")


def wl_histograms(graphs) -> list[Counter]:
    """1-WL colour histograms, refined jointly so colours are comparable."""
    offset, adj = [], []
    for n, edges in graphs:
        offset.append(len(adj))
        base = len(adj)
        local = adjacency(n, edges)
        adj.extend({base + w for w in nb} for nb in local)
    colour = [len(nb) for nb in adj]
    classes = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(len(adj))]
        canon = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [canon[s] for s in sig]
        if len(canon) == classes:
            break
        classes = len(canon)
    bounds = offset + [len(adj)]
    return [Counter(colour[bounds[i]:bounds[i + 1]]) for i in range(len(graphs))]
