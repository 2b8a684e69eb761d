"""Independent oracles the library is checked against.

The brute-force oracles work straight from the counting definition of
(2,k)-sparsity (|E'| <= 2|V'| - k over all vertex subsets), never through
the pebble game, so agreement is meaningful.  The reference routines at the
end are the library's earlier many-game versions of questions it now
answers from the fundamental circuits of one game, its earlier m + 1
eliminations for the deletion ranks of a rigidity operator, its cut scans
for k-connectivity and the first cut vertex (one subgraph per candidate
cut, where the library now runs lowpoint DFS), and its edge connectivity
without the bound on each flow; they run on graphs far past the
brute-force caps.
"""

import itertools
from functools import lru_cache

from planerigidity.geometry import RigidityOperator, _bareiss_rank, rank_of
from planerigidity.graphs import Graph, _min_st_edge_cut
from planerigidity.sparsity import PebbleGame, rank2k


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
# many-game reference routines


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
                circ = list(game.fundamental_circuit_of_rejected(u, v))
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


def coloops_leave_one_out(edges, k):
    """Edges whose deletion lowers the (2,k) rank, one game per edge."""
    edges = sorted(edges)
    r = rank2k(edges, k)
    return frozenset(
        e for i, e in enumerate(edges) if rank2k(edges[:i] + edges[i + 1:], k) != r
    )


def is_circuit22_leave_one_out(G: Graph):
    """|E| = 2|V| - 1 and every G - e independent, one game per edge."""
    if G.m != 2 * G.n - 1:
        return False
    edges = G.sorted_edges()
    return all(rank2k(edges[:i] + edges[i + 1:], 2) == G.m - 1 for i in range(G.m))


def deletion_ranks_loop(op: RigidityOperator, mode: str, tol: float = 1e-9):
    """Rank of the operator and of each single-row deletion, one elimination
    per row: fraction-free (`_bareiss_rank`) in exact mode, SVD in float."""

    def rank(sub):
        if mode == "exact":
            return _bareiss_rank(sub.matrix) if sub.matrix else 0
        return rank_of(sub, "float", tol)

    rows, edges = op.matrix, op.edges
    return rank(op), tuple(
        rank(RigidityOperator(
            rows[:i] + rows[i + 1:], edges[:i] + edges[i + 1:], op.n, op.scaled,
            op.trivial_flex_dim,
        ))
        for i in range(len(rows))
    )


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
    return min(_min_st_edge_cut(G, 0, t) for t in range(1, G.n))
