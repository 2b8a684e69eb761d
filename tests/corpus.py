"""Shared graph corpora for the test suite."""

import itertools
import random
from functools import lru_cache
from pathlib import Path

from planerigidity import catalog as cat
from planerigidity.formats import parse_graph6
from planerigidity.graphs import Graph
from planerigidity.randomgraphs import gnp_graph, random_regular_graph
from planerigidity.moves import join, random_m22_graph

# the committed benchmark inputs, read only
BENCHMARK_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def benchmark_graphs(workload="*"):
    """The committed benchmark input graphs (read only), by file name."""
    paths = sorted(BENCHMARK_INPUTS.glob(f"{workload}/*.g6"))
    assert paths, BENCHMARK_INPUTS
    return {p.parent.name + "/" + p.name: parse_graph6(p.read_text()) for p in paths}


def experiment_graphs() -> list[Graph]:
    """The G(n,p) samples of the committed experiment sweeps, drawn as
    `planerigidity experiment --model gnp` draws them: one generator per
    request line, seeded with its seed, hands each sample a seed of its
    own."""
    out = []
    for line in (BENCHMARK_INPUTS / "experiment-gnp" / "requests.txt").read_text().splitlines():
        n, prob, samples, seed = line.split()
        rng = random.Random(int(seed))
        out += [gnp_graph(int(n), float(prob), rng.randrange(2**63)) for _ in range(int(samples))]
    return out


def k4_ring_graph() -> Graph:
    """Ring of four K4 blocks glued at four hub vertices (1, 3, 4, 6).

    Each block keeps its own hub-hub edge, so the four `inner' edges are
    13, 14, 36 and 46; 12 vertices and 24 edges in total.
    """
    blocks = [(0, 1, 2, 3), (4, 5, 6, 7), (3, 6, 8, 9), (1, 4, 10, 11)]
    edges = set()
    for b in blocks:
        edges |= set(itertools.combinations(sorted(b), 2))
    return Graph.from_edges(12, edges)


def named_graphs() -> dict[str, Graph]:
    return {
        "K4": cat.complete_graph(4),
        "K5": cat.complete_graph(5),
        "K6": cat.complete_graph(6),
        "K5-": cat.k5_minus(),
        "B1": cat.b1(),
        "B2": cat.b2(),
        "W5": cat.wheel_graph(5),
        "W6": cat.wheel_graph(6),
        "K33": cat.complete_bipartite(3, 3),
        "K34": cat.complete_bipartite(3, 4),
        "K36": cat.complete_bipartite(3, 6),
        "prism": cat.prism_graph(),
        "bowtie": cat.bowtie(),
        "2K4v": cat.two_k4_shared_vertex(),
        "C6": cat.cycle_graph(6),
        "P5": cat.path_graph(5),
        "K4ring": k4_ring_graph(),
    }


def decision_corpus(count: int, seed: int, max_n: int = 10) -> list[Graph]:
    """Seeded mixed corpus: named graphs plus random models, n <= max_n."""
    rng = random.Random(seed)
    out = [G for G in named_graphs().values() if 2 <= G.n <= max_n]
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randint(4, max_n)
            out.append(gnp_graph(n, rng.uniform(0.25, 0.9), rng.randrange(2**32)))
        elif kind == 1:
            n = rng.randint(5, max_n)
            deg = rng.choice([3, 4])
            if n * deg % 2:
                n += 1
            if n > max_n or deg >= n:
                continue
            out.append(random_regular_graph(n, deg, rng.randrange(2**32)))
        elif kind == 2:
            steps = rng.randint(0, 2)
            G = random_m22_graph(steps, rng.randrange(2**32))
            if G.n <= max_n:
                out.append(G)
        else:
            n = rng.randint(5, max_n)
            base = gnp_graph(n, 0.6, rng.randrange(2**32))
            out.append(base)
    return out[:count]


def join_pool() -> list[Graph]:
    """Graphs to glue: K5-, B1, B2, K4, K5, the prism and seeded M(2,2)
    walks on at most 10 vertices."""
    walks = [random_m22_graph(seed % 4 + 1, 400 + seed) for seed in range(12)]
    return [
        cat.k5_minus(), cat.b1(), cat.b2(), cat.complete_graph(4),
        cat.complete_graph(5), cat.prism_graph(),
    ] + [G for G in walks if G.n <= 10]


@lru_cache(maxsize=None)
def gluing_sides(G: Graph):
    """The valid sides of a gluing in G, in every order: its edges (a, b),
    its K4s (a, b, c, d) with c and d of degree 3, and its degree-3
    vertices with their neighbours (v, (a, b, c))."""
    edges = [p for e in G.sorted_edges() for p in (e, e[::-1])]
    k4s = []
    for vs in itertools.combinations(range(G.n), 4):
        if len(G.induced_edges(vs)) == 6:
            for c, d in itertools.permutations([v for v in vs if G.degree(v) == 3], 2):
                a, b = [v for v in vs if v not in (c, d)]
                k4s += [(a, b, c, d), (b, a, c, d)]
    nodes = [
        (v, nbrs)
        for v in range(G.n) if G.degree(v) == 3
        for nbrs in itertools.permutations(sorted(G.adj[v]))
    ]
    return edges, k4s, nodes


def random_gluing(G1: Graph, G2: Graph, j: int, rng: random.Random):
    """A random valid gluing of G1 and G2 for a j-join, or None."""
    e1, k1, v1 = gluing_sides(G1)
    _, k2, v2 = gluing_sides(G2)
    left, right = {1: (e1, k2), 2: (k1, k2), 3: (v1, v2)}[j]
    if not left or not right:
        return None
    return rng.choice(left), rng.choice(right)


def joined_graphs(count: int, seed: int, max_n: int = 10) -> list[Graph]:
    """Seeded 1-, 2- and 3-joins on at most max_n vertices; each result
    joins the pool, so joins of joins appear too."""
    rng = random.Random(seed)
    pool = join_pool()
    out = []
    while len(out) < count:
        G1, G2 = rng.choice(pool), rng.choice(pool)
        j = rng.choice((1, 2, 3))
        gluing = random_gluing(G1, G2, j, rng)
        if gluing is None:
            continue
        G = join(G1, G2, j, gluing)
        if G.n <= max_n:
            out.append(G)
            pool.append(G)
    return out
