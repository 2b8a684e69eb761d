"""Rebuild the benchmark's committed inputs from their seeds.

    python3 perfbench/make_inputs.py            # rebuild elsewhere, compare with DIGEST
    python3 perfbench/make_inputs.py --record   # rebuild in place, record a new DIGEST

The inputs are committed so that a change to a generator in the program
(say `random_m22_graph`) cannot silently change what the benchmark
measures; this script shows how they were made.  Without --record it
rebuilds them in a temporary directory and fails when either the rebuilt
or the committed files differ from the recorded digest.  Exit codes:
0 match, 1 mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
DIGEST = INPUTS / "DIGEST"

sys.path.insert(0, str(ROOT / "src"))

from planerigidity.formats import emit_graph6  # noqa: E402
from planerigidity.graphs import Graph  # noqa: E402
from planerigidity.moves import random_m22_graph  # noqa: E402

# (count, first generator seed, smallest and largest walk length); n is
# roughly 1.2 * steps + 5 for these walks.
CHECK_POSITIVES = ((66, 1000, 10, 24), (4, 1100, 36, 44))
CHECK_NEGATIVES = 10  # of each kind: glued, coloop, tight
REDUCE_GRAPHS = (100, 2000, 8, 26)
CERTIFY_EXACT = 40  # p=4 requests, n 8..12
CERTIFY_FLOAT = 60  # p=3 requests, n 8..16
EXPERIMENT = 100  # requests, one vertex count each
SEED = 20220615


def m22_walks(count, seed0, lo, hi):
    rng = random.Random(seed0)
    return [random_m22_graph(rng.randint(lo, hi), seed0 + i) for i in range(count)]


def m22_of_order(lo, hi, seed0, count):
    """M(2,2)-connected walk graphs with lo <= n <= hi, first seeds first."""
    out, seed = [], seed0
    while len(out) < count:
        G = random_m22_graph(random.Random(seed).randint(0, hi), seed)
        if lo <= G.n <= hi:
            out.append(G)
        seed += 1
    return out


def glued(G1: Graph, G2: Graph, v: int) -> Graph:
    """G2's vertex 0 identified with G1's vertex v: a cut vertex."""
    lab = {w: G1.n + w - 1 for w in range(1, G2.n)}
    lab[0] = v
    return Graph.from_edges(
        G1.n + G2.n - 1, set(G1.edges) | {(lab[a], lab[b]) for a, b in G2.edges}
    )


def with_coloops(G1: Graph, G2: Graph, rng: random.Random) -> Graph:
    """Disjoint union joined by two disjoint edges, both coloops."""
    a, b = rng.sample(range(G1.n), 2)
    c, d = rng.sample(range(G2.n), 2)
    edges = set(G1.edges) | {(G1.n + x, G1.n + y) for x, y in G2.edges}
    return Graph.from_edges(G1.n + G2.n, edges | {(a, G1.n + c), (b, G1.n + d)})


def tight_graph(n: int, rng: random.Random) -> Graph:
    """(2,2)-tight by 1-extensions from K4: |E| = 2n - 2, min degree 3."""
    edges = {(a, b) for a in range(4) for b in range(a + 1, 4)}
    for w in range(4, n):
        x, y = rng.choice(sorted(edges))
        z = rng.choice([v for v in range(w) if v not in (x, y)])
        edges = (edges - {(x, y)}) | {(x, w), (y, w), (z, w)}
    return Graph.from_edges(n, edges)


def placement_text(G: Graph, rng: random.Random) -> str:
    """Coordinates k/1000 with no axis-parallel edge, like the CLI's sampler."""
    while True:
        pts = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(G.n)]
        if all(pts[u][0] != pts[v][0] and pts[u][1] != pts[v][1] for u, v in G.edges):
            return "".join(f"{v} {x}/1000 {y}/1000\n" for v, (x, y) in enumerate(pts))


def build(out: Path) -> None:
    rng = random.Random(SEED)

    def put(rel: str, text: str) -> None:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    positives = [G for spec in CHECK_POSITIVES for G in m22_walks(*spec)]
    small = m22_of_order(8, 20, 1500, 2 * CHECK_NEGATIVES)
    for i, G in enumerate(positives):
        put(f"check-m22/pos-{i:03d}.g6", emit_graph6(G) + "\n")
    for i in range(CHECK_NEGATIVES):
        G1, G2 = positives[i], small[i]
        put(f"check-m22/glued-{i:03d}.g6",
            emit_graph6(glued(G1, G2, rng.randrange(G1.n))) + "\n")
        put(f"check-m22/coloop-{i:03d}.g6",
            emit_graph6(with_coloops(positives[-1 - i], small[-1 - i], rng)) + "\n")
        put(f"check-m22/tight-{i:03d}.g6",
            emit_graph6(tight_graph(rng.randint(20, 32), rng)) + "\n")

    for i, G in enumerate(m22_walks(*REDUCE_GRAPHS)):
        put(f"reduce-m22/g-{i:03d}.g6", emit_graph6(G) + "\n")

    # certify: M(2,2)-connected graphs plus graphs that are not redundantly
    # rigid (tight, tight minus an edge, coloops, a cut vertex)
    def certify_graphs(lo, hi, count, seed0):
        pos = m22_of_order(lo, hi, seed0, count)
        out = []
        for i, G in enumerate(pos):
            kind = i % 5
            if kind == 1:
                G = tight_graph(G.n, rng)
            elif kind == 2:
                T = tight_graph(G.n, rng)
                G = T.remove_edge(*sorted(T.edges)[rng.randrange(T.m)])
            elif kind == 3 and G.n >= 10:
                G = with_coloops(m22_of_order(5, 6, seed0 + 7 * i, 1)[0],
                                 m22_of_order(G.n - 6, G.n - 5, seed0 + 7 * i, 1)[0], rng)
            elif kind == 4 and G.n >= 9:
                G = glued(m22_of_order(5, 5, seed0 + 7 * i, 1)[0],
                          m22_of_order(G.n - 4, G.n - 4, seed0 + 7 * i, 1)[0], 0)
            out.append(G)
        return out

    lines = []
    for p, graphs in (("4", certify_graphs(8, 12, CERTIFY_EXACT, 3000)),
                      ("3", certify_graphs(8, 16, CERTIFY_FLOAT, 4000))):
        for i, G in enumerate(graphs):
            name = f"p{p}-{i:03d}"
            put(f"certify-lp/{name}.g6", emit_graph6(G) + "\n")
            put(f"certify-lp/{name}.pl", placement_text(G, rng))
            lines.append(f"{name}.g6 {name}.pl {p}")
    put("certify-lp/requests.txt", "\n".join(lines) + "\n")

    lines = []
    for i in range(EXPERIMENT):
        n = 8 + i % 5
        prob = (0.45, 0.55, 0.6)[i // 5 % 3]
        lines.append(f"{n} {prob} 2 {rng.randrange(2**32)}")
    put("experiment-gnp/requests.txt", "\n".join(lines) + "\n")


def digest_lines(root: Path) -> list[str]:
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "DIGEST")
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
        for p in files
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true", help="write a new DIGEST")
    args = ap.parse_args(argv)
    if args.record:
        for sub in ("check-m22", "reduce-m22", "certify-lp", "experiment-gnp"):
            shutil.rmtree(INPUTS / sub, ignore_errors=True)
        build(INPUTS)
        lines = digest_lines(INPUTS)
        DIGEST.write_text("\n".join(lines) + "\n")
        print(f"recorded {len(lines)} files")
        return 0
    recorded = DIGEST.read_text().splitlines() if DIGEST.exists() else []
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
        rebuilt = digest_lines(Path(tmp))
    status = 0
    for what, lines in (("rebuilt", rebuilt), ("committed", digest_lines(INPUTS))):
        if lines != recorded:
            changed = sorted(set(lines) ^ set(recorded))
            print(f"{what} inputs differ from DIGEST in {len(changed)} lines, e.g. {changed[:3]}")
            status = 1
    if not status:
        print(f"rebuilt and committed inputs match DIGEST ({len(recorded)} files)")
    return status


if __name__ == "__main__":
    sys.exit(main())
