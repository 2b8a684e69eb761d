"""Self-test of the benchmark's reference against brute-force oracles.

    python3 perfbench/selftest.py

Compares reference.py with the counting oracles of tests/oracles.py (which
work from |E'| <= 2|V'| - k over every vertex subset, never through linear
algebra) on every graph with at most six vertices, up to isomorphism:

* the generic (2,2) and (2,3) ranks;
* the number of (2,2) matroid components and the set of edges that lie in
  a circuit;
* the circuit test, on every (2,2)-circuit of those graphs and on each edge
  set that is not a circuit;
* the verdict, against n >= 5, 2-connected by vertex deletion, and one
  matroid component;
* the Euclidean verdict, against 3-connected by vertex-pair deletion, rank
  2n-3 and no (2,3) coloop.

It also checks the modular rank at fixed integer placements, used for the
certify-lp checks, against exact rational elimination.  The oracles are
imported read-only.  Exit code 0 when every comparison agrees, 1 otherwise.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
import reference as ref  # noqa: E402


def connected_without(n, edges, removed) -> bool:
    adj = ref.adjacency(n, edges)
    return n - len(removed) <= 1 or ref.components(n, adj, set(removed)) == 1


def k_connected_brute(n, edges, k) -> bool:
    if ref.is_complete(n, edges):
        return True
    return all(
        connected_without(n, edges, cut)
        for size in range(k) for cut in itertools.combinations(range(n), size)
    )


def exact_rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def lp_rows(n, edges, coords, power):
    rows = []
    for u, v in edges:
        row = [0] * (2 * n)
        for axis in (0, 1):
            d = coords[v][axis] - coords[u][axis]
            entry = (1 if d >= 0 else -1) * abs(d) ** power
            row[2 * v + axis], row[2 * u + axis] = entry, -entry
        rows.append(row)
    return rows


def check_graph(G, problems: list[str]) -> None:
    n, edges = G.n, G.sorted_edges()
    name = f"n={n} edges={edges}"
    if not edges:
        return
    for k in (2, 3):
        got = ref.generic_matroid(n, edges, k).rank
        want = oracles.rank_brute(edges, k)
        if got != want:
            problems.append(f"{name}: (2,{k}) rank {got}, oracle {want}")
    m22 = ref.generic_matroid(n, edges, 2)
    parts = oracles.components_brute(G)
    in_circuit = {e for part in parts if len(part) > 1 for e in part}
    if m22.components != len(parts) or m22.stressed != in_circuit:
        problems.append(f"{name}: components or stressed edges differ from the oracle")
    for circ in oracles.circuits_brute(G):
        if not ref.is_circuit(circ):
            problems.append(f"{name}: circuit {sorted(circ)} not recognised")
    if not oracles.is_circuit_brute(edges) and ref.is_circuit(edges):
        problems.append(f"{name}: edge set taken for a circuit")
    if n >= 2:
        v = ref.Verdict(n, edges)
        want = n >= 5 and k_connected_brute(n, edges, 2) and len(parts) == 1
        if v.globally_rigid != want:
            problems.append(f"{name}: verdict {v.globally_rigid}, oracle {want}")
        r3 = oracles.rank_brute(edges, 3)
        want_e = ref.is_complete(n, edges) if n <= 3 else (
            k_connected_brute(n, edges, 3) and r3 == 2 * n - 3
            and all(oracles.rank_brute(edges[:i] + edges[i + 1:], 3) == r3
                    for i in range(len(edges)))
        )
        if v.euclidean() != want_e:
            problems.append(f"{name}: Euclidean verdict {v.euclidean()}, oracle {want_e}")


def main() -> int:
    problems: list[str] = []
    graphs = [G for n in range(2, 7) for G in oracles.graphs_up_to_iso(n)]
    for G in graphs:
        check_graph(G, problems)
    rng = random.Random(20220615)
    placements = 0
    for G in graphs:
        if G.n < 5 or G.m < 5 or rng.random() > 0.3:
            continue
        edges = G.sorted_edges()
        coords = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(G.n)]
        for power in (1, 2, 3):
            got = ref.Matroid(G.n, edges, coords, power).rank
            want = exact_rank(lp_rows(G.n, edges, coords, power))
            placements += 1
            if got != want:
                problems.append(f"{edges} at {coords}: modular rank {got}, exact {want}")
    for p in problems[:20]:
        print(p)
    print(f"{len(graphs)} graphs, {placements} placement ranks: "
          f"{'ok' if not problems else f'{len(problems)} disagreements'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
