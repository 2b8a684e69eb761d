"""Exact ranks of the lp rigidity operator, cross-checked against the
pebble game.

For an even exponent p and rational coordinates, scaling each operator row
by |p_v - p_w|^(p-2) turns the entries into exact rationals (the
coordinates of the difference vector raised to the p-1), and clearing one
common denominator turns them into integers, so the rank is certified by
exact elimination, with no floating point anywhere.
At a random rational placement that rank almost surely equals the rank of
the edge set in the (2,2)-sparsity matroid; for p = 2 the (2,3) matroid
plays that role instead.
"""

from planerigidity import (
    NormedPlane,
    complete_bipartite,
    rank2k,
    random_regular_placement,
    rank_of,
    rigidity_operator,
    two_k4_shared_vertex,
)

L2, L4 = NormedPlane(2), NormedPlane(4)

for name, G in [
    ("K_{3,3}", complete_bipartite(3, 3)),
    ("two K4 blocks at a vertex", two_k4_shared_vertex()),
]:
    print(f"{name}: n={G.n}, m={G.m}")
    pl = random_regular_placement(G, L4, seed=7)
    r4 = rank_of(rigidity_operator(G, pl, L4), "exact")
    r2 = rank_of(rigidity_operator(G, pl, L2), "exact")
    print(f"  exact rank at p=4: {r4}  (rigid needs {2 * G.n - 2})")
    print(f"  exact rank at p=2: {r2}  (rigid needs {2 * G.n - 3})")
    print(f"  pebble-game rank, (2,2) matroid: {rank2k(G, 2)}")
    print(f"  pebble-game rank, (2,3) matroid: {rank2k(G, 3)}")
    print()

print("K_{3,3} is rigid in the Euclidean plane and flexible in every other")
print("lp plane; two K4 blocks at a vertex do exactly the opposite.  The")
print("operator ranks and the matroid ranks tell the same story, computed")
print("by entirely different machinery.")
