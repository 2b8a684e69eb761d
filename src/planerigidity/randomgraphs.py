"""Seeded random graph models for the experiment harness."""

from __future__ import annotations

import random

from .formats import MAX_VERTICES
from .graphs import Graph

PAIRING_ATTEMPTS = 10_000  # past this a simple pairing is too rare to wait for


def _check_order(n: int) -> None:
    """Refuse, before any work, a graph no graph file could hold."""
    if n > MAX_VERTICES:
        raise ValueError(f"n = {n} is above {MAX_VERTICES}, the most vertices a graph file holds")


def gnp_graph(n: int, prob: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the n(n - 1)/2 pairs is an edge with
    probability prob, one draw per pair in order.  So the cost is O(n^2)
    whatever prob is: 0.65 s at n = 4000 on a 2-core Xeon, and about 45
    minutes, extrapolated, at n = MAX_VERTICES."""
    _check_order(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= prob <= 1:
        raise ValueError("prob must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < prob
    ]
    return Graph.from_edges(n, edges)


def random_regular_graph(n: int, degree: int, seed: int) -> Graph:
    """Pairing-model k-regular graph, rejecting draws with loops or
    multi-edges.  Slightly biased relative to uniform; fine for sanity
    experiments.  Raises ValueError when PAIRING_ATTEMPTS draws all fail.

    A draw is simple with probability about exp((1 - degree^2) / 4), so
    from degree 7 up nearly every call ends in that refusal.  Each attempt
    shuffles all n * degree stubs, so the refusal costs PAIRING_ATTEMPTS
    such shuffles: about 5 s at n = 30, degree 28, and about 2 minutes at
    n = 200, degree 198 (extrapolated from 100 attempts), on a 2-core Xeon.
    No cheaper refusal is made: the graph drawn for a seed depends on every
    number the failed attempts before it drew, so a failed attempt that
    stopped drawing early would change it.
    """
    _check_order(n)
    if not 0 <= degree < n:
        raise ValueError("need 0 <= degree < n")
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    for _ in range(PAIRING_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph.from_edges(n, edges)
    raise ValueError(
        f"no simple {degree}-regular pairing on {n} vertices "
        f"in {PAIRING_ATTEMPTS} attempts"
    )
