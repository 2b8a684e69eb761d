"""Seeded random graph models for the experiment harness."""

from __future__ import annotations

import random

from .graphs import Graph

PAIRING_ATTEMPTS = 10_000  # past this a simple pairing is too rare to wait for


def gnp_graph(n: int, prob: float, seed: int) -> Graph:
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
    experiments.  Raises ValueError when PAIRING_ATTEMPTS draws all fail,
    as they do when the degree is close to n."""
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if not 0 <= degree < n:
        raise ValueError("need 0 <= degree < n")
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
