"""Machine-speed calibration: the time scale of every reported timing.

On a shared machine the speed of the processor changes in phases that
last seconds (other tenants, frequency changes); a fixed pure-Python loop
here ran 21 ms and 32 ms per call within one minute.  Repeating a request
back to back does not escape such a phase, so the benchmark measures this
fixed kernel next to every timed execution and reports the execution's
time scaled to the kernel's reference duration:

    reported = measured * REFERENCE_S / kernel time measured around it

The kernel does what the program spends its time on: depth-first searches
with dict and set membership (as in the pebble game and the connectivity
searches) and building a frozenset of sorted edge tuples (as in `Graph`).
It is the benchmark's unit of time, so it must never change; a change to
it rescales every timing and breaks comparison with earlier runs.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_S = 0.008  # the kernel's duration on the reference time scale

_N = 400
_ROUNDS = 4  # a kernel of about 10 ms spans a phase as a request does


def _graph() -> list[set[int]]:
    rng = random.Random(5)
    adj: list[set[int]] = [set() for _ in range(_N)]
    for _ in range(2 * _N):
        a, b = rng.randrange(_N), rng.randrange(_N)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


_ADJ = _graph()


def kernel_seconds() -> float:
    """Run the kernel once and return its duration in seconds."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        for root in range(0, _N, 40):
            parent = {root: None}
            stack = [root]
            while stack:
                u = stack.pop()
                for w in _ADJ[u]:
                    if w not in parent:
                        parent[w] = u
                        stack.append(w)
        sorted(frozenset((u, w) if u < w else (w, u) for u in range(_N) for w in _ADJ[u]))
    return perf_counter() - t0
