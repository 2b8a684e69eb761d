"""Goldens for the demos: each prints exactly what it printed when recorded.

Demo 02 is checked in test_moves.py.  Demo 04 is left out: it prints float
residuals whose last digits depend on the platform's libm.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_01_GOLDEN = """\
K5 minus an edge  (n=5, m=9)
  globally rigid (analytic plane): True
  globally rigid (Euclidean):      True
  ear_decomposition: t=1 circuit_sizes=[9] new_edges=[9]

two K4 blocks sharing an edge (B1)  (n=6, m=11)
  globally rigid (analytic plane): True
  globally rigid (Euclidean):      False
  ear_decomposition: t=1 circuit_sizes=[11] new_edges=[11]

two K4 blocks at a vertex plus a cross edge (B2)  (n=7, m=13)
  globally rigid (analytic plane): True
  globally rigid (Euclidean):      False
  ear_decomposition: t=1 circuit_sizes=[13] new_edges=[13]

wheel W5  (n=6, m=10)
  globally rigid (analytic plane): False
  globally rigid (Euclidean):      True
  edge_in_no_circuit: 0-1

K_{3,6}  (n=9, m=18)
  globally rigid (analytic plane): True
  globally rigid (Euclidean):      True
  ear_decomposition: t=2 circuit_sizes=[15,15] new_edges=[15,3]

two K4 blocks sharing one vertex  (n=7, m=12)
  globally rigid (analytic plane): False
  globally rigid (Euclidean):      False
  cut_vertex: 0
  edge_in_no_circuit: 0-1

K6  (n=6, m=15)
  globally rigid (analytic plane): True
  globally rigid (Euclidean):      True
  ear_decomposition: t=5 circuit_sizes=[9,9,9,9,11] new_edges=[9,1,3,1,1]
  sufficient conditions: edge_connectivity_4, min_degree_half_order, vertex_deletion_rigid, vertex_or_edge_transitive, spectral_gap

Contrast pairs worth noticing:
 * the wheel W5 is globally rigid in the Euclidean plane but not in
   any analytic normed plane: it is minimally rigid there, so no edge
   is redundant.
 * B1 goes the other way: reflecting one K4 block across the shared
   edge breaks Euclidean global rigidity, but non-Euclidean planes
   have no such reflection.
"""

DEMO_03_GOLDEN = """\
K_{3,3}: n=6, m=9
  exact rank at p=4: 9  (rigid needs 10)
  exact rank at p=2: 9  (rigid needs 9)
  pebble-game rank, (2,2) matroid: 9
  pebble-game rank, (2,3) matroid: 9

two K4 blocks at a vertex: n=7, m=12
  exact rank at p=4: 12  (rigid needs 12)
  exact rank at p=2: 10  (rigid needs 11)
  pebble-game rank, (2,2) matroid: 12
  pebble-game rank, (2,3) matroid: 10

K_{3,3} is rigid in the Euclidean plane and flexible in every other
lp plane; two K4 blocks at a vertex do exactly the opposite.  The
operator ranks and the matroid ranks tell the same story, computed
by entirely different machinery.
"""

DEMO_05_GOLDEN = """\
60 samples per row, seeded

random 4-regular graphs:
  n= 8: globally rigid 60/60
  n=10: globally rigid 60/60
  n=12: globally rigid 60/60

Erdos-Renyi G(n, p):
  n=10, p=0.3: globally rigid 0/60
  n=10, p=0.5: globally rigid 25/60
  n=10, p=0.7: globally rigid 60/60

sparser draws fail mostly through vertices of degree below 3, which
can never lie on a circuit of the sparsity matroid.
"""

GOLDENS = {
    "01_decide_named_graphs.py": DEMO_01_GOLDEN,
    "03_operator_ranks.py": DEMO_03_GOLDEN,
    "05_random_models.py": DEMO_05_GOLDEN,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_demo_output_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue() == GOLDENS[name]
