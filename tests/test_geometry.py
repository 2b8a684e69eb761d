import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from planerigidity import catalog as cat
from planerigidity import decide, geometry
from planerigidity.decide import certify
from planerigidity.formats import parse_graph6, parse_placement
from planerigidity.geometry import (
    NormedPlane,
    Placement,
    RigidityOperator,
    cut_vertex_counterexample,
    deletion_ranks,
    equivalent_exactly,
    is_congruent,
    is_inf_rigid,
    is_redundantly_rigid,
    random_regular_placement,
    rank_of,
    rigidity_operator,
    support_functional,
    z_reflection,
)
from planerigidity.graphs import Graph
from planerigidity.randomgraphs import gnp_graph
from planerigidity.sparsity import rank2k

from corpus import BENCHMARK_INPUTS, decision_corpus, k5_minus_ring
from oracles import (
    bareiss_rank, deletion_ranks_loop, dense_rows, exact_profile, exact_profile_by_pieces,
    float_rank_unscaled, float_rows_by_fractions, float_rows_by_support_functional,
    is_congruent_two_cosets, modular_profile_dense, modular_profile_gauss_jordan,
)

L2 = NormedPlane(2)
L4 = NormedPlane(4)


class TestPlane:
    def test_flags(self):
        assert L2.euclidean and L2.trivial_flex_dim == 3
        assert not L4.euclidean and L4.trivial_flex_dim == 2
        assert len(L4.isometry_linear_parts()) == 8

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            NormedPlane(1.0)

    @pytest.mark.parametrize("p", [math.inf, 1e400, math.nan])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(ValueError):
            NormedPlane(p)

    def test_euclidean_isometries_are_not_listed(self):
        with pytest.raises(ValueError, match="^the Euclidean isometry group is not finite$"):
            L2.isometry_linear_parts()


class TestSupportFunctional:
    def test_euclidean_is_identity(self):
        assert support_functional((3, 4), L2) == (3, 4)

    def test_p4_diagonal(self):
        phi = support_functional((1, 1), L4)
        assert phi[0] == pytest.approx(2 ** -0.5)
        assert phi[1] == pytest.approx(2 ** -0.5)
        # phi(x) = |x|^2 with |x| = 2^{1/4}
        assert phi[0] + phi[1] == pytest.approx(math.sqrt(2))

    def test_axis_point(self):
        assert support_functional((1, 0), L4) == pytest.approx((1.0, 0.0))

    def test_zero_vector_convention(self):
        assert support_functional((0, 0), L4) == (0.0, 0.0)

    def test_identities_thousand_samples(self):
        rng = random.Random(97)
        for _ in range(1000):
            p = rng.choice([1.5, 2.0, 3.0, 4.0, 6.0])
            x1 = rng.uniform(-50, 50) or 1.0
            x2 = rng.uniform(-50, 50) or 1.0
            plane = NormedPlane(p)
            phi = support_functional((x1, x2), plane)
            nrm = plane.norm((x1, x2))
            value = phi[0] * x1 + phi[1] * x2
            assert abs(value - nrm**2) <= 1e-12 * nrm**2
            q = p / (p - 1)
            dual = (abs(phi[0]) ** q + abs(phi[1]) ** q) ** (1 / q)
            assert abs(dual - nrm) <= 1e-12 * nrm

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(*2 * [st.one_of(
            st.floats(-1e6, 1e6), st.integers(-10**6, 10**6),
            st.fractions(-100, 100, max_denominator=1000),
        )]),
        st.sampled_from([1.5, 2.5, 3, 4, 5, 41]),
    )
    @example(x=(1e-200, 0.0), p=3)
    @example(x=(1e-170, 3e-170), p=2.5)
    @example(x=(5e-324, 0.0), p=1.5)
    @example(x=(1e200, 1e200), p=3)
    @example(x=(0.5, 0.0), p=2000)
    @example(x=(0.75, 0.75), p=3000)
    @example(x=(1.5, 1.5), p=3000)
    def test_bits_of_the_two_step_expression(self, x, p):
        # the public functional still divides the signed powers by the
        # norm's power, each x_i rounded to a float before its power,
        # whenever the raw power sum |x_1|^p + |x_2|^p is a finite normal
        # float; otherwise the answer must still be the functional: checked
        # on x and phi divided by M = max |x_i|, as phi(x) = |x|^2 and
        # |phi|* = |x| are homogeneous, up to the half unit of the last
        # subnormal place each phi_i may lose when M phi(x / M) is that small
        plane = NormedPlane(p)
        phi = support_functional(x, plane)
        if x[0] == 0 and x[1] == 0:
            assert phi == (0.0, 0.0)
            return
        y = [float(c) for c in x]
        try:
            s = abs(y[0]) ** p + abs(y[1]) ** p
        except OverflowError:
            s = math.inf
        if sys.float_info.min <= s < math.inf:
            scale = (s ** (1 / p)) ** (p - 2)
            expect = tuple(math.copysign(abs(c) ** (p - 1), c) / scale for c in y)
            assert tuple(c.hex() for c in phi) == tuple(c.hex() for c in expect)
            return
        m = max(map(abs, y))
        y = [c / m for c in y]
        psi = [c / m for c in phi]
        nrm = (abs(y[0]) ** p + abs(y[1]) ** p) ** (1 / p)
        slack = 2 * 2.0**-1075 / m
        assert abs(psi[0] * y[0] + psi[1] * y[1] - nrm**2) <= 1e-12 * nrm**2 + slack
        q = p / (p - 1)
        dual = (abs(psi[0]) ** q + abs(psi[1]) ** q) ** (1 / q)
        assert abs(dual - nrm) <= 1e-12 * nrm + slack

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 1), st.floats(-1, 1), st.integers(-300, 300), st.booleans(),
        st.floats(1.5, 3000),
    )
    @example(top=0.5, ratio=0.0, e=0, swap=False, p=2000)
    @example(top=0.75, ratio=1.0, e=0, swap=False, p=3000)
    @example(top=0.15, ratio=1.0, e=1, swap=False, p=3000)
    @example(top=0.1, ratio=0.0, e=-199, swap=False, p=3)
    @example(top=0.4, ratio=0.75, e=1, swap=True, p=1000)
    def test_identities_across_the_float_range(self, top, ratio, e, swap, p):
        # |x| = max |x_i| 10^e from 1e-301 to 1e300: phi(x) = |x|^2 and
        # |phi|* = |x|, each read divided by |x| so that no side leaves the
        # float range; the (p - 2)-nd power of the norm scales its rounding
        # error by about p, hence the tolerance
        x = (top * 10.0**e, ratio * top * 10.0**e)
        x = x[::-1] if swap else x
        plane = NormedPlane(p)
        phi = support_functional(x, plane)
        nrm = plane.norm(x)
        tol = 1e-13 + p * 2.0**-51
        assert nrm == pytest.approx(max(map(abs, x)) * plane.norm((1, ratio)), rel=tol)
        assert (phi[0] / nrm) * (x[0] / nrm) + (phi[1] / nrm) * (x[1] / nrm) == pytest.approx(
            1, rel=tol
        )
        assert NormedPlane(p / (p - 1)).norm(phi) == pytest.approx(nrm, rel=tol)

    @pytest.mark.parametrize("x, p, expect", [
        ((0.5, 0), 2000, 0.5),
        ((1e-200, 0), 3, 1e-200),
        ((3, 4), 1000, 4.0),
        ((1.5, 1.5), 3000, 1.5 * 2 ** (1 / 3000)),
        ((1e200, 1e200), 3, 1e200 * 2 ** (1 / 3)),
    ])
    def test_norm_past_the_range_of_the_power_sum(self, x, p, expect):
        # the power sum underflows to 0 or overflows; the norm of x / M,
        # M = max |x_i|, times M does not
        assert NormedPlane(p).norm(x) == pytest.approx(expect, rel=1e-15)


class TestOperator:
    def test_euclidean_edge_row(self):
        G = Graph.from_edges(2, [(0, 1)])
        pl = Placement(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
        op = rigidity_operator(G, pl, L2)
        assert dense_rows(op) == ((Fraction(-1), 0, Fraction(1), 0),)

    def test_placement_of_the_wrong_size_refused(self):
        pl = Placement(((0, 0), (1, 0), (0, 1)))
        with pytest.raises(ValueError, match="^placement size does not match the graph$"):
            rigidity_operator(cat.complete_graph(4), pl, L4)

    def test_p4_scaled_cubes(self):
        G = Graph.from_edges(2, [(0, 1)])
        pl = Placement(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        op = rigidity_operator(G, pl, L4)
        assert dense_rows(op) == ((Fraction(-1), Fraction(-8), Fraction(1), Fraction(8)),)

    def test_exact_rows_clear_one_common_denominator(self):
        # D = lcm(2, 3, 4) = 12 turns the coordinates into (0, 0), (6, 4)
        # and (3, 12), and each row into the cubes of an integer difference
        G = cat.cycle_graph(3)
        pl = Placement((
            (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1)),
        ))
        op = rigidity_operator(G, pl, L4)
        assert op.exact
        assert dense_rows(op) == (
            (-216, -64, 216, 64, 0, 0),
            (-27, -1728, 0, 0, 27, 1728),
            (0, 0, 27, -512, -27, 512),
        )
        assert all(type(c) is int for row in dense_rows(op) for c in row)

    def test_exact_entry_cap(self):
        # coordinates of one bit: differences of at most two bits, so the
        # cap allows p - 1 up to EXACT_ENTRY_BITS / 2, and p = 2048 is the
        # largest even exponent it allows
        G = Graph.from_edges(2, [(0, 1)])
        pl = Placement(((0, 0), (1, 1)))
        assert geometry.EXACT_ENTRY_BITS == 4096
        assert dense_rows(rigidity_operator(G, pl, NormedPlane(2048))) == ((-1, -1, 1, 1),)
        with pytest.raises(ValueError, match="p = 2050: exact operator entries"):
            rigidity_operator(G, pl, NormedPlane(2050))

    def test_float_overflow_is_value_error(self):
        G = Graph.from_edges(2, [(0, 1)])
        # a row whose larger entry is subnormal (about 1.1e-313 at p = 41) or
        # zero is refused with the overflowing ones
        for pl, p in [(((0.0, 0.0), (1e200, 1.0)), 3), (((0.0, 0.0), (1e-200, 0.0)), 3),
                      (((0.0, 0.0), (10.0, 1.0)), 401), (((0.0, 0.0), (1.5e-8, 1.1e-8)), 41),
                      (((0.0, 0.0), (5e-324, 0.0)), 2), (((0.0, 0.0), (1e-310, 1e-310)), 2.5)]:
            with pytest.raises(ValueError, match="out of floating-point range"):
                rigidity_operator(G, Placement(pl), NormedPlane(p))

    def test_translation_kernel_exact(self):
        for G in [cat.k5_minus(), cat.complete_bipartite(3, 3)]:
            pl = random_regular_placement(G, L4, 17)
            op = rigidity_operator(G, pl, L4)
            tx = [1, 0] * G.n
            ty = [0, 1] * G.n
            assert all(v == 0 for v in op.apply(tx))
            assert all(v == 0 for v in op.apply(ty))

    def test_apply_refuses_a_vector_of_the_wrong_length(self):
        # a velocity vector holds two entries per vertex: K5- has 2n = 10,
        # so a longer vector is not read as its first ten entries, and a
        # shorter one is not read past its end
        G = cat.k5_minus()
        op = rigidity_operator(G, random_regular_placement(G, L4, 17), L4)
        assert op.apply([1, 0] * 5) == (0,) * G.m
        for length in (110, 11, 9, 3, 0):
            message = f"^velocity vector of length {length}, needs 2n = 10$"
            with pytest.raises(ValueError, match=message):
                op.apply([1] * length)

    def test_one_pair_per_edge_and_a_derived_matrix(self):
        # the fields are the pairs and the edges; the dense rows derive from
        # them (the test oracle `dense_rows`), and the operator, frozen,
        # neither keeps nor builds them, not for its ranks or float array
        G = cat.cycle_graph(3)
        op = rigidity_operator(G, Placement(((0, 0), (2, 1), (1, 3))), L4)
        assert op._fields == ("phis", "edges", "n", "exact", "trivial_flex_dim")
        assert op.phis == ((8, 1), (1, 27), (-1, 8)) and op.edges == ((0, 1), (0, 2), (1, 2))
        assert dense_rows(op) == (
            (-8, -1, 8, 1, 0, 0),
            (-1, -27, 0, 0, 1, 27),
            (0, 0, 1, -8, -1, 8),
        )
        assert np.array_equal(op.as_array() * [[8], [27], [8]], dense_rows(op))
        assert deletion_ranks(op, "exact") == (3, (2, 2, 2))
        assert "matrix" not in vars(op) and not hasattr(op, "matrix")
        with pytest.raises(AttributeError):
            op.matrix = ()
        assert op == RigidityOperator(op.phis, op.edges, 3, True) and "matrix" not in repr(op)

    def test_coincident_endpoints_rejected(self):
        G = Graph.from_edges(2, [(0, 1)])
        pl = Placement(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
        with pytest.raises(ValueError):
            rigidity_operator(G, pl, L4)

    def test_mode_is_read_off_the_rows(self):
        # the mode a rank takes when none is named: exact for integer rows
        G = cat.b1()
        for p, exact, mode in [(4, False, "exact"), (2, False, "exact"), (3, False, "float"),
                               (3, True, "exact"), (4.5, False, "float")]:
            plane = NormedPlane(p)
            op = rigidity_operator(G, random_regular_placement(G, plane, 1), plane, exact=exact)
            assert op.mode == mode and op.exact == (mode == "exact")
        rational = random_regular_placement(G, L4, 1)
        floats = Placement(tuple((float(x), float(y)) for x, y in rational.coords))
        assert rigidity_operator(G, floats, L4).mode == "float"
        assert not hasattr(op, "shape")

    def test_the_auto_mode_rule_is_written_once(self):
        # `"exact" if ... else "float"` is the operator's `mode` and appears
        # nowhere else in the package
        import ast
        from pathlib import Path

        found = []
        for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    for child in ast.walk(node):
                        child.owner = getattr(child, "owner", ()) + (node.name,)
            for node in ast.walk(tree):
                if isinstance(node, ast.IfExp) and isinstance(node.body, ast.Constant) \
                        and node.body.value == "exact":
                    found.append((path.name, node.owner))
        assert found == [("geometry.py", ("RigidityOperator", "mode"))]


def _distinct_pairs(coords):
    n = len(coords)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if coords[u] != coords[v]]


# small and huge rationals: a float of a quotient of big ints is rounded
# once, so both ways of taking it must give the same bits
_RATIONALS = st.one_of(
    st.integers(-60, 60),
    st.fractions(-100, 100, max_denominator=1000),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25)),
)


class TestFloatRows:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_RATIONALS, _RATIONALS), min_size=2, max_size=7),
        st.sampled_from([3, 5, 2.5]),
    )
    def test_rational_placement_rows_equal_fraction_rows(self, coords, p):
        plane = NormedPlane(p)
        G = Graph.from_edges(len(coords), _distinct_pairs(coords))
        pl = Placement(tuple(coords))
        op = rigidity_operator(G, pl, plane)
        assert not op.exact
        assert dense_rows(op) == float_rows_by_fractions(G, pl, plane)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.one_of(st.floats(-1e6, 1e6), _RATIONALS)),
            min_size=2, max_size=7,
        ),
        st.sampled_from([2, 3, 4, 2.5]),
    )
    def test_float_placement_rows_are_unchanged(self, coords, p):
        # a placement with a float coordinate takes each difference in its
        # own numbers, as before; a row whose larger entry is not a normal
        # float (a subnormal difference at p = 2, say) is refused
        plane = NormedPlane(p)
        G = Graph.from_edges(len(coords), _distinct_pairs(coords))
        pl = Placement(tuple(coords))
        rows = float_rows_by_fractions(G, pl, plane)
        if all(max(map(abs, row)) >= sys.float_info.min for row in rows):
            op = rigidity_operator(G, pl, plane)
            assert not op.exact
            assert dense_rows(op) == rows
        else:
            with pytest.raises(ValueError, match="out of floating-point range"):
                rigidity_operator(G, pl, plane)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(*(
            st.lists(st.tuples(c, c), min_size=2, max_size=7) for c in (
                st.fractions(-100, 100, max_denominator=1000),
                st.integers(-10**5, 10**5).map(lambda k: k / 1000),
            )
        )),
        st.sampled_from([2.5, 3, 5, 41]),
    )
    def test_direct_rows_agree_with_support_functional_rows(self, coords, p):
        # the direct entries differ from the old two-step ones by rounding
        # only, relative to the row's largest entry, which every float rank
        # divides by; rational or float placements with differences of at
        # least 1e-6 keep every row in range at p = 41
        plane = NormedPlane(p)
        G = Graph.from_edges(len(coords), _distinct_pairs(coords))
        pl = Placement(tuple(coords))
        rows = dense_rows(rigidity_operator(G, pl, plane))
        for row, old in zip(rows, float_rows_by_support_functional(G, pl, plane), strict=True):
            scale = max(map(abs, row))
            assert all(
                math.isclose(a, b, rel_tol=1e-13, abs_tol=1e-13 * scale)
                for a, b in zip(row, old, strict=True)
            )

    @pytest.mark.parametrize("xy, p", [
        # the entries about 1e-240 and 4e-240 are normal floats, although
        # |d|^3 underflows
        ((1e-120, 2e-120), 3),
        # a smaller entry that underflows to zero leaves the row in range
        ((1e-200, 1.0), 3),
    ])
    def test_rows_with_a_normal_larger_entry_are_kept(self, xy, p):
        G = Graph.from_edges(2, [(0, 1)])
        x, y = (c ** (p - 1) for c in xy)
        assert max(x, y) >= sys.float_info.min
        op = rigidity_operator(G, Placement(((0.0, 0.0), xy)), NormedPlane(p))
        assert dense_rows(op) == ((-x, -y, x, y),)


class TestExactRowsAtEveryIntegerP:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.fractions(-100, 100, max_denominator=20)] * 2), min_size=2, max_size=7
        ),
        st.sampled_from([2, 3, 4, 5, 41]),
    )
    def test_rows_equal_fraction_rows(self, coords, p):
        # the row of d is D^(p-1) d |d|^(p-2), with D the lcm of the
        # denominators; at odd p its sign is that of d
        G = Graph.from_edges(len(coords), _distinct_pairs(coords))
        pl = Placement(tuple(coords))
        op = rigidity_operator(G, pl, NormedPlane(p), exact=True)
        D = math.lcm(*(c.denominator for xy in coords for c in xy))
        rows = []
        for u, v in G.sorted_edges():
            phi = [
                (b - a) * abs(b - a) ** (p - 2) * D ** (p - 1) for a, b in zip(coords[u], coords[v])
            ]
            row = [Fraction(0)] * (2 * G.n)
            row[2 * u], row[2 * u + 1] = -phi[0], -phi[1]
            row[2 * v], row[2 * v + 1] = phi[0], phi[1]
            rows.append(tuple(row))
        assert op.exact and dense_rows(op) == tuple(rows)
        assert all(type(c) is int for row in dense_rows(op) for c in row)
        if p % 2 == 0:
            assert rigidity_operator(G, pl, NormedPlane(p)) == op
        else:  # float rows stay the default at odd p
            assert not rigidity_operator(G, pl, NormedPlane(p)).exact

    @pytest.mark.parametrize("p, pl", [
        (2.5, Placement(((0, 0), (1, 2)))),
        (3, Placement(((0.0, 0.0), (1, 2)))),
    ], ids=["fractional-p", "float-placement"])
    def test_exact_rows_need_integer_p_and_rational_placement(self, p, pl):
        with pytest.raises(ValueError, match="needs an integer p and a rational placement"):
            rigidity_operator(Graph.from_edges(2, [(0, 1)]), pl, NormedPlane(p), exact=True)

    def test_exact_and_float_agree_on_the_benchmark_p3_inputs(self):
        d = BENCHMARK_INPUTS / "certify-lp"
        L3, count = NormedPlane(3), 0
        for line in (d / "requests.txt").read_text().splitlines():
            graph, placement, p = line.split()
            if p == "3":
                G = parse_graph6((d / graph).read_text())
                pl = parse_placement((d / placement).read_text())
                exact = deletion_ranks(rigidity_operator(G, pl, L3, exact=True), "exact")
                assert deletion_ranks(rigidity_operator(G, pl, L3), "float") == exact, graph
                count += 1
        assert count == 60


class TestRank:
    def test_k4_p4_exact(self):
        G = cat.complete_graph(4)
        pl = random_regular_placement(G, L4, 5)
        op = rigidity_operator(G, pl, L4)
        assert rank_of(op, "exact") == 6 == rank2k(G.edges, 2)

    def test_k33_contrast(self):
        G = cat.complete_bipartite(3, 3)
        pl = random_regular_placement(G, L2, 5)
        assert rank_of(rigidity_operator(G, pl, L2), "exact") == 9
        pl4 = random_regular_placement(G, L4, 5)
        assert rank_of(rigidity_operator(G, pl4, L4), "exact") == 9
        assert 9 < 2 * G.n - 2  # flexible in the non-Euclidean plane

    def test_scaling_invariance_float(self):
        for seed, G in enumerate([cat.k5_minus(), cat.wheel_graph(5), cat.b1()]):
            op = rigidity_operator(G, random_regular_placement(G, L4, seed), L4)
            assert rank_of(op, "float") == rank_of(op, "exact")

    def test_unknown_mode_refused(self):
        G = cat.complete_graph(4)
        op = rigidity_operator(G, random_regular_placement(G, L4, 5), L4)
        with pytest.raises(ValueError, match="^unknown rank mode 'svd'$"):
            rank_of(op, "svd")

    def test_exact_mode_rejects_floats(self):
        G = Graph.from_edges(2, [(0, 1)])
        pl = Placement(((0.0, 0.0), (1.0, 2.0)))
        op = rigidity_operator(G, pl, NormedPlane(3))
        with pytest.raises(ValueError):
            rank_of(op, "exact")


def _odd_p_integer_rows(G, placement, p):
    """The rows d_i |d_i|^(p-2) at odd p of the placement scaled by the lcm
    D of its denominators: integers, and the float rows times D^(p-1) > 0,
    so their Bareiss rank is the exact rank of the float operator."""
    D = math.lcm(*(c.denominator for xy in placement.coords for c in xy))
    xy = [(x * D, y * D) for x, y in placement.coords]
    rows = []
    for u, v in G.sorted_edges():
        d = [int(xy[v][i] - xy[u][i]) for i in (0, 1)]
        phi = [c * abs(c) ** (p - 2) for c in d]
        row = [0] * (2 * G.n)
        row[2 * u], row[2 * u + 1] = -phi[0], -phi[1]
        row[2 * v], row[2 * v + 1] = phi[0], phi[1]
        rows.append(row)
    return rows


class TestRowScaledFloatRank:
    """Float ranks read rows divided by their largest entry; the raw rows
    (`float_rank_unscaled`) lose small rows under the relative tolerance."""

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_no_rank_goes_from_right_to_wrong(self, p):
        plane = NormedPlane(p)
        mended = 0
        for i, G in enumerate(decision_corpus(150, seed=11)):
            for k in range(2):
                pl = random_regular_placement(G, plane, 300 + 1000 * k + i)
                op = rigidity_operator(G, pl, plane)
                exact = bareiss_rank(_odd_p_integer_rows(G, pl, p))
                old, new = float_rank_unscaled(op), rank_of(op, "float")
                if old == exact:
                    assert new == exact, (G.sorted_edges(), pl)
                mended += old != exact == new
        if p >= 7:
            assert mended  # and some go from wrong to right

    def test_rows_are_scaled_to_largest_entry_one(self):
        G = cat.b1()
        op = rigidity_operator(G, random_regular_placement(G, L4, 1), L4)
        A = op.as_array()
        assert np.abs(A).max(axis=1).tolist() == [1.0] * G.m

    def test_one_read_only_array_per_operator(self):
        # rank_of and deletion_ranks on a rank-deficient operator both read it
        G = cat.b1()
        op = rigidity_operator(G, random_regular_placement(G, NormedPlane(3), 1), NormedPlane(3))
        A = op.as_array()
        assert op.as_array() is A and not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 2.0
        fresh = RigidityOperator(op.phis, op.edges, op.n, op.exact, op.trivial_flex_dim)
        assert fresh == op and hash(fresh) == hash(op)
        assert fresh.as_array() is not A and np.array_equal(fresh.as_array(), A)
        assert deletion_ranks(op, "float") == deletion_ranks(fresh, "float")


def _corpus_frameworks(p, count=60):
    plane = NormedPlane(p)
    for i, G in enumerate(decision_corpus(count, seed=71)):
        pl = random_regular_placement(G, plane, 700 + i)
        yield rigidity_operator(G, pl, plane)


def _is_prime_miller_rabin(n: int) -> bool:
    """Deterministic for n < 3.3e24: the first twelve primes as bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@st.composite
def _integer_operators(draw):
    """Exact operators on up to seven vertices, their pairs of small, huge
    and mostly zero ints and of multiples of `_PRIME`, zero residues; a
    pair may be zero, as may a vertex's columns (an isolated vertex), and
    m and 2n range past each other."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=15)) if pairs else []
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(-10, 10), st.integers(-2**70, 2**70),
        st.integers(-3, 3).map(lambda k: k * geometry._PRIME),
    )
    phis = tuple((draw(entry), draw(entry)) for _ in edges)
    return RigidityOperator(phis, tuple(sorted(edges)), n, True)


class TestModularProfile:
    def test_prime_is_one_digit_and_not_the_reference_prime(self):
        P = geometry._PRIME
        assert _is_prime_miller_rabin(P)
        assert P < 1 << 30 and P != (1 << 31) - 1
        # the largest prime below 2^30
        assert not any(_is_prime_miller_rabin(q) for q in range(P + 1, 1 << 30))
        assert [q for q in range(2, 60) if _is_prime_miller_rabin(q)] == [
            q for q in range(2, 60) if all(q % d for d in range(2, q))
        ]

    @settings(max_examples=400, deadline=None)
    @given(_integer_operators(), st.sampled_from([3, 5, 7, geometry._PRIME]))
    def test_sparse_equals_dense(self, op, prime):
        # the transpose filled from each edge's two residues eliminates as
        # the earlier scan of the dense rows did, with the same answer as
        # dense Gauss-Jordan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PRIME", prime)
            got = geometry._profile(op)
            assert got == modular_profile_dense(dense_rows(op), 2 * op.n)
        assert got == modular_profile_gauss_jordan(dense_rows(op), 2 * op.n, prime)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_sparse_equals_dense_on_operators(self, monkeypatch, p):
        for prime in (geometry._PRIME, 3):
            monkeypatch.setattr(geometry, "_PRIME", prime)
            for op in _corpus_frameworks(p):
                expect = modular_profile_gauss_jordan(dense_rows(op), 2 * op.n, prime)
                assert geometry._profile(op) == expect, op.edges

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_every_block_equals_the_dense_scan(self, p):
        plane, blocks = NormedPlane(p), 0
        for i, G in enumerate(decision_corpus(300, seed=5)):
            op = rigidity_operator(G, random_regular_placement(G, plane, i), plane)
            for B, _, _, _ in op._exact_blocks:
                assert geometry._profile(B) == modular_profile_dense(dense_rows(B), 2 * B.n)
                blocks += 1
        assert blocks > 300


def _assert_profile_over_q_is_bareiss(op):
    """`_profile` over Q against the dense Bareiss rank: the same rank, and
    as stressed rows exactly those whose deletion keeps that rank."""
    rows = dense_rows(op)
    rank, stressed = geometry._profile(op, over_q=True)
    assert rank == bareiss_rank(rows), op.edges
    assert stressed == frozenset(
        i for i in range(len(rows)) if bareiss_rank(rows[:i] + rows[i + 1:]) == rank
    ), op.edges


class TestProfileOverQ:
    @settings(max_examples=300, deadline=None)
    @given(_integer_operators())
    def test_equals_bareiss(self, op):
        _assert_profile_over_q_is_bareiss(op)

    @pytest.mark.parametrize("r, p", [(3, 2), (3, 4), (2, 40)])
    def test_equals_bareiss_on_the_k5_minus_ring(self, r, p):
        # one rank-deficient block: the K5- rows are stressed, the path rows
        # are coloops
        G, plane = k5_minus_ring(r), NormedPlane(p)
        op = rigidity_operator(G, random_regular_placement(G, plane, 1), plane)
        assert len(op._exact_blocks) == 1
        _assert_profile_over_q_is_bareiss(op)
        assert geometry._profile(op, over_q=True) == (
            (10 - plane.trivial_flex_dim) * r + 4 * r,
            frozenset(i for i, (u, v) in enumerate(op.edges) if v < 5 * r),
        )

    def test_equals_bareiss_on_collinear_k5(self):
        G = cat.complete_graph(5)
        pl = Placement(tuple((Fraction(v), Fraction(v)) for v in range(5)))
        op = rigidity_operator(G, pl, L4)
        _assert_profile_over_q_is_bareiss(op)
        assert geometry._profile(op, over_q=True) == (4, frozenset(range(10)))

    def test_equals_bareiss_on_two_k4s_joined_by_two_edges(self):
        k4 = list(cat.complete_graph(4).edges)
        G = Graph.from_edges(8, k4 + [(u + 4, v + 4) for u, v in k4] + [(0, 4), (1, 5)])
        op = rigidity_operator(G, random_regular_placement(G, L2, 1), L2)
        _assert_profile_over_q_is_bareiss(op)
        assert geometry._profile(op, over_q=True)[0] == 12

    def test_the_prime_is_not_read(self, monkeypatch):
        # over Q the residues play no part: a prime of 2 loses no rank
        G = cat.complete_graph(6)
        op = rigidity_operator(G, random_regular_placement(G, L4, 3), L4)
        monkeypatch.setattr(geometry, "_PRIME", 2)
        assert geometry._profile(op, over_q=True) == (10, frozenset(range(15)))


class TestDeletionRanks:
    @pytest.mark.parametrize("p, mode", [(2, "exact"), (4, "exact"), (6, "exact"), (3, "float")])
    def test_matches_one_elimination_per_row(self, p, mode):
        for op in _corpus_frameworks(p):
            assert deletion_ranks(op, mode) == deletion_ranks_loop(op, mode), op.edges

    @pytest.mark.parametrize("p", [2, 4])
    def test_small_prime_falls_back_to_exact(self, monkeypatch, p):
        # mod 3 the elimination loses rank on most frameworks, so the
        # eliminations over Q answer; the results must still be exact
        monkeypatch.setattr(geometry, "_PRIME", 3)
        calls = _profiles(monkeypatch, over_q_only=True)
        for op in _corpus_frameworks(p, count=40):
            assert deletion_ranks(op, "exact") == deletion_ranks_loop(op, "exact"), op.edges
        assert len(calls) > 40

    def test_the_fallback_settles_every_stressed_row(self, monkeypatch):
        # K6 modulo 3: the modular rank falls below 2n - 2 = 10, so its one
        # block is eliminated over Q, which finds all fifteen rows stressed:
        # rank_of runs once, for the rank, with no row left to confirm by
        # ranking its block without it (one rank_of per row, fifteen more,
        # when no row was known to be stressed after the fallback)
        monkeypatch.setattr(geometry, "_PRIME", 3)
        G = cat.complete_graph(6)
        op = rigidity_operator(G, random_regular_placement(G, L4, 3), L4)
        assert geometry._profile(op)[0] < 10
        calls = _counted(monkeypatch, "rank_of")
        got = deletion_ranks(op, "exact")
        assert len(calls) == 1
        assert got == deletion_ranks_loop(op, "exact") == (10, (10,) * 15)

    def test_stressed_rows_are_not_eliminated_again(self, monkeypatch):
        # K6 at a generic placement: the modular rank reaches 2n - 2 and
        # every row lies in a self-stress, so one modular elimination and
        # no elimination over Q answer the rank and all fifteen deletions
        calls = _profiles(monkeypatch)
        G = cat.complete_graph(6)
        op = rigidity_operator(G, random_regular_placement(G, L4, 3), L4)
        assert deletion_ranks(op, "exact") == (10, (10,) * 15)
        assert len(calls) == 1
        assert calls == [(15, False)]

    def test_euclidean_rank_needs_no_bareiss(self, monkeypatch):
        # the rotation field bounds the Euclidean rank by 2n - 3, which K6
        # reaches; certify at p = 2 then makes no elimination over Q
        calls = _profiles(monkeypatch, over_q_only=True)
        G = cat.complete_graph(6)
        na = certify(G, L2, 3).numeric_agreement
        assert na.mode == "exact" and na.rank == 9 and na.redundant_numeric
        assert calls == []

    def test_euclidean_results_unchanged_by_the_flex_bound(self, monkeypatch):
        # with the bound 2n - 2 of any plane (trivial_flex_dim 2), every
        # exact p = 2 rank fell back to the elimination over Q; rank and certify
        # must agree
        def flex_dim_2(op):
            return RigidityOperator(op.phis, op.edges, op.n, op.exact, 2)

        for op in _corpus_frameworks(2):
            assert op.trivial_flex_dim == 3
            old = flex_dim_2(op)
            assert rank_of(op, "exact") == rank_of(old, "exact")
            assert deletion_ranks(op, "exact") == deletion_ranks(old, "exact")
        graphs = decision_corpus(60, seed=71)
        new = [certify(G, L2, 700 + i).to_text() for i, G in enumerate(graphs)]
        monkeypatch.setattr(
            decide, "rigidity_operator",
            lambda *a, **kw: flex_dim_2(rigidity_operator(*a, **kw)),
        )
        old = [certify(G, L2, 700 + i).to_text() for i, G in enumerate(graphs)]
        assert new == old

    def test_collinear_placement(self):
        # every edge direction is (1, 1), so the rank falls to n - 1 = 4
        G = cat.complete_graph(5)
        pl = Placement(tuple((Fraction(v), Fraction(v)) for v in range(5)))
        for p, mode in [(4, "exact"), (3, "float")]:
            op = rigidity_operator(G, pl, NormedPlane(p))
            assert deletion_ranks(op, mode) == deletion_ranks_loop(op, mode) == (4, (4,) * 10)

    def test_stresses_kept_when_the_fallback_confirms_the_modular_rank(self, monkeypatch):
        # collinear K5: the modular rank 4 is below 2n - 2, so the
        # elimination over Q runs once; it finds rank 4 with every row
        # stressed, so none is eliminated again
        calls = _profiles(monkeypatch)
        G = cat.complete_graph(5)
        pl = Placement(tuple((Fraction(v), Fraction(v)) for v in range(5)))
        assert deletion_ranks(rigidity_operator(G, pl, L4), "exact") == (4, (4,) * 10)
        assert calls == [(10, False), (10, True)]

    def test_independent_rows_drop_by_one(self, monkeypatch):
        # the modular rank reaches m, so its one elimination answers all
        calls = _profiles(monkeypatch)
        G = cat.complete_bipartite(3, 3)
        op = rigidity_operator(G, random_regular_placement(G, L4, 5), L4)
        assert deletion_ranks(op, "exact") == (9, (8,) * 9)
        assert len(calls) == 1

    def test_unsettled_rows_are_confirmed_within_their_block(self, monkeypatch):
        # blocks of 1, 1 and 19 rows; 2 rows of the 19-row block are neither
        # stressed mod p nor coloops, and each is confirmed by ranking the
        # other 18 rows of its block alone, split at their own 2 blocks (1
        # and 17 rows), not every block of the operator without it (4
        # eliminations each, the untouched 1-row blocks included).  Each
        # block reaches its bound, so, as on the split of the whole
        # operator, no elimination over Q runs
        calls = _profiles(monkeypatch)
        G = gnp_graph(12, 0.3, 1)
        op = rigidity_operator(G, random_regular_placement(G, L4, 0), L4)
        got = deletion_ranks(op, "exact")
        rows = [m for m, q in calls if not q]
        over_q = [m for m, q in calls if q]
        assert rows == [1, 1, 19, 1, 17, 17, 1]
        assert over_q == []
        assert got == deletion_ranks_loop(op, "exact")
        assert got[1].count(got[0] - 1) == 4

    def test_empty_operator(self):
        # no rows: rank 0 and no deletion in either mode, as rank_of
        # answers, whether the rows would have been integer (p = 4) or
        # float (p = 3)
        for p, mode in [(4, "exact"), (3, "float")]:
            op = rigidity_operator(Graph.from_edges(3, []), Placement(((0, 0),) * 3), NormedPlane(p))
            assert op.mode == mode
            assert rank_of(op, "exact") == rank_of(op, "float") == 0
            assert deletion_ranks(op, "exact") == deletion_ranks(op, "float") == (0, ())

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("p", [4, 3])
    def test_an_unknown_mode_is_refused_with_no_rows_too(self, m, p):
        # the mode is checked before an empty operator answers 0, so an
        # operator with no rows refuses it as one with rows does
        G = Graph.from_edges(3, list(cat.complete_graph(3).edges)[:m])
        op = rigidity_operator(G, Placement(((0, 0), (1, 2), (3, 7))), NormedPlane(p))
        for f in (rank_of, deletion_ranks):
            with pytest.raises(ValueError, match="^unknown rank mode 'bogus'$"):
                f(op, "bogus")

    def test_an_exact_operator_is_eliminated_once(self, monkeypatch):
        # the operator keeps its blocks: rank_of and deletion_ranks, in
        # either order, run the modular eliminations of deletion_ranks alone
        # (one per block, of 1, 1, 19 and 1 rows, then those of the two
        # confirmations), and not the four blocks a second time
        rows = _profiles(monkeypatch)
        G = gnp_graph(12, 0.3, 1)
        pl = random_regular_placement(G, L4, 0)
        alone = deletion_ranks(rigidity_operator(G, pl, L4), "exact")
        once = list(rows)
        assert once == [(m, False) for m in [1, 1, 19, 1, 17, 17, 1]]
        for first, second in ((rank_of, deletion_ranks), (deletion_ranks, rank_of)):
            rows.clear()
            op = rigidity_operator(G, pl, L4)
            answers = {first.__name__: first(op, "exact"), second.__name__: second(op, "exact")}
            assert rows == once
            assert answers == {"rank_of": alone[0], "deletion_ranks": alone}

    @pytest.mark.parametrize("p, mode", [(4, "exact"), (3, "float")])
    def test_the_rank_is_rank_ofs(self, monkeypatch, p, mode):
        # deletion_ranks asks rank_of for the rank of its operator, once, in
        # its own mode and at its own tolerance
        asked = []
        real = geometry.rank_of
        monkeypatch.setattr(
            geometry, "rank_of",
            lambda op, mode="exact", tol=1e-9: asked.append((op, mode, tol)) or real(op, mode, tol),
        )
        for op in _corpus_frameworks(p, count=20):
            asked.clear()
            rank, _ = deletion_ranks(op, mode, 1e-8)
            assert [(mode_, tol) for o, mode_, tol in asked if o is op] == [(mode, 1e-8)]
            assert rank == real(op, mode, 1e-8)


@st.composite
def _grid_frameworks(draw):
    """Up to nine vertices on a 4 x 3 grid of halves, so that collinear
    points and parallel and axis-aligned edges are common, and random edges
    between distinct points, so that bridges, several components and
    isolated vertices are common too."""
    n = draw(st.integers(1, 9))
    coord = st.builds(Fraction, st.integers(0, 3), st.sampled_from([1, 2]))
    coords = tuple((draw(coord), draw(coord)) for _ in range(n))
    pairs = _distinct_pairs(coords)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return Graph.from_edges(n, edges), Placement(coords)


@st.composite
def _glued_frameworks(draw):
    """Two grid frameworks glued at a vertex: the second is translated so
    that its vertex b lands on the first one's vertex a, and b is then
    identified with a, so that 1-sums are common."""
    (G1, pl1), (G2, pl2) = draw(_grid_frameworks()), draw(_grid_frameworks())
    a, b = draw(st.integers(0, G1.n - 1)), draw(st.integers(0, G2.n - 1))
    (ax, ay), (bx, by) = pl1.coords[a], pl2.coords[b]
    label = {v: a if v == b else G1.n + v - (v > b) for v in range(G2.n)}
    coords = pl1.coords + tuple(
        (x - bx + ax, y - by + ay) for v, (x, y) in enumerate(pl2.coords) if v != b
    )
    edges = list(G1.edges) + [(label[u], label[v]) for u, v in G2.edges]
    return Graph.from_edges(len(coords), edges), Placement(coords)


def _counted(monkeypatch, name):
    calls = []
    f = getattr(geometry, name)
    monkeypatch.setattr(geometry, name, lambda *a: calls.append(1) or f(*a))
    return calls


def _profiles(monkeypatch, over_q_only=False):
    """Record each call of `_profile`, or only each one over Q (the exact
    fallback), as (the rows of its operator, over_q)."""
    calls = []
    profile = geometry._profile

    def counted(op, over_q=False):
        if over_q or not over_q_only:
            calls.append((len(op.edges), over_q))
        return profile(op, over_q)

    monkeypatch.setattr(geometry, "_profile", counted)
    return calls


def _k8_plus_a_path():
    G = Graph.from_edges(
        30, list(cat.complete_graph(8).edges) + [(7 + i, 8 + i) for i in range(22)]
    )
    return rigidity_operator(G, random_regular_placement(G, L4, 1), L4)


class TestSplitProfile:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(_grid_frameworks(), _glued_frameworks()),
        st.sampled_from([2, 4, 6]), st.sampled_from([geometry._PRIME, 3]),
    )
    def test_matches_whole_matrix_bareiss(self, framework, p, prime):
        # mod 3 many blocks fall short of their bound, so the per-block
        # fallback runs too
        G, pl = framework
        op = rigidity_operator(G, pl, NormedPlane(p))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PRIME", prime)
            rank, stressed, coloops = exact_profile(op)
            ranks = deletion_ranks(op, "exact")
        rows = dense_rows(op)
        assert rank == bareiss_rank(rows)
        for i in stressed:
            assert bareiss_rank(rows[:i] + rows[i + 1:]) == rank, (op.edges, i)
        for i in coloops:
            assert bareiss_rank(rows[:i] + rows[i + 1:]) == rank - 1, (op.edges, i)
        assert ranks == deletion_ranks_loop(op, "exact")

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("prime", [geometry._PRIME, 3])
    def test_blocks_against_bridges_and_pieces(self, monkeypatch, p, prime):
        # the split at blocks gives the rank of the split at bridges and
        # pieces, finds at least its stressed rows, and each row it calls
        # a coloop drops the rank by one
        monkeypatch.setattr(geometry, "_PRIME", prime)
        for op in _corpus_frameworks(p):
            rank, stressed, coloops = exact_profile(op)
            old_rank, old_stressed = exact_profile_by_pieces(op)
            assert rank == old_rank and stressed >= old_stressed, op.edges
            rows = dense_rows(op)
            for i in coloops:
                assert bareiss_rank(rows[:i] + rows[i + 1:]) == rank - 1, (op.edges, i)

    def test_no_bareiss_on_the_benchmark_p4_inputs(self, monkeypatch):
        calls = _profiles(monkeypatch, over_q_only=True)
        d = BENCHMARK_INPUTS / "certify-lp"
        ops = []
        for line in (d / "requests.txt").read_text().splitlines():
            graph, placement, p = line.split()
            if p == "4":
                G = parse_graph6((d / graph).read_text())
                pl = parse_placement((d / placement).read_text())
                ops.append(rigidity_operator(G, pl, L4))
        assert len(ops) == 40
        got = [deletion_ranks(op, "exact") for op in ops]
        assert calls == []
        assert got == [deletion_ranks_loop(op, "exact") for op in ops]

    def test_exact_path_builds_no_dense_rows_on_the_benchmark_p4_inputs(self):
        # rank_of and deletion_ranks read the pairs alone: neither the
        # operator nor any block operator builds its dense rows
        d = BENCHMARK_INPUTS / "certify-lp"
        ops = []
        for line in (d / "requests.txt").read_text().splitlines():
            graph, placement, p = line.split()
            if p == "4":
                G = parse_graph6((d / graph).read_text())
                ops.append(rigidity_operator(G, parse_placement((d / placement).read_text()), L4))
        assert len(ops) == 40
        for op in ops:
            rank_of(op, "exact")
            deletion_ranks(op, "exact")
            blocks = [B for B, _, _, _ in op._exact_blocks]
            assert [B for B in [op] + blocks if "matrix" in vars(B)] == [], op.edges
        assert not hasattr(RigidityOperator, "matrix")

    def test_no_bareiss_on_k8_plus_a_path(self, monkeypatch):
        # the 22 path edges are bridges and K8 reaches 2n - 2 = 14: rank 36
        calls = _profiles(monkeypatch, over_q_only=True)
        op = _k8_plus_a_path()
        assert deletion_ranks(op, "exact") == (36, (36,) * 28 + (35,) * 22)
        assert calls == []

    def test_k8_plus_a_path_confirms_no_row(self, monkeypatch):
        # each bridge is a block of one row, of full row rank, so a coloop:
        # no row is left to confirm by ranking its block without it, and
        # rank_of runs once, for the rank
        op = _k8_plus_a_path()
        calls = _counted(monkeypatch, "rank_of")
        got = deletion_ranks(op, "exact")
        assert len(calls) == 1
        assert got == deletion_ranks_loop(op, "exact")
        assert exact_profile(op)[2] == frozenset(range(28, 50))

    def test_each_block_is_an_operator_on_its_sorted_vertices(self):
        # a block's operator holds its rows on the columns of its vertices
        # in increasing order, relabelled 0..n_B-1, so its edges stay
        # sorted with u < v
        G = gnp_graph(12, 0.3, 1)
        op = rigidity_operator(G, random_regular_placement(G, L4, 0), L4)
        blocks = op._exact_blocks
        assert sorted(i for _, rows, _, _ in blocks for i in rows) == list(range(G.m))
        assert [len(rows) for _, rows, _, _ in blocks] == [1, 1, 19]
        for B, rows, rank_b, _ in blocks:
            verts = sorted({v for i in rows for v in op.edges[i]})
            cols = [c for v in verts for c in (2 * v, 2 * v + 1)]
            assert (B.n, B.exact, B.trivial_flex_dim) == (len(verts), True, 2)
            assert dense_rows(B) == tuple(tuple(dense_rows(op)[i][c] for c in cols) for i in rows)
            assert B.edges == tuple(
                (verts.index(u), verts.index(v)) for u, v in map(op.edges.__getitem__, rows)
            )
            assert list(B.edges) == sorted(B.edges) and all(u < v for u, v in B.edges)
            assert rank_b == bareiss_rank(dense_rows(B))

    def test_euclidean_one_sum_needs_no_bareiss(self, monkeypatch):
        # two K4s sharing a vertex are two blocks, each of rank 5 = 2 * 4 - 3
        calls = _profiles(monkeypatch, over_q_only=True)
        G = cat.two_k4_shared_vertex()
        op = rigidity_operator(G, random_regular_placement(G, L2, 1), L2)
        assert deletion_ranks(op, "exact") == (10, (10,) * 12)
        assert calls == []

    def test_euclidean_bridgeless_block_still_falls_back(self, monkeypatch):
        # two K4s joined by the disjoint edges 0-4 and 1-5: one block of
        # rank 12 below its bound min(14, 2n - 3 = 13), so the elimination over
        # Q answers
        calls = _profiles(monkeypatch, over_q_only=True)
        k4 = list(cat.complete_graph(4).edges)
        G = Graph.from_edges(8, k4 + [(u + 4, v + 4) for u, v in k4] + [(0, 4), (1, 5)])
        op = rigidity_operator(G, random_regular_placement(G, L2, 1), L2)
        got = deletion_ranks(op, "exact")
        assert len(calls) == 1
        assert got == deletion_ranks_loop(op, "exact")
        assert got[0] == 12


class TestRigidityPredicates:
    def test_two_k4_contrast_pair(self):
        G = cat.two_k4_shared_vertex()
        pl = random_regular_placement(G, L4, 23)
        assert is_inf_rigid(G, pl, L4)
        assert not is_inf_rigid(G, pl, L2)

    def test_b1_redundantly_rigid_p4(self):
        G = cat.b1()
        pl = random_regular_placement(G, L4, 29)
        assert is_redundantly_rigid(G, pl, L4)

    def test_wheel_not_redundant(self):
        G = cat.wheel_graph(5)
        pl = random_regular_placement(G, L4, 31)
        assert is_inf_rigid(G, pl, L4)
        assert not is_redundantly_rigid(G, pl, L4)

    def test_one_vertex_refused(self):
        G = Graph.from_edges(1, [])
        with pytest.raises(ValueError, match="^needs at least two vertices$"):
            is_inf_rigid(G, Placement(((0, 0),)), L4)

    def test_no_edge_refused(self):
        G = Graph.from_edges(3, [])
        pl = Placement(((0, 0), (1, 2), (3, 5)))
        with pytest.raises(ValueError, match="^needs at least two vertices and one edge$"):
            is_redundantly_rigid(G, pl, L4)

    @pytest.mark.parametrize("p", [3, 4])
    def test_default_mode_is_the_operators(self, monkeypatch, p):
        # with no mode named, both predicates rank in the mode of the rows
        asked = []
        real_rank, real_deletion = geometry.rank_of, geometry.deletion_ranks
        monkeypatch.setattr(
            geometry, "rank_of",
            lambda op, mode="exact", tol=1e-9: asked.append(mode) or real_rank(op, mode, tol),
        )
        monkeypatch.setattr(
            geometry, "deletion_ranks",
            lambda op, mode="exact", tol=1e-9: asked.append(mode) or real_deletion(op, mode, tol),
        )
        G, plane = cat.b1(), NormedPlane(p)
        pl = random_regular_placement(G, plane, 29)
        assert is_inf_rigid(G, pl, plane) and is_redundantly_rigid(G, pl, plane)
        mode = rigidity_operator(G, pl, plane).mode
        assert mode == ("exact" if p == 4 else "float")
        assert asked[0] == asked[1] == mode


class TestPlacementSampling:
    def test_reproducible(self):
        G = cat.b1()
        assert random_regular_placement(G, L4, 9).coords == \
            random_regular_placement(G, L4, 9).coords

    def test_refused_after_200_draws(self, monkeypatch):
        # a generator whose every draw is the same number places all
        # vertices on one point, so each of the 200 draws is refused
        draws = []

        class Constant:
            def __init__(self, seed):
                pass

            def randint(self, a, b):
                draws.append(1)
                return 7

        monkeypatch.setattr(geometry.random, "Random", Constant)
        G = cat.k5_minus()
        with pytest.raises(RuntimeError, match="^could not sample a well-positioned placement$"):
            random_regular_placement(G, L4, 1)
        assert len(draws) == 200 * 2 * G.n

    def test_well_positioned_and_off_axis(self):
        for seed in range(10):
            G = cat.k5_minus()
            pl = random_regular_placement(G, L4, seed)
            assert pl.well_positioned(G)
            for u, v in G.edges:
                dx = pl.coords[v][0] - pl.coords[u][0]
                dy = pl.coords[v][1] - pl.coords[u][1]
                assert dx != 0 and dy != 0

    def test_rank_equals_matroid_rank(self):
        G = cat.k5_minus()
        pl = random_regular_placement(G, L4, 41)
        op = rigidity_operator(G, pl, L4)
        assert rank_of(op, "exact") == 8 == rank2k(G.edges, 2)

    def test_rank_matches_matroid_at_p6(self):
        # the correspondence is not special to p = 4: any even exponent
        # keeps the scaled operator rational
        from planerigidity.randomgraphs import gnp_graph

        L6 = NormedPlane(6)
        for i in range(50):
            G = gnp_graph(4 + i % 4, 0.4 + (i % 5) * 0.12, seed=900 + i)
            if G.m == 0:
                continue
            pl = random_regular_placement(G, L6, seed=1900 + i)
            op = rigidity_operator(G, pl, L6)
            assert op.exact
            assert rank_of(op, "exact") == rank2k(G.edges, 2)

    def test_euclidean_rank_matches_23_matroid_on_independent_graphs(self):
        # graphs independent in the (2,3) matroid have full-row-rank
        # Euclidean operators at generic placements
        for seed, G in enumerate([
            cat.wheel_graph(5), cat.complete_bipartite(3, 3),
            cat.path_graph(5), cat.cycle_graph(6), cat.complete_graph(4),
        ]):
            if rank2k(G.edges, 3) != G.m:
                continue
            pl = random_regular_placement(G, L2, 60 + seed)
            op = rigidity_operator(G, pl, L2)
            assert rank_of(op, "exact") == G.m


class TestZReflection:
    def test_fixed_on_line(self):
        y = z_reflection((1, 1), (2, 2), L4)
        assert y == pytest.approx((2.0, 2.0))

    @pytest.mark.parametrize("z", [(0, 0), (0.0, -0.0)])
    def test_zero_z_refused(self, z):
        with pytest.raises(ValueError, match="^z must be non-zero$"):
            z_reflection(z, (1, 2), L4)

    def test_euclidean_reflection(self):
        y = z_reflection((1, 0), (3, 4), L2)
        assert y == pytest.approx((3.0, -4.0), abs=1e-8)

    def test_p4_axis_symmetry(self):
        y = z_reflection((1, 0), (0, 1), L4)
        assert y == pytest.approx((0.0, -1.0), abs=1e-9)

    def test_involution_sampled(self):
        # samples stay bounded away from the fixed line, where the root is
        # ill-conditioned in floating point
        rng = random.Random(71)
        count = 0
        while count < 300:
            p = rng.choice([2.0, 3.0, 4.0])
            plane = NormedPlane(p)
            z = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            nz, nx = plane.norm(z), plane.norm(x)
            if nz < 0.1 or nx < 0.1:
                continue
            if abs(z[0] * x[1] - z[1] * x[0]) < 0.2 * nz * nx:
                continue
            count += 1
            y = z_reflection(z, x, plane)
            back = z_reflection(z, y, plane)
            err = plane.norm((back[0] - x[0], back[1] - x[1]))
            assert err <= 1e-9 * max(1.0, nx)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-5, 5).filter(lambda v: abs(v) > 0.05),
        st.floats(-5, 5).filter(lambda v: abs(v) > 0.05),
        st.floats(-5, 5).filter(lambda v: abs(v) > 0.05),
        st.floats(-5, 5).filter(lambda v: abs(v) > 0.05),
        st.sampled_from([2.0, 3.0, 4.0]),
    )
    def test_involution_near_degenerate_stays_loose(self, zx, zy, x1, x2, p):
        # no angle filter: near the fixed line accuracy degrades and the
        # bracket validation may report degeneracy instead of guessing;
        # whenever a value comes back, the constraints hold
        plane = NormedPlane(p)
        try:
            y = z_reflection((zx, zy), (x1, x2), plane)
            back = z_reflection((zx, zy), y, plane)
        except RuntimeError:
            return  # degenerate draw, reported rather than guessed
        assert plane.norm(y) == pytest.approx(plane.norm((x1, x2)), rel=1e-9)
        assert abs(back[0] - x1) <= 1e-6 * max(1.0, abs(x1))
        assert abs(back[1] - x2) <= 1e-6 * max(1.0, abs(x2))

    def test_a_flat_distance_fails_the_bracket(self, monkeypatch):
        # every point of the circle at z: the distance to z is -|x - z| at
        # both ends of the sweep, so no sign change brackets a root
        monkeypatch.setattr(geometry, "_circle_point", lambda theta, r, plane: (1.0, 0.0))
        with pytest.raises(RuntimeError, match="^z-reflection bracket failed; placement degenerate$"):
            z_reflection((1, 0), (0, 1), L4)

    def test_a_jump_in_the_distance_does_not_converge(self, monkeypatch):
        # the circle point jumps from z to -z halfway along the sweep: the
        # bracket holds, but bisection closes in on the jump, where the
        # distance never comes near |x - z|
        monkeypatch.setattr(
            geometry, "_circle_point",
            lambda theta, r, plane: (1.0, 0.0) if theta > -math.pi / 2 else (-1.0, 0.0),
        )
        with pytest.raises(RuntimeError, match="^z-reflection did not converge$"):
            z_reflection((1, 0), (0, 1), L4)

    def test_preserves_both_distances(self):
        z, x = (2, 1), (-1, 3)
        y = z_reflection(z, x, L4)
        assert L4.norm(y) == pytest.approx(L4.norm(x), rel=1e-9)
        assert L4.norm((y[0] - 2, y[1] - 1)) == pytest.approx(
            L4.norm((x[0] - 2, x[1] - 1)), rel=1e-9
        )


class TestCutVertexCounterexample:
    def test_bowtie_generic(self):
        G = cat.bowtie()
        hits = 0
        for seed in range(20):
            pl = random_regular_placement(G, L4, seed)
            q = cut_vertex_counterexample(G, pl, L4)
            assert q is not None
            assert equivalent_exactly(G, pl, q, L4)
            if not is_congruent(pl.translated(-pl.coords[0][0], -pl.coords[0][1]), q, L4):
                hits += 1
        assert hits >= 19

    def test_two_connected_absent(self):
        G = cat.b1()
        pl = random_regular_placement(G, L4, 2)
        assert cut_vertex_counterexample(G, pl, L4) is None

    def test_symmetric_draw_detected_congruent(self):
        # one triangle on the x-axis, the other on the y-axis: negating the
        # second side equals the reflection (x, y) -> (x, -y), an isometry,
        # and the detector reports the congruence honestly
        G = cat.bowtie()
        pl = Placement((
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(3), Fraction(0)),
            (Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(5)),
        ))
        q = cut_vertex_counterexample(G, pl, L4)
        assert equivalent_exactly(G, pl, q, L4)
        assert is_congruent(pl, q, L4)


class TestPlacementSize:
    """Every function of a graph and a placement refuses a placement with
    fewer points than vertices (an edge would read past its end) or more
    (points that no edge reads), with the message of rigidity_operator."""

    @pytest.mark.parametrize("size", [3, 6])
    def test_refused_on_the_bowtie(self, size):
        G = cat.bowtie()
        ok = random_regular_placement(G, L4, 1)
        bad = Placement(tuple((Fraction(v), Fraction(v * v + 1)) for v in range(size)))
        calls = [
            lambda: rigidity_operator(G, bad, L4),
            lambda: geometry.framework_edge_lengths(G, bad, L4),
            lambda: cut_vertex_counterexample(G, bad, L4),
            lambda: equivalent_exactly(G, bad, ok, L4),
            lambda: equivalent_exactly(G, ok, bad, L4),
            lambda: equivalent_exactly(G, bad, bad, L4),
            lambda: equivalent_exactly(G, bad, ok, NormedPlane(3.5)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^placement size does not match the graph$"):
                call()


class TestCongruence:
    def test_translation(self):
        pl = random_regular_placement(cat.bowtie(), L4, 3)
        assert is_congruent(pl, pl.translated(5, 7), L4)

    def test_sizes_that_differ_refused(self):
        pl = random_regular_placement(cat.bowtie(), L4, 3)
        with pytest.raises(ValueError, match="^placements must cover the same vertex set$"):
            is_congruent(pl, Placement(pl.coords[:-1]), L4)

    def test_exact_equivalence_sees_a_rational_move(self):
        # rational placements at an integer p compare p-th powers exactly:
        # a vertex moved by 10^-30, far below any float tolerance, changes
        # the lengths of its edges
        G = cat.bowtie()
        pl = random_regular_placement(G, L4, 3)
        assert pl.exact
        (x, y), rest = pl.coords[1], pl.coords[2:]
        moved = Placement((pl.coords[0], (x + Fraction(1, 10**30), y)) + rest)
        assert equivalent_exactly(G, pl, pl.translated(5, 7), L4)
        assert not equivalent_exactly(G, pl, moved, L4)

    def test_coordinate_swap_is_lp_isometry(self):
        pl = random_regular_placement(cat.bowtie(), L4, 3)
        swapped = Placement(tuple((y, x) for x, y in pl.coords))
        assert is_congruent(pl, swapped, L4)

    def test_float_placements_compare_within_tol(self):
        # float coordinates (in the hundreds here): congruence compares each
        # coordinate within tol = 1e-9 under each signed coordinate
        # permutation, and equivalence the edge lengths within 1e-12
        # relative; a vertex moved by 1e-10 passes both, by 1e-6 neither
        G = cat.bowtie()
        pl = Placement(tuple(
            (float(x), float(y)) for x, y in random_regular_placement(G, L4, 3).coords
        ))
        turned = Placement(tuple((2.5 - y, x - 1.0) for x, y in pl.coords))
        for shift, same in ((0.0, True), (1e-10, True), (1e-6, False)):
            (x, y), rest = turned.coords[1], turned.coords[2:]
            moved = Placement((turned.coords[0], (x + shift, y)) + rest)
            assert is_congruent(pl, moved, L4) == same
            assert equivalent_exactly(G, pl, moved, L4) == same

    def test_euclidean_rotation(self):
        pl = Placement(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)))
        c, s = math.cos(0.7), math.sin(0.7)
        rot = Placement(tuple((c * x - s * y + 3, s * x + c * y - 1) for x, y in pl.coords))
        assert is_congruent(pl, rot, L2)
        stretched = Placement(tuple((2 * x, y) for x, y in pl.coords))
        assert not is_congruent(pl, stretched, L2)

    def test_euclidean_reflection_rotation_and_translation(self):
        pl = Placement(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 1.0)))
        c, s = math.cos(0.7), math.sin(0.7)
        image = Placement(tuple((c * x + s * y + 3, s * x - c * y - 1) for x, y in pl.coords))
        assert is_congruent(pl, image, L2)
        (x, y), rest = image.coords[-1], image.coords[:-1]
        assert not is_congruent(pl, Placement(rest + ((x + 1e-6, y),)), L2)

    def test_euclidean_collinear_mirror_image(self):
        # points on one line: the reflection in that line fixes them, so
        # the mirror image in any other line is a rotated copy too
        pl = Placement(tuple((0.5 + t, -1.0 + 2 * t) for t in (0.0, 1.0, 2.5, -3.0)))
        assert is_congruent(pl, Placement(tuple((-x, y) for x, y in pl.coords)), L2)

    def test_euclidean_one_svd_matches_the_two_coset_fit(self):
        # seeded placements on up to 7 vertices, a fifth of them collinear,
        # each against a rotated and translated copy, half of them
        # reflected, with no vertex moved or one moved by 1e-12 to 1e-3
        rng = random.Random(41)
        answers = Counter()
        for case in range(2000):
            n = rng.randint(1, 7)
            if rng.random() < 0.2:
                (x0, y0), a = (rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0, math.pi)
                ts = [rng.uniform(-5, 5) for _ in range(n)]
                pts = [(x0 + t * math.cos(a), y0 + t * math.sin(a)) for t in ts]
            else:
                pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
            theta, f = rng.uniform(0, 2 * math.pi), rng.choice([1, -1])
            c, s = math.cos(theta), math.sin(theta)
            tx, ty = rng.uniform(-10, 10), rng.uniform(-10, 10)
            image = [(c * x - s * f * y + tx, s * x + c * f * y + ty) for x, y in pts]
            eps = rng.choice([0.0, 10 ** rng.uniform(-12, -3)])
            k, a = rng.randrange(n), rng.uniform(0, 2 * math.pi)
            image[k] = (image[k][0] + eps * math.cos(a), image[k][1] + eps * math.sin(a))
            p, q = Placement(tuple(pts)), Placement(tuple(image))
            got = is_congruent(p, q, L2)
            assert got == is_congruent_two_cosets(p, q), (case, pts, image)
            answers[got, f] += 1
        assert min(answers.values()) > 200, answers

    @pytest.mark.parametrize("plane", [L2, L4])
    def test_two_empty_placements(self, plane):
        assert is_congruent(Placement(()), Placement(()), plane)
