"""lp-plane geometry: support functionals, the rigidity operator and its
rank, rigidity predicates, reflections and counterexample placements.

Exponents p with 1 < p < infinity keep the plane smooth and strictly
convex.  The operator is built row-scaled and stored as one pair per
edge, phi = (sign(d_i) |d_i|^(p-1))_i for the edge difference d: the
edge's row holds phi in the columns of one end and -phi in those of the
other, and no dense rows are built: the exact eliminations read the
pairs, and the float array is written from them.  For an even integer p
and a rational placement the pairs are Python ints by default, and on
request at an odd integer p too (`rigidity_operator`), built once with
one common denominator cleared, and capped at EXACT_ENTRY_BITS bits per
entry.  Their rank is split at the blocks of the graph (its maximal
2-connected subgraphs and its bridges): ranks add over a 1-sum, as a
translation, which lies in every kernel, matches two flexes at the shared
vertex.  A block's rank is certified by one sparse Gauss-Jordan
elimination modulo the prime 2^30 - 35, which reads the pairs alone, so
its memory starts at O(|E|) residues and grows only with fill-in,
whenever its modular rank reaches its bound min(m, 2n - f), f the
plane's trivial flex dimension (3 Euclidean, 2 otherwise); a lower
modular rank falls back to the same elimination of that block over Q, in
Fractions, which gives its exact rank and stressed rows.  2^30 - 35 is
the largest prime below 2^30, so every residue is a single 30-bit digit
of a Python int.  Every other entry is the float sign(x_i) |x_i|^(p-1),
x the edge difference rounded to floats once (for a rational placement,
from the same integer differences), and its rank uses numpy SVD with a
relative tolerance.  A float row is refused when an entry is not finite
or its larger entry is below the smallest normal float.

The same eliminations give the self-stresses (the left kernel), and a row
can be deleted without losing rank iff some self-stress is nonzero on it.
So `deletion_ranks` takes the rank r from `rank_of` in either mode and
gives each row r if it is stressed and r - 1 otherwise; a mode only
finds the stressed rows.  Exact mode reads the blocks `rank_of` eliminated,
which the operator keeps, each sliced once as an operator of its own on
its vertices in increasing order (a row of a block of full row rank is a
coloop); any other row of a dependent block that its elimination did not
find stressed is confirmed by `rank_of` on its block's operator without
that row.  Float mode reads one full SVD.  An operator's `mode` is the
one its rows take when no caller names one: exact for integer rows,
float otherwise.
"""

from __future__ import annotations

import math
import random
import sys
from functools import cached_property
from operator import eq

from .graphs import Edge, Graph, _lowpoint_dfs, first_cut_vertex
from .records import FrozenRecord

Coord = tuple  # (x, y) of Fractions or floats

# linear parts of the isometries of a non-Euclidean lp plane:
# the eight signed coordinate permutations
SIGNED_PERMUTATIONS = tuple(
    (sx * (1 - sw), sy * sw, sx * sw, sy * (1 - sw))  # row-major 2x2
    for sw in (0, 1)
    for sx in (1, -1)
    for sy in (1, -1)
)


class NormedPlane(FrozenRecord):
    """An lp plane descriptor.

    trivial_flex_dim is 3 in the Euclidean case (translations and the
    infinitesimal rotation) and 2 otherwise (translations only; the linear
    isometry group of a non-Euclidean plane is finite).
    """

    _fields = ("p",)

    def __init__(self, p: float):
        if not (p > 1 and math.isfinite(p)):
            raise ValueError("need 1 < p < infinity (smooth and strictly convex)")
        self.__dict__["p"] = p

    @property
    def euclidean(self) -> bool:
        return self.p == 2

    @property
    def trivial_flex_dim(self) -> int:
        return 3 if self.euclidean else 2

    @property
    def exactable(self) -> bool:
        """Whether the row-scaled operator of a rational placement can be
        built exactly: p is an integer (see `rigidity_operator`)."""
        return self.p == int(self.p)

    def isometry_linear_parts(self):
        if self.euclidean:
            raise ValueError("the Euclidean isometry group is not finite")
        return [((a, b), (c, d)) for a, b, c, d in SIGNED_PERMUTATIONS]

    def norm(self, x) -> float:
        """|x|_p = M (|y_1|^p + |y_2|^p)^(1/p), y = x / M, with M and y from
        `_power_sum` (M = 1 whenever the plain expression is in range)."""
        m, _, s = _power_sum(x, self.p)
        return m * s ** (1 / self.p)


class Placement(FrozenRecord):
    """Coordinates for the vertices 0..n-1, exact-rational or float."""

    _fields = ("coords",)

    def __init__(self, coords: tuple[Coord, ...]):
        self.__dict__["coords"] = coords

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def exact(self) -> bool:
        from fractions import Fraction

        return all(
            isinstance(c, (Fraction, int)) for xy in self.coords for c in xy
        )

    def translated(self, dx, dy) -> "Placement":
        return Placement(tuple((x + dx, y + dy) for x, y in self.coords))

    def well_positioned(self, G: Graph) -> bool:
        """Whether (G, self) is well-positioned, the paper's notion: in an
        analytic normed plane every nonzero vector is smooth, so this means
        no edge has coincident endpoints.  Public for that reason, though
        no routine here calls it."""
        return all(self.coords[u] != self.coords[v] for u, v in G.edges)


def _check_size(G: Graph, *placements: Placement) -> None:
    """Every placement must hold one point per vertex of G, no fewer (an
    edge would read past its end) and no more (points no edge reads)."""
    if any(pl.n != G.n for pl in placements):
        raise ValueError("placement size does not match the graph")


def support_functional(x, plane: NormedPlane):
    """The unique support functional of x: phi_x(x) = |x|^2, |phi_x|* = |x|.

    Componentwise sign(x_i) |x_i|^(p-1) / |x|^(p-2); the zero vector maps to
    the zero functional.  For p = 2 the functional is x itself (kept exact
    when x is rational).  Otherwise that expression is taken at y = x / M
    and multiplied by M, with M and y from `_power_sum`, since
    phi_(cx) = c phi_x for c > 0: M = 1 and y = x, and so the bits of the
    plain expression, whenever the power sum of x is in range.
    """
    if x[0] == 0 and x[1] == 0:
        return (0.0, 0.0)
    if plane.euclidean:
        return (x[0], x[1])
    p = plane.p
    m, y, s = _power_sum(x, p)
    scale = (s ** (1 / p)) ** (p - 2)
    return tuple(m * (c / scale) for c in _signed_powers(y, p))


def _power_sum(x, p) -> tuple[float, tuple[float, float], float]:
    """(M, y, s) with y = x / M and s = |y_1|^p + |y_2|^p, each x_i rounded
    to a float once.  M = 1 and y = x when that sum for x is a finite
    normal float (at least sys.float_info.min); otherwise, for x nonzero
    and finite, M = max |x_i|, so that |y_i| <= 1 = max |y_i| and s lies
    in [1, 2]: no step of a norm or a support functional of y leaves the
    float range, and |x| = M |y| since |cx| = c|x| for c > 0.
    """
    y = (float(x[0]), float(x[1]))
    try:
        s = abs(y[0]) ** p + abs(y[1]) ** p
    except OverflowError:
        s = math.inf
    m = max(map(abs, y))
    if sys.float_info.min <= s < math.inf or not 0 < m < math.inf:
        return 1.0, y, s
    y = (y[0] / m, y[1] / m)
    return m, y, abs(y[0]) ** p + abs(y[1]) ** p


def _signed_powers(x, p) -> tuple[float, float]:
    """(sign(x_i) |x_i|^(p-1))_i, each x_i rounded to a float once before
    its power (a Fraction power would round differently)."""
    return tuple(math.copysign(abs(c) ** (p - 1), c) for c in map(float, x))


class RigidityOperator(FrozenRecord):
    """The row-scaled support functionals of the edge vectors, one pair
    per edge.

    `edges` is the sorted edge list, and `phis[i]` the pair phi of edge
    i = (u, v), u < v: with d = p_v - p_u, the support functional of d
    times |d|^(p-2), that is (sign(d_i) |d_i|^(p-1))_i.  The row of edge i
    in the |E| x 2n operator holds phi in v's two columns, -phi in u's and
    zeros elsewhere, so uniform translations are always in the kernel.
    Only these pairs are stored, and no dense rows are built: the exact
    path reads the pairs alone, and the float array (`as_array`) is written
    from them.  Positive row scalings change neither the rank of any set of
    rows nor which rows a self-stress is nonzero on.

    `exact` is set when the rows are exact (see `rigidity_operator`, which
    needs an integer p and a rational placement for them).  The pairs
    are then Python ints: every coordinate is multiplied by D,
    the lcm of all coordinate denominators, so every row is the rational
    one times the same D^(p-1), and one elimination per block of these
    rows gives the rank, the stressed rows and the coloops
    (`_exact_blocks`).  An entry may have at most EXACT_ENTRY_BITS bits,
    so an even p such as 1e20 is refused.
    Otherwise the pairs are floats.  `trivial_flex_dim` is that of the
    plane it was built in (2 unless set); it bounds the rank by
    2n - trivial_flex_dim.
    """

    _fields = ("phis", "edges", "n", "exact", "trivial_flex_dim")

    def __init__(
        self, phis: tuple[tuple, ...], edges: tuple[Edge, ...], n: int, exact: bool,
        trivial_flex_dim: int = 2,
    ):
        self.__dict__.update(
            phis=phis, edges=edges, n=n, exact=exact, trivial_flex_dim=trivial_flex_dim
        )

    @property
    def mode(self) -> str:
        """The rank mode of its rows when no caller names one: "exact" for
        integer rows, "float" otherwise."""
        return "exact" if self.exact else "float"

    @cached_property
    def _graph(self) -> Graph:
        """The graph of the rows' edges, a cached fact and not a field: the
        G that `rigidity_operator` built the operator from, so an exact rank
        reads the blocks of G's own lowpoint DFS, or else one built from
        `edges`."""
        return Graph.from_edges(self.n, self.edges)

    def as_array(self):
        """The entries as a numpy float array, each row divided by its
        largest absolute entry: every float rank and self-stress reads this
        one array, which a positive row scaling leaves valid (see above).
        No row is zero: coincident endpoints are refused, and so is a float
        row whose larger entry is below the smallest normal float
        (`rigidity_operator`).  Scaling after the float conversion keeps an
        exact entry past the largest float (a large even p) a ValueError.
        The array is written from the pairs into a zeroed |E| x 2n array:
        each row gets its pair in v's columns and the pair negated in u's,
        negated as Python numbers before the conversion, so a zero int entry
        stays +0.0 and a float 0.0 turns -0.0, the bits of the dense rows.
        It is built once per operator and handed out read-only."""
        return self._float_array

    @cached_property
    def _float_array(self):
        import numpy as np

        A = np.zeros((len(self.edges), 2 * self.n))
        try:
            for i, ((a, b), (u, v)) in enumerate(zip(self.phis, self.edges)):
                A[i, 2 * u:2 * u + 2] = -a, -b
                A[i, 2 * v:2 * v + 2] = a, b
        except OverflowError:
            raise ValueError("operator entries out of floating-point range") from None
        if A.size:
            A = A / np.abs(A).max(axis=1, keepdims=True)
        A.setflags(write=False)
        return A

    @cached_property
    def _exact_blocks(self) -> list[tuple[RigidityOperator, list[int], int, frozenset[int]]]:
        """The blocks of an integer operator, a cached fact and not a field, so
        that `rank_of` and `deletion_ranks` eliminate each block once: for each
        block, its operator, its row indices, its exact rank and the positions
        (in its row list) of the rows known to be stressed.

        A block's operator is sliced once, here: its vertices relabelled
        0..n_B-1 in increasing order, its pairs those of its edges, with the
        same `exact` and `trivial_flex_dim`, so its rows are those of the
        block on the columns of its vertices.  A relabelling that keeps the
        order keeps every edge (u, v) with u < v and the sorted order of the
        edges, so these pairs have the form of `RigidityOperator` for B's
        own graph, and `deletion_ranks` ranks B without a row by `rank_of`
        on that operator with the row's pair sliced out.  Taking the columns in increasing vertex
        order, and not in the order the DFS lists the block, changes no
        answer: the two orders differ by a permutation matrix P, invertible
        over every field, so rank(AP) = rank(A) over Q and modulo p, and
        w^T A P = 0 iff w^T A = 0, so the left kernel, and with it the
        stressed rows, is the same.  The eliminations may pick other
        pivots, but neither their ranks nor their stressed rows depend on
        that (see `_profile`).

        The operator is split at the blocks of its edge graph
        (`RigidityOperator._graph`, from that graph's cached lowpoint DFS): its
        maximal 2-connected subgraphs and its bridges.  The row of edge uv is
        nonzero only in the columns of u and v (see `RigidityOperator`). Ranks
        add over a 1-sum, over any field: let G be the union of G1 and G2, which
        share at most one vertex c.  A velocity field is a flex (kernel vector)
        of G iff its restrictions z1, z2 are flexes of G1 and G2.  Any such pair
        glues once z1(c) = z2(c), and subtracting from z2 the translation by
        z2(c) - z1(c), a flex of every row, meets those two conditions.  So they
        are independent, dim ker G = dim ker G1 + dim ker G2 - 2 with
        2n = 2n1 + 2n2 - 2, and rank G = rank G1 + rank G2 (with no shared
        vertex the columns are disjoint, and the same holds).  The self-stresses of G1 and
        G2 are self-stresses of G, independent, and m - rank G of them, so they
        span all of them.  Splitting off one leaf block after another: the rank
        is the sum over the blocks, a row is stressed iff it is in its block B
        alone, and if B has full row rank m_B, each of its rows is a coloop
        (deleting it drops the rank by one).  A bridge is the case m_B = 1, as
        its row is nonzero (the endpoints differ).

        Each block B (m_B rows on n_B vertices) is eliminated alone, modulo
        p = _PRIME (`_profile`), as its own operator.  rank_p <= rank_Q,
        since a nonzero minor mod p is a nonzero integer minor; and
        rank_Q <= min(m_B, 2n_B - f), with f the operator's `trivial_flex_dim`.  The two
        translations of B always lie in its kernel (f = 2).  In the Euclidean
        plane (f = 3) so does the rotation field v_i = (-y_i, x_i): the row of
        edge uv is d = p_v - p_u, and d . (J p_v - J p_u) = d . J d = 0.  It is
        not a translation, because the endpoints of an edge never coincide.  So
        a modular rank that reaches min(m_B, 2n_B - f) is the exact rank r of B,
        and a row stressed mod p keeps it, since r >= rank_Q(B - row) >=
        rank_p(B - row) = r; a row not stressed mod p may still be stressed
        over Q, so it is not settled here.  A lower modular rank is recomputed
        by the same elimination of B over Q (`_profile(B, over_q=True)`), which
        gives the exact rank and exactly the stressed rows.  None of this
        depends on which prime p is, so p is 2^30 - 35, the largest prime below
        2^30, for speed: every residue is one 30-bit Python digit.  A smaller
        prime can only make the elimination over Q run more often, never change
        an answer.

        Edges are assigned to blocks in O(n + m).  Every vertex v but a DFS root
        follows the head of exactly one block, own(v), the block of the tree
        edge above v.  One end of an edge uv is an ancestor of the other (a DFS
        leaves no cross edges), and the edge lies in the block of the tree edge
        above the lower end.  So it lies in own(v) if u heads that block, and
        otherwise in own(u): u is then the lower end, or u follows the head of
        own(v), and own(u) = own(v).
        """
        if not self.exact:
            raise ValueError(
                "exact rank needs integer rows: an integer p, a rational placement and, at odd p,"
                " rigidity_operator(..., exact=True); use float mode"
            )
        blocks = self._graph._lowpoint_dfs[2]
        own = {v: b for b, block in enumerate(blocks) for v in block[1:]}
        block_rows = [[] for _ in blocks]
        for i, (u, v) in enumerate(self.edges):
            b = own.get(v)
            block_rows[b if b is not None and blocks[b][0] == u else own[u]].append(i)
        out = []
        for block, rows in zip(blocks, block_rows):
            verts = sorted(block)
            index = {v: k for k, v in enumerate(verts)}
            sub = RigidityOperator(
                tuple(map(self.phis.__getitem__, rows)),
                tuple((index[u], index[v]) for u, v in map(self.edges.__getitem__, rows)),
                len(verts), True, self.trivial_flex_dim,
            )
            rank, stressed = _profile(sub)
            if rank < min(len(rows), 2 * sub.n - self.trivial_flex_dim):
                rank, stressed = _profile(sub, over_q=True)
            out.append((sub, rows, rank, stressed))
        return out

    def apply(self, vector):
        """Apply to a velocity assignment given as a flat length-2n vector
        (x_0, y_0, x_1, y_1, ...); a vector of any other length is refused
        with ValueError."""
        if len(vector) != 2 * self.n:
            raise ValueError(f"velocity vector of length {len(vector)}, needs 2n = {2 * self.n}")
        x, y = vector[0::2], vector[1::2]
        return tuple(
            sum((-a * x[u], -b * y[u], a * x[v], b * y[v]))
            for (a, b), (u, v) in zip(self.phis, self.edges)
        )


# exact entries are capped at this many bits: the elimination over Q of a
# rank-deficient block grows with the entry size (the rank of a ring of
# four K5- joined by paths, one 52 x 64 block of rank 48, took 0.15 s at
# 2000 bits and 0.4 s at 4000 on a 2-core Xeon), and an even p such as
# 1e20 would never finish building its rows
EXACT_ENTRY_BITS = 1 << 12


def rigidity_operator(
    G: Graph, placement: Placement, plane: NormedPlane, exact: bool = False
) -> RigidityOperator:
    """The row-scaled operator (see `RigidityOperator`); exact entries past
    EXACT_ENTRY_BITS bits and float rows out of range raise ValueError.

    The rows are integer at an even integer p with a rational placement
    and float otherwise: at an odd p the float rank is the cheaper one,
    and `certify` rechecks with integer rows any float answer that
    disagrees with the combinatorial verdict.  `exact=True` asks for
    integer rows at an odd p too, and raises ValueError unless p is an
    integer and the placement rational.

    A rational placement is first scaled by D, the lcm of its coordinate
    denominators, to integer coordinates, and every edge difference d is
    an integer difference of those.  An exact row holds d_i |d_i|^(p-2),
    which is sign(d_i) |d_i|^(p-1), an integer at every integer p (d_i^(p-1)
    at even p), and the rational row times D^(p-1) > 0.  A float
    row takes x = d / D (D = 1 for a float placement): a correctly rounded
    int true division is the float of the rational difference.  Its
    entries are sign(x_i) |x_i|^(p-1), and it is refused when an entry is
    not finite or its larger entry is below sys.float_info.min, being zero
    or rounded into the subnormal range, where few bits are kept.
    """
    _check_size(G, placement)
    phis = []
    edges = tuple(G.sorted_edges())
    coords, D = placement.coords, 1
    rational = placement.exact
    if exact and not (rational and plane.exactable):
        raise ValueError("exact rank needs an integer p and a rational placement; use float mode")
    exact = exact or rational and plane.exactable and int(plane.p) % 2 == 0
    if rational:
        D = math.lcm(*(c.denominator for xy in coords for c in xy))
        coords = [tuple(c.numerator * (D // c.denominator) for c in xy) for xy in coords]
    if exact:
        q = int(plane.p) - 1
        # a difference of two coordinates of at most b bits has at most b + 1
        bits = max((abs(c).bit_length() for xy in coords for c in xy), default=0)
        if q * (bits + 1) > EXACT_ENTRY_BITS:
            raise ValueError(
                f"p = {plane.p:g}: exact operator entries would exceed {EXACT_ENTRY_BITS} bits"
            )
    for u, v in edges:
        pu, pv = coords[u], coords[v]
        d = (pv[0] - pu[0], pv[1] - pu[1])
        if d == (0, 0):
            raise ValueError(f"coincident endpoints on edge ({u},{v})")
        if exact:
            phi = (d[0] * abs(d[0]) ** (q - 1), d[1] * abs(d[1]) ** (q - 1))
        else:
            try:
                phi = _signed_powers((d[0] / D, d[1] / D), plane.p)
            except ArithmeticError:  # a quotient or a power past the largest float
                phi = (math.nan,)
            if not all(map(math.isfinite, phi)) or max(map(abs, phi)) < sys.float_info.min:
                raise ValueError(
                    f"p = {plane.p:g}: operator entries out of floating-point range"
                )
        phis.append(phi)
    op = RigidityOperator(tuple(phis), edges, G.n, exact, plane.trivial_flex_dim)
    op.__dict__["_graph"] = G  # filled as the cached property fills it
    return op


# ---------------------------------------------------------------------------
# rank

# 2^30 - 35, the largest prime below 2^30: every residue is one 30-bit
# digit of a Python int, which keeps the elimination's arithmetic cheap.  Any
# prime gives exact answers (see _exact_blocks); a small one only makes the
# elimination over Q run more often.  perfbench/reference.py checks ranks
# modulo 2^31 - 1, so the program and its checker cannot share a prime's
# blind spot.  _profile reads it at call time
_PRIME = (1 << 30) - 35


def _profile(op: RigidityOperator, over_q: bool = False) -> tuple[int, frozenset[int]]:
    """Rank of an integer operator and its stressed rows, modulo _PRIME, or
    over Q with over_q.

    Gauss-Jordan on the transpose: its columns are the rows of the operator,
    and each free column j gives the self-stress e_j - sum_k R[k][j] e_pk
    (pk the pivot column of reduced row k).  These stresses span the left
    kernel, so a free column is always stressed and a pivot column pk is
    stressed iff R[k] is nonzero on some free column.  A row is stressed
    iff deleting it keeps the rank.  Nothing here uses more than the field
    axioms, so the argument holds over any field: modulo p it gives the
    rank and stressed rows of the residues, and over Q, where the entries
    are Fractions and every step is exact arithmetic, the exact rank and
    stressed rows.

    The transpose is kept sparse: row c of it is a dict {row index:
    entry} of column c's nonzeros, filled from the pairs alone, in
    O(|E| + n): edge j = (u, v) with entries (a, b) of phis[j] (their
    residues modulo p) puts a and b in v's columns and -a and -b in u's, at
    key j, and skips a zero.  Every dict so gets its keys in increasing row
    order, as a scan of the dense rows would give them.  Each pivot updates
    only the rows that hold its column, and only at the pivot row's keys,
    and an entry that cancels is removed.  The rank and the stressed rows
    do not depend on which row holding column j becomes its pivot, so the
    shortest unused one is taken, which keeps the fill-in small.  After
    the last pivot every pivot column is zero outside its own pivot row,
    so a pivot row's keys are its pivot column and free columns only: pk
    is stressed iff R[k] has more than one key.
    """
    # P is the field's characteristic, and reduce maps an int into the field
    if over_q:
        from fractions import Fraction as reduce

        P = 0
    else:
        P = _PRIME
        reduce = P.__rmod__
    m, cols = len(op.edges), 2 * op.n
    T = [{} for _ in range(cols)]
    for j, (phi, (u, v)) in enumerate(zip(op.phis, op.edges)):
        for k, a in enumerate(phi):
            a = reduce(a)
            if a:
                T[2 * u + k][j], T[2 * v + k][j] = reduce(-a), a
    free = set(range(m))
    unused = set(range(cols))
    pivot_rows = []
    for j in range(m):
        if not unused:
            break
        holders = [i for i, row in enumerate(T) if j in row]
        candidates = unused.intersection(holders)
        if not candidates:
            continue
        k = min(candidates, key=lambda i: len(T[i]))
        prow = T[k]
        inv = pow(prow[j], -1, P) if P else 1 / prow[j]
        items = [(key, reduce(b * inv)) for key, b in prow.items()]
        prow.update(items)
        for i in holders:
            if i != k:
                row = T[i]
                f = row[j]
                for key, b in items:
                    # f * b is nonzero in the field, so a cancelled key was present
                    x = row.get(key, 0) - f * b
                    if P:
                        x %= P
                    if x:
                        row[key] = x
                    else:
                        del row[key]
        unused.remove(k)
        free.remove(j)
        pivot_rows.append((j, prow))
    return len(pivot_rows), frozenset(free).union(
        j for j, prow in pivot_rows if len(prow) > 1
    )


def _check_tol(tol: float) -> None:
    """A relative tolerance must be finite and strictly between 0 and 1:
    NaN or tol >= 1 counts no singular value above tol times the largest,
    and tol <= 0 counts rounding noise too, so none of them gives a rank."""
    if not (math.isfinite(tol) and 0 < tol < 1):
        raise ValueError(f"tol = {tol!r}: needs a finite tolerance with 0 < tol < 1")


def rank_of(op: RigidityOperator, mode: str = "exact", tol: float = 1e-9) -> int:
    """Rank of the operator; exact (the sum of the block ranks of
    `RigidityOperator._exact_blocks`, eliminated once per operator) or SVD.

    Exact mode requires an exact operator (integer rows, see
    `rigidity_operator`).  Float mode counts the singular values of
    `as_array` above tol times the largest, which is at least 1, as every
    row holds an entry ±1.  An operator with no rows has rank 0 in either
    mode, its rows float or not.  Raises ValueError unless 0 < tol < 1
    (finite), and for a mode other than "exact" and "float", with rows or
    without.
    """
    _check_tol(tol)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown rank mode {mode!r}")
    if not op.edges:
        return 0
    if mode == "exact":
        return sum(rank_b for _, _, rank_b, _ in op._exact_blocks)
    import numpy as np

    sv = np.linalg.svd(op.as_array(), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def deletion_ranks(
    op: RigidityOperator, mode: str = "exact", tol: float = 1e-9
) -> tuple[int, tuple[int, ...]]:
    """The rank r of the operator (`rank_of`, in either mode) and the rank
    with each row deleted: r for a stressed row, one that some
    self-stress (left-kernel vector) is nonzero on, and r - 1 for any
    other.  Each mode only finds the stressed rows, and only below full
    row rank: at r = m the rows are independent and none is stressed (in
    float mode too: the singular values of A - row interlace those of A,
    so its m - 1 largest stay above tol times its largest).

    Exact mode reads the blocks of `RigidityOperator._exact_blocks`, which
    `rank_of` eliminated: a row of a block of full row rank (a bridge,
    say) is a coloop, and a row its block's elimination found stressed (all
    of them, where that elimination ran over Q) is stressed.  Any other
    row i lies in a dependent block B, and is stressed iff
    B - row i keeps the rank of B, found by `rank_of` on B's own operator
    (kept by `_exact_blocks`) with row i sliced out: its pairs and edges
    less one, on the same vertices.  Deleting an edge of B leaves the
    graph's other blocks blocks of G - e and splits B into the blocks of
    B - e, any two of all these sharing at most one vertex; so by the
    1-sum additivity of `_exact_blocks` the rank without row i is
    r - rank B + rank(B - i), and `rank_of` on B - row i splits it at
    exactly the blocks of B - e, each under its own bound
    min(m_C, 2n_C - f).  That is the split of the
    whole operator without row i, less the blocks the row never touched:
    an elimination over Q runs on the same blocks, and no untouched block
    is eliminated again.

    Float mode runs one full SVD of the same row-scaled array DA
    (`RigidityOperator.as_array`; a self-stress w of A is the self-stress
    D^-1 w of DA): row i is stressed iff row i of U[:, r:], the left
    singular vectors beyond the rank, has norm above tol.  Raises
    ValueError unless 0 < tol < 1, as rank_of does.
    """
    rank, m = rank_of(op, mode, tol), len(op.edges)
    stressed = set()
    if rank < m and mode == "float":
        import numpy as np

        U = np.linalg.svd(op.as_array())[0]
        stressed.update(np.flatnonzero(np.linalg.norm(U[:, rank:], axis=1) > tol).tolist())
    elif rank < m:
        for B, rows, rank_b, known in op._exact_blocks:
            if rank_b < len(rows):
                stressed.update(
                    i for j, i in enumerate(rows)
                    if j in known or rank_of(RigidityOperator(
                        B.phis[:j] + B.phis[j + 1:], B.edges[:j] + B.edges[j + 1:],
                        B.n, True, B.trivial_flex_dim,
                    )) == rank_b
                )
    return rank, tuple(rank if i in stressed else rank - 1 for i in range(m))


def is_inf_rigid(
    G: Graph, placement: Placement, plane: NormedPlane,
    mode: str | None = None, tol: float = 1e-9,
) -> bool:
    """Rank test for infinitesimal rigidity: 2n-3 Euclidean, 2n-2 otherwise."""
    if G.n < 2:
        raise ValueError("needs at least two vertices")
    op = rigidity_operator(G, placement, plane, exact=mode == "exact")
    return rank_of(op, mode or op.mode, tol) == 2 * G.n - plane.trivial_flex_dim


def is_redundantly_rigid(
    G: Graph, placement: Placement, plane: NormedPlane,
    mode: str | None = None, tol: float = 1e-9,
) -> bool:
    """Whether every single-edge-deleted framework stays infinitesimally rigid."""
    if G.n < 2 or G.m < 1:
        raise ValueError("needs at least two vertices and one edge")
    target = 2 * G.n - plane.trivial_flex_dim
    op = rigidity_operator(G, placement, plane, exact=mode == "exact")
    _, ranks = deletion_ranks(op, mode or op.mode, tol)
    return all(r == target for r in ranks)


def random_regular_placement(G: Graph, plane: NormedPlane, seed: int) -> Placement:
    """Random rational placement from a large grid.

    Numerators are drawn from [-10^6, 10^6] over a fixed denominator 10^3;
    the draw is rejected while any edge difference is axis-aligned (which
    would zero a scaled entry) or endpoints coincide.  Regularity holds
    almost surely and is certified downstream by rank agreement.
    """
    from fractions import Fraction

    rng = random.Random(seed)
    for _ in range(200):
        coords = tuple(
            (
                Fraction(rng.randint(-10**6, 10**6), 1000),
                Fraction(rng.randint(-10**6, 10**6), 1000),
            )
            for _ in range(G.n)
        )
        ok = all(
            coords[u][0] != coords[v][0] and coords[u][1] != coords[v][1]
            for u, v in G.edges
        )
        if ok:
            return Placement(coords)
    raise RuntimeError("could not sample a well-positioned placement")


# ---------------------------------------------------------------------------
# reflections, counterexamples, congruence


def _circle_point(theta: float, r: float, plane: NormedPlane):
    ux, uy = math.cos(theta), math.sin(theta)
    s = r / plane.norm((ux, uy))
    return (ux * s, uy * s)


def z_reflection(z, x, plane: NormedPlane, tol: float = 1e-9):
    """The unique point y != x with |y| = |x| and |y - z| = |x - z|.

    Points on the line through 0 and z are fixed.  The root is bracketed on
    the arc of the norm circle on the far side of that line and found by
    sign bisection on the angular parameter, run to machine precision (an
    early residual stop would lose accuracy where the distance profile is
    flat).  The bracket is validated and a residual beyond tol raises.
    """
    zf = (float(z[0]), float(z[1]))
    xf = (float(x[0]), float(x[1]))
    if zf == (0.0, 0.0):
        raise ValueError("z must be non-zero")
    cross = zf[0] * xf[1] - zf[1] * xf[0]
    scale = max(plane.norm(zf) * plane.norm(xf), 1e-300)
    if abs(cross) <= 1e-14 * scale:
        return xf  # on the line: fixed point
    r = plane.norm(xf)
    target = plane.norm((xf[0] - zf[0], xf[1] - zf[1]))
    theta_z = math.atan2(zf[1], zf[0])
    sign = 1.0 if cross > 0 else -1.0
    # sweep the half-circle on the opposite side of the line from x
    lo, hi = 0.0, 1.0

    def dist(t):
        pt = _circle_point(theta_z - sign * t * math.pi, r, plane)
        return plane.norm((pt[0] - zf[0], pt[1] - zf[1])) - target

    flo, fhi = dist(lo), dist(hi)
    if not (flo < 0.0 < fhi):
        raise RuntimeError("z-reflection bracket failed; placement degenerate")
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if dist(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    if abs(dist(t)) > tol * max(1.0, target):
        raise RuntimeError("z-reflection did not converge")
    return _circle_point(theta_z - sign * t * math.pi, r, plane)


def cut_vertex_counterexample(
    G: Graph, placement: Placement, plane: NormedPlane
) -> Placement | None:
    """Negate one side of a cut vertex; the result is equivalent by symmetry.

    Returns None when G is 2-connected.  The placement is first translated
    so the cut vertex sits at the origin; x -> -x preserves all edge lengths
    within each side and through the cut vertex.
    """
    _check_size(G, placement)
    cut = first_cut_vertex(G)
    if cut is None:
        return None
    keep = _lowpoint_dfs(G, (cut,))[0][0] | {cut}
    px, py = placement.coords[cut]
    shifted = placement.translated(-px, -py)
    coords = tuple(
        (x, y) if v in keep else (-x, -y)
        for v, (x, y) in enumerate(shifted.coords)
    )
    return Placement(coords)


def framework_edge_lengths(G: Graph, placement: Placement, plane: NormedPlane):
    _check_size(G, placement)
    return {
        (u, v): plane.norm(
            (
                placement.coords[v][0] - placement.coords[u][0],
                placement.coords[v][1] - placement.coords[u][1],
            )
        )
        for u, v in G.sorted_edges()
    }


def equivalent_exactly(G: Graph, p: Placement, q: Placement, plane: NormedPlane) -> bool:
    """Edge-length equality; exact via p-th powers of coordinates when both
    placements are rational and p is an integer (including p = 2), else
    within 1e-12 relative.  Public as the acceptance suite's exact
    length check on equivalent frameworks."""
    _check_size(G, p, q)
    if p.exact and q.exact and plane.exactable:
        k = int(plane.p)
        for u, v in G.edges:
            du = (p.coords[v][0] - p.coords[u][0], p.coords[v][1] - p.coords[u][1])
            dv = (q.coords[v][0] - q.coords[u][0], q.coords[v][1] - q.coords[u][1])
            if abs(du[0]) ** k + abs(du[1]) ** k != abs(dv[0]) ** k + abs(dv[1]) ** k:
                return False
        return True
    lp = framework_edge_lengths(G, p, plane)
    lq = framework_edge_lengths(G, q, plane)
    return all(
        abs(lp[e] - lq[e]) <= 1e-12 * max(1.0, abs(lp[e])) for e in lp
    )


def is_congruent(
    p: Placement, q: Placement, plane: NormedPlane, tol: float = 1e-9
) -> bool:
    """Whether an isometry of the plane maps p onto q.

    Non-Euclidean planes: try each signed coordinate permutation with the
    translation pinned by the first vertex, comparing each coordinate
    exactly when both placements are rational and within tol otherwise.

    Euclidean: a best-fit orthogonal map plus translation, a documented
    heuristic with residual threshold tol times max(1, the largest
    centred coordinate of q).  The best translation moves the centroid
    of p onto that of q, so Pc and Qc are centred, and for an orthogonal
    R, ||Pc R^T - Qc||_F^2 = ||Pc||^2 + ||Qc||^2 - 2 tr(R^T M) with
    M = Qc^T Pc.  With the SVD M = U S V^T, tr(R^T U S V^T) =
    tr(S V^T R^T U) <= tr(S), as V^T R^T U is orthogonal and so has no
    diagonal entry above 1, with equality at R = U V^T (Schoenemann's
    orthogonal Procrustes solution).  So U V^T minimises the residual over
    every orthogonal map, rotations and reflections alike: it is the
    better of the two minimisers within the rotations and within the
    reflections, and no determinant needs fixing.  An exact congruence
    has residual 0, the least possible, so U V^T finds it in either
    coset; only a near-congruence whose smaller Frobenius residual is the
    one with the larger entry could tell the two fits apart.
    """
    if p.n != q.n:
        raise ValueError("placements must cover the same vertex set")
    if p.n == 0:
        return True
    if not plane.euclidean:
        close = eq if p.exact and q.exact else lambda s, t: abs(float(s) - float(t)) <= tol
        x0, y0 = p.coords[0]
        for (a, b), (c, d) in plane.isometry_linear_parts():
            tx = q.coords[0][0] - (a * x0 + b * y0)
            ty = q.coords[0][1] - (c * x0 + d * y0)
            if all(
                close(a * x + b * y + tx, qx) and close(c * x + d * y + ty, qy)
                for (x, y), (qx, qy) in zip(p.coords, q.coords)
            ):
                return True
        return False
    import numpy as np

    P = np.array([[float(x), float(y)] for x, y in p.coords])
    Q = np.array([[float(x), float(y)] for x, y in q.coords])
    Pc = P - P.mean(axis=0)
    Qc = Q - Q.mean(axis=0)
    scale = max(1.0, float(np.abs(Qc).max()))
    U, _, Vt = np.linalg.svd(Qc.T @ Pc)
    return float(np.abs(Pc @ (U @ Vt).T - Qc).max()) <= tol * scale
