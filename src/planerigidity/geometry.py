"""lp-plane geometry: support functionals, the rigidity operator and its
rank, rigidity predicates, reflections and counterexample placements.

Exponents p with 1 < p < infinity keep the plane smooth and strictly
convex.  The operator is built row-scaled, with entries
sign(d_i) |d_i|^(p-1).  For an even integer p and a rational placement
its rows are Python ints by default, and on request at an odd integer p
too (`rigidity_operator`), built once with one common denominator
cleared, and capped at EXACT_ENTRY_BITS bits per entry.  Their rank is
split at the blocks of the graph (its
maximal 2-connected subgraphs and its bridges): ranks add over a 1-sum,
as a translation, which lies in every kernel, matches two flexes at the
shared vertex.  A block's rank is certified by one sparse Gauss-Jordan
elimination modulo the prime 2^30 - 35 whenever its modular rank reaches
its bound min(m, 2n - f), f the plane's trivial flex dimension (3
Euclidean, 2 otherwise); a lower modular rank falls back to
fraction-free (Bareiss) elimination of that block over the integers.
2^30 - 35 is the largest prime below 2^30, so every residue is a single
30-bit digit of a Python int.  Every other entry is the float sign(x_i) |x_i|^(p-1), x the edge
difference rounded to floats once (for a rational placement, from the
same integer differences), and its rank uses numpy SVD with a relative
tolerance.  A float row is refused when an entry is not finite or its
larger entry is below the smallest normal float.

The same eliminations give the self-stresses (the left kernel), and a row
can be deleted without losing rank iff some self-stress is nonzero on it.
So `deletion_ranks` answers the rank of the operator and of the operator
minus each row from those eliminations (exact mode) or one SVD (float
mode): a row of a block of full row rank is a coloop, and only the rows
that the modular answer cannot settle are eliminated again, each one
within its own block.
"""

from __future__ import annotations

import math
import random
import sys
from functools import cached_property
from operator import eq, itemgetter

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
    """|E| x 2n matrix of row-scaled support functionals of edge vectors.

    Row order is the sorted edge list.  For the row of edge (u, v) with
    u < v and d = p_v - p_u, the support functional of d times |d|^(p-2),
    that is (sign(d_i) |d_i|^(p-1))_i, lands in v's columns and its
    negative in u's columns, so uniform translations are always in the
    kernel.  Positive row scalings change neither the rank of any set of
    rows nor which rows a self-stress is nonzero on.

    `exact` is set when the rows are exact (see `rigidity_operator`, which
    needs an integer p and a rational placement for them).  The entries
    are then Python ints: every coordinate is multiplied by D,
    the lcm of all coordinate denominators, so every row is the rational
    one times the same D^(p-1), and one elimination per block of these
    rows gives the rank, the stressed rows and the coloops
    (`_exact_blocks`).  An entry may have at most EXACT_ENTRY_BITS bits,
    so an even p such as 1e20 is refused.
    Otherwise the entries are floats.  `trivial_flex_dim` is that of the
    plane it was built in (2 unless set); it bounds the rank by
    2n - trivial_flex_dim.
    """

    _fields = ("matrix", "edges", "n", "exact", "trivial_flex_dim")

    def __init__(
        self, matrix: tuple[tuple, ...], edges: tuple[Edge, ...], n: int, exact: bool,
        trivial_flex_dim: int = 2,
    ):
        self.__dict__.update(
            matrix=matrix, edges=edges, n=n, exact=exact, trivial_flex_dim=trivial_flex_dim
        )

    @property
    def shape(self):
        return (len(self.matrix), 2 * self.n)

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
        The array is built once per operator and handed out read-only."""
        return self._float_array

    @cached_property
    def _float_array(self):
        import numpy as np

        try:
            A = np.array(self.matrix, dtype=float)
        except OverflowError:
            raise ValueError("operator entries out of floating-point range") from None
        if A.size:
            A = A / np.abs(A).max(axis=1, keepdims=True)
        A.setflags(write=False)
        return A

    def apply(self, vector):
        """Apply to a velocity assignment given as a flat length-2n vector."""
        return tuple(
            sum(row[i] * vector[i] for i in range(2 * self.n))
            for row in self.matrix
        )


# exact entries are capped at this many bits: the Bareiss fallback grows
# with the entry size (one rank of a 40 x 40 rank-deficient operator took
# 2 s at 2000 bits and 8 s at 4000 on a 2-core Xeon), and an even p such
# as 1e20 would never finish building its rows
EXACT_ENTRY_BITS = 1 << 12


def rigidity_operator(
    G: Graph, placement: Placement, plane: NormedPlane, exact: bool | None = None
) -> RigidityOperator:
    """The row-scaled operator (see `RigidityOperator`); exact entries past
    EXACT_ENTRY_BITS bits and float rows out of range raise ValueError.

    `exact` picks the rows.  True builds integer rows, and raises
    ValueError unless p is an integer and the placement rational; False
    builds float rows.  None, the default, builds integer rows at an even
    integer p with a rational placement and float rows otherwise: at an
    odd p the float rank is the cheaper one, and `certify` rechecks
    with integer rows any float answer that disagrees with the
    combinatorial verdict.

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
    if placement.n != G.n:
        raise ValueError("placement size does not match the graph")
    rows = []
    edges = tuple(G.sorted_edges())
    coords, D = placement.coords, 1
    rational = placement.exact
    if exact is None:
        exact = rational and plane.exactable and int(plane.p) % 2 == 0
    elif exact and not (rational and plane.exactable):
        raise ValueError("exact rank needs an integer p and a rational placement; use float mode")
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
        row = [0] * (2 * G.n)
        row[2 * u], row[2 * u + 1] = -phi[0], -phi[1]
        row[2 * v], row[2 * v + 1] = phi[0], phi[1]
        rows.append(tuple(row))
    op = RigidityOperator(tuple(rows), edges, G.n, exact, plane.trivial_flex_dim)
    op.__dict__["_graph"] = G  # filled as the cached property fills it
    return op


# ---------------------------------------------------------------------------
# rank

# 2^30 - 35, the largest prime below 2^30: every residue is one 30-bit
# digit of a Python int, which keeps the elimination's arithmetic cheap.  Any
# prime gives exact answers (see _exact_blocks); a small one only falls back
# to Bareiss more often.  perfbench/reference.py checks ranks modulo
# 2^31 - 1, so the program and its checker cannot share a prime's blind spot
_PRIME = (1 << 30) - 35


def _bareiss_rank(rows) -> int:
    """Rank of integer rows by fraction-free elimination in Python bigints."""
    mat = [list(row) for row in rows]
    m = len(mat)
    cols = len(mat[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, m):
            for j in range(c + 1, cols):
                mat[i][j] = (mat[r][c] * mat[i][j] - mat[i][c] * mat[r][j]) // prev
            mat[i][c] = 0
        prev = mat[r][c]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def _modular_profile(rows, cols: int) -> tuple[int, frozenset[int]]:
    """Rank of an integer matrix modulo _PRIME, and its stressed rows.

    Gauss-Jordan on the transpose: its columns are the rows of the matrix,
    and each free column j gives the self-stress e_j - sum_k R[k][j] e_pk
    (pk the pivot column of reduced row k).  These stresses span the left
    kernel mod p, so a free column is always stressed and a pivot column
    pk is stressed iff R[k] is nonzero on some free column.  A row is
    stressed iff deleting it keeps the rank mod p.

    The transpose is kept sparse: row c of it is a dict {row index:
    residue} of column c's nonzeros.  Each pivot updates only the rows
    that hold its column, and only at the pivot row's keys, and a residue
    that cancels is removed.  The rank mod p and the stressed rows do not
    depend on which row holding column j becomes its pivot, so the
    shortest unused one is taken, which keeps the fill-in small.  After
    the last pivot every pivot column is zero outside its own pivot row,
    so a pivot row's keys are its pivot column and free columns only: pk
    is stressed iff R[k] has more than one key.
    """
    P = _PRIME
    m = len(rows)
    T = [{} for _ in range(cols)]
    for j, row in enumerate(rows):
        for c, a in enumerate(row):
            a %= P
            if a:
                T[c][j] = a
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
        inv = pow(prow[j], -1, P)
        items = [(key, b * inv % P) for key, b in prow.items()]
        prow.update(items)
        for i in holders:
            if i != k:
                row = T[i]
                f = row[j]
                for key, b in items:
                    # f * b is nonzero mod p, so a cancelled key was present
                    x = (row.get(key, 0) - f * b) % P
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


def _exact_blocks(
    op: RigidityOperator,
) -> list[tuple[list[int], list[int], int, frozenset[int]]]:
    """The blocks of an integer operator: for each, its vertices, its row
    indices, its exact rank and the positions (in its row list) of the rows
    known to be stressed.

    The operator is split at the blocks of its edge graph
    (`RigidityOperator._graph`, from that graph's cached lowpoint DFS):
    its maximal 2-connected subgraphs and its bridges.  The row of edge uv
    is nonzero only in the columns of u and v (see `RigidityOperator`).
    Ranks add over a 1-sum, over any field: let
    G be the union of G1 and G2, which share at most one vertex c.  A
    velocity field is a flex (kernel vector) of G iff its restrictions z1,
    z2 are flexes of G1 and G2.  Any such pair glues once z1(c) = z2(c),
    and subtracting from z2 the translation by z2(c) - z1(c), a flex of
    every row, meets those two conditions.  So they are independent,
    dim ker G = dim ker G1 + dim ker G2 - 2 with 2n = 2n1 + 2n2 - 2, and
    rank G = rank G1 + rank G2 (with no shared vertex the columns are
    disjoint, and the same holds).  The self-stresses of G1 and G2 are
    self-stresses of G, independent, and m - rank G of them, so they span
    all of them.  Splitting off one leaf block after another: the rank is
    the sum over the blocks, a row is stressed iff it is in its block B
    alone, and if B has full row rank m_B, each of its rows is a coloop
    (deleting it drops the rank by one).  A bridge is the case m_B = 1,
    as its row is nonzero (the endpoints differ).

    Each block B (m_B rows on n_B vertices) is eliminated alone, modulo
    p = _PRIME (`_modular_profile`), on its own columns.
    rank_p <= rank_Q, since a nonzero minor mod p is a nonzero integer
    minor; and rank_Q <= min(m_B, 2n_B - f), with f the operator's
    `trivial_flex_dim`.  The two translations of B always lie in its
    kernel (f = 2).  In the Euclidean plane (f = 3) so does the rotation
    field v_i = (-y_i, x_i): the row of edge uv is d = p_v - p_u, and
    d . (J p_v - J p_u) = d . J d = 0.  It is not a translation, because
    the endpoints of an edge never coincide.  So a modular rank that
    reaches min(m_B, 2n_B - f) is the exact rank of B; a lower one is
    recomputed by fraction-free elimination (`_bareiss_rank`) of B alone.
    Whenever rank_p equals B's exact rank r, a row stressed mod p keeps
    it, since r >= rank_Q(B - row) >= rank_p(B - row) = r; otherwise no
    row of B is known to be stressed.  None of this depends on which prime
    p is, so p is 2^30 - 35, the largest prime below 2^30, for speed: every
    residue is one 30-bit Python digit.  A smaller prime can only make the
    fallback run more often, never change an answer.

    Edges are assigned to blocks in O(n + m).  Every vertex v but a DFS
    root follows the head of exactly one block, own(v), the block of the
    tree edge above v.  One end of an edge uv is an ancestor of the other
    (a DFS leaves no cross edges), and the edge lies in the block of the
    tree edge above the lower end.  So it lies in own(v) if u heads that
    block, and otherwise in own(u): u is then the lower end, or u follows
    the head of own(v), and own(u) = own(v).
    """
    if not op.exact:
        raise ValueError(
            "exact rank needs integer rows: an integer p, a rational placement and, at odd p,"
            " rigidity_operator(..., exact=True); use float mode"
        )
    blocks = op._graph._lowpoint_dfs[2]
    own = {v: b for b, block in enumerate(blocks) for v in block[1:]}
    block_rows = [[] for _ in blocks]
    for i, (u, v) in enumerate(op.edges):
        b = own.get(v)
        block_rows[b if b is not None and blocks[b][0] == u else own[u]].append(i)
    out = []
    for block, rows in zip(blocks, block_rows):
        pick = itemgetter(*(c for v in block for c in (2 * v, 2 * v + 1)))
        sub = [pick(op.matrix[i]) for i in rows]
        cols = 2 * len(block)
        rank_p, sub_stressed = _modular_profile(sub, cols)
        rank_q = rank_p
        if rank_p < min(len(rows), cols - op.trivial_flex_dim):
            rank_q = _bareiss_rank(sub)
        out.append((block, rows, rank_q, sub_stressed if rank_q == rank_p else frozenset()))
    return out


def _check_tol(tol: float) -> None:
    """A relative tolerance must be finite and strictly between 0 and 1:
    NaN or tol >= 1 counts no singular value above tol times the largest,
    and tol <= 0 counts rounding noise too, so none of them gives a rank."""
    if not (math.isfinite(tol) and 0 < tol < 1):
        raise ValueError(f"tol = {tol!r}: needs a finite tolerance with 0 < tol < 1")


def rank_of(op: RigidityOperator, mode: str = "exact", tol: float = 1e-9) -> int:
    """Rank of the operator; exact (the sum of the block ranks of
    `_exact_blocks`) or SVD.

    Exact mode requires an exact operator (integer rows, see
    `rigidity_operator`).  Float mode counts the singular values of
    `as_array` above tol times the largest, which is at least 1, as every
    row holds an entry ±1.  Raises ValueError unless 0 < tol < 1 (finite).
    """
    _check_tol(tol)
    if not op.matrix:
        return 0
    if mode == "exact":
        return sum(rank_b for _, _, rank_b, _ in _exact_blocks(op))
    if mode == "float":
        import numpy as np

        sv = np.linalg.svd(op.as_array(), compute_uv=False)
        return int(np.sum(sv > tol * sv[0]))
    raise ValueError(f"unknown rank mode {mode!r}")


def deletion_ranks(
    op: RigidityOperator, mode: str = "exact", tol: float = 1e-9
) -> tuple[int, tuple[int, ...]]:
    """The rank of the operator and the rank with each row deleted.

    Deleting row i keeps the rank r iff some self-stress (left-kernel
    vector) is nonzero on it; otherwise the rank drops to r - 1.  When
    r = m the rows are independent and every deletion rank is m - 1 (in
    float mode too: the singular values of A - row interlace those of A,
    so its m - 1 largest stay above tol times its largest).

    Exact mode reads the blocks of `_exact_blocks`: a stressed row keeps
    the rank, and a coloop, a row of a block of full row rank (a bridge,
    say), drops it by one.  Any other row i lies in a dependent block B,
    and only B - row i is ranked again, by `rank_of` on its rows alone
    (`_rank_without`): the rank without row i is r - rank B + rank(B - i).
    Deleting an edge of B leaves the graph's other blocks blocks of G - e
    and splits B into the blocks of B - e, any two of all these sharing
    at most one vertex; so the 1-sum additivity of `_exact_blocks` gives
    the formula, and `rank_of` on B - row i splits it at exactly the
    blocks of B - e, each under its own bound min(m_C, 2n_C - f).  That is
    the split of the whole operator without row i, less the blocks the row
    never touched: Bareiss runs on the same blocks, and no untouched block
    is eliminated again.

    Float mode takes the rank from `rank_of` and runs one full SVD of the
    same row-scaled array DA (`RigidityOperator.as_array`; a self-stress w
    of A is the self-stress D^-1 w of DA): row i counts as stressed iff row
    i of U[:, r:], the left singular vectors beyond the rank, has norm
    above tol.  Raises ValueError unless 0 < tol < 1, as rank_of does.
    """
    _check_tol(tol)
    m = len(op.matrix)
    if mode == "exact":
        blocks = _exact_blocks(op)
        rank = sum(rank_b for _, _, rank_b, _ in blocks)
    else:
        rank = rank_of(op, mode, tol)
    if rank == m:
        return rank, (rank - 1,) * m
    if mode == "float":
        import numpy as np

        U = np.linalg.svd(op.as_array())[0]
        weight = np.linalg.norm(U[:, rank:], axis=1)
        return rank, tuple(rank if w > tol else rank - 1 for w in weight)
    ranks = [rank - 1] * m
    for block, rows, rank_b, known in blocks:
        if rank_b == len(rows):
            continue
        for j, i in enumerate(rows):
            ranks[i] = rank if j in known else (
                rank - rank_b + _rank_without(op, block, rows, j)
            )
    return rank, tuple(ranks)


def _rank_without(op: RigidityOperator, block, rows, j: int) -> int:
    """The exact rank of the block B of the operator with the row list
    `rows`, without its row j: `rank_of` on those rows alone, on B's
    vertices relabelled in increasing order, so the rows stay those of
    sorted edges with u < v (see `deletion_ranks`)."""
    verts = sorted(block)
    index = {v: k for k, v in enumerate(verts)}
    pick = itemgetter(*(c for v in verts for c in (2 * v, 2 * v + 1)))
    rest = rows[:j] + rows[j + 1:]
    return rank_of(RigidityOperator(
        tuple(pick(op.matrix[i]) for i in rest),
        tuple((index[u], index[v]) for u, v in map(op.edges.__getitem__, rest)),
        len(verts), op.exact, op.trivial_flex_dim,
    ))


def is_inf_rigid(
    G: Graph, placement: Placement, plane: NormedPlane,
    mode: str | None = None, tol: float = 1e-9,
) -> bool:
    """Rank test for infinitesimal rigidity: 2n-3 Euclidean, 2n-2 otherwise."""
    if G.n < 2:
        raise ValueError("needs at least two vertices")
    op = rigidity_operator(G, placement, plane, exact=mode == "exact" or None)
    mode = mode or ("exact" if op.exact else "float")
    return rank_of(op, mode, tol) == 2 * G.n - plane.trivial_flex_dim


def is_redundantly_rigid(
    G: Graph, placement: Placement, plane: NormedPlane,
    mode: str | None = None, tol: float = 1e-9,
) -> bool:
    """Whether every single-edge-deleted framework stays infinitesimally rigid."""
    if G.n < 2 or G.m < 1:
        raise ValueError("needs at least two vertices and one edge")
    target = 2 * G.n - plane.trivial_flex_dim
    op = rigidity_operator(G, placement, plane, exact=mode == "exact" or None)
    _, ranks = deletion_ranks(op, mode or ("exact" if op.exact else "float"), tol)
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
    Euclidean: best-fit rotation or reflection plus translation, a
    documented heuristic with residual threshold tol.
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
    # Euclidean: orthogonal Procrustes over the rotation and reflection cosets
    import numpy as np

    P = np.array([[float(x), float(y)] for x, y in p.coords])
    Q = np.array([[float(x), float(y)] for x, y in q.coords])
    Pc = P - P.mean(axis=0)
    Qc = Q - Q.mean(axis=0)
    scale = max(1.0, float(np.abs(Qc).max()))
    for reflect in (False, True):
        Pr = Pc.copy()
        if reflect:
            Pr[:, 1] = -Pr[:, 1]
        M = Qc.T @ Pr
        U, _, Vt = np.linalg.svd(M)
        R = U @ Vt
        if np.linalg.det(R) < 0:
            U[:, -1] = -U[:, -1]
            R = U @ Vt
        if float(np.abs(Pr @ R.T - Qc).max()) <= tol * scale:
            return True
    return False
