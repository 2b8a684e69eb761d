"""Serialization: graph6 and edge-list graphs, placement files, move scripts.

graph6 follows the standard 63-offset byte encoding (upper triangle read
columnwise, six bits per byte); the long form for 63 <= n <= 258047 is
supported on both ends, the 8-byte form for larger n is refused, and the
data must be exactly the bytes n needs.
Edge lists are `n` on the first line then `u v`
lines, with 0 <= n <= MAX_VERTICES (258047, graph6's own limit) and each
edge listed once, in either orientation; blank lines and `#` comment lines
may stand anywhere.
Placements are one `v x y` line per vertex with rational `num/den` or
decimal coordinates.  Move scripts are a `base K5-|B1` header followed
by one `kind i j [k ...]` line per move.
"""

from __future__ import annotations

import math

from .geometry import Placement
from .graphs import Graph
from .moves import Move, MoveError
from .records import FrozenRecord


class FormatError(ValueError):
    """Malformed input; the message carries the position."""


# the most vertices either graph format holds: the end of graph6's long form.
# An edge-list header names n without listing the vertices, and every vertex
# costs an adjacency set, so a short header could otherwise ask for any memory.
MAX_VERTICES = 258047


# ---------------------------------------------------------------------------
# graph6


def _g6_size_bytes(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= MAX_VERTICES:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise FormatError("graph6: vertex count too large")


def emit_graph6(G: Graph) -> str:
    out = _g6_size_bytes(G.n)
    bits = []
    for v in range(1, G.n):
        for u in range(v):
            bits.append(1 if G.has_edge(u, v) else 0)
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6] + [0] * (6 - len(bits[i:i + 6]))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(val + 63)
    return "".join(chr(c) for c in out)


# the offsets of the set bits of a 6-bit graph6 data value, high bit first
_G6_SET_BITS = tuple(
    tuple(k for k in range(6) if val >> (5 - k) & 1) for val in range(64)
)


def parse_graph6(text: str) -> Graph:
    """Decode graph6; only the set bits of the data are visited.

    Bit i of the data (high bit of each byte first) is the pair (u, v),
    u < v, with i = v(v - 1)/2 + u, so v is the largest integer with
    v(v - 1)/2 <= i: v = (1 + isqrt(8i + 1)) // 2.  Padding bits past
    n(n - 1)/2 are ignored.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("graph6: empty input")
    data = [ord(ch) - 63 for ch in s]
    for pos, val in enumerate(data):
        if not 0 <= val <= 63:
            raise FormatError(f"graph6: invalid byte at position {pos}")
    if data[0] == 63:
        if len(data) > 1 and data[1] == 63:
            raise FormatError(
                f"graph6: the 8-byte size form '~~' names n above {MAX_VERTICES}, "
                "the most vertices a graph file holds"
            )
        if len(data) < 4:
            raise FormatError("graph6: truncated long-form size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6: expected {need} data bytes for n={n}, got {len(body)}"
        )
    edges = []
    for pos, val in enumerate(body):
        for k in _G6_SET_BITS[val]:
            i = 6 * pos + k
            if i >= total:
                break
            v = (1 + math.isqrt(8 * i + 1)) >> 1
            edges.append((i - v * (v - 1) // 2, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# edge lists


def emit_edgelist(G: Graph) -> str:
    lines = [str(G.n)]
    lines += [f"{u} {v}" for u, v in G.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    lines = [ln for ln in text.splitlines()]
    idx = 0
    # blank lines and '#' comments may precede the header, as they may follow it
    while idx < len(lines) and lines[idx].strip()[:1] in ("", "#"):
        idx += 1
    if idx == len(lines):
        raise FormatError("edgelist: empty input")
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise FormatError(f"edgelist: line {idx + 1}: expected vertex count")
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(
            f"edgelist: line {idx + 1}: vertex count {n} is outside 0..{MAX_VERTICES}"
        )
    edges = set()
    for ln_no in range(idx + 1, len(lines)):
        raw = lines[ln_no].strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"edgelist: line {ln_no + 1}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"edgelist: line {ln_no + 1}: non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise FormatError(f"edgelist: line {ln_no + 1}: bad edge ({u},{v})")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise FormatError(f"edgelist: line {ln_no + 1}: edge ({u},{v}) listed twice")
        edges.add(e)
    return Graph(n, frozenset(edges))


def parse_graph(text: str, format: str = "auto") -> Graph:
    if format == "graph6":
        return parse_graph6(text)
    if format == "edgelist":
        return parse_edgelist(text)
    if format == "auto":
        # '#' and '-' lie outside graph6's bytes 63..126, so a first line
        # starting with either is an edge list (a comment, a negative count)
        s = text.strip()
        first = s.splitlines()[0].strip() if s else ""
        if first.isdigit() or first[:1] in ("#", "-"):
            return parse_edgelist(text)
        return parse_graph6(text)
    raise FormatError(f"unknown graph format {format!r}")


def emit_graph(G: Graph, format: str = "edgelist") -> str:
    if format == "graph6":
        return emit_graph6(G) + "\n"
    if format == "edgelist":
        return emit_edgelist(G)
    raise FormatError(f"unknown graph format {format!r}")


# ---------------------------------------------------------------------------
# placements


def _frac_text(f) -> str:
    """A Fraction as `num` or `num/den`."""
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def emit_placement(pl: Placement) -> str:
    from fractions import Fraction

    lines = []
    for v, (x, y) in enumerate(pl.coords):
        if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
            lines.append(f"{v} {_frac_text(Fraction(x))} {_frac_text(Fraction(y))}")
        else:
            lines.append(f"{v} {float(x)!r} {float(y)!r}")
    return "\n".join(lines) + "\n"


def _parse_coord(tok: str, where: str, Fraction):
    """One coordinate: a Fraction for `num/den` or an integer, else a
    finite float.  `Fraction` is passed in, imported once per file."""
    if "/" in tok:
        num, _, den = tok.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"{where}: bad rational {tok!r}")
    try:
        if not ("." in tok or "e" in tok or "E" in tok):
            return Fraction(int(tok))
        value = float(tok)
    except ValueError:
        raise FormatError(f"{where}: bad coordinate {tok!r}")
    if not math.isfinite(value):
        raise FormatError(f"{where}: non-finite coordinate {tok!r}")
    return value


def parse_placement(text: str) -> Placement:
    from fractions import Fraction

    entries = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) != 3:
            raise FormatError(f"placement: line {ln_no}: expected 'v x y'")
        try:
            v = int(parts[0])
        except ValueError:
            raise FormatError(f"placement: line {ln_no}: bad vertex {parts[0]!r}")
        x = _parse_coord(parts[1], f"placement: line {ln_no}", Fraction)
        y = _parse_coord(parts[2], f"placement: line {ln_no}", Fraction)
        if v in entries:
            raise FormatError(f"placement: line {ln_no}: vertex {v} listed twice")
        entries[v] = (x, y)
    if not entries or sorted(entries) != list(range(len(entries))):
        raise FormatError("placement: vertices must be exactly 0..n-1")
    return Placement(tuple(entries[v] for v in range(len(entries))))


# ---------------------------------------------------------------------------
# certificates


def edge_set_text(edges) -> str:
    """Sorted edge list on one line, the certificate wire format."""
    return " ".join(f"{u}-{v}" for u, v in sorted(edges))


def ear_decomposition_text(ed) -> str:
    """One line per ear circuit, each a sorted edge list."""
    lines = [
        f"ear.{i}: {edge_set_text(circ)}"
        for i, circ in enumerate(ed.circuits, start=1)
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# move scripts


class MoveScript(FrozenRecord):
    """A base graph name and the forward moves that grow it."""

    _fields = ("base", "moves")

    def __init__(self, base: str, moves: tuple[Move, ...]):
        self.__dict__.update(base=base, moves=moves)


def emit_move_script(script: MoveScript) -> str:
    lines = [f"base {script.base}"]
    for mv in script.moves:
        lines.append(mv.kind + "".join(f" {x}" for x in mv.params))
    return "\n".join(lines) + "\n"


def parse_move_script(text: str) -> MoveScript:
    base = None
    moves = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if base is None:
            if parts[0] != "base" or len(parts) != 2:
                raise FormatError(f"script: line {ln_no}: expected 'base K5-|B1'")
            if parts[1] not in ("K5-", "B1"):
                raise FormatError(f"script: line {ln_no}: unknown base {parts[1]!r}")
            base = parts[1]
            continue
        try:
            params = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise FormatError(f"script: line {ln_no}: non-integer parameter")
        try:  # Move checks the kind and the parameter count
            moves.append(Move(parts[0], params))
        except MoveError as exc:
            raise FormatError(f"script: line {ln_no}: {exc}")
    if base is None:
        raise FormatError("script: missing 'base' header")
    return MoveScript(base, tuple(moves))
