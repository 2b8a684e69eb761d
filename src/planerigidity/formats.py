"""Serialization: graph6 and edge-list graphs, placement files, move scripts.

graph6 follows the standard 63-offset byte encoding (upper triangle read
columnwise, six bits per byte); the long form for 63 <= n <= 258047 is
supported on both ends, the 8-byte form for larger n is refused, and the
data must be exactly the bytes n needs.
Edge lists are `n` on the first line then `u v`
lines, with 0 <= n <= MAX_VERTICES (258047, graph6's own limit) and each
edge listed once, in either orientation.
Placements are one `v x y` line per vertex with rational `num/den` or
decimal coordinates.  Move scripts are a `base K5-|B1` header followed
by one `kind i j [k ...]` line per move.
The three text formats read their lines by one rule (`_lines`): each
line is stripped, blank lines and `#` comment lines may stand anywhere
and are skipped, and errors count lines from 1 over the whole text.
Every integer in these three text formats (counts, endpoints, vertices,
the parts of a rational or integer coordinate, move parameters) is an
optional '-' followed by ASCII digits, and a decimal coordinate is ASCII
without '_'.
"""

from __future__ import annotations

import math
import re

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


def _lines(text: str):
    """(line number from 1, stripped line) for each line of `text` that is
    neither blank nor a `#` comment: the line rule of the text formats."""
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            yield ln_no, s


def _int(tok: str) -> int:
    """An integer as all three text formats write it: an optional '-' and
    ASCII digits.  ValueError otherwise.  `tok` is a token of a split or
    stripped line, so it has no whitespace at either end, and on such a
    token `int` takes exactly that form once '+', '_' (between digits) and
    non-ASCII characters (other scripts' digits) are refused."""
    if "+" in tok or "_" in tok or not tok.isascii():
        raise ValueError(f"not an integer: {tok!r}")
    return int(tok)


# ---------------------------------------------------------------------------
# graph6


def _g6_size_bytes(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= MAX_VERTICES:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise FormatError("graph6: vertex count too large")


def emit_graph6(G: Graph) -> str:
    """Encode graph6 in one pass over the edges: the edge (u, v), u < v,
    sets bit i = v(v - 1)/2 + u of a zeroed data list (high bit of each
    byte first), the index `parse_graph6` reads, and the padding bits past
    n(n - 1)/2 stay zero."""
    out = _g6_size_bytes(G.n)
    data = [0] * ((G.n * (G.n - 1) // 2 + 5) // 6)
    for u, v in G.edges:
        i = v * (v - 1) // 2 + u
        data[i // 6] |= 32 >> i % 6
    return "".join(chr(c) for c in out) + "".join(chr(val + 63) for val in data)


# the offsets of the set bits of a 6-bit graph6 data value, high bit first
_G6_SET_BITS = tuple(
    tuple(k for k in range(6) if val >> (5 - k) & 1) for val in range(64)
)


# the first byte outside graph6's range '?'..'~' (63..126), and the data
# bytes that hold a set bit: every byte but '?'
_G6_INVALID = re.compile("[^?-~]")
_G6_NONZERO = re.compile("[^?]")


def parse_graph6(text: str) -> Graph:
    """Decode graph6 at the cost of its set bits: one pattern search finds
    the first invalid byte, and the decode visits only the data bytes that
    are not '?' (value 0), found at C speed.

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
    bad = _G6_INVALID.search(s)
    if bad:
        raise FormatError(f"graph6: invalid byte at position {bad.start()}")
    head = 1
    n = ord(s[0]) - 63
    if n == 63:
        if s[1:2] == "~":
            raise FormatError(
                f"graph6: the 8-byte size form '~~' names n above {MAX_VERTICES}, "
                "the most vertices a graph file holds"
            )
        if len(s) < 4:
            raise FormatError("graph6: truncated long-form size")
        head = 4
        n = (ord(s[1]) - 63 << 12) | (ord(s[2]) - 63 << 6) | ord(s[3]) - 63
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(s) - head != need:
        raise FormatError(
            f"graph6: expected {need} data bytes for n={n}, got {len(s) - head}"
        )
    edges = []
    for byte in _G6_NONZERO.finditer(s, head):
        pos = byte.start() - head
        for k in _G6_SET_BITS[ord(byte.group()) - 63]:
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
    lines = _lines(text)
    ln_no, header = next(lines, (0, None))
    if header is None:
        raise FormatError("edgelist: empty input")
    try:
        n = _int(header)
    except ValueError:
        raise FormatError(f"edgelist: line {ln_no}: expected vertex count")
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(
            f"edgelist: line {ln_no}: vertex count {n} is outside 0..{MAX_VERTICES}"
        )
    edges = set()
    for ln_no, s in lines:
        parts = s.split()
        if len(parts) != 2:
            raise FormatError(f"edgelist: line {ln_no}: expected 'u v'")
        try:
            u, v = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise FormatError(f"edgelist: line {ln_no}: non-integer endpoint")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise FormatError(f"edgelist: line {ln_no}: bad edge ({u},{v})")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise FormatError(f"edgelist: line {ln_no}: edge ({u},{v}) listed twice")
        edges.add(e)
    return Graph(n, frozenset(edges))


def parse_graph(text: str, format: str = "auto") -> Graph:
    if format == "graph6":
        return parse_graph6(text)
    if format == "edgelist":
        return parse_edgelist(text)
    if format == "auto":
        # ASCII digits, '#' and '-' lie outside graph6's bytes 63..126, so
        # a first line of digits or starting with '#' or '-' is an edge
        # list (a count, a comment, a negative count)
        s = text.strip()
        first = s.splitlines()[0].strip() if s else ""
        if first.isascii() and first.isdigit() or first[:1] in ("#", "-"):
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
    """One coordinate: a Fraction for `num/den` or an integer (each part
    read by `_int`), else a finite float written in ASCII without '_'.
    `Fraction` is passed in, imported once per file."""
    if "/" in tok:
        num, _, den = tok.partition("/")
        try:
            return Fraction(_int(num), _int(den))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"{where}: bad rational {tok!r}")
    try:
        if not ("." in tok or "e" in tok or "E" in tok):
            return Fraction(_int(tok))
        if not tok.isascii() or "_" in tok:
            raise ValueError(tok)
        value = float(tok)
    except ValueError:
        raise FormatError(f"{where}: bad coordinate {tok!r}")
    if not math.isfinite(value):
        raise FormatError(f"{where}: non-finite coordinate {tok!r}")
    return value


def parse_placement(text: str) -> Placement:
    from fractions import Fraction

    entries = {}
    for ln_no, s in _lines(text):
        parts = s.split()
        if len(parts) != 3:
            raise FormatError(f"placement: line {ln_no}: expected 'v x y'")
        try:
            v = _int(parts[0])
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
    for ln_no, s in _lines(text):
        parts = s.split()
        if base is None:
            if parts[0] != "base" or len(parts) != 2:
                raise FormatError(f"script: line {ln_no}: expected 'base K5-|B1'")
            if parts[1] not in ("K5-", "B1"):
                raise FormatError(f"script: line {ln_no}: unknown base {parts[1]!r}")
            base = parts[1]
            continue
        try:
            params = tuple(_int(x) for x in parts[1:])
        except ValueError:
            raise FormatError(f"script: line {ln_no}: non-integer parameter")
        try:  # Move checks the kind and the parameter count
            moves.append(Move(parts[0], params))
        except MoveError as exc:
            raise FormatError(f"script: line {ln_no}: {exc}")
    if base is None:
        raise FormatError("script: missing 'base' header")
    return MoveScript(base, tuple(moves))
