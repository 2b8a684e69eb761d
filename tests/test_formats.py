import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planerigidity import catalog as cat
from planerigidity.formats import (
    MAX_VERTICES,
    FormatError,
    MoveScript,
    emit_edgelist,
    emit_graph6,
    emit_move_script,
    emit_placement,
    parse_edgelist,
    parse_graph,
    parse_graph6,
    parse_move_script,
    parse_placement,
)
from planerigidity.geometry import Placement
from planerigidity.graphs import Graph
from planerigidity.moves import Move
from planerigidity.randomgraphs import gnp_graph


class TestGraph6:
    def test_k4_is_c_tilde(self):
        assert emit_graph6(cat.complete_graph(4)) == "C~"
        assert parse_graph6("C~").edges == cat.complete_graph(4).edges

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<C~").n == 4

    def test_roundtrip_corpus(self):
        rng = random.Random(3)
        for i in range(100):
            n = rng.randint(1, 14)
            G = gnp_graph(n, rng.random(), rng.randrange(2**32))
            assert parse_graph6(emit_graph6(G)) == G

    def test_long_form(self):
        G = gnp_graph(70, 0.1, 5)
        s = emit_graph6(G)
        assert ord(s[0]) - 63 == 63  # long-form marker
        assert parse_graph6(s) == G

    def test_malformed_reports_position(self):
        with pytest.raises(FormatError, match="position"):
            parse_graph6("C\x01")
        with pytest.raises(FormatError, match="data bytes"):
            parse_graph6("I")  # claims n=10 with no body

    def test_padding_bits_are_ignored(self):
        # n = 2 holds one pair; the five padding bits of '~' are set
        assert parse_graph6("A~") == cat.complete_graph(2)

    def test_trailing_data_bytes_rejected(self):
        with pytest.raises(FormatError, match="expected 1 data bytes for n=4, got 4"):
            parse_graph6("C~~~~")
        with pytest.raises(FormatError, match="expected 1 data bytes for n=4, got 2"):
            parse_graph6(">>graph6<<C~?\n")
        G = gnp_graph(70, 0.1, 5)
        with pytest.raises(FormatError, match="data bytes for n=70"):
            parse_graph6(emit_graph6(G) + "?")

    def test_eight_byte_size_form_refused(self):
        # '~~' starts the size form for n > 258047; it used to be read as
        # the 4-byte form, and n = 258048 then asked for 5.5e9 data bytes
        msg = (
            "^graph6: the 8-byte size form '~~' names n above 258047, "
            "the most vertices a graph file holds$"
        )
        for text in ("~~??????", "~~", ">>graph6<<~~?????B"):
            with pytest.raises(FormatError, match=msg):
                parse_graph6(text)
        with pytest.raises(FormatError, match="truncated long-form size"):
            parse_graph6("~}")

    def test_size_form_boundary(self):
        for n in (62, 63):
            for G in (Graph.from_edges(n, []), cat.complete_graph(n)):
                s = emit_graph6(G)
                assert len(s) == (1 if n == 62 else 4) + (n * (n - 1) // 2 + 5) // 6
                assert parse_graph6(s) == G

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_both_size_forms(self, data):
        # 62 is the last one-byte size and 63 the first long form
        n = data.draw(st.one_of(st.integers(0, 70), st.sampled_from([62, 63])))
        density = data.draw(st.floats(0, 1))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        G = Graph.from_edges(n, [e for e in pairs if rng.random() < density])
        assert parse_graph6(emit_graph6(G)) == G


class TestEdgelist:
    def test_path(self):
        G = parse_edgelist("3\n0 1\n1 2\n")
        assert G.n == 3 and G.edges == {(0, 1), (1, 2)}

    def test_roundtrip(self):
        for G in [cat.b1(), cat.b2(), cat.complete_bipartite(3, 6)]:
            assert parse_edgelist(emit_edgelist(G)) == G

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edgelist("3\n0 9\n")
        with pytest.raises(FormatError, match="line 3"):
            parse_edgelist("3\n0 1\nbad line\n")

    def test_repeated_edge_names_its_line(self):
        # a repeat used to be merged into one edge, in either orientation
        with pytest.raises(FormatError, match=r"^edgelist: line 3: edge \(1,0\) listed twice$"):
            parse_edgelist("5\n0 1\n1 0\n")
        with pytest.raises(FormatError, match=r"^edgelist: line 5: edge \(1,2\) listed twice$"):
            parse_edgelist("# c\n3\n1 2\n\n1 2\n")

    def test_auto_detection(self):
        assert parse_graph("3\n0 1\n1 2\n").n == 3
        assert parse_graph("C~").n == 4


class TestPlacement:
    def test_rational_roundtrip(self):
        pl = Placement((
            (Fraction(1, 3), Fraction(-2, 7)),
            (Fraction(5), Fraction(0)),
        ))
        text = emit_placement(pl)
        assert parse_placement(text) == pl

    def test_float_accepted(self):
        pl = parse_placement("0 1.5 -2.25\n1 0.0 3.0\n")
        assert pl.coords[0] == (1.5, -2.25)

    def test_float_coordinates_emitted_as_floats(self):
        # a vertex with a float coordinate is written with both as floats
        pl = Placement(((0.5, -1.25), (Fraction(1, 4), 2.0), (Fraction(1, 3), Fraction(2))))
        assert emit_placement(pl) == "0 0.5 -1.25\n1 0.25 2.0\n2 1/3 2\n"
        assert parse_placement(emit_placement(pl)) == pl

    def test_requires_dense_vertices(self):
        with pytest.raises(FormatError):
            parse_placement("0 1 2\n2 3 4\n")

    def test_repeated_vertex_names_its_line(self):
        with pytest.raises(FormatError, match="^placement: line 2: vertex 0 listed twice$"):
            parse_placement("0 1 2\n0 3 4\n1 5 6\n")
        # a repeat that also leaves a vertex out is named as the repeat
        with pytest.raises(FormatError, match="^placement: line 4: vertex 2 listed twice$"):
            parse_placement("0 0 0\n# comment\n2 1 0\n2 0 1\n")


class TestMoveScript:
    def test_roundtrip(self):
        script = MoveScript(
            "K5-",
            (
                Move("k4minus-extension", (0, 1)),
                Move("generalized-vertex-split", (2, 0, 1, 3)),
                Move("edge-addition", (0, 4)),
            ),
        )
        text = emit_move_script(script)
        assert parse_move_script(text) == script
        # whitespace normalisation
        assert parse_move_script(text.replace(" ", "  ")) == script

    def test_bad_header(self):
        with pytest.raises(FormatError, match="base"):
            parse_move_script("k4minus-extension 0 1\n")
        with pytest.raises(FormatError, match="unknown base"):
            parse_move_script("base K7\n")

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown move kind"):
            parse_move_script("base B1\nfrobnicate 1 2\n")

    def test_blank_and_comment_lines_inside(self):
        text = "# grown from K5-\n\nbase K5-\n  \n# a move\nedge-addition 0 4\n\n"
        assert parse_move_script(text) == MoveScript("K5-", (Move("edge-addition", (0, 4)),))

    def test_missing_header(self):
        for text in ("", "\n# only a comment\n  \n"):
            with pytest.raises(FormatError, match="^script: missing 'base' header$"):
                parse_move_script(text)


class TestLineRule:
    """Every text format strips its lines, skips blank and '#' lines
    anywhere, and names a line by its number in the whole text."""

    @pytest.mark.parametrize("text, message", [
        ("", "edgelist: empty input"),
        ("# c\n \n\n", "edgelist: empty input"),
        ("\n# c\n\nx\n", "edgelist: line 4: expected vertex count"),
        ("# c\n  -1  \n", f"edgelist: line 2: vertex count -1 is outside 0..{MAX_VERTICES}"),
        ("3\n# c\n\n0 1 2\n", "edgelist: line 4: expected 'u v'"),
        ("3\n\n0 x\n", "edgelist: line 3: non-integer endpoint"),
        ("#\n3\n#\n0 0\n", "edgelist: line 4: bad edge (0,0)"),
        ("3\n0 1\n# c\n 1 0 \n", "edgelist: line 4: edge (1,0) listed twice"),
    ])
    def test_edgelist_errors(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_edgelist(text)

    @pytest.mark.parametrize("text, message", [
        ("# c\n0 1\n", "placement: line 2: expected 'v x y'"),
        ("\n\nx 1 2\n", "placement: line 3: bad vertex 'x'"),
        ("0 0 0\n#\n1 1/0 2\n", "placement: line 3: bad rational '1/0'"),
        ("\n0 nan 1\n", "placement: line 2: bad coordinate 'nan'"),
        ("\n\n\n0 1e999 1\n", "placement: line 4: non-finite coordinate '1e999'"),
        ("# c\n\n", "placement: vertices must be exactly 0..n-1"),
    ])
    def test_placement_errors(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_placement(text)

    @pytest.mark.parametrize("text, message", [
        ("\n  \nbase\n", "script: line 3: expected 'base K5-|B1'"),
        ("# c\nbase K9\n", "script: line 2: unknown base 'K9'"),
        ("# c\n\nbase K5-\n\nedge-addition 0 x\n", "script: line 5: non-integer parameter"),
    ])
    def test_script_errors(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_move_script(text)

    def test_script_move_errors_name_the_line(self):
        with pytest.raises(FormatError, match="^script: line 4: "):
            parse_move_script("base B1\n\n# c\n1-extension 0 1\n")


# forms that int() and float() take but the text formats refuse: a '+', a '_'
# between digits, and non-ASCII digits (Arabic-Indic three, fullwidth one,
# superscript two)
NOT_INTEGERS = ["+1", "1_0", "٣", "１", "²", "-", "--1", "-+1"]


class TestOneNumberRule:
    """An integer is an optional '-' and ASCII digits in every text format;
    a decimal coordinate is ASCII without '_'."""

    @pytest.mark.parametrize("tok", NOT_INTEGERS)
    def test_edgelist_count_and_endpoints(self, tok):
        with pytest.raises(FormatError, match=r"^edgelist: line 1: expected vertex count$"):
            parse_edgelist(f"{tok}\n")
        with pytest.raises(FormatError, match=r"^edgelist: line 2: non-integer endpoint$"):
            parse_edgelist(f"3\n{tok} 2\n")
        with pytest.raises(FormatError, match=r"^edgelist: line 3: non-integer endpoint$"):
            parse_edgelist(f"3\n0 1\n0 {tok}\n")

    @pytest.mark.parametrize("tok", NOT_INTEGERS)
    def test_auto_detection_never_reads_them_as_an_edge_list(self, tok):
        # a '-' start still means an edge list, whose count is then refused;
        # every other form falls to graph6, whose bytes they are not
        with pytest.raises(FormatError, match="^edgelist: line 1" if tok[0] == "-" else "^graph6"):
            parse_graph(f"{tok}\n0 1\n")

    def test_plus_header_refused_by_both_readers(self):
        with pytest.raises(FormatError, match="expected vertex count"):
            parse_graph("+5\n0 1\n", "edgelist")
        with pytest.raises(FormatError, match="invalid byte"):
            parse_graph("+5\n0 1\n")

    @pytest.mark.parametrize("tok", NOT_INTEGERS)
    def test_placement_vertex(self, tok):
        with pytest.raises(FormatError, match=rf"^placement: line 2: bad vertex {re.escape(repr(tok))}$"):
            parse_placement(f"0 0 0\n{tok} 1 1\n")

    @pytest.mark.parametrize("tok", NOT_INTEGERS)
    def test_placement_integer_and_rational_coordinates(self, tok):
        with pytest.raises(FormatError, match=rf"^placement: line 2: bad coordinate {re.escape(repr(tok))}$"):
            parse_placement(f"0 0 0\n1 {tok} 1\n")
        for rational in (f"{tok}/2", f"1/{tok}"):
            with pytest.raises(FormatError, match=rf"^placement: line 2: bad rational {re.escape(repr(rational))}$"):
                parse_placement(f"0 0 0\n1 1 {rational}\n")

    @pytest.mark.parametrize("tok", ["1_0.5", "1.5_0", "1e1_0", "١.5", "1.٥", "１e3"])
    def test_placement_decimal_coordinate(self, tok):
        with pytest.raises(FormatError, match=rf"^placement: line 2: bad coordinate {re.escape(repr(tok))}$"):
            parse_placement(f"0 0 0\n1 {tok} 1\n")

    def test_a_line_int_would_read(self):
        # int() read this as vertex 1 at (10, 3)
        with pytest.raises(FormatError, match="^placement: line 2: bad vertex '[+]1'$"):
            parse_placement("0 0 0\n+1 1_0 ٣\n")

    def test_accepted_forms(self):
        pl = parse_placement("-0 0 -3/-4\n1 -7 1.5e-1\n2 -0.5 +2.5\n")
        assert pl.coords == ((0, Fraction(3, 4)), (-7, 0.15), (-0.5, 2.5))
        assert parse_edgelist("003\n0 01\n").edges == {(0, 1)}
        assert parse_move_script("base B1\nedge-addition 0 05\n").moves == (
            Move("edge-addition", (0, 5)),
        )

    @pytest.mark.parametrize("tok", NOT_INTEGERS)
    def test_move_parameters(self, tok):
        with pytest.raises(FormatError, match=r"^script: line 2: non-integer parameter$"):
            parse_move_script(f"base B1\nedge-addition 0 {tok}\n")
