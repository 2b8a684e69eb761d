"""Golden tests for every CLI path; outputs are byte-stable given --seed."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planerigidity
from planerigidity import catalog as cat
from planerigidity import cli
from planerigidity.cli import main
from planerigidity.formats import emit_edgelist, emit_graph6, parse_graph, parse_graph6
from planerigidity.geometry import NormedPlane
from planerigidity.graphs import is_isomorphic
from planerigidity.moves import KINDS, random_m22_graph, reduce_to_base
from planerigidity.randomgraphs import gnp_graph


def run(args, stdin_text=None):
    out = io.StringIO()
    err = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


CHECK_B1_GOLDEN = """\
globally_rigid_analytic: true
two_connected: true
m22_connected: true
reason.ear_decomposition: t=1 circuit_sizes=[11] new_edges=[11]
sufficient_conditions: none
euclidean_verdict: false
"""

CHECK_W5_GOLDEN = """\
globally_rigid_analytic: false
two_connected: true
m22_connected: false
reason.edge_in_no_circuit: 0-1
sufficient_conditions: none
euclidean_verdict: true
"""

REDUCE_B2_GOLDEN = """\
base B1
generalized-vertex-split 1 0 0 4 5
"""

REDUCE_WALKS_SHA256 = "9935df7143a7afc788f65dcf177c2e8375e798406cdba583bd2e5a408f39f7af"

CERTIFY_W5_GOLDEN = """\
globally_rigid_analytic: false
two_connected: true
m22_connected: false
reason.edge_in_no_circuit: 0-1
sufficient_conditions: none
euclidean_verdict: true
numeric.plane_p: 4
numeric.seed: 3
numeric.mode: exact
numeric.rank: 10/10
numeric.inf_rigid: true
numeric.redundant: false
numeric.matches_combinatorial: true
"""

EXPERIMENT_GOLDEN = """\
seed: 1
model: regular degree=4
n=8 samples=10 globally_rigid=10 frequency=1.000
"""


class TestCheck:
    def test_b1(self):
        code, out, _ = run(["check", "-"], emit_edgelist(cat.b1()))
        assert code == 0
        assert out == CHECK_B1_GOLDEN
        assert "globally_rigid_analytic: true" in out

    def test_w5(self):
        code, out, _ = run(["check", "-"], emit_edgelist(cat.wheel_graph(5)))
        assert code == 0 and out == CHECK_W5_GOLDEN

    def test_graph6_input(self):
        code, out, _ = run(
            ["check", "-", "--format", "graph6"],
            __import__("planerigidity.formats", fromlist=["emit_graph6"]).emit_graph6(cat.b1()),
        )
        assert code == 0 and "globally_rigid_analytic: true" in out

    def test_certificate_lists_ears_as_edge_lists(self):
        code, out, _ = run(
            ["check", "-", "--certificate"],
            emit_edgelist(cat.complete_bipartite(3, 6)),
        )
        assert code == 0
        ears = [ln for ln in out.splitlines() if ln.startswith("ear.")]
        assert len(ears) == 2
        assert ears[0].startswith("ear.1: ")
        # each ear is a sorted edge list and a genuine circuit
        from planerigidity.sparsity import rank2k

        for line in ears:
            edges = [tuple(map(int, tok.split("-"))) for tok in line.split()[1:]]
            assert edges == sorted(edges)
            assert rank2k(edges, 2) == len(edges) - 1


    def test_certificates_are_unchanged(self):
        # SHA-256 of each `check --certificate` output, recorded before the
        # ear decomposition moved onto one maintained game; the gnp-* ones
        # before the flows went only to a dominating set and the vertex-
        # deleted ranks came from one basis
        want = dict(
            line.split() for line in CERTIFICATE_DIGESTS.read_text().splitlines()
        )
        got = {}
        for name, G in certificate_inputs().items():
            code, out, _ = run(["check", "-", "--certificate"], emit_edgelist(G))
            assert code == 0
            got[name] = hashlib.sha256(out.encode()).hexdigest()
        assert got == want


CERTIFICATE_DIGESTS = Path(__file__).with_name("certificate_digests.txt")
GNP_PROBS = (0.55, 0.6, 0.65, 0.7, 0.75, 0.8)


def certificate_inputs():
    """30 seeded walks (15 to 142 edges), the named graphs of the ear
    decomposition tests, and 20 dense G(n,p) graphs (n 8-14, p 0.55-0.8)
    on which sufficient conditions fire: the walks have minimum degree 3,
    so edge_connectivity_4 never fires on them."""
    graphs = {f"walk-{i}": random_m22_graph(2 + 2 * i, 7000 + i) for i in range(30)}
    for i in range(3, 23):
        graphs[f"gnp-{i}"] = gnp_graph(8 + i % 7, GNP_PROBS[i % 6], 8000 + i)
    graphs.update({
        "K5-": cat.k5_minus(), "B1": cat.b1(), "B2": cat.b2(),
        "K36": cat.complete_bipartite(3, 6), "K46": cat.complete_bipartite(4, 6),
        "K6": cat.complete_graph(6), "K7": cat.complete_graph(7),
        "W5": cat.wheel_graph(5), "K4": cat.complete_graph(4),
        "2K4v": cat.two_k4_shared_vertex(), "pinned": parse_graph6("Lxrg{gAOop|CGB"),
    })
    return graphs


class TestReduceBuild:
    def test_reduce_b2_golden(self):
        code, out, _ = run(["reduce", "-"], emit_edgelist(cat.b2()))
        assert code == 0 and out == REDUCE_B2_GOLDEN

    def test_build_inverts_reduce(self):
        _, script, _ = run(["reduce", "-"], emit_edgelist(cat.b2()))
        code, out, _ = run(["build", "-"], script)
        assert code == 0
        assert is_isomorphic(parse_graph(out), cat.b2())
        code2, out2, _ = run(["build", "-"], script)
        assert out2 == out  # byte-stable

    def test_build_reduce_roundtrip_corpus(self):
        for seed in range(6):
            G = random_m22_graph(seed % 4 + 1, seed)
            _, script, _ = run(["reduce", "-"], emit_edgelist(G))
            code, out, _ = run(["build", "-"], script)
            assert code == 0 and is_isomorphic(parse_graph(out), G)

    def test_reduce_rejects_flexible_input(self):
        code, _, err = run(["reduce", "-"], emit_edgelist(cat.wheel_graph(5)))
        assert code == 1 and "error:" in err

    def test_build_rejects_inapplicable_move(self):
        code, _, err = run(["build", "-"], "base B1\nedge-addition 0 1\n")
        assert code == 1 and "already present" in err

    def test_reduce_scripts_of_walks_are_unchanged(self):
        # SHA-256 of the `reduce` output of 40 walks, recorded before the
        # forward script was rewritten on the shared undo rule
        digest = hashlib.sha256()
        for seed in range(40):
            G = random_m22_graph(seed % 8 + 1, seed)
            code, out, _ = run(["reduce", "-"], emit_edgelist(G))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == REDUCE_WALKS_SHA256

    @pytest.mark.parametrize("script, message", [
        ("generalized-vertex-split 0", "line 2: generalized-vertex-split: needs at least 2"),
        ("1-reduction 99 0 1", "vertex 99 does not exist"),
        ("1-extension 0 1 2\n1-reduction -1 0 1", "vertex -1 does not exist"),
        ("edge-addition 0", "line 2: edge-addition: needs 2 parameters, got 1"),
        ("edge-deletion 0 1\nk4minus-extension 0 1 2", "line 3: k4minus-extension: needs 2"),
    ])
    def test_build_rejects_malformed_move(self, script, message):
        code, out, err = run(["build", "-"], f"base K5-\n{script}\n")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @settings(max_examples=300)
    @given(st.sampled_from(["K5-", "B1"]), st.lists(
        st.tuples(st.sampled_from(KINDS), st.lists(st.integers(-3, 12), max_size=6)),
        max_size=8,
    ))
    def test_build_fuzz_exits_0_or_1(self, base, lines):
        _build_exits_cleanly(base, lines)

    @settings(max_examples=300)
    @given(st.sampled_from(["K5-", "B1"]), st.lists(
        st.tuples(st.sampled_from(KINDS), st.lists(st.integers(-1, 8), min_size=5, max_size=5)),
        max_size=6,
    ))
    def test_build_fuzz_well_formed_lines_exit_0_or_1(self, base, lines):
        # each line has its kind's parameter count (a split takes 2 to 5),
        # so the moves get past parsing to every precondition of apply
        _build_exits_cleanly(base, [(kind, params[:SCRIPT_ARITY[kind]]) for kind, params in lines])


SCRIPT_ARITY = {
    "edge-addition": 2, "edge-deletion": 2, "1-extension": 3, "1-reduction": 3,
    "k4minus-extension": 2, "k4minus-reduction": 2, "generalized-vertex-split": 5,
    "edge-reduction": 3,
}


def _build_exits_cleanly(base, lines):
    script = f"base {base}\n" + "".join(
        kind + "".join(f" {x}" for x in params) + "\n" for kind, params in lines
    )
    code, out, err = run(["build", "-"], script)
    if code == 0:
        assert err == "" and parse_graph(out).n >= 5
    else:
        assert code == 1 and out == "" and err.startswith("error: ")


# vertex labels, integers, rationals, decimals (huge and tiny ones too) and junk
PLACEMENT_TOKENS = st.one_of(
    st.integers(-2, 6).map(str),
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(-50, 50), st.integers(-3, 50)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e200", "-1e400", "1e-320", "nan", "inf", "x", "1/", "#"]),
)


def _exited_cleanly(code, out, err):
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1 and out == "" and err.startswith("error: ")


class TestRank:
    def test_k33_exact(self):
        code, out, _ = run(
            ["rank", "-", "--p", "4", "--mode", "exact", "--seed", "7"],
            emit_edgelist(cat.complete_bipartite(3, 3)),
        )
        assert code == 0 and out == "9\n"

    def test_placement_file_roundtrip(self, tmp_path):
        gpath = tmp_path / "g.txt"
        gpath.write_text(emit_edgelist(cat.k5_minus()))
        ppath = tmp_path / "pl.txt"
        code, out1, _ = run(
            ["rank", str(gpath), "--p", "4", "--seed", "11",
             "--save-placement", str(ppath)]
        )
        assert code == 0 and ppath.exists()
        code, out2, _ = run(
            ["rank", str(gpath), "--p", "4", "--placement", str(ppath)]
        )
        assert code == 0 and out1 == out2 == "8\n"
        code, out3, _ = run(
            ["certify", str(gpath), "--p", "4", "--placement", str(ppath)]
        )
        assert code == 0 and "numeric.rank: 8/8" in out3

    def test_euclidean_default_mode(self):
        code, out, _ = run(
            ["rank", "-", "--p", "2", "--seed", "3"],
            emit_edgelist(cat.complete_bipartite(3, 6)),
        )
        assert code == 0 and out == "15\n"

    def test_float_mode(self):
        code, out, _ = run(
            ["rank", "-", "--p", "2.5", "--mode", "float", "--seed", "3"],
            emit_edgelist(cat.k5_minus()),
        )
        assert code == 0 and out == "8\n"

    @pytest.mark.parametrize("p", ["64", "100", "102", "150"])
    def test_float_mode_past_float_range_is_error_1(self, p):
        # the exact rows carry D^(p-1); past the largest float they are
        # refused before any row is scaled, and not with a traceback
        code, out, err = run(["rank", "-", "--p", p, "--mode", "float"], "D~w\n")
        assert code == 1 and out == ""
        assert err == "error: operator entries out of floating-point range\n"

    @pytest.mark.parametrize("args", [["--p", "41"], ["--p", "63"], ["--p", "40", "--mode", "float"]])
    def test_float_rank_of_k5_minus_at_large_p(self, args):
        # each row is scaled to its largest entry, so rows whose entries
        # |d_i|^(p-1) differ by hundreds of orders of magnitude still count
        code, out, err = run(["rank", "-", *args], "D~w\n")
        assert (code, out, err) == (0, "8\n", "")

    def test_placement_of_the_wrong_size_is_error_1(self, tmp_path):
        ppath = tmp_path / "pl.txt"
        ppath.write_text("".join(f"{v} {v} {v * v}\n" for v in range(4)))
        code, out, err = run(["rank", "-", "--placement", str(ppath)], "D~w\n")
        assert (code, out) == (1, "")
        assert err == "error: placement does not cover the graph's vertices\n"
        args = cli.build_parser().parse_args(["rank", "-", "--placement", str(ppath)])
        with pytest.raises(ValueError) as exc:
            cli._placement_for(args, cat.k5_minus(), NormedPlane(4))
        assert type(exc.value) is ValueError

    def test_exact_mode_on_odd_p_fails_cleanly(self):
        code, _, err = run(
            ["rank", "-", "--p", "2.5", "--mode", "exact", "--seed", "3"],
            emit_edgelist(cat.k5_minus()),
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("p, placement", [
        ("2.5", None), ("4", "0 0.5 0\n1 1 2\n2 3 5\n3 8 13\n4 21 34\n"),
    ], ids=["fractional-p", "float-placement"])
    def test_exact_mode_names_what_it_needs(self, tmp_path, p, placement):
        # the entries at a fractional p are irrational
        args = ["rank", "-", "--p", p, "--mode", "exact"]
        if placement:
            (tmp_path / "pl.txt").write_text(placement)
            args += ["--placement", str(tmp_path / "pl.txt")]
        code, out, err = run(args, "D~w\n")
        assert (code, out) == (1, "")
        assert err == "error: exact rank needs an integer p and a rational placement; use float mode\n"

    @pytest.mark.parametrize("p", ["3", "41", "63"])
    def test_exact_mode_at_odd_p(self, p):
        # the rows d |d|^(p-2) are integers at odd p too; the float rank
        # stays the default there
        assert run(["rank", "-", "--p", p, "--mode", "exact"], "D~w\n") == (0, "8\n", "")
        assert run(["rank", "-", "--p", p], "D~w\n") == (0, "8\n", "")

    @pytest.mark.parametrize("placement, p, accepted", [
        # the entries 1e-240 and 4e-240 are normal floats, although |d|^3
        # underflows
        ("0 0 0\n1 1e-120 2e-120\n", "3", True),
        # the entries about 1.1e-313 and 4.5e-319 are subnormal
        ("0 0 0\n1 1.5e-8 1.1e-8\n", "41", False),
        # (1e-200)^2 underflows to zero
        ("0 0 0\n1 1e-200 0\n", "3", False),
    ], ids=["normal", "subnormal", "zero"])
    def test_float_range_rule_on_k2(self, tmp_path, placement, p, accepted):
        (tmp_path / "pl.txt").write_text(placement)
        result = run(["rank", "-", "--p", p, "--placement", str(tmp_path / "pl.txt")], "A_\n")
        refused = (1, "", f"error: p = {p}: operator entries out of floating-point range\n")
        assert result == ((0, "1\n", "") if accepted else refused)


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1"])
    def test_meaningless_tolerance_is_refused(self, tol):
        code, out, err = run(
            ["rank", "-", "--p", "3", "--mode", "float", "--tol", tol],
            emit_edgelist(cat.complete_graph(5)),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: tol = ") and "0 < tol < 1" in err


class TestCertify:
    def test_w5_golden(self):
        code, out, _ = run(
            ["certify", "-", "--p", "4", "--seed", "3"],
            emit_edgelist(cat.wheel_graph(5)),
        )
        assert code == 0 and out == CERTIFY_W5_GOLDEN

    def test_collinear_placement_names_disagreeing_edges(self, tmp_path):
        ppath = tmp_path / "pl.txt"
        ppath.write_text("".join(f"{v} {v} {v}\n" for v in range(5)))
        code, out, _ = run(
            ["certify", "-", "--p", "4", "--placement", str(ppath)],
            emit_edgelist(cat.k5_minus()),
        )
        assert code == 0
        assert "numeric.rank: 4/8\n" in out
        assert out.endswith(
            "numeric.matches_combinatorial: false\n"
            "numeric.disagreeing_edges: " + " ".join(
                f"{u}-{v}" for u, v in sorted(cat.k5_minus().edges)
            ) + "\n"
        )

    def test_large_odd_p_raises_no_runtime_warning(self):
        # the float self-stresses read the same row-scaled array as the
        # rank: no row norm is taken, which overflowed at p = 63
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(["certify", "-", "--p", "63"], "D~w\n")
        assert code == 0 and err == ""
        assert "numeric.rank: 8/8\n" in out

    @pytest.mark.parametrize("p", ["41", "63"])
    def test_large_odd_p_disagreement_is_rechecked_exactly(self, p):
        # the float rank loses rows whose stress weights fall below its
        # tolerance; integer rows at the same placement decide instead
        code, out, err = run(["certify", "-", "--p", p], "D~w\n")
        assert code == 0 and err == ""
        assert out.endswith(
            "numeric.mode: exact\nnumeric.rank: 8/8\nnumeric.inf_rigid: true\n"
            "numeric.redundant: true\nnumeric.matches_combinatorial: true\n"
        )

    def test_refused_exact_recheck_keeps_the_float_answer(self, tmp_path):
        # K5- at p = 41 on coordinates with six-digit denominators: the
        # float rank disagrees, and the integer rows would pass
        # EXACT_ENTRY_BITS, so the float answer is the one reported
        ppath = tmp_path / "pl.txt"
        ppath.write_text(
            "0 0 1/1000003\n1 1 2/1000033\n2 2 -3/1000037\n3 3 5/1000039\n4 4 -7/1000081\n"
        )
        code, out, err = run(["certify", "-", "--p", "41", "--placement", str(ppath)], "D~w\n")
        assert code == 0 and err == ""
        assert "numeric.mode: float\nnumeric.rank: 4/8\n" in out
        assert "numeric.matches_combinatorial: false\n" in out

    def test_odd_p_agreement_stays_float(self):
        code, out, _ = run(["certify", "-", "--p", "3"], "D~w\n")
        assert code == 0 and "numeric.mode: float\n" in out
        assert "numeric.matches_combinatorial: true\n" in out

    def test_odd_p_true_disagreement_survives_the_recheck(self, tmp_path):
        # a collinear K5-: the exact rank confirms 4 of 8
        ppath = tmp_path / "pl.txt"
        ppath.write_text("".join(f"{v} {v} {v}\n" for v in range(5)))
        code, out, _ = run(["certify", "-", "--p", "3", "--placement", str(ppath)], "D~w\n")
        assert code == 0
        assert "numeric.mode: exact\nnumeric.rank: 4/8\n" in out
        assert "numeric.matches_combinatorial: false\n" in out

    @pytest.mark.parametrize("text, p", [("2\n", "4"), ("6\n", "2")])
    def test_edgeless_graph_agrees(self, text, p):
        # no edge: rank 0 below the target, so not redundant either, although
        # every deletion rank (there is none) reaches it
        code, out, _ = run(["certify", "-", "--p", p], text)
        assert code == 0
        assert "numeric.redundant: false\nnumeric.matches_combinatorial: true\n" in out
        assert "disagreeing_edges" not in out

    @pytest.mark.parametrize("cmd, p", [("certify", "inf"), ("rank", "1e400")])
    def test_infinite_p_is_error_1(self, cmd, p):
        code, out, err = run(
            [cmd, "-", "--p", p, "--seed", "1"], emit_edgelist(cat.k5_minus())
        )
        assert code == 1 and out == "" and "error:" in err and "infinity" in err

    @pytest.mark.parametrize("cmd", ["rank", "certify"])
    @pytest.mark.parametrize("p, message", [
        # an even integer: the exact entries would have 10^20 - 1 powers
        ("1e20", "p = 1e+20: exact operator entries would exceed 4096 bits"),
        ("1e300", "p = 1e+300: exact operator entries would exceed 4096 bits"),
        ("401", "p = 401: operator entries out of floating-point range"),
    ])
    def test_huge_p_is_error_1(self, cmd, p, message):
        start = time.perf_counter()
        code, out, err = run(
            [cmd, "-", "--p", p, "--seed", "1"], emit_edgelist(cat.cycle_graph(3))
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("cmd", ["rank", "certify"])
    @pytest.mark.parametrize("coord, message", [
        ("1e200", "error: p = 4: operator entries out of floating-point range\n"),
        ("1e400", "error: placement: line 1: non-finite coordinate '1e400'\n"),
        ("-1E999", "error: placement: line 1: non-finite coordinate '-1E999'\n"),
    ])
    def test_huge_coordinate_is_error_1(self, tmp_path, cmd, coord, message):
        ppath = tmp_path / "pl.txt"
        ppath.write_text(f"0 {coord} 0\n1 1 2\n2 3 5\n")
        code, out, err = run(
            [cmd, "-", "--p", "4", "--placement", str(ppath)],
            emit_edgelist(cat.cycle_graph(3)),
        )
        assert code == 1 and out == "" and err == message

    @pytest.mark.parametrize("cmd", ["rank", "certify"])
    @pytest.mark.parametrize("p", ["3", "2.5"])
    def test_integer_coordinate_past_float_range_is_error_1(self, tmp_path, cmd, p):
        # a rational placement's float rows divide integer differences,
        # which raises OverflowError past the largest float
        ppath = tmp_path / "pl.txt"
        ppath.write_text(f"0 1{'0' * 400} 0\n1 1 2\n2 3 5\n")
        code, out, err = run(
            [cmd, "-", "--p", p, "--placement", str(ppath)],
            emit_edgelist(cat.cycle_graph(3)),
        )
        assert code == 1 and out == ""
        assert err == f"error: p = {p}: operator entries out of floating-point range\n"

    @pytest.mark.parametrize("cmd", ["rank", "certify"])
    @pytest.mark.parametrize("lines, message", [
        # K5- has vertices 0..4; a second line for vertex 0 used to win
        (["0 0 0", "0 7 1", "1 1 0", "2 0 1", "3 2 3", "4 3 5"],
         "error: placement: line 2: vertex 0 listed twice\n"),
        # vertex 3 twice and vertex 4 missing used to read as a coverage error
        (["0 0 0", "1 1 0", "2 0 1", "3 2 3", "3 3 5"],
         "error: placement: line 5: vertex 3 listed twice\n"),
    ])
    def test_repeated_placement_vertex_is_error_1(self, tmp_path, cmd, lines, message):
        gpath, ppath = tmp_path / "g.txt", tmp_path / "pl.txt"
        gpath.write_text(emit_edgelist(cat.k5_minus()))
        ppath.write_text("".join(line + "\n" for line in lines))
        code, out, err = run([cmd, str(gpath), "--p", "4", "--placement", str(ppath)])
        assert code == 1 and out == "" and err == message

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["rank", "certify"]),
        st.sampled_from(["2", "3", "4", "6", "401", "1e20"]),
        st.lists(st.lists(PLACEMENT_TOKENS, max_size=4), max_size=7),
    )
    def test_placement_fuzz_exits_0_or_1(self, cmd, p, lines):
        _placement_exits_cleanly(cmd, p, [" ".join(tokens) for tokens in lines])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["rank", "certify"]),
        st.sampled_from(["2", "3", "4", "6", "401", "1e20"]),
        st.lists(st.tuples(PLACEMENT_TOKENS, PLACEMENT_TOKENS), min_size=5, max_size=5),
    )
    def test_placement_fuzz_well_formed_lines_exit_0_or_1(self, cmd, p, coords):
        # one 'v x y' line for each vertex of K5-, so the coordinates reach
        # the operator
        _placement_exits_cleanly(cmd, p, [f"{v} {x} {y}" for v, (x, y) in enumerate(coords)])


def _placement_exits_cleanly(cmd, p, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pl.txt")
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        code, out, err = run(
            [cmd, "-", "--p", p, "--placement", path], emit_edgelist(cat.k5_minus())
        )
    _exited_cleanly(code, out, err)


class TestRandom:
    def test_m22_deterministic(self):
        a = run(["random", "--model", "m22", "--steps", "3", "--seed", "5"])
        b = run(["random", "--model", "m22", "--steps", "3", "--seed", "5"])
        assert a == b and a[0] == 0
        G = parse_graph(a[1])
        from planerigidity.sparsity import is_m22_connected

        assert is_m22_connected(G)  # parsed afresh, so decided in full

    def test_gnp_and_regular(self):
        code, out, _ = run(
            ["random", "--model", "gnp", "--n", "7", "--prob", "0.5", "--seed", "2"]
        )
        assert code == 0 and parse_graph(out).n == 7
        code, out, _ = run(
            ["random", "--model", "regular", "--n", "6", "--degree", "3",
             "--seed", "4", "--format", "edgelist"]
        )
        G = parse_graph(out)
        assert code == 0 and all(G.degree(v) == 3 for v in range(6))

    def test_gnp_requires_n(self):
        code, _, err = run(["random", "--model", "gnp", "--seed", "1"])
        assert code == 1 and "required" in err

    def test_regular_requires_n(self):
        code, out, err = run(["random", "--model", "regular", "--seed", "1"])
        assert (code, out, err) == (1, "", "error: --n is required for model regular\n")

    def test_gnp_negative_n_is_error_1(self):
        code, out, err = run(["random", "--model", "gnp", "--n", "-3", "--seed", "1"])
        assert code == 1 and out == "" and "non-negative" in err

    @pytest.mark.parametrize("prob", ["-1", "1.5", "nan"])
    def test_gnp_prob_out_of_range_is_error_1(self, prob):
        code, out, err = run(
            ["random", "--model", "gnp", "--n", "4", "--prob", prob, "--seed", "1"]
        )
        assert code == 1 and out == "" and "prob" in err

    def test_n_refused_for_m22(self):
        # the walk sets its own size, so a size asked for is an error, not
        # ignored
        code, out, err = run(["random", "--model", "m22", "--n", "5", "--steps", "2"])
        assert (code, out, err) == (1, "", "error: --n does not apply to --model m22\n")

    def test_regular_without_simple_pairing_is_error_1(self):
        # K8 is the only 7-regular graph on 8 vertices, and the pairing
        # model draws it too rarely to wait for
        code, out, err = run(
            ["random", "--model", "regular", "--n", "8", "--degree", "7", "--seed", "1"]
        )
        assert code == 1 and out == "" and "attempts" in err


class TestExperiment:
    def test_regular_golden(self):
        code, out, _ = run(
            ["experiment", "--model", "regular", "--n", "8", "--samples", "10",
             "--seed", "1", "--degree", "4"]
        )
        assert code == 0 and out == EXPERIMENT_GOLDEN

    def test_regular_4_frequency_one(self):
        # finite-sample check: random 4-regular graphs are a.a.s. 4-connected
        # and hence globally rigid; 200
        # samples at each n in {8, 10, 12}; failures would be logged in the
        # misses column, and the frequency line carries the verdict
        code, out, _ = run(
            ["experiment", "--model", "regular", "--n", "8,10,12",
             "--samples", "200", "--seed", "7", "--degree", "4"]
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("n=")]
        assert len(lines) == 3
        for line in lines:
            assert "frequency=1.000" in line

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["experiment", "--model", "nonsense"])
        assert exc.value.code == 2

    def test_negative_samples_is_error_1(self):
        code, out, err = run(
            ["experiment", "--model", "gnp", "--n", "5", "--samples", "-1", "--seed", "1"]
        )
        assert code == 1 and out == "" and "--samples" in err

    @pytest.mark.parametrize("samples", ["2", "0"])
    def test_n_refused_for_m22(self, samples):
        code, out, err = run(
            ["experiment", "--model", "m22", "--n", "5,6", "--samples", samples, "--steps", "2"]
        )
        assert (code, out, err) == (1, "", "error: --n does not apply to --model m22\n")
        code, out, _ = run(["experiment", "--model", "m22", "--samples", samples, "--steps", "2"])
        assert code == 0 and out.splitlines()[1] == "model: m22 steps=2"

    # each size follows the text formats' integer rule (`formats._int`)
    @pytest.mark.parametrize(
        "sizes", ["3,", "a", "4,,5", "", "+5", "1_0", "٥", "5,+6", "5, 6", " 5", "5,6 "]
    )
    def test_bad_size_list_names_the_option(self, sizes):
        code, out, err = run(["experiment", "--model", "gnp", "--n", sizes, "--samples", "1"])
        assert code == 1 and out == ""
        assert err == f"error: --n must be comma-separated integers, got {sizes!r}\n"

    @pytest.mark.parametrize("args, message", [
        (["--model", "gnp", "--n", "5", "--prob", "2", "--samples", "3"], "prob"),
        (["--model", "regular", "--n", "8", "--degree", "7", "--samples", "3"], "pairing"),
    ])
    def test_generator_error_writes_nothing_to_stdout(self, args, message):
        code, out, err = run(["experiment", *args])
        assert code == 1 and out == "" and message in err


class TestCheckFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=127), max_size=30),
           st.sampled_from(["auto", "graph6"]))
    def test_graph6_fuzz_exits_0_or_1(self, text, fmt):
        _exited_cleanly(*run(["check", "-", "--format", fmt], text))

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "3.5", "# c"])),
        st.lists(st.one_of(
            st.tuples(st.integers(-2, 13), st.integers(-2, 13)).map(lambda e: f"{e[0]} {e[1]}"),
            st.sampled_from(["", "# comment", "1", "0 1 2", "a b", "1.0 2"]),
        ), max_size=30),
        st.sampled_from(["auto", "edgelist"]),
    )
    def test_edgelist_fuzz_exits_0_or_1(self, header, lines, fmt):
        text = "\n".join([header, *lines]) + "\n"
        _exited_cleanly(*run(["check", "-", "--format", fmt], text))

    @pytest.mark.parametrize("cmd", ["check", "rank"])
    @pytest.mark.parametrize("count", ["-3", "100000000"])
    def test_vertex_count_out_of_range_is_error_1(self, cmd, count):
        # the header alone would size the graph: a negative one or one past
        # the cap is refused before any vertex is allocated
        start = time.perf_counter()
        code, out, err = run([cmd, "-", "--format", "edgelist"], f"\n{count}\n0 1\n")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == f"error: edgelist: line 2: vertex count {count} is outside 0..258047\n"


class TestAutoFormat:
    def test_edge_list_starting_with_a_comment(self):
        plain = run(["check", "-"], "5\n0 1\n")
        assert plain[0] == 0
        for fmt in ("auto", "edgelist"):
            assert run(["check", "-", "--format", fmt], "# c\n5\n0 1\n") == plain

    @pytest.mark.parametrize("cmd", ["check", "rank", "reduce"])
    @pytest.mark.parametrize("second", ["0 1", "1 0"])
    def test_repeated_edge_is_error_1(self, cmd, second):
        # the repeat used to be merged, and the answer was about one edge
        code, out, err = run([cmd, "-"], f"5\n0 1\n{second}\n")
        assert code == 1 and out == ""
        assert err == f"error: edgelist: line 3: edge ({second.replace(' ', ',')}) listed twice\n"

    def test_negative_count_is_read_as_an_edge_list(self):
        # '#' and '-' are not graph6 bytes, so this is not a graph6 error
        code, out, err = run(["check", "-"], "-3\n0 1\n")
        assert code == 1 and out == ""
        assert err == "error: edgelist: line 1: vertex count -3 is outside 0..258047\n"


    def test_graph6_with_trailing_data_bytes_is_rejected(self):
        # C~ is K4; the three bytes after it used to be ignored
        code, out, err = run(["check", "-"], "C~~~~")
        assert code == 1 and out == ""
        assert err == "error: graph6: expected 1 data bytes for n=4, got 4\n"

    def test_graph6_eight_byte_size_form_is_refused(self):
        # '~~' sizes name n above the long form's limit; the form used to
        # be read as the long one and then ask for 5549042688 data bytes
        code, out, err = run(["check", "-"], "~~??????")
        assert code == 1 and out == ""
        assert err == (
            "error: graph6: the 8-byte size form '~~' names n above 258047, "
            "the most vertices a graph file holds\n"
        )


class TestParserCache:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def _fresh(self, args, stdin_text):
        cli.build_parser.cache_clear()
        return run(args, stdin_text)

    def test_flags_do_not_carry_over(self):
        text = emit_edgelist(cat.complete_bipartite(3, 6))
        code, out, _ = run(["check", "-", "--certificate"], text)
        assert code == 0 and "ear.1: " in out
        second = run(["check", "-"], text)
        assert "ear." not in second[1]
        assert second == self._fresh(["check", "-"], text)

    def test_usage_error_leaves_the_parser_as_new(self):
        text = emit_edgelist(cat.b1())
        with pytest.raises(SystemExit) as exc:
            run(["check", "-", "--format", "nonsense"], text)
        assert exc.value.code == 2
        after_error = run(["check", "-", "--certificate"], text)
        assert after_error == self._fresh(["check", "-", "--certificate"], text)
        assert after_error[0] == 0 and "ear.1: " in after_error[1]


class TestOneProcess:
    """Commands run one after another in one process print the bytes each
    prints in an interpreter of its own: no command leaves state behind
    that the next one reads."""

    @staticmethod
    def alone(args, stdin_text=None):
        env = dict(os.environ, PYTHONPATH=str(Path(planerigidity.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "planerigidity", *args],
            input=stdin_text, capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def test_reduce_a_b_a(self):
        A = random_m22_graph(14, 3)
        # B is the graph A's first step reduces to, so B's trace is A's without it
        B = reduce_to_base(A).steps[0].result
        requests = [emit_graph6(G) for G in (A, B, A)]
        got = [run(["reduce", "-"], text) for text in requests]
        assert got[0] == got[2] and got[0] != got[1]
        for text, out in zip(requests[:2], got):
            assert out[0] == 0 and out == self.alone(["reduce", "-"], text)

    def test_random_then_check(self):
        args = ["random", "--model", "m22", "--steps", "12", "--seed", "4"]
        made = run(args)
        assert made[0] == 0 and made == self.alone(args)
        checked = run(["check", "-", "--certificate"], made[1])
        assert checked[0] == 0 and "globally_rigid_analytic: true" in checked[1]
        assert checked == self.alone(["check", "-", "--certificate"], made[1])


COLD_IMPORTS_SCRIPT = """
import contextlib, io, json, sys

WATCHED = {"dataclasses", "inspect", "fractions", "decimal", "numpy", "hashlib"}

def loaded():
    return sorted(WATCHED & set(sys.modules))

def call(argv, stdin_text=""):
    out = io.StringIO()
    sys.stdin = io.StringIO(stdin_text)
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue(), loaded()]

steps = {"start": [0, "", loaded()]}
import planerigidity.cli as cli
steps["import"] = [0, "", loaded()]
steps["check"] = call(["check", "-", "--certificate"], "D~w\\n")
steps["random"] = call(["random", "--model", "m22", "--steps", "12", "--seed", "3"])
steps["reduce"] = call(["reduce", "-"], steps["random"][1])
steps["build"] = call(["build", "-"], steps["reduce"][1])
steps["experiment"] = call(
    ["experiment", "--model", "gnp", "--n", "7,8", "--prob", "0.6", "--samples", "20"]
)
steps["certify"] = call(["certify", "-", "--p", "4"], "D~w\\n")
steps["rank"] = call(["rank", "-", "--p", "3"], "D~w\\n")
from planerigidity.moves import random_m22_graph, reduce_to_base
step = reduce_to_base(random_m22_graph(12, 3)).steps[0]
steps["trace"] = [0, "", loaded()]
steps["hash"] = [0, step.result_hash, loaded()]
print(json.dumps(steps))
"""


class TestColdImports:
    """`import planerigidity.cli` and the combinatorial commands load
    none of dataclasses, inspect, fractions (with decimal), numpy and
    hashlib (with OpenSSL); an exact certify loads fractions, a float rank
    numpy and a graph hash hashlib.  In a fresh interpreter, as pytest has
    loaded them already."""

    def test_what_each_command_imports(self):
        env = dict(os.environ, PYTHONPATH=str(Path(planerigidity.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", COLD_IMPORTS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        steps = json.loads(done.stdout)
        for name in ("start", "import", "check", "random", "reduce", "build", "experiment"):
            assert steps[name][0] == 0 and steps[name][2] == [], name
        assert "globally_rigid_analytic: true" in steps["check"][1]
        assert steps["reduce"][1].startswith("base ")
        assert steps["build"][1].startswith("20\n")  # the walk's 20 vertices
        assert "n=8 samples=20 globally_rigid=" in steps["experiment"][1]
        assert steps["certify"][0] == 0 and "numeric.mode: exact\n" in steps["certify"][1]
        assert steps["certify"][2] == ["decimal", "fractions"]

        def beside_numpy(step):  # numpy itself may import inspect or dataclasses
            return [m for m in step[2] if m not in ("dataclasses", "inspect")]

        numeric = ["decimal", "fractions", "numpy"]
        assert steps["rank"][:2] == [0, "8\n"] and beside_numpy(steps["rank"]) == numeric
        assert beside_numpy(steps["trace"]) == numeric
        assert beside_numpy(steps["hash"]) == ["decimal", "fractions", "hashlib", "numpy"]
        assert len(steps["hash"][1]) == 16


class TestUsage:
    def test_missing_file_is_error_1(self):
        code, _, err = run(["check", "/nonexistent/graph.txt"])
        assert code == 1 and "error:" in err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


def usage_error(args):
    """The exit code and stderr of a command line that argparse refuses."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(args)
    return exc.value.code, err.getvalue()


# what `int` takes and the text formats refuse, and what neither takes
REFUSED_INTEGERS = ["+1", "1_0", "٥", "١", " 1", "1 ", "", "-", "1.0", "0x1"]

INTEGER_OPTIONS = [
    (["rank", "-"], "--seed"),
    (["certify", "-"], "--seed"),
    *((["random", "--model", "gnp"], opt) for opt in ("--n", "--degree", "--steps", "--seed")),
    *((["experiment", "--model", "gnp"], opt)
      for opt in ("--degree", "--steps", "--samples", "--seed")),
]


class TestIntegerOptions:
    """Every integer option is an optional '-' and ASCII digits, as every
    integer of the text formats is (`formats._int`)."""

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    @pytest.mark.parametrize("argv, option", INTEGER_OPTIONS)
    def test_refused_value_is_usage_error_2(self, argv, option, text):
        code, err = usage_error([*argv, option, text])
        assert code == 2 and f"argument {option}: invalid integer value: {text!r}" in err

    def test_negative_and_zero_padded_integers_still_read(self):
        code, out, _ = run(["random", "--model", "gnp", "--n", "5", "--seed", "-1"])
        assert code == 0 and parse_graph(out).n == 5
        assert run(["random", "--model", "gnp", "--n", "05", "--seed", "-01"])[1] == out
        code, out, _ = run(
            ["experiment", "--model", "gnp", "--n", "5,010", "--samples", "1", "--seed", "-1"]
        )
        lines = out.splitlines()
        assert code == 0 and lines[0] == "seed: -1"
        assert [ln.split()[0] for ln in lines[2:]] == ["n=5", "n=10"]
