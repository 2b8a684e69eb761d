"""Golden tests for every CLI path; outputs are byte-stable given --seed."""

import contextlib
import io
import sys

import pytest

from planerigidity import catalog as cat
from planerigidity.cli import main
from planerigidity.formats import emit_edgelist, parse_graph
from planerigidity.graphs import is_isomorphic


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
        from planerigidity.moves import random_m22_graph

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

    def test_exact_mode_on_odd_p_fails_cleanly(self):
        code, _, err = run(
            ["rank", "-", "--p", "2.5", "--mode", "exact", "--seed", "3"],
            emit_edgelist(cat.k5_minus()),
        )
        assert code == 1 and "error:" in err


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

    @pytest.mark.parametrize("cmd, p", [("certify", "inf"), ("rank", "1e400")])
    def test_infinite_p_is_error_1(self, cmd, p):
        code, out, err = run(
            [cmd, "-", "--p", p, "--seed", "1"], emit_edgelist(cat.k5_minus())
        )
        assert code == 1 and out == "" and "error:" in err and "infinity" in err


class TestRandom:
    def test_m22_deterministic(self):
        a = run(["random", "--model", "m22", "--steps", "3", "--seed", "5"])
        b = run(["random", "--model", "m22", "--steps", "3", "--seed", "5"])
        assert a == b and a[0] == 0
        G = parse_graph(a[1])
        from planerigidity.sparsity import is_m22_connected

        assert is_m22_connected(G)

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

    def test_gnp_negative_n_is_error_1(self):
        code, out, err = run(["random", "--model", "gnp", "--n", "-3", "--seed", "1"])
        assert code == 1 and out == "" and "non-negative" in err

    @pytest.mark.parametrize("prob", ["-1", "1.5", "nan"])
    def test_gnp_prob_out_of_range_is_error_1(self, prob):
        code, out, err = run(
            ["random", "--model", "gnp", "--n", "4", "--prob", prob, "--seed", "1"]
        )
        assert code == 1 and out == "" and "prob" in err

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

    @pytest.mark.parametrize("args, message", [
        (["--model", "gnp", "--n", "5", "--prob", "2", "--samples", "3"], "prob"),
        (["--model", "regular", "--n", "8", "--degree", "7", "--samples", "3"], "pairing"),
    ])
    def test_generator_error_writes_nothing_to_stdout(self, args, message):
        code, out, err = run(["experiment", *args])
        assert code == 1 and out == "" and message in err


class TestUsage:
    def test_missing_file_is_error_1(self):
        code, _, err = run(["check", "/nonexistent/graph.txt"])
        assert code == 1 and "error:" in err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
