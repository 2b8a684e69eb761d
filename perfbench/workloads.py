"""The four workloads: their requests, input files and exercised layers.

Every request is one or two `planerigidity` CLI invocations made through
`cli.main`.  Paths are absolute so that the working directory does not
matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

WORKLOADS = ("check-m22", "reduce-m22", "certify-lp", "experiment-gnp")


@dataclass(frozen=True)
class Request:
    name: str  # unique within the workload
    argv: tuple[str, ...]
    graphs: int  # input graphs (sampled graphs for experiment) it completes
    then_build: bool = False  # feed the printed script to `build -`


def requests(workload: str) -> list[Request]:
    d = INPUTS / workload
    if workload == "check-m22":
        return [
            Request(p.stem, ("check", str(p), "--certificate"), 1)
            for p in sorted(d.glob("*.g6"))
        ]
    if workload == "reduce-m22":
        return [
            Request(p.stem, ("reduce", str(p)), 1, then_build=True)
            for p in sorted(d.glob("*.g6"))
        ]
    if workload == "certify-lp":
        out = []
        for line in (d / "requests.txt").read_text().splitlines():
            graph, placement, p = line.split()
            out.append(Request(
                Path(graph).stem,
                ("certify", str(d / graph), "--p", p, "--placement", str(d / placement)),
                1,
            ))
        return out
    if workload == "experiment-gnp":
        out = []
        for i, line in enumerate((d / "requests.txt").read_text().splitlines()):
            n, prob, samples, seed = line.split()
            out.append(Request(
                f"sweep-{i:03d}",
                ("experiment", "--model", "gnp", "--n", n, "--prob", prob,
                 "--samples", samples, "--seed", seed),
                int(samples),
            ))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def input_files(workload: str) -> list[Path]:
    """The graph and placement files a workload's requests read."""
    return sorted(
        p for p in (INPUTS / workload).iterdir() if p.suffix in (".g6", ".pl")
    )


# Per-layer metrics that must be non-zero in a traced run of the workload:
# a zero means a wrapper never fired, for instance because the program now
# calls the function through a binding the tracer did not replace.
_GAMES = ("sparsity.pebble_games", "sparsity.pebble_inserts", "sparsity.rank2k.calls")
_M22 = (
    "sparsity.m22_components.calls", "sparsity.m22_components.ms",
    "sparsity.is_m22_connected.calls", "sparsity.is_m22_connected.ms",
)
_EXTRAS = (
    "graphs.is_k_connected.calls", "graphs.is_k_connected.ms", "graphs.edge_connectivity.ms",
    "decide.is_globally_rigid_analytic.self_ms", "decide.sufficient_checks.ms",
    "decide.is_globally_rigid_euclidean.ms",
)
EXERCISED = {
    "check-m22": _GAMES + _M22 + _EXTRAS + (
        "sparsity.ear_decomposition.ms", "formats.parse_ms", "formats.emit_ms",
    ),
    "reduce-m22": _GAMES + _M22 + (
        "moves.find_admissible_reduction.ms", "moves.candidates_tried", "moves.apply.calls",
        "moves.forward_script.ms", "moves.reduction_steps", "graphs.find_isomorphism.calls",
        "graphs.find_isomorphism.ms", "formats.parse_ms", "formats.emit_ms",
    ),
    "certify-lp": _GAMES + _EXTRAS + (
        "geometry.rigidity_operator.ms", "geometry.rank_of.exact.calls",
        "geometry.rank_of.exact.ms", "geometry.rank_of.float.calls",
        "geometry.rank_of.float.ms", "decide.certify.self_ms", "formats.parse_ms",
    ),
    "experiment-gnp": _GAMES + _M22 + _EXTRAS + (
        "sparsity.ear_decomposition.ms", "graphs.transitivity.ms", "randomgraphs.gnp_graph.ms",
    ),
}
