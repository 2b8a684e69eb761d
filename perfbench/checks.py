"""Checks of the CLI's outputs against the reference in reference.py.

Each check returns a list of problems; an empty list means the output is
right.  The expected values are computed here from the inputs, never read
from a stored copy of an earlier output.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference as ref

# Faults of the program that make a request fail on every execution: such a
# request counts as failed, and CHANGES.md names the fault.  Any other wrong
# output makes the run incorrect.
#   sparsity._unique_circuit reads the region reachable from the rejected
#   edge only after the pebble game has gone on to insert the remaining
#   edges; by then pebbles have moved and the region can be larger than the
#   circuit, so some ears printed by `check --certificate` are dependent
#   sets that are not circuits.
KNOWN_FAULTS = ("is not a circuit of the (2,2) matroid",)


def known_fault(problem: str) -> bool:
    return any(fault in problem for fault in KNOWN_FAULTS)


def _fields(text: str) -> tuple[dict[str, str], list[tuple[int, list]]]:
    fields, ears = {}, []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("ear."):
            edges = [tuple(map(int, tok.split("-"))) for tok in value.split()]
            ears.append((int(key[4:]), edges))
        else:
            fields[key] = value
    return fields, ears


def _yn(b: bool) -> str:
    return "true" if b else "false"


def _verdict_problems(fields, v: ref.Verdict) -> list[str]:
    out = []
    for key, want in (
        ("globally_rigid_analytic", v.globally_rigid),
        ("two_connected", v.two_connected),
        ("m22_connected", v.m22_connected),
    ):
        if fields.get(key) != _yn(want):
            out.append(f"{key}: got {fields.get(key)}, reference {_yn(want)}")
    if "reason.cut_vertex" in fields:
        cut = fields["reason.cut_vertex"]
        if v.two_connected:
            out.append("cut vertex named in a 2-connected graph")
        elif cut != "disconnected" and not ref.is_cut_vertex(v.n, v.edges, int(cut)):
            out.append(f"named cut vertex {cut} does not disconnect the graph")
    elif not v.two_connected:
        out.append("no cut vertex named for a graph that is not 2-connected")
    if "reason.edge_in_no_circuit" in fields:
        e = tuple(map(int, fields["reason.edge_in_no_circuit"].split("-")))
        if e not in v.edges or v.m22 is None or e in v.m22.stressed:
            out.append(f"edge {e} named as in no circuit is stressed or absent")
    if "reason.matroid_disconnected" in fields:
        k = int(fields["reason.matroid_disconnected"].split()[0])
        if v.m22 is None or k != v.m22.components:
            out.append(f"{k} matroid components named, reference differs")
    if fields.get("sufficient_conditions", "none") != "none" and not v.globally_rigid:
        out.append("a sufficient condition fired on a graph that is not globally rigid")
    return out


def _ear_problems(fields, ears, v: ref.Verdict) -> list[str]:
    if not v.m22_connected:
        return ["ears printed for a graph that is not M(2,2)-connected"] if ears else []
    if not ears:
        return ["no ear decomposition printed for an M(2,2)-connected graph"]
    out = []
    if [i for i, _ in ears] != list(range(1, len(ears) + 1)):
        out.append("ears are not numbered 1..t")
    covered: set = set()
    sizes, new = [], []
    for i, circ in ears:
        c = set(circ)
        if i > 1 and not c & covered:
            out.append(f"ear {i} does not meet the previous ears (E1)")
        if not c - covered:
            out.append(f"ear {i} adds no new edge (E2)")
        if not ref.is_circuit(c):
            out.append(f"ear {i} is not a circuit of the (2,2) matroid")
        sizes.append(len(c))
        new.append(len(c - covered))
        covered |= c
    if covered != set(v.edges):
        out.append("the ears do not cover exactly the edge set")
    summary = (f"t={len(ears)} circuit_sizes=[{','.join(map(str, sizes))}] "
               f"new_edges=[{','.join(map(str, new))}]")
    if fields.get("reason.ear_decomposition") != summary:
        out.append("reason.ear_decomposition does not summarise the printed ears")
    return out


def check_m22(argv, outs) -> list[str]:
    n, edges = ref.parse_graph6(Path(argv[1]).read_text())
    v = ref.Verdict(n, edges)
    fields, ears = _fields(outs[0])
    out = _verdict_problems(fields, v) + _ear_problems(fields, ears, v)
    euclid = v.euclidean()
    if fields.get("euclidean_verdict") != _yn(euclid):
        out.append(f"euclidean_verdict: got {fields.get('euclidean_verdict')}, reference {_yn(euclid)}")
    if euclid and v.globally_rigid != (len(edges) > 2 * n - 2):
        out.append("the transfer rule |E| > 2|V| - 2 fails")
    return out


def reduce_build(argv, outs) -> list[str]:
    n0, edges0 = ref.parse_graph6(Path(argv[1]).read_text())
    script, built = outs
    lines = [ln.split() for ln in script.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "base" or lines[0][1] not in ("K5-", "B1"):
        return ["the script does not start from K5- or B1"]
    n, edges = ref.base_graph(lines[0][1])
    out = []
    for no, (kind, *params) in enumerate(lines[1:], start=2):
        try:
            n2, edges2 = ref.apply_forward(n, edges, kind, [int(x) for x in params])
        except ValueError as exc:
            return out + [f"script line {no}: {exc}"]
        if n2 + len(edges2) <= n + len(edges):
            out.append(f"script line {no} does not raise |V|+|E|")
        n, edges = n2, edges2
    bn, bedges = ref.parse_edgelist(built)
    if (bn, bedges) != (n, sorted(edges)):
        out.append("build printed another graph than the script describes")
    if (bn, len(bedges)) != (n0, len(edges0)):
        out.append("rebuilt graph has another order or size than the input")
    elif _degrees(bn, bedges) != _degrees(n0, edges0):
        out.append("rebuilt graph has another degree sequence than the input")
    else:
        h0, h1 = ref.wl_histograms([(n0, edges0), (bn, bedges)])
        if h0 != h1:
            out.append("rebuilt graph has another 1-WL colour histogram than the input")
    return out


def _degrees(n, edges):
    return sorted(len(a) for a in ref.adjacency(n, edges))


def certify_lp(argv, outs) -> list[str]:
    graph, p, placement = argv[1], int(argv[3]), argv[5]
    n, edges = ref.parse_graph6(Path(graph).read_text())
    coords = ref.parse_placement(Path(placement).read_text())
    v = ref.Verdict(n, edges)
    fields, _ = _fields(outs[0])
    out = _verdict_problems(fields, v)
    at = ref.Matroid(n, edges, coords, p - 1)
    target = 2 * n - 2
    want = {
        "numeric.plane_p": str(p),
        "numeric.mode": "exact" if p % 2 == 0 else "float",
        "numeric.rank": f"{at.rank}/{target}",
        "numeric.inf_rigid": _yn(at.rank == target),
        "numeric.redundant": _yn(at.rank == target and at.all_stressed()),
        "numeric.matches_combinatorial": "true",
    }
    for key, value in want.items():
        if fields.get(key) != value:
            out.append(f"{key}: got {fields.get(key)}, reference {value}")
    return out


def experiment_gnp(argv, outs) -> list[str]:
    from planerigidity.randomgraphs import gnp_graph  # replays the CLI's samples

    opts = dict(zip(argv[1::2], argv[2::2]))
    samples, seed, prob = int(opts["--samples"]), int(opts["--seed"]), float(opts["--prob"])
    rng = random.Random(seed)
    want = [f"seed: {seed}", f"model: gnp prob={prob:g}"]
    for n in (int(x) for x in opts["--n"].split(",")):
        misses = []
        for i in range(samples):
            G = gnp_graph(n, prob, rng.randrange(2**63))
            if not ref.verdict_of_edges(n, sorted(G.edges)):
                misses.append(i)
        hits = samples - len(misses)
        line = f"n={n} samples={samples} globally_rigid={hits} frequency={hits / samples:.3f}"
        if misses and len(misses) <= 5:
            line += " misses=" + ",".join(map(str, misses))
        want.append(line)
    got = outs[0].splitlines()
    if got != want:
        return [f"experiment printed {got!r}, reference {want!r}"]
    return []


CHECKS = {
    "check-m22": check_m22,
    "reduce-m22": reduce_build,
    "certify-lp": certify_lp,
    "experiment-gnp": experiment_gnp,
}
