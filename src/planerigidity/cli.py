"""Command-line surface.

Subcommands: check, reduce, build, rank, certify, random, experiment.
Graphs are read from a file path or '-' (stdin) in graph6 or edge-list
format.  Exit codes: 0 success, 1 precondition or input failure, 2 usage
error.  All randomness is driven by --seed, so outputs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .decide import certify, is_globally_rigid_analytic
from .formats import (
    FormatError,
    MoveScript,
    _int,
    ear_decomposition_text,
    emit_graph,
    emit_move_script,
    emit_placement,
    parse_graph,
    parse_move_script,
    parse_placement,
)
from .geometry import NormedPlane, random_regular_placement, rank_of, rigidity_operator
from .moves import MoveError, apply, base_graph, random_m22_graph, reduce_to_base
from .randomgraphs import gnp_graph, random_regular_graph


def integer(text: str) -> int:
    """An integer option, read as the text formats read an integer
    (`formats._int`): an optional '-' and ASCII digits, nothing else, so
    '+1', '1_0', ' 1' and other scripts' digits are refused.  As an
    argparse type a refusal is a usage error (exit 2)."""
    if text != text.strip():
        raise ValueError(f"not an integer: {text!r}")
    return _int(text)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_graph(path: str, fmt: str):
    return parse_graph(_read_text(path), fmt)


def _cmd_check(args) -> int:
    G = _load_graph(args.graph, args.format)
    report = is_globally_rigid_analytic(G)
    print(report.to_text())
    if args.certificate and report.ear_certificate is not None:
        sys.stdout.write(ear_decomposition_text(report.ear_certificate))
    return 0


def _cmd_reduce(args) -> int:
    G = _load_graph(args.graph, args.format)
    trace = reduce_to_base(G)
    script = MoveScript(trace.base, tuple(trace.forward_script()))
    sys.stdout.write(emit_move_script(script))
    return 0


def _cmd_build(args) -> int:
    script = parse_move_script(_read_text(args.script))
    G = base_graph(script.base)
    for mv in script.moves:
        G = apply(G, mv)
    sys.stdout.write(emit_graph(G, args.format))
    return 0


def _placement_for(args, G, plane):
    if args.placement:
        placement = parse_placement(_read_text(args.placement))
        if placement.n != G.n:
            raise ValueError("placement does not cover the graph's vertices")
    else:
        placement = random_regular_placement(G, plane, args.seed)
    if args.save_placement:
        with open(args.save_placement, "w") as fh:
            fh.write(emit_placement(placement))
    return placement


def _cmd_rank(args) -> int:
    G = _load_graph(args.graph, args.format)
    plane = NormedPlane(args.p)
    placement = _placement_for(args, G, plane)
    op = rigidity_operator(G, placement, plane, exact=args.mode == "exact" or None)
    mode = ("exact" if op.exact else "float") if args.mode == "auto" else args.mode
    print(rank_of(op, mode, args.tol))
    return 0


def _cmd_certify(args) -> int:
    G = _load_graph(args.graph, args.format)
    plane = NormedPlane(args.p)
    report = certify(G, plane, args.seed, placement=_placement_for(args, G, plane))
    print(report.to_text())
    return 0


def _refuse_n_for_m22(args) -> None:
    """The m22 walk sets its own size, so --n has no meaning there."""
    if args.model == "m22" and args.n is not None:
        raise ValueError("--n does not apply to --model m22")


def _sample(args, n, seed):
    """One graph of args.model drawn from the seed; n is the vertex count
    of gnp and regular, and None where it was not given."""
    if args.model == "m22":
        return random_m22_graph(args.steps, seed)
    if n is None:
        raise MoveError(f"--n is required for model {args.model}")
    if args.model == "gnp":
        return gnp_graph(n, args.prob, seed)
    return random_regular_graph(n, args.degree, seed)


def _cmd_random(args) -> int:
    _refuse_n_for_m22(args)
    G = _sample(args, args.n, args.seed)
    sys.stdout.write(emit_graph(G, args.format))
    return 0


def _cmd_experiment(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be non-negative")
    _refuse_n_for_m22(args)
    try:
        ns = [integer(x) for x in args.n.split(",")] if args.n is not None else [10]
    except ValueError:
        raise ValueError(f"--n must be comma-separated integers, got {args.n!r}") from None
    if args.model == "m22":
        ns = [None]  # sizes vary with the walk; n is not a parameter
    rng = random.Random(args.seed)
    # the lines are printed only once every sample is drawn, so that a
    # generator error leaves nothing on stdout
    lines = [f"seed: {args.seed}"]
    if args.model == "regular":
        lines.append(f"model: regular degree={args.degree}")
    elif args.model == "gnp":
        lines.append(f"model: gnp prob={args.prob:g}")
    else:
        lines.append(f"model: m22 steps={args.steps}")
    for n in ns:
        hits = 0
        misses = []
        for i in range(args.samples):
            report = is_globally_rigid_analytic(_sample(args, n, rng.randrange(2**63)))
            if report.globally_rigid_analytic:
                hits += 1
            else:
                misses.append(i)
        freq = hits / args.samples if args.samples else 0.0
        prefix = f"n={n} " if n is not None else ""
        line = (
            f"{prefix}samples={args.samples} "
            f"globally_rigid={hits} frequency={freq:.3f}"
        )
        if misses and len(misses) <= 5:
            line += " misses=" + ",".join(str(i) for i in misses)
        lines.append(line)
    print("\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    Sharing is safe: parse_args reads the parser and fills a new Namespace
    on every call, so no argument of one call reaches the next.
    """
    parser = argparse.ArgumentParser(
        prog="planerigidity",
        description="Global rigidity of graphs in analytic normed planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", help="graph file, or - for stdin")
        p.add_argument(
            "--format", default="auto", choices=["auto", "graph6", "edgelist"]
        )

    p = sub.add_parser("check", help="decide global rigidity in analytic normed planes")
    add_graph_arg(p)
    p.add_argument("--certificate", action="store_true",
                   help="also print the ear decomposition as sorted edge lists")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="reduce an M(2,2)-connected graph to K5- or B1")
    add_graph_arg(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("build", help="rebuild a graph from a move script")
    p.add_argument("script", help="move script file, or - for stdin")
    p.add_argument("--format", default="edgelist", choices=["graph6", "edgelist"])
    p.set_defaults(func=_cmd_build)

    def add_placement_args(p):
        p.add_argument("--placement", default=None,
                       help="placement file to use instead of sampling")
        p.add_argument("--save-placement", default=None,
                       help="write the placement that was used to this file")

    p = sub.add_parser("rank", help="rank of the rigidity operator at a random placement")
    add_graph_arg(p)
    p.add_argument("--p", type=float, default=4.0, help="plane exponent (default 4)")
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "float"])
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=integer, default=0)
    add_placement_args(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("certify", help="combinatorial decision cross-checked numerically")
    add_graph_arg(p)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--seed", type=integer, default=0)
    add_placement_args(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("random", help="emit a seeded random graph")
    p.add_argument("--model", required=True, choices=["gnp", "regular", "m22"])
    p.add_argument("--n", type=integer, default=None)
    p.add_argument("--degree", type=integer, default=4)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--steps", type=integer, default=10)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--format", default="graph6", choices=["graph6", "edgelist"])
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser(
        "experiment",
        help="empirical global-rigidity frequencies for random models",
    )
    p.add_argument("--model", required=True, choices=["gnp", "regular", "m22"])
    p.add_argument("--n", default=None, help="comma-separated vertex counts")
    p.add_argument("--degree", type=integer, default=4)
    p.add_argument("--prob", type=float, default=0.5)
    p.add_argument("--steps", type=integer, default=10)
    p.add_argument("--samples", type=integer, default=100)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, MoveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
