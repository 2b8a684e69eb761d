"""Span tracing of planerigidity's layers, installed from outside the package.

`install()` wraps every public function of the layer modules and rebinds
the wrapper at every place the function is bound: a function imported by
name into another module (`ear_decomposition` lives in `sparsity` and is
bound again in `decide`) is replaced there too.  It also counts
`PebbleGame` constructions and `insert` calls and the steps of every
reduction.  A span is `[name, start, end, parent]`, with `parent` the index
of the enclosing span in the same request, or -1.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("formats", "graphs", "sparsity", "moves", "geometry", "decide", "randomgraphs")

# per-layer metric -> (kind, span names); kinds: "calls" counts spans, "ms"
# sums the spans not nested in another span of the same metric, "self_ms"
# sums durations minus direct children, "count" reads a counter and
# "derived" is computed in layer_metrics.
PER_LAYER = {
    "sparsity.pebble_games": ("count", ()),
    "sparsity.pebble_inserts": ("count", ()),
    "sparsity.rank2k.calls": ("calls", ("sparsity.rank2k",)),
    "sparsity.ear_decomposition.ms": ("ms", ("sparsity.ear_decomposition",)),
    "sparsity.m22_components.calls": ("calls", ("sparsity.m22_components",)),
    "sparsity.m22_components.ms": ("ms", ("sparsity.m22_components",)),
    "sparsity.is_m22_connected.calls": ("calls", ("sparsity.is_m22_connected",)),
    "sparsity.is_m22_connected.ms": ("ms", ("sparsity.is_m22_connected",)),
    "moves.find_admissible_reduction.ms": ("ms", ("moves.find_admissible_reduction",)),
    "moves.candidates_tried": ("derived", ()),
    "moves.apply.calls": ("calls", ("moves.apply",)),
    "moves.forward_script.ms": ("ms", ("moves.ReductionTrace.forward_script",)),
    "moves.reduction_steps": ("count", ()),
    "graphs.is_k_connected.calls": ("calls", ("graphs.is_k_connected",)),
    "graphs.is_k_connected.ms": ("ms", ("graphs.is_k_connected",)),
    "graphs.edge_connectivity.ms": ("ms", ("graphs.edge_connectivity",)),
    "graphs.transitivity.ms": ("ms", ("graphs.is_vertex_transitive", "graphs.is_edge_transitive")),
    "graphs.find_isomorphism.calls": ("calls", ("graphs.find_isomorphism",)),
    "graphs.find_isomorphism.ms": ("ms", ("graphs.find_isomorphism",)),
    "geometry.rigidity_operator.ms": ("ms", ("geometry.rigidity_operator",)),
    "geometry.rank_of.exact.calls": ("calls", ("geometry.rank_of.exact",)),
    "geometry.rank_of.exact.ms": ("ms", ("geometry.rank_of.exact",)),
    "geometry.rank_of.float.calls": ("calls", ("geometry.rank_of.float",)),
    "geometry.rank_of.float.ms": ("ms", ("geometry.rank_of.float",)),
    "decide.is_globally_rigid_analytic.self_ms": ("self_ms", ("decide.is_globally_rigid_analytic",)),
    "decide.sufficient_checks.ms": ("ms", ("decide.sufficient_checks",)),
    "decide.is_globally_rigid_euclidean.ms": ("ms", ("decide.is_globally_rigid_euclidean",)),
    "decide.certify.self_ms": ("self_ms", ("decide.certify",)),
    "formats.parse_ms": ("ms", (
        "formats.parse_graph", "formats.parse_graph6", "formats.parse_edgelist",
        "formats.parse_placement", "formats.parse_move_script",
    )),
    "formats.emit_ms": ("ms", (
        "formats.emit_graph", "formats.emit_graph6", "formats.emit_edgelist",
        "formats.emit_placement", "formats.emit_move_script",
        "formats.edge_set_text", "formats.ear_decomposition_text",
    )),
    "randomgraphs.gnp_graph.ms": ("ms", ("randomgraphs.gnp_graph",)),
}

# the metrics that count work; they must repeat exactly between executions
COUNTED = tuple(m for m, (kind, _) in PER_LAYER.items() if kind in ("count", "calls", "derived"))


class Tracer:
    """Spans and counters of one request execution at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def end(self) -> tuple[list[list], dict]:
        return self.spans, dict(self.counts)

    def wrap(self, name, fn, after=None):
        """Record a span around fn; `name` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in the package's modules."""
    for modname, mod in list(sys.modules.items()):
        if modname != "planerigidity" and not modname.startswith("planerigidity."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _rank_of_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
    return f"geometry.rank_of.{mode}"


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever they are bound."""
    import planerigidity  # noqa: F401  (binds every layer module)

    for layer in LAYERS:
        mod = sys.modules[f"planerigidity.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = _rank_of_name if (layer, attr) == ("geometry", "rank_of") else f"{layer}.{attr}"
            after = None
            if (layer, attr) == ("moves", "reduce_to_base"):
                def after(trace):
                    tracer.counts["moves.reduction_steps"] += len(trace.steps)
            _rebind(fn, tracer.wrap(name, fn, after))

    from planerigidity import moves, sparsity

    game = sparsity.PebbleGame
    init, insert = game.__init__, game.insert

    def counted_init(self, *args, **kwargs):
        tracer.counts["sparsity.pebble_games"] += 1
        init(self, *args, **kwargs)

    def counted_insert(self, u, v):
        tracer.counts["sparsity.pebble_inserts"] += 1
        return insert(self, u, v)

    game.__init__, game.insert = counted_init, counted_insert
    trace_cls = moves.ReductionTrace
    trace_cls.forward_script = tracer.wrap(
        "moves.ReductionTrace.forward_script", trace_cls.forward_script
    )


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one request execution."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    out = {}
    for metric, (kind, names) in PER_LAYER.items():
        idx = [i for nm in names for i in by_name.get(nm, ())]
        if kind == "derived":
            continue
        if kind == "count":
            out[metric] = counts.get(metric, 0)
        elif kind == "calls":
            out[metric] = len(idx)
        elif kind == "ms":
            group = set(names)
            out[metric] = 1000 * sum(
                spans[i][2] - spans[i][1] for i in idx if not _inside(spans, i, group)
            )
        else:
            child = Counter()
            for s in spans:
                if s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            out[metric] = 1000 * sum(spans[i][2] - spans[i][1] - child[i] for i in idx)
    # membership tests made by the reduction search, beyond its entry check
    search = set(by_name.get("moves.find_admissible_reduction", ()))
    out["moves.candidates_tried"] = sum(
        1 for i in by_name.get("sparsity.is_m22_connected", ()) if spans[i][3] in search
    ) - len(search)
    return out


def _inside(spans, i, group) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in group:
            return True
        p = spans[p][3]
    return False

