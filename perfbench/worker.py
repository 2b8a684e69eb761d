"""The timed loop of one workload, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

Closed loop, one thread: each request starts after the previous one ends.
The seed fixes the warm-up request and the order of the requests in every
pass.  A pass runs every request once; at least MIN_PASSES passes run, and
another starts only if it is expected to end before the deadline, so every
run attempts whole passes.  The passes space a request's executions
seconds apart, across the machine's speed phases.

Each execution's time is scaled to the reference speed of calibrate.py,
from the kernel run just before and just after it.  Garbage is collected
before every execution; the objects left by the imports and the warm-up
are frozen first, so that collection costs microseconds and scans only
what the requests allocate.

Prints one JSON object: each request's scaled times (one per pass), the
outputs, counts, peak RSS and, when traced, each request's per-layer
metrics (the median over its executions, times scaled likewise).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# one BLAS/OpenMP thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from tracing import COUNTED, PER_LAYER, Tracer, install, layer_metrics  # noqa: E402
from workloads import requests  # noqa: E402

MIN_PASSES = 3


def call(cli, argv, stdin_text=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed request, not a dead run
        rc, err = 70, io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def execute(cli, req) -> tuple[int, list[str], str, float]:
    t0 = perf_counter()
    rc, out, err = call(cli, req.argv)
    outs = [out]
    if rc == 0 and req.then_build:
        rc, built, err = call(cli, ("build", "-"), stdin_text=out)
        outs.append(built)
    return rc, outs, err, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None, help="write the first pass's spans here (gzip)")
    args = ap.parse_args(argv)

    from planerigidity import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    pool = requests(args.workload)
    rng = random.Random(args.seed)
    execute(cli, rng.choice(pool))
    kernel_seconds()
    gc.collect()
    gc.freeze()

    times, outputs, errors, layers, spans_kept = {}, {}, {}, {}, {}
    first_counts, unstable, kernels = {}, set(), []
    attempted = failed = passes = 0
    start = perf_counter()
    deadline = start + args.seconds
    order = list(pool)
    before = kernel_seconds()
    while True:
        rng.shuffle(order)
        pass_start = perf_counter()
        for req in order:
            gc.collect()
            if tracer:
                tracer.begin()
            rc, outs, err, elapsed = execute(cli, req)
            after = kernel_seconds()
            kernels.append(after)
            scale = REFERENCE_S / ((before + after) / 2)
            before = after
            attempted += 1
            if rc != 0:
                failed += 1
                errors.setdefault(req.name, f"exit {rc}: {err.strip()[:300]}")
                continue
            if outputs.setdefault(req.name, outs) != outs:
                unstable.add(f"{req.name}: output differs between executions")
            times.setdefault(req.name, []).append(elapsed * scale)
            if tracer:
                spans, counts = tracer.end()
                metrics = layer_metrics(spans, counts)
                counted = {m: metrics[m] for m in COUNTED}
                if first_counts.setdefault(req.name, counted) != counted:
                    unstable.add(f"{req.name}: layer counts differ between executions")
                for m in metrics:
                    if m not in COUNTED:
                        metrics[m] *= scale
                layers.setdefault(req.name, []).append(metrics)
                spans_kept.setdefault(req.name, spans)
        passes += 1
        now = perf_counter()
        if passes >= MIN_PASSES and now + (now - pass_start) > deadline:
            break

    if args.spans and spans_kept:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(args.spans, "wt") as fh:
            for name in sorted(spans_kept):
                fh.write(json.dumps({"request": name, "spans": spans_kept[name]}) + "\n")

    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "measured_s": perf_counter() - start,
        "kernel_median_s": statistics.median(kernels),
        "graphs": {r.name: r.graphs for r in pool},
        "times": times,
        "outputs": outputs,
        "errors": errors,
        "unstable": sorted(unstable),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {
            name: {m: statistics.median(r[m] for r in runs) for m in PER_LAYER}
            for name, runs in layers.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
