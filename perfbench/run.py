"""Benchmark of the planerigidity CLI: check, reduce, certify and experiment.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/README.md) against the
package in ../src, checks every output against the reference computed in
reference.py, and prints one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run.  Exits 1 when the run
cannot be made (no package to measure, the worker failed, or a traced
wrapper that the workload should exercise never fired).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # the checks replay experiment samples with the program

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is kept
RUN_LIMIT_S = 170  # the whole run, worker included, ends within this
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def setup_seconds(workload: str, deadline: float) -> float:
    """Median time, in fresh interpreters, to import the package and parse
    the workload's input files, on the reference time scale."""
    env = dict(os.environ, **ENV)
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, env=env, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_worker(args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        cmd += ["--spans", str(out)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ, **ENV),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def harrell_davis(values: list[float], q: float, grid: int = 100) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    mass of their interval, integrated by the midpoint rule.  It estimates
    the same quantile as the order statistic, with a smaller variance when
    each value is noisy.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (j + 0.5) / grid) / n for j in range(grid))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(result: dict, setup_s: float) -> dict:
    """Throughput and latency from each request's median scaled time."""
    per_request = {name: statistics.median(ts) for name, ts in result["times"].items()}
    times = list(per_request.values())
    graphs = sum(result["graphs"][name] for name in per_request)
    return {
        "graphs_per_s": {"value": graphs / sum(times), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * harrell_davis(times, 0.5), "unit": "ms"},
        # every workload has at least 100 requests, so ten or more lie beyond
        "latency_p90_ms": {"value": 1000 * harrell_davis(times, 0.9), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    """Each per-layer metric summed over the workload's requests."""
    from tracing import COUNTED, PER_LAYER

    out = {}
    for metric in PER_LAYER:
        total = sum(m[metric] for m in result["layers"].values())
        if metric in COUNTED:
            out[metric] = {"value": int(total), "unit": "count"}
        else:
            out[metric] = {"value": total, "unit": "ms"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="planerigidity CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "planerigidity" / "__init__.py").is_file():
        print(f"error: no package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 1
    from checks import CHECKS, known_fault
    from workloads import EXERCISED, WORKLOADS, requests

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 1

    try:
        setup_s = None if args.trace else setup_seconds(args.workload, deadline)
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(result["unstable"])
    failed = result["failed"]
    check = CHECKS[args.workload]
    for req in requests(args.workload):
        outs = result["outputs"].get(req.name)
        found = check(req.argv, outs) if outs is not None else []
        if found and all(known_fault(p) for p in found):
            failed += len(result["times"][req.name])
            result["errors"].setdefault(req.name, found[0])
        else:
            problems += [f"{req.name}: {p}" for p in found]
    for name, err in sorted(result["errors"].items()):
        print(f"failed: {name}: {err}", file=sys.stderr)
    graphs = sum(result["graphs"][name] for name in result["times"])
    print(f"{result['passes']} passes in {result['measured_s']:.2f} s; "
          f"kernel median {1000 * result['kernel_median_s']:.3f} ms; "
          f"graphs_per_s {graphs / sum(map(statistics.median, result['times'].values())):.4f}",
          file=sys.stderr)
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(result)
        silent = [m for m in EXERCISED[args.workload] if metrics[m]["value"] == 0]
        if silent:
            print(f"error: traced layers never fired on {args.workload}: {silent}",
                  file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(result, setup_s)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
