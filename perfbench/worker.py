"""One benchmark process: import the package, run one workload, report.

Started by run.py in a fresh interpreter with a clean environment.  It
prints "ready" once the package is imported and the first pass's contexts
exist, then runs passes and prints one JSON line with the raw timings.
With --setup-only it stops after "ready".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

MIN_ROWS = 100      # so that at least ten row latencies lie beyond p90


def import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import prolate
    where = os.path.realpath(prolate.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"prolate imported from {where}, not from {src}")
    return prolate


def contexts(P, jobs):
    return {c: P.ProlateContext(c) for c in dict.fromkeys(c for c, _ in jobs)}


def run_pass(P, workload, jobs, ctxs=None, tracer=None):
    """Run one pass in row order; returns (wall seconds, rows, row seconds)."""
    caught = tuple(getattr(P, name) for name in ("TruncationNotConverged", "MatchFailure")
                   if hasattr(P, name)) + (ArithmeticError,)
    start = perf_counter()
    if ctxs is None:
        ctxs = contexts(P, jobs)
    rows, times = [], []
    for c, n in jobs:
        t0 = perf_counter()
        try:
            if tracer is None:
                row = workload.compute(P, ctxs[c], n)
            else:
                row = tracer.call("row", workload.compute, P, ctxs[c], n)
        except caught as err:
            row = {"c": c, "n": n, "error": f"{type(err).__name__}: {err}"}
        times.append(perf_counter() - t0)
        rows.append(row)
    return perf_counter() - start, rows, times


def digest(workload, rows):
    """sha256 of the rows in the package's own CSV format."""
    from prolate.experiments import rows_to_csv
    return hashlib.sha256(rows_to_csv(rows, workload.header).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    P = import_package(args.root)
    first = workload.draw(args.seed, 0)
    first_ctxs = contexts(P, first)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy
    result = {
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__},
        "walls": [], "latencies": [], "attempted": 0, "failed": 0,
    }
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        result["overheads"] = []

    def tally(jobs, ctxs=None, traced=False):
        if traced:
            tracer.install()
        try:
            wall, rows, times = run_pass(P, workload, jobs, ctxs,
                                         tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.collect()
        verdicts = workload.check(rows)
        result["attempted"] += len(rows)
        result["failed"] += verdicts.count(False)
        return wall, rows, times

    start = perf_counter()
    k = 0
    while True:
        jobs = first if k == 0 else workload.draw(args.seed, k)
        ctxs = first_ctxs if k == 0 else None
        if tracer is None:
            wall, rows, times = tally(jobs, ctxs)
            result["walls"].append(wall)
            result["latencies"].append(times)
            enough = sum(map(len, result["latencies"])) >= MIN_ROWS
        else:
            # the same inputs untraced and traced, alternating which goes
            # first, so that the difference is the tracing overhead
            order = (False, True) if k % 2 == 0 else (True, False)
            walls = {}
            for traced in order:
                walls[traced], rows, _ = tally(jobs, ctxs if traced == order[0] else None, traced)
            result["walls"].append(walls[True] + walls[False])
            result["overheads"].append(walls[True] - walls[False])
            enough = True
        if k == 0:
            result["digest"] = digest(workload, rows)
            result["digest_rows"] = len(rows)
        k += 1
        elapsed = perf_counter() - start
        if enough and elapsed + statistics.median(result["walls"]) > args.seconds:
            break

    result["passes"] = k if tracer is None else 2 * k
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        metrics, absent = tracer.metrics()
        metrics["trace.overhead_s"] = (statistics.median(result["overheads"]), "s")
        result["layers"] = metrics
        result["absent"] = absent
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
