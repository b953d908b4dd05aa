"""Benchmark of the prolate package, end to end and per layer.

    python3 perfbench/run.py --workload deep_tail --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One client runs rows in a closed loop: each row starts
only after the previous one ends.  The rows are drawn from --seed (see
workloads.py), grouped in passes that each start from fresh contexts, and
passes run until --seconds are used up (at least 100 rows, so that ten row
latencies lie beyond p90).  The workload runs in a fresh single-threaded
process with PROLATE_CACHE_DIR removed from its environment.

Every row is checked; a row that raises TruncationNotConverged,
MatchFailure or ArithmeticError, or fails its check, counts as failed and
the run goes on.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are end to end:

    wall_s       wall time of one pass, averaged over the run's passes
    row_p50_ms   median row latency of one pass, averaged likewise
    row_p90_ms   90th-percentile row latency of one pass, averaged likewise
    setup_s      fresh process start until the first row is ready, median
                 of five starts (interpreter, import prolate, contexts)
    peak_rss_mb  peak resident memory of the workload process

Every pass has the same make-up of rows (see workloads.py), so its
percentiles land on the same kind of row.  Averaging over passes follows
the share of a run spent in a shared machine's slow spells smoothly,
where a statistic of all rows pooled jumps between its fast and slow
levels.

With --trace 1 the same inputs run untraced and traced in turn, and the
metrics are the per-layer counts and self times of tracing.py, per traced
pass, plus trace.overhead_s and failed_frac.  Lines before the last one
give the machine (nproc, Python, numpy, scipy), the failed share of rows,
and a sha256 of the first pass's rows as formatted by
prolate.experiments.rows_to_csv, which stays the same as long as the
printed results do.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 5
RUN_TIMEOUT_S = 140.0
SETUP_TIMEOUT_S = 6.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The workload process failed; no result can be reported."""


def clean_env():
    env = {k: v for k, v in os.environ.items() if k != "PROLATE_CACHE_DIR"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(argv, timeout):
    """Start a worker and wait for its "ready" line; returns (process, setup seconds)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--root", ROOT] + argv,
                            stdout=subprocess.PIPE, env=clean_env(), cwd=ROOT,
                            text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timeout)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def finish(proc, timeout):
    """Wait for a worker, killing it on timeout; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(args):
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc, setup = start_worker(argv, RUN_TIMEOUT_S)
    out = finish(proc, RUN_TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])
    setups = [setup]
    for _ in range(SETUP_STARTS - 1):
        proc, setup = start_worker(argv + ["--setup-only"], SETUP_TIMEOUT_S)
        finish(proc, SETUP_TIMEOUT_S)
        setups.append(setup)
    return result, statistics.median(setups)


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prolate", "__init__.py")):
        print(f"no prolate sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, setup = measure(args)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    env = result["env"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"machine: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"{args.workload} seed={args.seed}: {result['passes']} passes, "
          f"{attempted} rows, {failed} failed, failed_frac={failed / attempted:.6g}")
    print(f"rows sha256 (pass 1, {result['digest_rows']} rows): {result['digest']}")
    if args.trace:
        metrics = dict(result["layers"])
        metrics["failed_frac"] = (failed / attempted, "ratio")
        if result["absent"]:
            print("absent (name missing from the package): " + ", ".join(result["absent"]))
    else:
        cuts = [statistics.quantiles(times, n=10, method="inclusive")
                for times in result["latencies"]]
        metrics = {
            "wall_s": (statistics.fmean(result["walls"]), "s"),
            "row_p50_ms": (statistics.fmean(c[4] for c in cuts) * 1e3, "ms"),
            "row_p90_ms": (statistics.fmean(c[8] for c in cuts) * 1e3, "ms"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (result["rss_kb"] / 1024.0, "MB"),
        }
        print(f"row latency samples: {sum(map(len, result['latencies']))} "
              f"in {len(cuts)} passes")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
