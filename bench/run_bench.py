"""End-to-end timings of the prolate CLI, written as one JSON object.

    python3 bench/run_bench.py --parent ../prolate-parent --change . \
        --tier1 --perfbench-seeds 101-110 --out BENCH_<n>.json

--parent and --change each name a source checkout (one holding
src/prolate).  Both are first copied into fresh sibling directories,
parent/ and change/ under one temporary directory (without .git and
without any cached bytecode), and every timing runs from those copies,
which are removed at the end.  So the two sides differ only in their
files: not in where they lie, in the length of their paths or in bytecode
left behind by earlier runs (with PYTHONDONTWRITEBYTECODE set, every
start compiles the sources, and a side that had .pyc files would start
faster).  Every CLI command runs at its defaults in a fresh process,
REPEATS times per side; the two sides alternate within each repeat, and
which side goes first alternates between repeats, so a slow spell of a
shared machine falls on both.  For each side and command the file records
the median wall time (and every sample), the exit code, and the sha256 of
stdout, which must be the same in every repeat.  BLAS and OpenMP are pinned
to one thread.

With --tier1, the tier-1 suite (`python -m pytest -q
--continue-on-collection-errors`, the package imported from the
checkout's src/) also runs TIER1_REPEATS times per side, alternating the
same way; the file records each side's median wall time, every sample, the
exit code and pytest's closing tally.

With --perfbench-seeds, each seed is also one alternating pair of
`perfbench/run.py` runs per workload, each side running its own checkout's
benchmark; the file then holds every run's end-to-end metrics, each side's
median and quartiles, and how many pairs each side won (lower is better for
every one of these metrics).  It also states the standing gate itself:
per workload, `rows_sha256_equal` (the two sides printed the same rows in
every pair), and for each end-to-end metric of the change's BENCHMARK.json
`gain_shown` (the change won at least 9 in 10 of the pairs and its median
beats the parent's by more than the parent's interquartile range) and
`within_bound` (the change median is at most the parent median times
1 + the metric's bound).

Only the standard library is used, so the script adds no import time of its
own to what it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

COMMANDS = (("table1",), ("table2",), ("figures",), ("experiment3",),
            ("verify", "--quick"), ("verify",))
WORKLOADS = ("deep_tail", "route_oracle")
PERFBENCH_SECONDS = 55
REPEATS = 7
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 600
# left out of each side's copy
NOT_COPIED = (".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")


def sibling_copies(sides, tmp):
    """Copy each side's checkout to tmp/<side>; returns {side: copy}."""
    ignore = shutil.ignore_patterns(*NOT_COPIED)
    copies = {}
    for name, root in sides.items():
        copies[name] = os.path.join(tmp, name)
        shutil.copytree(root, copies[name], ignore=ignore)
    return copies


def _env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _alternating(repeat, sides):
    """The (name, root) pairs in run order: parent first on even repeats."""
    pairs = list(sides.items())
    return pairs if repeat % 2 == 0 else pairs[::-1]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _timed(root, argv):
    """One fresh Python process in a checkout; returns (wall seconds, process)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=_env(root),
                          capture_output=True, timeout=TIMEOUT_S)
    return perf_counter() - t0, proc


def _summarise(runs, tag):
    """Median and samples of (wall, exit code, tag value) runs of one command;
    the exit code and tag value are listed only if the runs disagree."""
    walls = [w for w, _, _ in runs]
    codes = sorted({rc for _, rc, _ in runs})
    values = sorted({v for _, _, v in runs})
    return {"median_wall_s": round(statistics.median(walls), 4),
            "wall_s": [round(w, 4) for w in walls],
            "exit_code": codes[0] if len(codes) == 1 else codes,
            tag: values[0] if len(values) == 1 else values}


def run_command(root, argv):
    """One fresh CLI process; returns (wall seconds, exit code, stdout sha256)."""
    wall, proc = _timed(root, ("-m", "prolate.cli", *argv))
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def bench_commands(sides):
    samples = {name: {" ".join(c): [] for c in COMMANDS} for name in sides}
    for repeat in range(REPEATS):
        for argv in COMMANDS:
            for name, root in _alternating(repeat, sides):
                samples[name][" ".join(argv)].append(run_command(root, argv))
    return {name: {command: _summarise(runs, "stdout_sha256")
                   for command, runs in commands.items()}
            for name, commands in samples.items()}


def run_tier1(root):
    """One tier-1 run; returns (wall seconds, exit code, pytest's tally)."""
    wall, proc = _timed(root, TIER1)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    # "332 passed, 2 skipped in 20.91s" less its timing
    tally = lines[-1].rsplit(" in ", 1)[0] if lines else ""
    return wall, proc.returncode, tally


def bench_tier1(sides):
    runs = {name: [] for name in sides}
    for repeat in range(TIER1_REPEATS):
        for name, root in _alternating(repeat, sides):
            runs[name].append(run_tier1(root))
    return {name: _summarise(r, "tally") for name, r in runs.items()}


def gate(parent, change, bound):
    """The standing verdict on one lower-is-better end-to-end metric.

    parent[i] and change[i] are the metric in pair i.  gain_shown: the
    change won at least 9 in 10 of the pairs, and its median lies below the
    parent's by more than the parent's interquartile range.  within_bound:
    the change median is at most the parent median times (1 + bound).
    """
    won = sum(c < p for p, c in zip(parent, change, strict=True))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    return {"gain_shown": 10 * won >= 9 * len(parent) and p_med - c_med > q3 - q1,
            "within_bound": c_med <= p_med * (1 + bound)}


def end_to_end_metrics(root):
    """{name: entry} of the end-to-end metrics in root/BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if any(m.get("better", "lower") != "lower" for m in metrics.values()):
        raise ValueError("gate() judges lower-is-better metrics only")
    return metrics


def run_perfbench(root, workload, seed):
    """One perfbench run of a checkout; returns its end-to-end metrics."""
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(PERFBENCH_SECONDS)],
                          cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {root}: "
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    digest = next((ln.split(": ", 1)[1] for ln in lines
                   if ln.startswith("rows sha256")), None)
    return metrics, digest


def bench_perfbench(sides, seeds):
    end_to_end = end_to_end_metrics(sides["change"])
    out = {}
    for workload in WORKLOADS:
        runs = {name: [] for name in sides}
        for i, seed in enumerate(seeds):
            for name, root in _alternating(i, sides):
                metrics, digest = run_perfbench(root, workload, seed)
                runs[name].append({"seed": seed, "rows_sha256": digest, **metrics})
        summary = {}
        pairs = list(zip(runs["parent"], runs["change"]))
        for metric in runs["parent"][0]:
            if metric in ("seed", "rows_sha256", "failed"):
                continue
            entry = {}
            for name in sides:
                values = [r[metric] for r in runs[name]]
                q1, q3 = _quartiles(values)
                entry[name] = {"median": statistics.median(values),
                               "q1": q1, "q3": q3}
            entry["pairs_won"] = {
                "parent": sum(p[metric] < c[metric] for p, c in pairs),
                "change": sum(c[metric] < p[metric] for p, c in pairs),
            }
            if metric in end_to_end:
                entry.update(gate([p[metric] for p, _ in pairs],
                                  [c[metric] for _, c in pairs],
                                  end_to_end[metric]["bound"]))
            summary[metric] = entry
        out[workload] = {
            "seconds": PERFBENCH_SECONDS,
            "rows_sha256_equal": all(p["rows_sha256"] == c["rows_sha256"]
                                     for p, c in pairs),
            "summary": summary, "runs": runs}
    return out


def machine():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": nproc, "python": platform.python_version(), **versions,
            "blas_threads": 1}


def _checkout(path):
    root = os.path.abspath(path)
    if not os.path.isfile(os.path.join(root, "src", "prolate", "cli.py")):
        raise argparse.ArgumentTypeError(f"no src/prolate/cli.py under {path!r}")
    return root


def _parse_seeds(text):
    lo, sep, hi = text.partition("-")
    try:
        return list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    except ValueError:
        raise argparse.ArgumentTypeError("seeds look like 101-110 or 7")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=_checkout, required=True, metavar="PATH",
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=_checkout, required=True, metavar="PATH",
                    help="checkout of the change")
    ap.add_argument("--perfbench-seeds", type=_parse_seeds, default=None,
                    metavar="LO-HI", help="one perfbench pair per seed and workload")
    ap.add_argument("--tier1", action="store_true",
                    help="also time the tier-1 test suite on each side")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="run_bench-") as tmp:
        sides = sibling_copies({"parent": args.parent, "change": args.change}, tmp)
        report = {"machine": machine(),
                  "sides": list(sides),
                  "repeats": REPEATS,
                  "commands": bench_commands(sides)}
        if args.tier1:
            report["tier1"] = {"repeats": TIER1_REPEATS, **bench_tier1(sides)}
        if args.perfbench_seeds:
            report["perfbench"] = bench_perfbench(sides, args.perfbench_seeds)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
