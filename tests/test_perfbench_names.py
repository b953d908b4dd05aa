"""The package names the benchmark reaches, checked in tier-1.

perfbench/tracing.py wraps the package's layers by name, and the
workloads call the public API by attribute lookups on the package; a
refactor that drops, renames or stops calling one of those names would
otherwise show only in a traced benchmark run.  These tests read
perfbench's files and change none of them.
"""

import importlib.util
import os
import re

import pytest

import prolate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_traced_name_is_in_the_package(tracing):
    assert tracing.Tracer().absent == set()


@pytest.mark.parametrize("name", ["workloads", "worker"])
def test_every_api_name_the_benchmark_calls_resolves(name):
    with open(os.path.join(ROOT, "perfbench", f"{name}.py")) as fh:
        names = set(re.findall(r"\bP\.([A-Za-z_]\w*)", fh.read()))
    assert names
    assert sorted(n for n in names if not hasattr(prolate, n)) == []


def test_traced_spans_of_the_context_see_calls(tracing):
    # the first pass of both workloads at one seed, through the tracer's
    # wrappers as a traced benchmark run installs them.  The context must
    # build its tables and solve through the module-level names the tracer
    # patches; calling around them would leave a span empty
    workloads = _load("workloads").WORKLOADS
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in workloads.values():
            jobs = workload.draw(7, 0)
            ctxs = {c: prolate.ProlateContext(c) for c in dict.fromkeys(c for c, _ in jobs)}
            rows = [workload.compute(prolate, ctxs[c], n) for c, n in jobs]
            assert all(workload.check(rows))
        tracer.collect()
    finally:
        tracer.uninstall()
    called = {key.rpartition(".")[0] for key, count in tracer.totals.items()
              if key.endswith(".calls") and count}
    assert {"solve", "build_matrix", "weights", "mode", "profile",
            "lambda_log"} <= called
