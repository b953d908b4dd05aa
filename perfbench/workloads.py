"""Seeded workloads of the prolate benchmark: inputs, timed rows, checks.

A run is a sequence of passes, each starting from fresh contexts, so no
pass can reuse what another pass left in a cache.  Every pass has the same
make-up: a fixed number of rows per band limit, one in each equal stratum
of the index range.  Where in its stratum a row falls, and where in its
range a band limit falls, follows a golden-ratio sequence from a start
drawn from the seed: the same seed always gives the same (c, n) inputs,
and the passes of any run cover every stratum evenly whatever the seed, so
runs differ in their inputs but hardly in their cost, and the rank of a
row-latency percentile always lands in the same kind of row.  Band limits
are drawn in narrow ranges, since the cost of a row grows with c.

Each workload has three parts:

* draw(seed, k) -> list of (c, n), in the order the rows run;
* compute(P, ctx, n) -> row dict; this is the timed part and calls only the
  public API of the package P through attribute lookups at call time, so
  the tracer's wrappers see every call;
* check(rows) -> list of bools, one verdict per row, untimed.
"""

from __future__ import annotations

import math
import random

TWO_OVER_PI = 2.0 / math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _positions(name: str, seed: int, count: int, index: int) -> list:
    """count points in [0, 1) for pass index, each on its own golden-ratio
    sequence from a start drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    return [(rng.random() + index * GOLDEN) % 1.0 for _ in range(count)]


def _stratified(values, positions):
    """One element of values per equal stratum, at the given positions;
    the strata do not overlap, so no element is taken twice."""
    k = len(positions)
    edges = [len(values) * i // k for i in range(k + 1)]
    return [values[a + int(u * (b - a))] for a, b, u in zip(edges, edges[1:], positions)]


def _band_limit(lo: int, hi: int, u: float) -> float:
    return float(lo + int(u * (hi - lo + 1)))


def _ok(row, *keys) -> bool:
    return "error" not in row and all(row.get(k) is not None for k in keys)


class DeepTail:
    """Experiment-3 rows at c ~ 1e4, where |lambda_n| runs from e^-5 to e^-155."""

    name = "deep_tail"
    rows_per_pass = 24
    c_range = (9900, 10100)
    header = ["c", "n", "log_abs_lambda", "neg_delta", "log_zeta", "log_xi",
              "log_gamma_bound"]

    @staticmethod
    def window(c: float) -> range:
        """Even n in (2c/pi, n_max), n_max the experiment-3 depth-150 threshold."""
        lo = int(TWO_OVER_PI * c) + 1
        lo += lo % 2
        threshold = TWO_OVER_PI * c + (2.0 / math.pi ** 2) * 150.0 * math.log(
            4.0 * math.e * math.pi * c / 150.0)
        n_max = int(threshold) + 1
        n_max += n_max % 2
        return range(lo, n_max, 2)

    def draw(self, seed, index):
        u_c, *u_n = _positions(self.name, seed, 1 + self.rows_per_pass, index)
        c = _band_limit(*self.c_range, u_c)
        return [(c, n) for n in _stratified(self.window(c), u_n)]

    @staticmethod
    def compute(P, ctx, n):
        c = ctx.c
        m = ctx.mode(n)
        log_lam = P.lambda_log(ctx, n).log_abs
        delta = P.delta_of_n(n, c)
        log_zeta = P.zeta(m).log_abs
        log_xi = P.xi_value(c, P.report_delta(n, c)).log_abs
        tr = P.trace(c, n, m.chi)
        log_gamma = P.lambda_gamma_bound(tr, m.psi_at_zero).log_abs
        return {"c": c, "n": n, "log_abs_lambda": log_lam, "neg_delta": -delta,
                "log_zeta": log_zeta, "log_xi": log_xi,
                "log_gamma_bound": log_gamma}

    def check(self, rows):
        # the chi-free ordering of experiment 3, plus the gamma-route bound
        # that sits between the eigenvalue and the principal bound
        return [_ok(r, *self.header)
                and r["log_abs_lambda"] < r["neg_delta"] < r["log_zeta"] < r["log_xi"]
                and r["log_abs_lambda"] < r["log_gamma_bound"] <= r["log_zeta"]
                for r in rows]


class RouteOracle:
    """The three lambda routes checking one another, as in acceptance criterion 9."""

    name = "route_oracle"
    # rows per band limit and pass.  A row's cost grows with c, so the rows
    # of one band limit hold a fixed block of a pass's latency ranks: the
    # median lands inside the c = 100 block and p90 inside the c = 300
    # block, away from the jumps between blocks.
    strata = {10.0: 5, 30.0: 3, 100.0: 8, 300.0: 3, 1000.0: 1}
    quadrature_floor = math.log(1e-10)
    log_rtol = 1e-6
    quadrature_rtol = 1e-8
    header = ["c", "n", "log_abs_direct", "log_abs_log", "log_abs_quadrature"]

    def draw(self, seed, index):
        u = _positions(self.name, seed, sum(self.strata.values()), index)
        jobs = []
        for c, k in self.strata.items():
            top = int(TWO_OVER_PI * c + 3.5 * math.log(c))
            # the quadrature rule grows with n, so stratifying 1 <= n < top
            # keeps each pass's cost steady
            jobs.extend((c, n) for n in _stratified(range(1, top), u[:k]))
            u = u[k:]
        return jobs

    def compute(self, P, ctx, n):
        m = ctx.mode(n)
        direct = P.lambda_direct(m) if n % 2 == 0 else P.lambda_odd(m)
        log_route = P.lambda_log(ctx, n)
        quad = None
        if direct.log_abs > self.quadrature_floor:
            quad = P.lambda_quadrature(m).log_abs
        return {"c": ctx.c, "n": n, "log_abs_direct": direct.log_abs,
                "log_abs_log": log_route.log_abs, "log_abs_quadrature": quad}

    def check(self, rows):
        verdicts = []
        for r in rows:
            ok = _ok(r, "log_abs_direct", "log_abs_log")
            if ok:
                d = r["log_abs_direct"]
                ok = abs(d - r["log_abs_log"]) <= self.log_rtol * max(abs(d), 1.0)
                q = r["log_abs_quadrature"]
                if d > self.quadrature_floor:
                    ok = ok and q is not None and abs(math.expm1(q - d)) <= self.quadrature_rtol
            verdicts.append(ok)
        return verdicts


WORKLOADS = {w.name: w for w in (DeepTail(), RouteOracle())}
