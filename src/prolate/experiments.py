"""Reproduction drivers: eigenvalue tables, threshold scans, figure data.

Three experiments, all emitting deterministic rows suitable for CSV/JSON:

1. |lambda_n| and mu_n at n = 0, ~c/pi and ~2c/pi for a ladder of band
   limits.  The printed indices are floor(c/pi) and floor(2c/pi).
2. The smallest index n1 past 2c/pi where |lambda_n| drops below a target
   eps, the smallest even n2 where the principal bound does, and both
   normalized by log(c).  The scans use the log-domain eigenvalue route,
   since every quantity here lives at e^-50 .. e^-100.  The decay curves
   over the same window, log|lambda_n| and log zeta at each even n, are a
   separate driver (decay_figure_rows).
3. The chi-free bound ordering log|lambda| < -delta(n) < log zeta < log xi
   over the depth window at a large band limit.

The verify_* functions turn every theorem-level invariant into a
machine-checkable pass/fail row; verify_all drives them and appends a
negative control (a deliberately perturbed chi must trip the detector).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (HypothesisViolated, aux_f, aux_G, aux_H, clamp_delta,
                     delta_defined, delta_of_n, eta, nu, xi, xi_threshold,
                     xi_value, zeta)
from .eigenvalues import (MatchFailure, ResolutionLoss, eigenvalue_record,
                          lambda_direct, lambda_log, lambda_odd,
                          lambda_quadrature)
from .elliptic import complete_E
from .legendre import gauss_legendre
from .sequences import a_new, b_one, b_two, lambda_gamma_bound, product_lower_bound, trace
from .spectrum import ProlateContext, TruncationNotConverged

TABLE_C = (10.0, 1.0e2, 1.0e3, 1.0e4)
# verify's band limits, unless a configuration names others
VERIFY_C = (10.0, 1.0e2, 1.0e3)
LARGE_C = (1.0e5,)
DEFAULT_EPS_LOGS = (-50.0, -100.0)


@dataclass
class RunConfig:
    """Band limits, eps targets and truncation policy of one run."""

    c_list: tuple = TABLE_C
    eps_logs: tuple = DEFAULT_EPS_LOGS
    truncation_dim: int | None = None
    large: bool = False

    def contexts(self):
        cs = tuple(self.c_list) + (LARGE_C if self.large else ())
        return [ProlateContext(c, truncation_dim=self.truncation_dim) for c in cs]


def _first_even_above(x: float) -> int:
    """Smallest even integer strictly above x >= 0."""
    n = int(x) + 1
    return n + n % 2


# -- experiment 1 ------------------------------------------------------------

def table1_indices(c: float) -> tuple[int, int, int]:
    return 0, int(c / math.pi), int(2.0 * c / math.pi)


def experiment1(cfg: RunConfig):
    """The table rows, three indices per band limit.

    A numerical failure poisons only its own row (numeric cells empty, an
    "error" note attached); the remaining rows still compute.
    """
    def one(ctx, n):
        row = {
            "c": ctx.c,
            "n": n,
            "pi_n_over_2c": math.pi * n / (2.0 * ctx.c),
            "abs_lambda": None,
            "mu": None,
        }
        try:
            rec = eigenvalue_record(ctx, n)
            row["abs_lambda"] = rec.lambda_abs.to_float()
            row["mu"] = rec.mu.to_float()
        except (TruncationNotConverged, MatchFailure, ArithmeticError) as err:
            row["error"] = str(err)
        return row

    return [one(ctx, n) for ctx in cfg.contexts() for n in table1_indices(ctx.c)]


# -- experiment 2 ------------------------------------------------------------

def _threshold_scan(below, start: int, step: int, width: int, what: str) -> int:
    """Smallest n = start + k step, k >= 1, at which below(n) holds.

    The bracket 0 < k <= width widens by at least 40 indices, or half its
    length, until below holds at its top; bisection on k then narrows it.
    Bisection is justified by the monotone decay of the scanned quantity;
    the returned index is re-verified against its lower neighbor.  A target
    that already holds at the window start has no threshold in the window,
    which is a configuration error (ValueError).
    """
    def at(k):
        return below(start + step * k)

    if at(0):
        raise ValueError(f"target {what} already holds at the window start "
                         f"n = {start}; choose a smaller eps")
    lo, hi = 0, width
    while not at(hi):
        hi += max(40 // step, hi // 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at(mid):
            hi = mid
        else:
            lo = mid
    if not (at(hi) and not at(hi - 1)):
        raise RuntimeError("threshold scan failed its neighbor check")
    return start + step * hi


def find_n1(ctx: ProlateContext, eps_log: float) -> int:
    """Smallest n > 2c/pi with log|lambda_n| < eps_log."""
    c = ctx.c
    width = max(40, int(5.0 - eps_log / 4.0 * math.log(c + 2.0)))
    return _threshold_scan(lambda n: lambda_log(ctx, n).log_abs < eps_log,
                           int(2.0 * c / math.pi) + 1, 1, width,
                           f"|lambda_n| < e{eps_log:g} at c = {c:g}")


def find_n2(ctx: ProlateContext, eps_log: float) -> int:
    """Smallest even n > 2c/pi with log zeta(n, c) < eps_log."""
    c = ctx.c
    width = max(20, int(3.0 - eps_log / 8.0 * math.log(c + 2.0)))
    return _threshold_scan(lambda n: zeta(ctx.mode(n)).log_abs < eps_log,
                           _first_even_above(2.0 * c / math.pi), 2, width,
                           f"zeta(n, c) < e{eps_log:g} at c = {c:g}")


def experiment2(cfg: RunConfig):
    """Threshold rows, one per (eps, c) pair, eps-major.

    Each scan solves only the indices its bisection visits; the decay
    curves over the window are decay_figure_rows, not part of this result.
    """
    contexts = cfg.contexts()

    def one(ctx, eps_log):
        c = ctx.c
        n1 = find_n1(ctx, eps_log)
        n2 = find_n2(ctx, eps_log)
        logc = math.log(c)
        return {"eps": f"e{eps_log:g}", "c": c,
                "n1": n1, "delta1": (n1 - 2.0 * c / math.pi) / logc,
                "n2": n2, "delta2": (n2 - 2.0 * c / math.pi) / logc,
                "n2_minus_n1": n2 - n1}

    return [one(ctx, e) for e in cfg.eps_logs for ctx in contexts]


def decay_figure_rows(ctx: ProlateContext, n_range=None):
    """(c, n, log|lambda|, log zeta) over even n in the plunge window.

    Rows run in increasing n, from the first even n past 2c/pi to
    2c/pi + 20 log c; n_range = (start, stop) keeps only the n with
    start <= n <= stop, and only those are solved.
    """
    c = ctx.c
    lo = _first_even_above(2.0 * c / math.pi)
    hi = 2.0 * c / math.pi + 20.0 * math.log(c)
    ns = range(lo, int(hi) + 1, 2)
    if n_range is not None:
        ns = [n for n in ns if n_range[0] <= n <= n_range[1]]

    return [{
        "c": c,
        "n": n,
        "log_abs_lambda": lambda_log(ctx, n).log_abs,
        "log_zeta": zeta(ctx.mode(n)).log_abs,
    } for n in ns]


# -- experiment 3 ------------------------------------------------------------

def exp3_n_max(c: float) -> int:
    """Minimal even integer beyond the depth-150 admission threshold."""
    return _first_even_above(xi_threshold(c, 150.0))


def experiment3(cfg: RunConfig):
    """Bound-ordering rows at large band limit; requires c > 22."""
    rows = []
    for ctx in cfg.contexts():
        c = ctx.c
        if c <= 22.0:
            raise ValueError("experiment 3 requires c > 22")
        for n in range(_first_even_above(2.0 * c / math.pi), exp3_n_max(c), 2):
            row = {"c": c, "n": n, "log_abs_lambda": None, "neg_delta": None,
                   "log_zeta": None, "log_xi": None, "ordered": False}
            try:
                m = ctx.mode(n)
                log_lam = lambda_log(ctx, n).log_abs
                d = delta_of_n(n, c)
                log_zeta = zeta(m).log_abs
                log_xi = xi_value(c, clamp_delta(d, c)).log_abs
                row.update(log_abs_lambda=log_lam, neg_delta=-d,
                           log_zeta=log_zeta, log_xi=log_xi,
                           ordered=log_lam < -d < log_zeta < log_xi)
            except (TruncationNotConverged, MatchFailure, ArithmeticError) as err:
                row["error"] = str(err)
            rows.append(row)
    return rows


# -- verification suites -----------------------------------------------------

def _check(suite, name, c, n, passed, detail=""):
    return {"suite": suite, "check": name, "c": c, "n": n,
            "passed": bool(passed), "detail": detail}


def verify_chi_structure(c_list=VERIFY_C, n_extra=50,
                         include_limit=True, chi_perturbation=1.0):
    """Trichotomy, the integral sandwich, the square bound, and psi(0).

    chi_perturbation is a hook for the negative control: scaling every chi
    by 1.01 must make the sandwich fail.
    """
    checks = []
    for c in c_list:
        ctx = ProlateContext(c)
        n_top = int(2.0 * c / math.pi + n_extra)
        c2 = c * c
        tri_ok = sandwich_ok = square_ok = True
        tri_bad = sandwich_bad = square_bad = None
        for n in range(2, n_top + 1):
            chi_n = ctx.chi(n) * chi_perturbation
            if n <= 2.0 * c / math.pi - 1.0 and not chi_n < c2:
                tri_ok, tri_bad = False, n
            if n >= 2.0 * c / math.pi and not chi_n > c2:
                tri_ok, tri_bad = False, n
            if chi_n > c2:
                mid = (2.0 / math.pi) * math.sqrt(chi_n) * complete_E(c / math.sqrt(chi_n))
                if not (n < mid < n + 3):
                    sandwich_ok, sandwich_bad = False, n
                if not chi_n < (math.pi * (n + 1) / 2.0) ** 2:
                    square_ok, square_bad = False, n
        checks.append(_check("chi_structure", "trichotomy", c, tri_bad, tri_ok))
        checks.append(_check("chi_structure", "energy_sandwich", c, sandwich_bad, sandwich_ok))
        checks.append(_check("chi_structure", "square_upper_bound", c, square_bad, square_ok))

        if chi_perturbation == 1.0:
            recip_ok, recip_bad = True, None
            for n in range(_first_even_above(2.0 * c / math.pi), n_top + 1, 2):
                m = ctx.mode(n)
                if m.chi > c2 and not 1.0 / abs(m.psi_at_zero) <= 4.0 * math.sqrt(n * m.chi / c2):
                    recip_ok, recip_bad = False, n
            checks.append(_check("chi_structure", "psi0_reciprocal", c, recip_bad, recip_ok))

    if include_limit:
        ctx = ProlateContext(1e-4)
        ok, bad = True, None
        for n in range(1, 21):
            expect = n * (n + 1.0)
            if abs(ctx.chi(n) - expect) > 1e-6 * expect:
                ok, bad = False, n
        checks.append(_check("chi_structure", "small_c_limit", 1e-4, bad, ok))
    return checks


def verify_route_agreement(samples=None, seed=20250808):
    """Direct/odd vs quadrature (1e-8 relative) and vs log route (1e-6 on log).

    Samples stay inside the overlap regime where the eigenvector route still
    resolves the leading coefficient; anything deeper is the log route's
    exclusive territory and is skipped rather than compared.
    """
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = []
        target = 100
        c_pool = (10.0, 30.0, 100.0, 300.0, 1000.0)
        for i, c in enumerate(c_pool):
            top = int(2 * c / math.pi + 3.5 * math.log(c))
            pool = np.arange(1, top)
            want = min(pool.size, (target - len(samples)) // (len(c_pool) - i))
            if i == len(c_pool) - 1:
                want = min(pool.size, target - len(samples))
            ns = rng.choice(pool, size=want, replace=False)
            samples.extend((c, int(n)) for n in sorted(ns))
    # one Gauss rule per band limit, sized for its largest sampled n
    top = {}
    for c, n in samples:
        top[c] = max(top.get(c, n), n)
    rules = {c: gauss_legendre(math.ceil(c) + n + 30) for c, n in top.items()}
    ctxs = {c: ProlateContext(c) for c in top}
    checks = []
    for c, n in samples:
        ctx = ctxs[c]
        m = ctx.mode(n)
        try:
            direct = lambda_direct(m) if n % 2 == 0 else lambda_odd(m)
        except ResolutionLoss:
            continue
        lg = lambda_log(ctx, n)
        log_gap = abs(direct.log_abs - lg.log_abs)
        rel_log = log_gap / max(abs(direct.log_abs), 1.0)
        checks.append(_check("routes", "log_vs_direct", c, n, rel_log < 1e-6,
                             f"log gap {log_gap:.2e}"))
        if direct.log_abs > math.log(1e-10):
            q = lambda_quadrature(m, rules[c])
            rel = abs(q.to_float() - direct.to_float()) / direct.to_float()
            checks.append(_check("routes", "quadrature_vs_direct", c, n,
                                 rel < 1e-8, f"rel {rel:.2e}"))
    return checks


def principal_window(c: float):
    """Even indices with 2c/pi + sqrt(42) < n < 2c/pi + 20 log(c)."""
    start = _first_even_above(2.0 * c / math.pi + math.sqrt(42.0))
    hi = 2.0 * c / math.pi + 20.0 * math.log(c)
    return range(start, int(math.ceil(hi)), 2)


def verify_principal_chain(c_list=VERIFY_C):
    """lambda < zeta < eta on the window; lambda < xi under its hypotheses."""
    checks = []
    for c in c_list:
        ctx = ProlateContext(c)
        for n in principal_window(c):
            m = ctx.mode(n)
            lam = lambda_log(ctx, n)
            z = zeta(m)
            e = eta(n, c, m.chi)
            checks.append(_check("principal", "lambda_below_zeta", c, n, lam < z,
                                 f"{lam.log_abs:.3f} vs {z.log_abs:.3f}"))
            checks.append(_check("principal", "zeta_below_eta", c, n, z < e,
                                 f"{z.log_abs:.3f} vs {e.log_abs:.3f}"))
            if delta_defined(n, c):
                try:
                    x = xi(n, c, delta_of_n(n, c))
                except HypothesisViolated:
                    continue
                checks.append(_check("principal", "lambda_below_xi", c, n,
                                     lam < x, f"{lam.log_abs:.3f} vs {x.log_abs:.3f}"))
    return checks


def sequence_sample_grid(count=30, seed=20250808):
    """(c, n) pairs with chi_n > c^2 + 42, spread across band limits."""
    rng = np.random.default_rng(seed)
    c_pool = (15.0, 40.0, 100.0, 300.0, 1000.0)
    samples = []
    per = max(1, count // len(c_pool))
    for c in c_pool:
        lo = _first_even_above(2.0 * c / math.pi + math.sqrt(42.0))
        hi = 2.0 * c / math.pi + 24.0 * math.log(c)
        evens = np.arange(lo, int(hi), 2)
        take = rng.choice(evens, size=min(per, evens.size), replace=False)
        samples.extend((c, int(n)) for n in sorted(take))
    return samples[:count]


def verify_sequence_theorems(samples=None):
    """Monotonicity/domination content of the ratio-sequence machinery."""
    if samples is None:
        samples = sequence_sample_grid()
    ctxs = {c: ProlateContext(c) for c in dict.fromkeys(c for c, _ in samples)}
    checks = []
    for c, n in samples:
        ctx = ctxs[c]
        m = ctx.mode(n)
        tr = trace(c, n, m.chi)
        q = tr.k0

        mono_beta = all(tr.beta[k] < tr.beta[k + 1] for k in range(1, q + 2))
        mono_alpha = all(tr.alpha[k] < tr.alpha[k + 1] for k in range(1, q + 2))
        checks.append(_check("sequences", "beta_alpha_monotone", c, n,
                             mono_beta and mono_alpha))

        dominated = all(tr.beta_new[k] <= tr.beta[k] for k in range(1, q + 3))
        mono_new = all(tr.beta_new[k] < tr.beta_new[k + 1] for k in range(1, q + 2))
        checks.append(_check("sequences", "beta_new_minorant", c, n,
                             dominated and mono_new))

        b1_seq = [b_one(k, c, m.chi) for k in range(1, q + 1)]
        b1_ok = all(x > 0 for x in b1_seq) and all(
            b1_seq[i] > b1_seq[i + 1] for i in range(len(b1_seq) - 1))
        checks.append(_check("sequences", "b_one_decreasing_positive", c, n,
                             b1_ok if m.chi > c * c + 6 else True))

        b2_seq = [b_two(k) for k in range(1, q + 3)]
        b2_ok = (abs(b2_seq[0] - 42.0 / 11.0) < 1e-12
                 and all(b2_seq[i] > b2_seq[i + 1] for i in range(len(b2_seq) - 1))
                 and all(x > 2.0 for x in b2_seq))
        anew_seq = [a_new(k) for k in range(1, q + 3)]
        anew_ok = (anew_seq[0] == 0.0
                   and all(anew_seq[i] < anew_seq[i + 1] for i in range(len(anew_seq) - 1))
                   and all(x < 1.0 for x in anew_seq))
        checks.append(_check("sequences", "coefficient_monotonicity", c, n,
                             b2_ok and anew_ok))

        r2_ok = tr.r[2] > b_one(2, c, m.chi) + b_two(2)
        rs_ok = all(tr.r[k] > tr.sigma[k] > 1.0 for k in range(2, q + 1))
        sig_mono = all(tr.sigma[k] > tr.sigma[k + 1] for k in range(1, q))
        r_mono = all(tr.r[k] > tr.r[k + 1] for k in range(2, q))
        checks.append(_check("sequences", "ratio_dominates_sigma", c, n,
                             r2_ok and rs_ok and sig_mono and r_mono))

        try:
            product_lower_bound(tr)
            prod_ok = True
        except ArithmeticError:
            prod_ok = False
        checks.append(_check("sequences", "sigma_product_bound", c, n, prod_ok))

        lam = lambda_log(ctx, n)
        gb = lambda_gamma_bound(tr, m.psi_at_zero)
        z = zeta(m)
        checks.append(_check("sequences", "gamma_route_bound", c, n,
                             lam < gb and gb <= z,
                             f"{lam.log_abs:.2f} < {gb.log_abs:.2f} <= {z.log_abs:.2f}"))
    return checks


def verify_hg_bounds(grid_points=10000):
    """Envelope bounds for H, G and their composition; inverse residual."""
    checks = []
    s_grid = np.linspace(5.0 / grid_points, 5.0, grid_points)
    worst_resid = 0.0
    low_ok = up_ok = g_ok = hg_ok = True
    for s in s_grid:
        y = (s / 4.0) * math.log(16.0 * math.e / s)
        h = aux_H(y)
        worst_resid = max(worst_resid, abs(aux_f(h) - y))
        if not s <= h * (1.0 + 1e-12):
            low_ok = False
        if not h <= s + s * s / 5.0 + 1e-12:
            up_ok = False
        g = aux_G(s)
        if not (math.pi / 4.0) * (1.0 - s / 8.0) - 1e-12 <= g <= math.pi / 4.0 + 1e-12:
            g_ok = False
        hg = h * aux_G(h)
        if not ((math.pi / 4.0) * s * (1.0 - s / 8.0) - 1e-10 <= hg
                <= (math.pi / 4.0) * s + 1e-10):
            hg_ok = False
    checks.append(_check("hg", "h_envelope", None, None, low_ok and up_ok))
    checks.append(_check("hg", "g_envelope", None, None, g_ok))
    checks.append(_check("hg", "hg_envelope", None, None, hg_ok))
    checks.append(_check("hg", "inverse_residual", None, None, worst_resid < 1e-12,
                         f"max residual {worst_resid:.2e}"))
    xs = np.linspace(0.0, 8.0, 400)
    vals = [aux_H(x) * aux_G(aux_H(x)) for x in xs]
    mono = all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    checks.append(_check("hg", "hg_monotone", None, None, mono))
    return checks


def verify_nu(c_list=(100.0, 500.0)):
    """The gamma-function bound: exact value at n = 0 and its trivial range."""
    checks = []
    for c in c_list:
        v0 = nu(0, c)
        checks.append(_check("nu", "value_at_zero", c, 0,
                             abs(v0.to_float() - 2.0) < 1e-14))
        lo = int(math.ceil(2.0 * c / math.pi))
        hi = math.ceil((2.0 / math.pi + 1.0 / 25.0) * c)
        ok = all(nu(n, c).to_float() >= 0.1 for n in range(lo, int(hi)))
        checks.append(_check("nu", "at_least_tenth_on_range", c, None, ok))
        ctx = ProlateContext(c)
        dom_ok, bad = True, None
        top = int(2.0 * c / math.pi + 10.0 * math.log(c))
        for n in range(0, top, max(1, top // 40)):
            if not lambda_log(ctx, n) <= nu(n, c):
                dom_ok, bad = False, n
        checks.append(_check("nu", "dominates_lambda", c, bad, dom_ok))
    return checks


def negative_control():
    """A 1% chi perturbation must trip the structural checks somewhere."""
    rows = verify_chi_structure(c_list=(100.0,), n_extra=30,
                                include_limit=False, chi_perturbation=1.01)
    tripped = any(not r["passed"] for r in rows)
    return [_check("negative_control", "perturbed_chi_detected", 100.0, None, tripped)]


def verify_all(cfg: RunConfig | None = None, quick: bool = False):
    c_list = tuple(cfg.c_list) if cfg is not None else VERIFY_C
    checks = []
    if quick:
        checks += verify_chi_structure(c_list=c_list[:1], n_extra=20)
        checks += verify_route_agreement(samples=[(30.0, n) for n in (2, 9, 15, 22)])
        checks += verify_principal_chain(c_list=c_list[:1])
        checks += verify_sequence_theorems(samples=sequence_sample_grid(4))
        checks += verify_hg_bounds(grid_points=200)
        checks += verify_nu(c_list=(100.0,))
    else:
        checks += verify_chi_structure(c_list=c_list)
        checks += verify_route_agreement()
        checks += verify_principal_chain(c_list=c_list)
        checks += verify_sequence_theorems()
        checks += verify_hg_bounds(grid_points=2000)
        checks += verify_nu()
    checks += negative_control()
    return checks


# -- serialization ------------------------------------------------------------

_FLOAT_FORMATS = {
    "pi_n_over_2c": "{:.5f}",
    "abs_lambda": "{:.5e}",
    "mu": "{:.5e}",
    "delta1": "{:.5e}",
    "delta2": "{:.5e}",
    "log_abs_lambda": "{:.6f}",
    "log_zeta": "{:.6f}",
    "log_xi": "{:.6f}",
    "neg_delta": "{:.6f}",
    "c": "{:g}",
}


def _cell(key, value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return _FLOAT_FORMATS.get(key, "{:.10e}").format(value)
    return str(value)


def rows_to_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(k, row.get(k)) for k in header])
    return buf.getvalue()


def rows_to_json(rows, header) -> str:
    trimmed = [{k: row.get(k) for k in header} for row in rows]
    return json.dumps(trimmed, indent=1, sort_keys=True) + "\n"


def failed_rows(rows):
    """Rows whose compute step was poisoned (carry an "error" note)."""
    return [r for r in rows if r.get("error")]


TABLE1_HEADER = ["c", "n", "pi_n_over_2c", "abs_lambda", "mu"]
TABLE2_HEADER = ["eps", "c", "n1", "delta1", "n2", "delta2", "n2_minus_n1"]
FIGURE_HEADER = ["c", "n", "log_abs_lambda", "log_zeta"]
EXP3_HEADER = ["c", "n", "log_abs_lambda", "neg_delta", "log_zeta", "log_xi", "ordered"]
VERIFY_HEADER = ["suite", "check", "c", "n", "passed", "detail"]
