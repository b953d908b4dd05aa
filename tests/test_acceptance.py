"""Acceptance suite: every exit criterion at its stated tolerance.

Each test collects its violations, prints exactly one PASS/FAIL line
(visible with -s or in the captured output of a failing run), and then
asserts.  The published five-digit reference values are pinned as data;
everything else is recomputed on the spot.  Runtime limits are asserted
where a criterion states one.

The c = 1e5 rows (the CLI's --large) run with the rest; together they
take a couple of seconds.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from prolate import (ProlateContext, exponent_term, g_n_value, lambda_log,
                     nu)
from prolate.experiments import (RunConfig, experiment1, experiment3, find_n1,
                                 find_n2, principal_window,
                                 sequence_sample_grid, verify_chi_structure,
                                 verify_hg_bounds, verify_principal_chain,
                                 verify_route_agreement,
                                 verify_sequence_theorems)

# published table of |lambda_n| and mu_n (five significant digits)
TABLE1_ROWS = [
    (10.0, 0, 0.79267, 1.0000),
    (10.0, 3, 0.79183, 0.99790),
    (10.0, 6, 0.52588, 0.44015),
    (1.0e2, 0, 0.25066, 1.0000),
    (1.0e2, 31, 0.25066, 1.0000),
    (1.0e2, 63, 0.18589, 0.54997),
    (1.0e3, 0, 0.79267e-1, 1.0000),
    (1.0e3, 318, 0.79267e-1, 1.0000),
    (1.0e3, 636, 0.57640e-1, 0.52877),
    (1.0e4, 0, 0.25066e-1, 1.0000),
    (1.0e4, 3183, 0.25066e-1, 1.0000),
    (1.0e4, 6366, 0.16644e-1, 0.44088),
]

TABLE1_LARGE_ROWS = [
    (1.0e5, 0, 0.79267e-2, 1.0000),
    (1.0e5, 31830, 0.79267e-2, 1.0000),
    (1.0e5, 63661, 0.60295e-2, 0.57861),
]

# published threshold indices and their log(c)-normalized offsets
TABLE2_ROWS = [
    (-50.0, 10.0, 32, 11.133, 38, 13.738),
    (-50.0, 1.0e2, 107, 9.4107, 114, 10.931),
    (-50.0, 1.0e3, 700, 9.1752, 712, 10.912),
    (-100.0, 10.0, 50, 18.950, 56, 21.556),
    (-100.0, 1.0e2, 138, 16.142, 146, 17.879),
    (-100.0, 1.0e3, 753, 16.848, 764, 18.440),
]

TABLE2_ROWS_1E4 = [
    (-50.0, 1.0e4, 6450, 6468),
    (-100.0, 1.0e4, 6526, 6542),
]


def _finish(num, label, violations):
    verdict = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} - {label}")
    assert violations == [], violations


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_criterion_1_table1_reproduction():
    start = time.monotonic()
    rows = experiment1(RunConfig(c_list=(10.0, 1.0e2, 1.0e3, 1.0e4)))
    got = {(r["c"], r["n"]): r for r in rows}
    bad = []
    for c, n, lam_ref, mu_ref in TABLE1_ROWS:
        row = got[(c, n)]
        if _rel(row["abs_lambda"], lam_ref) > 1e-4:
            bad.append(("lambda", c, n, row["abs_lambda"]))
        if _rel(row["mu"], mu_ref) > 5e-4:
            bad.append(("mu", c, n, row["mu"]))
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        bad.append(("runtime", elapsed))
    _finish(1, f"table-1 rows to 1e-4 / 5e-4 relative in {elapsed:.1f}s", bad)


def test_criterion_1_table1_large():
    start = time.monotonic()
    rows = experiment1(RunConfig(c_list=(), large=True))
    got = {(r["c"], r["n"]): r for r in rows}
    bad = []
    for c, n, lam_ref, mu_ref in TABLE1_LARGE_ROWS:
        row = got[(c, n)]
        if _rel(row["abs_lambda"], lam_ref) > 1e-4:
            bad.append(("lambda", c, n, row["abs_lambda"]))
        if _rel(row["mu"], mu_ref) > 5e-4:
            bad.append(("mu", c, n, row["mu"]))
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        bad.append(("runtime", elapsed))
    _finish(1, f"table-1 c=1e5 rows in {elapsed:.1f}s", bad)


def test_criterion_2_table2_reproduction():
    start = time.monotonic()
    ctxs = {c: ProlateContext(c) for c in (10.0, 1.0e2, 1.0e3, 1.0e4)}
    bad = []
    for eps_log, c, n1_ref, d1_ref, n2_ref, d2_ref in TABLE2_ROWS:
        ctx = ctxs[c]
        n1, n2 = find_n1(ctx, eps_log), find_n2(ctx, eps_log)
        if (n1, n2) != (n1_ref, n2_ref):
            bad.append(("indices", eps_log, c, n1, n2))
            continue
        d1 = (n1 - 2 * c / math.pi) / math.log(c)
        d2 = (n2 - 2 * c / math.pi) / math.log(c)
        if _rel(d1, d1_ref) > 1.2e-4 or _rel(d2, d2_ref) > 1.2e-4:
            bad.append(("offsets", eps_log, c, d1, d2))
    for eps_log, c, n1_ref, n2_ref in TABLE2_ROWS_1E4:
        ctx = ctxs[c]
        if abs(find_n1(ctx, eps_log) - n1_ref) > 1:
            bad.append(("n1_1e4", eps_log))
        if abs(find_n2(ctx, eps_log) - n2_ref) > 1:
            bad.append(("n2_1e4", eps_log))
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        bad.append(("runtime", elapsed))
    _finish(2, f"table-2 thresholds exact (1e4 within 1) in {elapsed:.1f}s", bad)


def test_table2_large():
    start = time.monotonic()
    ctx = ProlateContext(1.0e5)
    bad = []
    for eps_log, n1_ref, n2_ref in ((-50.0, 63765, 63792), (-100.0, 63864, 63890)):
        got = (find_n1(ctx, eps_log), find_n2(ctx, eps_log))
        if got != (n1_ref, n2_ref):
            bad.append((eps_log, got))
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        bad.append(("runtime", elapsed))
    _finish(2, f"table-2 c=1e5 thresholds exact in {elapsed:.0f}s", bad)


def test_criterion_3_principal_inequality_suite():
    checks = verify_principal_chain(c_list=(10.0, 100.0, 1000.0))
    bad = [(c["check"], c["c"], c["n"]) for c in checks if not c["passed"]]
    n_xi = sum(c["check"] == "lambda_below_xi" for c in checks)
    if n_xi == 0:
        bad.append(("no xi rows admitted",))
    _finish(3, f"lambda < zeta < eta ({len(checks)} checks, {n_xi} xi rows)", bad)


def test_criterion_4_experiment3_ordering():
    c = 1.0e4
    rows = experiment3(RunConfig(c_list=(c,)))
    bad = [("ordering", r["n"]) for r in rows if not r["ordered"]]
    if len(rows) <= 100:
        bad.append(("row count", len(rows)))
    # second observation: -delta(n) tracks log|lambda| up to log sqrt(2pi/c)
    offset = 0.5 * math.log(2 * math.pi / c)
    worst = max(abs(r["log_abs_lambda"] - (offset + r["neg_delta"])) for r in rows)
    if worst > 3.0:
        bad.append(("tracking band", worst))
    _finish(4, f"ordering holds on {len(rows)} rows at c=1e4; "
               f"depth tracks log lambda within {worst:.2f}", bad)


def test_criterion_5_exponent_identity():
    rng = np.random.default_rng(20250808)
    worst, bad = 0.0, []
    for _ in range(50):
        c = float(np.exp(rng.uniform(math.log(5.0), math.log(2000.0))))
        ratio = float(rng.uniform(1.001, 5.0))
        chi = c * c * ratio
        b = math.sqrt(chi - c * c) / 2.0
        oracle, _ = quad(lambda th: math.log(g_n_value(c, chi, b * math.sin(th)))
                         * b * math.cos(th), 0.0, math.pi / 2,
                         epsabs=1e-14, epsrel=1e-14, limit=300)
        rel = abs(exponent_term(c, chi) - oracle) / oracle
        worst = max(worst, rel)
        if rel >= 1e-10:
            bad.append((c, ratio, rel))
    _finish(5, f"exponent vs direct quadrature on 50 pairs, worst rel {worst:.2e}", bad)


def test_criterion_6_h_g_property_suites():
    checks = verify_hg_bounds(grid_points=10000)
    bad = [(c["check"], c["detail"]) for c in checks if not c["passed"]]
    _finish(6, "H/G envelopes and inverse residual < 1e-12 at 1e4 grid points", bad)


def test_criterion_7_chi_structure_suite():
    checks = verify_chi_structure(c_list=(10.0, 100.0, 1000.0), n_extra=50,
                                  include_limit=True)
    bad = [(c["check"], c["c"], c["n"]) for c in checks if not c["passed"]]
    _finish(7, f"chi trichotomy/sandwich/square/psi0 + small-c limit "
               f"({len(checks)} checks)", bad)


def test_criterion_8_sequence_theorem_suite():
    samples = sequence_sample_grid(30)
    checks = verify_sequence_theorems(samples)
    bad = [(c["check"], c["c"], c["n"]) for c in checks if not c["passed"]]
    if len(samples) != 30:
        bad.append(("sample count", len(samples)))
    _finish(8, f"sequence monotonicity/domination on 30 samples "
               f"({len(checks)} checks)", bad)


def test_criterion_9_oracle_equivalence():
    checks = verify_route_agreement()
    bad = [(c["check"], c["c"], c["n"], c["detail"]) for c in checks if not c["passed"]]
    if len({(c["c"], c["n"]) for c in checks}) < 90:
        bad.append(("sample count",))
    _finish(9, f"route agreement on {len(checks)} comparisons", bad)


def test_criterion_10_nu_suite():
    bad = []
    for c in (1.0e2, 5.0e2):
        if abs(nu(0, c).to_float() - 2.0) >= 1e-14:
            bad.append(("nu(0)", c))
        lo = int(math.ceil(2 * c / math.pi))
        hi = int(math.ceil((2 / math.pi + 1 / 25) * c))
        for n in range(lo, hi):
            if nu(n, c).to_float() < 0.1:
                bad.append(("tenth", c, n))
    # dominance over every magnitude computed in this suite's regimes
    checked = 0
    for c, n, lam_ref, _ in TABLE1_ROWS:
        if c <= 1.0e3:
            ctx = ProlateContext(c)
            if not lambda_log(ctx, n) <= nu(n, c):
                bad.append(("dominance", c, n))
            checked += 1
    for c in (1.0e2, 5.0e2):
        ctx = ProlateContext(c)
        for n in range(int(math.ceil(2 * c / math.pi)),
                       int(math.ceil((2 / math.pi + 1 / 25) * c))):
            if not lambda_log(ctx, n) <= nu(n, c):
                bad.append(("dominance", c, n))
            checked += 1
    for c in (10.0, 100.0, 1000.0):
        ctx = ProlateContext(c)
        for n in principal_window(c):
            if not lambda_log(ctx, n) <= nu(n, c):
                bad.append(("dominance", c, n))
            checked += 1
    _finish(10, f"nu(0,c)=2, nu >= 1/10 on its range, lambda <= nu at "
                f"{checked} points", bad)
