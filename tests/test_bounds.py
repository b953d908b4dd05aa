import math

import numpy as np
import pytest

from prolate import (HypothesisViolated, ProlateContext, aux_f, aux_G, aux_H,
                     bound_report, chi_lower, chi_upper, delta_of_n, eta,
                     exponent_term, k0, lambda_chi_bound, lambda_log, nu,
                     p0, report_delta, xi, xi_threshold, xi_value, zeta,
                     zeta_hypothesis)
from prolate import bounds
from prolate.bounds import BoundReport, _brentq
from scipy.integrate import quad
from scipy.optimize import brentq


# -- nu ----------------------------------------------------------------------

def test_nu_at_zero_is_exactly_two():
    for c in (0.5, 10.0, 1e4):
        assert abs(nu(0, c).to_float() - 2.0) < 1e-14


def test_nu_against_product_oracle():
    # direct product evaluation, no log-gamma
    n, c = 4, 10.0
    expect = (math.sqrt(math.pi) * c**n * math.factorial(n) ** 2
              / (math.factorial(2 * n) * math.gamma(n + 1.5)))
    assert nu(n, c).to_float() == pytest.approx(expect, rel=1e-13)


def test_nu_not_small_before_the_plunge():
    for c in (100.0, 500.0):
        lo = int(math.ceil(2 * c / math.pi))
        hi = int(math.ceil((2 / math.pi + 1 / 25) * c))
        for n in range(lo, hi):
            assert nu(n, c).to_float() >= 0.1


def test_nu_dominates_lambda(ctx10):
    for n in range(0, 30, 3):
        assert lambda_log(ctx10, n) <= nu(n, 10.0)


def test_nu_validation():
    with pytest.raises(ValueError):
        nu(-1, 10.0)
    with pytest.raises(ValueError):
        nu(2, 0.0)


# -- zeta / eta ----------------------------------------------------------------

def test_zeta_dominates_lambda(ctx100):
    n = 70
    assert lambda_log(ctx100, n) < zeta(ctx100.mode(n))


def test_zeta_threshold_scan(ctx10):
    # smallest even n past 2c/pi with log zeta below -50 (published: 38)
    n = 32
    while zeta(ctx10.mode(n)).log_abs >= -50.0:
        n += 2
    assert n == 38


def test_zeta_hypothesis_flag(ctx10, ctx100):
    assert not zeta_hypothesis(ctx10.mode(2))
    assert zeta_hypothesis(ctx100.mode(80))


def test_zeta_requires_even_and_supercritical(ctx100):
    with pytest.raises(ValueError):
        zeta(ctx100.mode(31))
    with pytest.raises(ValueError):
        zeta(ctx100.mode(2))


def test_eta_weaker_than_zeta_but_valid(ctx100):
    c = 100.0
    lo = 2 * c / math.pi + math.sqrt(42.0)
    start = int(lo) + 1
    start += start % 2
    for n in range(start, start + 40, 2):
        m = ctx100.mode(n)
        z, e = zeta(m), eta(n, c, m.chi)
        lam = lambda_log(ctx100, n)
        assert lam < z < e


def test_eta_over_zeta_growth_bounded():
    # ratio grows with c and stays under a fitted multiple of c^(3/4)
    logs = {}
    for c in (30.0, 100.0, 300.0, 1000.0):
        ctx = ProlateContext(c)
        n = int(2 * c / math.pi + 10)
        n += n % 2
        m = ctx.mode(n)
        logs[c] = eta(n, c, m.chi).log_abs - zeta(m).log_abs
    cs = sorted(logs)
    assert all(logs[a] <= logs[b] + 0.2 for a, b in zip(cs, cs[1:]))
    fitted_k = logs[cs[0]] - 0.75 * math.log(cs[0])
    for c in cs:
        assert logs[c] <= fitted_k + 0.75 * math.log(c) + 1e-9


# -- xi -------------------------------------------------------------------------

def test_xi_hypothesis_clauses():
    with pytest.raises(HypothesisViolated, match="c > 22"):
        xi(100, 22.0, 5.0)
    with pytest.raises(HypothesisViolated, match="delta"):
        xi(100, 100.0, 3.0)
    with pytest.raises(HypothesisViolated, match="delta"):
        xi(100, 100.0, math.pi * 100.0 / 16.0)
    with pytest.raises(HypothesisViolated, match="n >="):
        xi(64, 100.0, 10.0)
    # all clauses satisfied
    n_ok = int(xi_threshold(100.0, 10.0)) + 1
    assert xi(n_ok, 100.0, 10.0).log_abs == pytest.approx(
        xi_value(100.0, 10.0).log_abs)


def test_xi_continuous_near_lower_delta():
    a = xi_value(100.0, 3.0 + 1e-9).log_abs
    b = xi_value(100.0, 3.0 + 1e-6).log_abs
    assert abs(a - b) < 1e-5


def test_xi_dominates_lambda_when_admitted(ctx100):
    c = 100.0
    for n in (90, 110, 130):
        d = delta_of_n(n, c)
        if 3.0 < d < math.pi * c / 16.0 and n >= xi_threshold(c, d):
            assert lambda_log(ctx100, n) < xi(n, c, d)


# -- p0 ---------------------------------------------------------------------------

def test_p0_at_critical_chi():
    c = 100.0
    assert p0(10, c, c * c).to_float() == pytest.approx(math.sqrt(2 * math.pi / c), rel=1e-13)
    with pytest.raises(ValueError):
        p0(10, c, c * c - 1.0)


def test_p0_tracks_lambda(ctx100):
    # non-rigorous approximation: stays within 25% well past the band edge
    c = 100.0
    for n in range(100, 121, 4):
        val = p0(n, c, ctx100.chi(n))
        lam = lambda_log(ctx100, n)
        assert abs(math.exp(lam.log_abs - val.log_abs) - 1.0) < 0.25


def test_p0_below_zeta(ctx100):
    for n in (80, 100, 120):
        m = ctx100.mode(n)
        assert p0(n, 100.0, m.chi).log_abs < zeta(m).log_abs


# -- auxiliary functions -----------------------------------------------------------

def test_aux_fixed_points():
    assert aux_f(0.0) == pytest.approx(0.0, abs=1e-15)
    assert aux_H(0.0) == 0.0
    assert aux_G(0.0) == pytest.approx(math.pi / 4.0)


def test_aux_f_matches_quadrature():
    for x in (0.2, 1.0, 4.0, 25.0):
        direct, _ = quad(lambda t: math.sqrt(x + math.cos(t) ** 2), 0, math.pi / 2,
                         epsabs=1e-13, epsrel=1e-13)
        assert aux_f(x) == pytest.approx(direct - 1.0, rel=1e-12)


def test_aux_g_matches_quadrature():
    for x in (1e-8, 0.3, 2.0, 40.0):
        direct, _ = quad(lambda t: math.sin(t) ** 2 / math.sqrt(1 + x * math.cos(t) ** 2),
                         0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert aux_G(x) == pytest.approx(direct, rel=1e-11)


def test_inverse_identity():
    for x in (1e-6, 0.1, 1.0, 7.0, 80.0):
        y = aux_f(x)
        assert aux_H(y) == pytest.approx(x, rel=1e-12)
        assert abs(aux_f(aux_H(y)) - y) < 1e-12


def test_h_envelope():
    for s in np.linspace(1e-3, 5.0, 200):
        h = aux_H((s / 4.0) * math.log(16.0 * math.e / s))
        assert s <= h * (1 + 1e-12)
        assert h <= s + s * s / 5.0 + 1e-12


def test_g_envelope_and_composition():
    for x in np.linspace(1e-3, 5.0, 200):
        g = aux_G(float(x))
        assert (math.pi / 4) * (1 - x / 8.0) - 1e-12 <= g <= math.pi / 4 + 1e-12
    for s in np.linspace(1e-3, 5.0, 100):
        h = aux_H((s / 4.0) * math.log(16.0 * math.e / s))
        hg = h * aux_G(h)
        assert (math.pi / 4) * s * (1 - s / 8.0) - 1e-10 <= hg <= (math.pi / 4) * s + 1e-10


def test_exponent_dominates_hg_product(ctx100):
    # left side depends only on (n, c); right side on chi
    c = 100.0
    lo = int(2 * c / math.pi) + 1
    for n in range(lo, lo + 25):
        h = aux_H(n * math.pi / (2 * c) - 1.0)
        assert c * h * aux_G(h) < exponent_term(c, ctx100.chi(n))


def test_h_brackets_chi_gap(ctx100):
    c = 100.0
    lo = int(2 * c / math.pi) + 1
    for n in range(lo, lo + 25):
        gap = (ctx100.chi(n) - c * c) / (c * c)
        assert aux_H(n * math.pi / (2 * c) - 1.0) < gap
        assert gap < aux_H(n * math.pi / (2 * c) - 1.0 + 3 * math.pi / (2 * c))


# -- delta(n) and the turning index --------------------------------------------------

def test_delta_solves_its_equation():
    for c, n in ((100.0, 70), (100.0, 150), (1e4, 6400)):
        d = delta_of_n(n, c)
        resid = abs(xi_threshold(c, d) - n)
        assert resid < 1e-10 * n
        assert 0.0 < d < 4 * math.pi * c


def test_depth_tracks_lambda_at_large_c():
    # log sqrt(2pi/c) - delta(n) stays within a factor e^2 of log |lambda_n|
    c = 1.0e4
    ctx = ProlateContext(c)
    lo = int(2 * c / math.pi) + 10
    for n in range(lo, lo + 200, 40):
        d = delta_of_n(n, c)
        approx = 0.5 * math.log(2 * math.pi / c) - d
        assert abs(lambda_log(ctx, n).log_abs - approx) <= 2.0


def test_delta_monotone_in_n():
    c = 100.0
    ds = [delta_of_n(n, c) for n in range(66, 140, 2)]
    assert all(a < b for a, b in zip(ds, ds[1:]))


def test_delta_domain():
    with pytest.raises(ValueError):
        delta_of_n(63, 100.0)          # below 2c/pi
    with pytest.raises(ValueError):
        delta_of_n(319, 100.0)         # above 10c/pi


@pytest.fixture
def roots_against_scipy(monkeypatch):
    """Route every _brentq call through scipy's brentq too; collect both roots."""
    pairs = []

    def both(f, xa, xb, xtol, rtol):
        got = _brentq(f, xa, xb, xtol=xtol, rtol=rtol)
        pairs.append((got, brentq(f, xa, xb, xtol=xtol, rtol=rtol)))
        return got

    monkeypatch.setattr(bounds, "_brentq", both)
    return pairs


@pytest.mark.parametrize("c", [0.5, 10.0, 30.0, 100.0, 1000.0, 1e4])
def test_delta_root_is_scipy_brentq_bit_for_bit(roots_against_scipy, c):
    # integral n across (2c/pi, 10c/pi), at most 400 of them per band limit
    lo, hi = math.floor(2 * c / math.pi) + 1, math.ceil(10 * c / math.pi) - 1
    for n in sorted(set(np.linspace(lo, hi, 400).astype(int).tolist())):
        delta_of_n(n, c)
    assert roots_against_scipy
    assert all(got == want for got, want in roots_against_scipy)


def test_h_root_is_scipy_brentq_bit_for_bit(roots_against_scipy):
    for y in np.logspace(-8, 4, 300):
        aux_H(float(y))
    assert len(roots_against_scipy) == 300
    assert all(got == want for got, want in roots_against_scipy)


def test_brentq_edge_cases_match_scipy():
    tol = dict(xtol=1e-16, rtol=8.9e-16)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, **tol)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, **tol)
    # f(a) = 0 or f(b) = 0 returns that end before any step
    for a, b in ((2.0, 5.0), (-1.0, 2.0)):
        assert _brentq(lambda x: x - 2.0, a, b, **tol) == 2.0
        assert brentq(lambda x: x - 2.0, a, b, **tol) == 2.0


def test_report_delta_clamps():
    c = 100.0
    assert report_delta(64, c) == pytest.approx(3.0 + 1e-9)
    d = report_delta(100, c)
    assert 3.0 < d < math.pi * c / 16.0
    assert report_delta(50, c) is None


def test_turning_index_examples():
    c = 10.0
    assert k0(c, c * c + 5.0) == 0
    assert k0(c, c * c + 43.0) == 3
    assert k0(c, c * c) == 0


def test_turning_index_against_scan():
    rng = np.random.default_rng(3)
    for _ in range(200):
        gap = float(rng.uniform(0.0, 5e4))
        c = float(rng.uniform(1.0, 50.0))
        expect = 0
        k = 1
        while 2 * k * (2 * k + 1) < gap:
            expect = k
            k += 1
        assert k0(c, c * c + gap) == expect


def test_turning_index_sandwich(ctx100):
    c = 100.0
    for n in (70, 90, 120):
        chi_n = ctx100.chi(n)
        q = k0(c, chi_n)
        half_root = 0.5 * math.sqrt(chi_n - c * c)
        assert q < half_root < q + 2


# -- chi bounds from the depth parameter ----------------------------------------------

def test_chi_window_bounds():
    c, delta = 1000.0, 10.0
    ctx = ProlateContext(c)
    thr = xi_threshold(c, delta)
    n_lo = int(thr) + 1                      # just above the admission line
    val, ok = chi_lower(n_lo, c, delta)
    assert ok and ctx.chi(n_lo) > val
    n_mid = int((2 * c / math.pi + thr - 3.0) / 2.0)   # middle of the admission window
    val, ok = chi_upper(n_mid, c, delta)
    assert ok and ctx.chi(n_mid) < val


def test_chi_window_flags():
    c = 1000.0
    _, ok = chi_lower(int(2 * c / math.pi), c, 10.0)
    assert not ok
    _, ok = chi_upper(int(2 * c / math.pi) - 5, c, 10.0)
    assert not ok


def test_admission_window_nonempty():
    # room for at least one integer n in the admission window; the 1.3 slack
    # needs log(4 e pi c / 3) > 7.07, i.e. roughly c > 110, so pin it there
    for c in (200.0, 1000.0, 5000.0):
        for delta in np.linspace(3.0 + 1e-6, 1.25 * math.pi * c * (1 - 1e-9), 40):
            width = (2 / math.pi**2) * delta * math.log(4 * math.e * math.pi * c / delta) - 3.0
            assert width > 1.3


# -- the chi-only eigenvalue bound ------------------------------------------------------

def test_lambda_chi_bound_dominates(ctx100):
    c = 100.0
    lo = int(2 * c / math.pi + math.sqrt(42.0)) + 1
    for n in range(lo, lo + 30):
        assert lambda_log(ctx100, n) < lambda_chi_bound(n, c, ctx100.chi(n))
    with pytest.raises(ValueError):
        lambda_chi_bound(10, c, c * c)


# -- aggregated report --------------------------------------------------------------------

def test_bound_report_valid_regime(ctx100):
    rep = bound_report(ctx100, 80)
    assert isinstance(rep, BoundReport)
    assert all(rep.hypotheses[k] for k in ("zeta", "eta", "xi", "nu", "p0"))
    for name in ("zeta", "eta", "xi", "nu"):
        assert getattr(rep, name) >= rep.lambda_abs, name
    assert rep.delta_n == pytest.approx(delta_of_n(80, 100.0))


def test_bound_report_small_n(ctx10):
    rep = bound_report(ctx10, 2)
    assert not rep.hypotheses["zeta"]
    assert not rep.hypotheses["eta"]
    assert rep.zeta is None and rep.eta is None
    assert rep.nu >= rep.lambda_abs


def test_bound_report_small_c():
    ctx = ProlateContext(20.0)
    for n in (8, 14, 20):
        rep = bound_report(ctx, n)
        assert not rep.hypotheses["xi"]


def test_bound_report_odd_index(ctx100):
    rep = bound_report(ctx100, 81)
    assert rep.zeta is None
    assert not rep.hypotheses["zeta"]
    assert rep.nu >= rep.lambda_abs
    assert rep.xi >= rep.lambda_abs
