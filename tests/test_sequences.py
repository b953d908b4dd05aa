import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from prolate import eigenvalues
from prolate import (LogScaledReal, ProlateContext, exponent_term, g_n_value,
                     lambda_gamma_bound, lambda_log, product_lower_bound,
                     signed_log_sum, trace, zeta)
from prolate.sequences import (a_new, a_tilde, b_chi, b_one, b_two, big_a,
                               big_b, f_seq, rho_seq)


@pytest.fixture(scope="module")
def tr100(ctx100):
    m = ctx100.mode(80)
    return trace(100.0, 80, m.chi)


def test_trace_heads(tr100):
    c, chi = tr100.c, tr100.chi
    v2 = (chi - c * c) / (c * c)
    assert tr100.gamma[1].to_float() == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert tr100.gamma[2].to_float() == pytest.approx(
        8.0 / (7.0 * math.sqrt(2.0)) * (2.0 + 3.0 * v2), rel=1e-13)
    assert tr100.alpha[1].to_float() == 1.0
    assert tr100.beta[1].to_float() == pytest.approx(math.sqrt(2.0), rel=1e-14)


def _mp(v):
    """A LogScaledReal as an mpmath number, to check sums at high precision."""
    return v.sign * mpmath.exp(v.log_abs)


def test_alpha_recurrence_residual(tr100):
    c, chi = tr100.c, tr100.chi
    with mpmath.workdps(30):
        for k in range(1, tr100.k0 + 4):
            lhs = _mp(tr100.alpha[k + 2])
            rhs = float(big_b(k, c, chi)) * _mp(tr100.alpha[k + 1]) \
                - float(big_a(k)) * _mp(tr100.alpha[k])
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_beta_new_recurrence_residual(tr100):
    c, chi = tr100.c, tr100.chi
    bn = tr100.beta_new
    with mpmath.workdps(30):
        for k in range(2, tr100.k0 + 2):
            rhs = (b_chi(k, c, chi) + 1.0) * _mp(bn[k + 1]) \
                + a_new(k) * (_mp(bn[k + 1]) - _mp(bn[k]))
            gap = abs(bn[k + 2].log_abs - float(mpmath.log(abs(rhs))))
            assert bn[k + 2].sign == mpmath.sign(rhs) and gap < 1e-10


def test_gamma_is_rescaled_beta_new(tr100):
    # gamma comes from its own recurrence; it must match f_k * beta_new_k,
    # with f_k > 0 for k >= 2
    for k in range(2, tr100.k0 + 3):
        expect = tr100.beta_new[k].log_abs + math.log(f_seq(k))
        gap = abs(tr100.gamma[k].log_abs - expect)
        assert tr100.gamma[k].sign == tr100.beta_new[k].sign and gap < 1e-10


def test_beta_is_rescaled_alpha(tr100):
    for k in range(1, tr100.K + 1):
        expect = tr100.alpha[k].log_abs + 0.5 * math.log(2.0 / (4 * k - 3))
        assert tr100.beta[k].sign == tr100.alpha[k].sign
        assert abs(tr100.beta[k].log_abs - expect) < 1e-13


def test_coefficient_reductions():
    # the rescalings collapse to the stated closed forms
    for k in (1, 2, 5, 17):
        assert a_new(k) == pytest.approx(a_tilde(k) * rho_seq(k), rel=1e-14)
        ratio = big_a(k) * math.sqrt((4 * k - 3) / (4 * k + 5))
        assert a_tilde(k) == pytest.approx(ratio, rel=1e-14)
    assert a_new(1) == 0.0
    assert b_two(1) == pytest.approx(42.0 / 11.0, rel=1e-15)


def test_b_two_limits():
    vals = [b_two(k) for k in range(1, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 2.0 for v in vals)
    assert vals[-1] == pytest.approx(2.0, abs=1e-6)


def test_a_new_limits():
    vals = [a_new(k) for k in range(1, 400)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)
    assert vals[-1] == pytest.approx(1.0, abs=0.02)


def test_monotone_growth_up_to_turning_index(tr100):
    q = tr100.k0
    assert all(tr100.beta[k] < tr100.beta[k + 1] for k in range(1, q + 2))
    assert all(tr100.alpha[k] < tr100.alpha[k + 1] for k in range(1, q + 2))
    assert all(tr100.beta_new[k] <= tr100.beta[k] for k in range(1, q + 3))


def test_ratio_chain(tr100):
    q = tr100.k0
    c, chi = tr100.c, tr100.chi
    assert tr100.r[2] > b_one(2, c, chi) + b_two(2)
    assert all(tr100.r[k] > tr100.sigma[k] > 1.0 for k in range(2, q + 1))
    assert all(tr100.sigma[k] > tr100.sigma[k + 1] for k in range(1, q))
    assert all(tr100.r[k] > tr100.r[k + 1] for k in range(2, q))


def test_g_values():
    c, chi = 100.0, 100.0**2 * 1.8
    edge = math.sqrt(chi - c * c) / 2.0
    assert g_n_value(c, chi, edge) == pytest.approx(1.0, rel=1e-12)
    v2 = (chi - c * c) / (c * c)
    expect0 = 1 + 2 * v2 + math.sqrt((1 + 2 * v2) ** 2 - 1)
    assert g_n_value(c, chi, 0.0) == pytest.approx(expect0, rel=1e-14)
    xs = np.linspace(0.0, edge, 50)
    vals = [g_n_value(c, chi, float(x)) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        g_n_value(c, chi, edge * 1.01)
    with pytest.raises(ValueError):
        g_n_value(c, c * c - 1.0, 0.0)


def test_log_g_integral_equals_exponent():
    for c, ratio in ((40.0, 1.3), (100.0, 2.1)):
        chi = c * c * ratio
        b = math.sqrt(chi - c * c) / 2.0
        val, _ = quad(lambda th: math.log(g_n_value(c, chi, b * math.sin(th)))
                      * b * math.cos(th), 0, math.pi / 2,
                      epsabs=1e-14, epsrel=1e-14, limit=300)
        assert val == pytest.approx(exponent_term(c, chi), rel=1e-10)


def test_product_bound(tr100):
    bound = product_lower_bound(tr100)
    product = sum(math.log(tr100.sigma[k]) for k in range(2, tr100.k0))
    assert product > bound.log_abs


def test_product_bound_needs_depth():
    ctx = ProlateContext(10.0)
    n = 8                      # just past the band edge: k0 is tiny
    tr = trace(10.0, n, ctx.chi(n))
    assert tr.k0 <= 2
    with pytest.raises(ValueError):
        product_lower_bound(tr)


def test_trace_domain():
    with pytest.raises(ValueError):
        trace(10.0, 4, 90.0)        # chi below c^2
    ctx = ProlateContext(100.0)
    with pytest.raises(ValueError):
        trace(100.0, 80, ctx.chi(80), K=2)


def test_gamma_route_bound(ctx100, ctx1000):
    for ctx, n in ((ctx100, 80), (ctx1000, 660)):
        m = ctx.mode(n)
        tr = trace(ctx.c, n, m.chi)
        gb = lambda_gamma_bound(tr, m.psi_at_zero)
        lam = lambda_log(ctx, n)
        z = zeta(m)
        assert lam < gb
        assert gb <= z


def test_gamma_route_preconditions(tr100, ctx100):
    with pytest.raises(ValueError):
        lambda_gamma_bound(tr100, 0.0)
    odd_tr = trace(100.0, 81, ctx100.chi(81))
    with pytest.raises(ValueError):
        lambda_gamma_bound(odd_tr, 0.5)


# -- the trace against a high-precision oracle ---------------------------------

@pytest.mark.parametrize("family,extra", [
    (big_a, ()), (big_b, (100.0, 1.8e4)), (b_chi, (1e4, 1.000137e8)),
    (a_new, ()), (b_one, (3.0, 123.4)), (b_two, ())])
def test_coefficient_families_on_arrays_equal_scalar_calls(family, extra):
    # exact while the integer products in the formulas stay below 2^53,
    # which holds for k up to 4000 in every family
    ks = np.arange(1.0, 4001.0)
    on_array = family(ks, *extra)
    assert on_array.shape == ks.shape
    assert on_array.tolist() == [family(k, *extra) for k in range(1, 4001)]


def _oracle_logs(c, chi, K, digits=50):
    """Signs and logs of alpha_k, beta_k, beta_new_k and gamma_k for
    k = 1..K, and the ratios r_k = gamma_{k+1} / gamma_k for k = 1..K-1,
    by the defining recurrences in mpmath at the given precision."""
    with mpmath.workdps(digits):
        c, chi = mpmath.mpf(c), mpmath.mpf(chi)
        c2, gap = c * c, chi - c * c
        one = mpmath.mpf(1)

        def ks(k):
            return mpmath.mpf(k)

        def big_b_mp(k):
            k = ks(k)
            root = mpmath.sqrt((4 * k + 1) * (4 * k + 5))
            return ((chi - 2 * k * (2 * k + 1)) / c2) * (4 * k + 3) * root \
                / ((2 * k + 1) * (2 * k + 2)) \
                - (4 * k * (2 * k + 1) - 1) * root / ((4 * k - 1) * (2 * k + 1) * (2 * k + 2))

        def big_a_mp(k):
            k = ks(k)
            return k * (2 * k - 1) * (4 * k + 3) / ((k + 1) * (2 * k + 1) * (4 * k - 1)) \
                * mpmath.sqrt((4 * k + 5) / (4 * k - 3))

        def b_chi_mp(k):
            k = ks(k)
            return (4 * k + 1) * (4 * k + 3) / ((2 * k + 1) * (2 * k + 2)) \
                * (gap - 2 * k * (2 * k + 1)) / c2

        def a_new_mp(k):
            k = ks(k)
            return (4 * k - 4) * (4 * k - 6) * (4 * k + 7) / ((4 * k + 4) * (4 * k + 2) * (4 * k - 1))

        def b_sum_mp(k):
            k = ks(k)
            b1 = 4 * (4 * k + 1) * (4 * k + 3) ** 2 / (4 * k * (4 * k - 2) * (4 * k + 7)) \
                * (gap - 2 * k * (2 * k + 1)) / c2
            return b1 + 2 + 60 / (32 * k ** 4 + 32 * k ** 3 - 38 * k ** 2 + 7 * k)

        alpha = [None, one, big_b_mp(0)]
        for k in range(1, K - 1):
            alpha.append(big_b_mp(k) * alpha[k + 1] - big_a_mp(k) * alpha[k])
        beta = [None] + [alpha[k] * mpmath.sqrt(2 / ks(4 * k - 3)) for k in range(1, K + 1)]
        beta_new = beta[:4]
        for k in range(2, K - 1):
            beta_new.append((b_chi_mp(k) + 1) * beta_new[k + 1]
                            + a_new_mp(k) * (beta_new[k + 1] - beta_new[k]))
        v2 = gap / c2
        s2 = mpmath.sqrt(2)
        gamma = [None, s2, 8 / (7 * s2) * (2 + 3 * v2),
                 16 * s2 / 11 * (3 + 15 * v2 + mpmath.mpf(105) / 8 * v2 * (gap - 6) / c2
                                 - mpmath.mpf(105) / (2 * c2))]
        for k in range(2, K - 1):
            gamma.append(b_sum_mp(k) * gamma[k + 1] - gamma[k])
        logs = {name: [(mpmath.sign(x), float(mpmath.log(abs(x)))) for x in seq[1:K + 1]]
                for name, seq in (("alpha", alpha), ("beta", beta),
                                  ("beta_new", beta_new), ("gamma", gamma))}
        logs["r"] = [float(gamma[k + 1] / gamma[k]) for k in range(1, K)]
        return logs


def _lin(*terms):
    """sum coef * x over (float coef, LogScaledReal x) pairs, in sign/log form."""
    signs = [(0 if coef == 0.0 else int(math.copysign(1, coef))) * x.sign
             for coef, x in terms]
    logs = [math.log(abs(coef)) + x.log_abs if coef != 0.0 else -math.inf
            for coef, x in terms]
    return signed_log_sum(signs, logs)


def _reference_trace(c, chi, K):
    """The trace recurrences stepped one term at a time in sign/log form.

    An independent check on the scaled-float trace; returns alpha, beta,
    beta_new, gamma (lists with [0] unused) and the ratios r.
    """
    alpha = [None] * (K + 1)
    alpha[1] = LogScaledReal.from_float(1.0)
    alpha[2] = LogScaledReal.from_float(big_b(0, c, chi))
    for k in range(1, K - 1):
        alpha[k + 2] = _lin((big_b(k, c, chi), alpha[k + 1]), (-big_a(k), alpha[k]))
    beta = [None] + [_lin((math.sqrt(2.0 / (4 * k - 3)), alpha[k]))
                     for k in range(1, K + 1)]
    beta_new = [None] + beta[1:4] + [None] * (K - 3)
    for k in range(2, K - 1):
        step = _lin((1.0, beta_new[k + 1]), (-1.0, beta_new[k]))
        beta_new[k + 2] = _lin((b_chi(k, c, chi) + 1.0, beta_new[k + 1]),
                               (a_new(k), step))
    v2 = (chi - c * c) / (c * c)
    gamma = [None] * (K + 1)
    gamma[1] = LogScaledReal.from_float(math.sqrt(2.0))
    gamma[2] = LogScaledReal.from_float(8.0 / (7.0 * math.sqrt(2.0)) * (2.0 + 3.0 * v2))
    gamma[3] = LogScaledReal.from_float(
        16.0 * math.sqrt(2.0) / 11.0
        * (3.0 + 15.0 * v2 + (105.0 / 8.0) * v2 * (chi - c * c - 6.0) / (c * c)
           - 105.0 / (2.0 * c * c)))
    for k in range(2, K - 1):
        gamma[k + 2] = _lin((b_one(k, c, chi) + b_two(k), gamma[k + 1]),
                            (-1.0, gamma[k]))
    r = [gamma[k + 1].sign * gamma[k].sign
         * math.exp(gamma[k + 1].log_abs - gamma[k].log_abs)
         for k in range(1, K)]
    return alpha, beta, beta_new, gamma, r


@pytest.mark.parametrize("c,n,chi", [(100.0, 80, None)])
def test_trace_matches_log_scaled_reference(c, n, chi, ctx100):
    if chi is None:
        chi = ctx100.chi(n)
    tr = trace(c, n, chi)
    alpha, beta, beta_new, gamma, r = _reference_trace(c, chi, tr.K)
    for name, ref in (("alpha", alpha), ("beta", beta),
                      ("beta_new", beta_new), ("gamma", gamma)):
        seq = getattr(tr, name)
        assert len(seq) == tr.K + 1 and seq[0].is_zero()
        for k in range(1, tr.K + 1):
            assert seq[k].sign == ref[k].sign, (name, k)
            assert abs(seq[k].log_abs - ref[k].log_abs) < 1e-10, (name, k)
    np.testing.assert_allclose(tr.r[1:tr.K], r, rtol=1e-10)


ALL = ("alpha", "beta", "beta_new", "gamma", "r")
# chi / c^2 = 1e122: alpha_2 is past 2^256, so the first step rescales and
# beta_new starts from a beta_3 held with a nonzero exponent
PINNED_CHI = {(1e-60, 10): 110.0}


@pytest.mark.parametrize("c,n,K,names", [
    (100.0, 80, None, ALL), (1e4, 6450, None, ALL), (1e4, 6596, None, ALL),
    # far past the turning index the terms reach 2^2000 and alternate in
    # sign, so the power-of-two rescaling runs several times.  alpha and
    # beta are left out: alpha passes close to zero at k = 71, where its
    # log is ill-conditioned in any double recurrence (off by 0.08 here,
    # and by 0.18 in the earlier log-scaled trace)
    (100.0, 80, 400, ("beta_new", "gamma", "r")),
    (100.0, 120, None, ALL), (1000.0, 660, None, ALL),
    (1000.0, 700, None, ALL), (1e-60, 10, None, ALL)])
def test_trace_against_high_precision_oracle(c, n, K, names, ctx100, ctx1000):
    if (c, n) in PINNED_CHI:
        chi = PINNED_CHI[c, n]
    else:
        ctx = {100.0: ctx100, 1000.0: ctx1000}.get(c) or ProlateContext(c)
        chi = ctx.chi(n)
    tr = trace(c, n, chi, K)
    oracle = _oracle_logs(c, chi, tr.K)
    for name in names:
        if name == "r":
            np.testing.assert_allclose(tr.r[1:tr.K], oracle["r"], rtol=1e-12)
            continue
        seq = getattr(tr, name)
        assert len(seq) == tr.K + 1 and seq[0].is_zero()
        for k, (sign, log_abs) in enumerate(oracle[name], start=1):
            assert seq[k].sign == sign, (name, k)
            assert abs(seq[k].log_abs - log_abs) <= 1e-12, (name, k)
    assert math.isnan(tr.r[0]) and math.isnan(tr.r[tr.K]) and math.isnan(tr.sigma[0])
    # sigma is closed form, so the array and a scalar loop agree exactly
    sigma = []
    for k in range(1, tr.K + 1):
        half = 0.5 * (b_one(k, c, chi) + b_two(k))
        sigma.append(half + math.sqrt(half * half - 1.0) if half >= 1.0 else math.nan)
    np.testing.assert_array_equal(tr.sigma[1:], sigma)


def test_trace_runs_on_blocked_solve_with_one_row_blocks(monkeypatch):
    # at chi / c^2 = 1e122 one gamma row may grow by about 2^405 and two
    # rows pass the 2^500 that one block may grow, so the solve takes
    # one-row blocks; the entry before a one-row block's result is still
    # in the previous block's scale, and the pinned case of
    # test_trace_against_high_precision_oracle checks the values after it
    blocks = []
    dtbtrs = eigenvalues.dtbtrs

    def counted(ab, *args, **kwargs):
        blocks.append(ab.shape[1])
        return dtbtrs(ab, *args, **kwargs)

    monkeypatch.setattr(eigenvalues, "dtbtrs", counted)
    trace(1e-60, 10, PINNED_CHI[1e-60, 10])
    assert len(blocks) >= 2
    assert 1 in blocks[:-1]
