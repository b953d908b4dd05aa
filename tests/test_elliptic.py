import math

import numpy as np
import pytest
from scipy.integrate import quad

from prolate import complete_E, complete_F, complete_F_minus_E, exponent_term
from prolate.sequences import g_n_value


def quad_F(k):
    val, _ = quad(lambda t: 1 / math.sqrt(1 - (k * math.sin(t))**2),
                  0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def quad_E(k):
    val, _ = quad(lambda t: math.sqrt(1 - (k * math.sin(t))**2),
                  0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def test_trivial_values():
    assert complete_F(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert complete_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert complete_E(1.0) == 1.0


def test_divergence_at_one():
    with pytest.raises(ValueError):
        complete_F(1.0)
    with pytest.raises(ValueError):
        complete_F_minus_E(1.0)


def test_agm_against_quadrature():
    for k in (0.1, 0.3, 0.5, 0.77, 0.95, 0.999):
        assert complete_F(k) == pytest.approx(quad_F(k), rel=1e-12)
        assert complete_E(k) == pytest.approx(quad_E(k), rel=1e-12)
        assert complete_F_minus_E(k) == pytest.approx(quad_F(k) - quad_E(k), rel=1e-11)


def test_difference_is_cancellation_free():
    # at k = 1e-6 the plain difference has no correct digits left
    k = 1e-6
    direct = complete_F_minus_E(k)
    assert direct == pytest.approx((math.pi / 4) * k * k, rel=1e-6)


def test_difference_lower_bound():
    for k in np.linspace(0.01, 0.99, 25):
        assert complete_F_minus_E(float(k)) > (math.pi / 4) * k * k


def test_monotonicity():
    ks = np.linspace(0.0, 0.999, 40)
    fs = [complete_F(float(k)) for k in ks]
    es = [complete_E(float(k)) for k in ks]
    assert all(a < b for a, b in zip(fs, fs[1:]))
    assert all(a > b for a, b in zip(es, es[1:]))


def test_small_complement_expansion():
    # E(sqrt(1-k^2)) = 1 + (-1/4 + log 2 - log(k)/2) k^2 + O(k^4 log k)
    for kp in (1e-3, 1e-4, 1e-6, 1e-8):
        val = complete_E(math.sqrt(1.0 - kp * kp))
        expect = 1.0 + (-0.25 + math.log(2.0) - math.log(kp) / 2.0) * kp * kp
        assert abs(val - expect) < 50.0 * kp**4 * abs(math.log(kp)) + 1e-14


def test_exponent_term_at_lower_edge():
    assert exponent_term(10.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        exponent_term(10.0, 99.0)


def test_exponent_term_against_direct_quadrature():
    for c, ratio in ((10.0, 1.4), (100.0, 1.05), (100.0, 3.0), (640.0, 2.2)):
        chi = c * c * ratio
        b = math.sqrt(chi - c * c) / 2.0
        val, _ = quad(lambda th: math.log(g_n_value(c, chi, b * math.sin(th)))
                      * b * math.cos(th), 0, math.pi / 2,
                      epsabs=1e-14, epsrel=1e-14, limit=300)
        assert exponent_term(c, chi) == pytest.approx(val, rel=1e-10)


def test_exponent_term_monotone_in_chi():
    c = 50.0
    chis = c * c * np.linspace(1.001, 6.0, 30)
    vals = [exponent_term(c, float(x)) for x in chis]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_angular_identity_chain():
    # (F - E)(kappa) = (chi - c^2)/(c sqrt(chi)) * angular integral
    for c, ratio in ((20.0, 1.3), (100.0, 2.5)):
        chi = c * c * ratio
        v2 = (chi - c * c) / (c * c)
        ang, _ = quad(lambda th: math.sin(th)**2 / math.sqrt(1 + v2 * math.cos(th)**2),
                      0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
        kappa = math.sqrt((chi - c * c) / chi)
        lhs = complete_F_minus_E(kappa)
        rhs = (chi - c * c) / (c * math.sqrt(chi)) * ang
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_modulus_validation():
    with pytest.raises(ValueError):
        complete_F(-0.1)
    with pytest.raises(ValueError):
        complete_E(1.2)
