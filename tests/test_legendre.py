import math

import numpy as np
import pytest

from prolate import (QuadratureRule, gauss_legendre, legendre_value,
                     normalized_legendre_at_zero,
                     normalized_legendre_deriv_at_zero,
                     normalized_legendre_value)
from prolate.legendre import even_values_at_zero, odd_derivs_at_zero


def degree6_closed_form(x):
    # independent oracle: the explicit degree-6 polynomial
    return (231 * x**6 - 315 * x**4 + 105 * x**2 - 5) / 16.0


def test_base_cases():
    assert legendre_value(0, 0.3) == 1.0
    assert legendre_value(1, -0.25) == -0.25


def test_degree_six_against_closed_form():
    for x in (-1.0, -0.7, 0.0, 0.3, 0.7, 1.0):
        assert legendre_value(6, x) == pytest.approx(degree6_closed_form(x), abs=1e-14)


def test_recurrence_consistency_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        k = int(rng.integers(1, 200))
        t = float(rng.uniform(-1, 1))
        lhs = (k + 1) * legendre_value(k + 1, t)
        rhs = (2 * k + 1) * t * legendre_value(k, t) - k * legendre_value(k - 1, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bounded_by_one():
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(0, 150))
        t = float(rng.uniform(-1, 1))
        assert abs(legendre_value(k, t)) <= 1.0 + 1e-14


def test_domain_and_degree_errors():
    with pytest.raises(ValueError):
        legendre_value(3, 1.5)
    with pytest.raises(ValueError):
        legendre_value(-1, 0.0)
    with pytest.raises(ValueError):
        normalized_legendre_value(2, -1.01)


def test_normalized_values():
    assert normalized_legendre_value(0, 0.77) == pytest.approx(math.sqrt(0.5))
    assert normalized_legendre_value(2, 0.0) == pytest.approx(-0.5 * math.sqrt(2.5))


def test_normalized_unit_norm_by_quadrature():
    rule = gauss_legendre(12)
    for k in (0, 1, 3, 8):
        val = rule.integrate(lambda t, k=k: normalized_legendre_value(k, t) ** 2)
        assert val == pytest.approx(1.0, abs=1e-13)


def test_orthogonality_by_quadrature():
    rule = gauss_legendre(6)
    val = rule.integrate(lambda t: normalized_legendre_value(3, t)
                         * normalized_legendre_value(5, t))
    assert abs(val) < 1e-12


def test_orthonormality_pairs():
    for j, k in ((0, 4), (2, 2), (1, 7), (5, 5), (6, 2)):
        rule = gauss_legendre(max(j, k) + 1)
        val = rule.integrate(lambda t: normalized_legendre_value(j, t)
                             * normalized_legendre_value(k, t))
        assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def test_values_at_zero():
    assert normalized_legendre_at_zero(0) == pytest.approx(math.sqrt(0.5))
    assert normalized_legendre_at_zero(1) == 0.0
    assert normalized_legendre_at_zero(2) == pytest.approx(-0.5 * math.sqrt(2.5))
    # ratio chain against direct evaluation, including a large degree
    for k in (4, 10, 36, 200):
        assert normalized_legendre_at_zero(k) == pytest.approx(
            normalized_legendre_value(k, 0.0), rel=1e-13)
    assert np.isfinite(normalized_legendre_at_zero(100000))


def test_derivs_at_zero():
    assert normalized_legendre_deriv_at_zero(0) == 0.0
    assert normalized_legendre_deriv_at_zero(1) == pytest.approx(math.sqrt(1.5))
    # P'_3(0) = -3/2
    assert normalized_legendre_deriv_at_zero(3) == pytest.approx(-1.5 * math.sqrt(3.5))
    from prolate.legendre import legendre_deriv_value
    for k in (5, 11, 41):
        assert normalized_legendre_deriv_at_zero(k) == pytest.approx(
            legendre_deriv_value(k, 0.0) * math.sqrt(k + 0.5), rel=1e-13)


def test_weight_tables_match_scalars():
    # degrees up to 2e4; the scalars read the same ratio chain, so a
    # table entry must not depend on the length of the table it is in
    count = 10001
    ev = even_values_at_zero(count)
    od = odd_derivs_at_zero(count)
    for j in [*range(6), *range(6, count, 97), count - 1]:
        assert ev[j] == normalized_legendre_at_zero(2 * j)
        assert od[j] == normalized_legendre_deriv_at_zero(2 * j + 1)


def _ratio_loop(count, parity):
    # one multiply per row, in order: the products cumprod must reproduce
    out = np.empty(count)
    p = 1.0
    for j in range(count):
        out[j] = p * math.sqrt(2 * j + parity + 0.5)
        p *= -(2 * j + 1 + 2 * parity) / (2 * j + 2)
    return out


@pytest.mark.parametrize("count", [0, 1, 2, 7, 30000])
def test_weight_tables_bitwise_equal_ratio_loop(count):
    assert np.array_equal(even_values_at_zero(count), _ratio_loop(count, 0))
    assert np.array_equal(odd_derivs_at_zero(count), _ratio_loop(count, 1))


def test_gauss_rule_small_cases():
    r1 = gauss_legendre(1)
    assert r1.nodes.tolist() == [0.0]
    assert r1.weights.tolist() == [2.0]
    r2 = gauss_legendre(2)
    assert r2.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert r2.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_gauss_rule_structure():
    for m in (2, 5, 9, 40, 400, 1100):
        rule = gauss_legendre(m)
        assert rule.size == m
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.all(np.abs(rule.nodes) < 1)
        # evaluating P_m at a true root leaves ~m^1.5 eps of recurrence noise,
        # so the strict residual figure is only measurable at moderate m
        floor = max(1e-14, 5e-16 * m**1.5)
        assert np.max(np.abs(legendre_value(m, rule.nodes))) < floor


def test_gauss_exactness_on_monomials():
    for m in (1, 2, 3, 5, 8):
        rule = gauss_legendre(m)
        for j in range(2 * m):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert rule.integrate(lambda t, j=j: t**j) == pytest.approx(exact, abs=1e-14)


def test_gauss_monomial_example():
    assert gauss_legendre(5).integrate(lambda t: t**8) == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_rule_is_immutable():
    rule = gauss_legendre(3)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5
    assert isinstance(rule, QuadratureRule)


def test_gauss_size_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0)


@pytest.mark.parametrize("m", [300, 1100])
def test_gauss_rule_large_m_accuracy(m):
    # the in-house rule keeps ~1e-15 on a fast oscillation at large m, where
    # library rules only reach ~1e-13; the quadrature oracle relies on this
    rule = gauss_legendre(m)
    exact = 2.0 * math.sin(500.0) / 500.0
    assert abs(rule.integrate(lambda t: np.cos(500.0 * t)) - exact) < 1e-14


def test_gauss_rule_odd_centre_node():
    rule = gauss_legendre(1101)
    assert abs(rule.nodes[550]) <= 1e-15


def test_gauss_newton_stops_on_step_size(monkeypatch):
    # the residual |P_m| stalls near m^1.5 eps, so only a step-size stop ends
    # Newton after the few iterations quadratic convergence needs
    from prolate import legendre
    sweeps = []

    def counting(m, x):
        sweeps.append(m)
        return real(m, x)

    real = legendre._legendre_and_deriv
    monkeypatch.setattr(legendre, "_legendre_and_deriv", counting)
    for m in (60, 1100):
        sweeps.clear()
        legendre.gauss_legendre(m)
        assert len(sweeps) <= 8
