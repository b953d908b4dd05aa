import math

import mpmath
import numpy as np
import pytest

from prolate import (QuadratureRule, gauss_legendre, legendre_value,
                     normalized_legendre_at_zero,
                     normalized_legendre_deriv_at_zero,
                     normalized_legendre_value)
from prolate.legendre import (even_values_at_zero, legendre_sweep,
                              odd_derivs_at_zero)


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


@pytest.mark.parametrize("m", [2, 5, 40, 1101])
def test_gauss_rule_is_exactly_antisymmetric(m):
    rule = gauss_legendre(m)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


def _reference_node_and_weight(m, i):
    """The i-th node (ascending) of the m-point rule and its weight, by
    Newton in 40 digits from the textbook cosine guess."""
    with mpmath.workdps(40):
        x = mpmath.cos(mpmath.pi * (m - i - 0.25) / (m + 0.5))
        for _ in range(30):
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, m):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            d = m * (x * p - p_prev) / (x * x - 1)
            step = p / d
            x -= step
            if abs(step) < mpmath.mpf(10) ** -36:
                break
        return x, 2 / ((1 - x * x) * d * d)


@pytest.mark.parametrize("m", [40, 400, 1630])
def test_gauss_rule_against_40_digit_reference(m):
    # the end nodes, their neighbours and the middle pair; the earlier rule,
    # Newton iterated from cosine guesses to a step-size stop, met the same
    # 2e-16 absolute bound.  m = 1630 is the largest rule the quadrature
    # oracle builds at c = 1000
    rule = gauss_legendre(m)
    for i in (0, 1, m // 2 - 1, m // 2, m - 2, m - 1):
        x, w = _reference_node_and_weight(m, i)
        assert abs(rule.nodes[i] - x) <= 2e-16
        assert abs(rule.weights[i] - w) <= 2e-16


@pytest.mark.parametrize("m", [40, 41])
def test_every_nonnegative_node_against_40_digit_reference(m):
    # the weights come from P_m' carried along the Newton step by Legendre's
    # equation, so check every one of them, not only the ends and the middle
    rule = gauss_legendre(m)
    for i in range(m // 2, m):
        x, w = _reference_node_and_weight(m, i)
        assert abs(rule.nodes[i] - x) <= 2e-16
        assert abs(rule.weights[i] - w) <= 2e-16


def _two_sweep_nodes(m):
    """Nodes of the rule that swept P_m twice: a Newton step at the dsterf
    guesses, then a second sweep at the polished nodes for the weights."""
    from prolate.legendre import dsterf
    h = (m + 1) // 2
    k = np.arange(1.0, m)
    b = np.zeros(2 * h + 1)
    b[1:m] = k / np.sqrt(4.0 * k * k - 1.0)
    diag = b[0:2 * h:2] ** 2 + b[1:2 * h:2] ** 2
    off = b[1:2 * h:2] * b[2:2 * h + 1:2]
    y, _ = dsterf(diag, off[:max(h - 1, 1)])
    if m % 2:
        y[0] = 0.0
    x = np.sqrt(y)
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, m):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    x = x - p / (m * (x * p - p_prev) / (x * x - 1.0))
    return np.concatenate((-x[::-1][:m - h], x))


@pytest.mark.parametrize("m", [1, 2, 5, 40, 1101])
def test_gauss_nodes_bitwise_equal_two_sweep_rule(m):
    # x0 + (-p/d) is x0 - p/d bit for bit, so one sweep moves no node
    nodes = gauss_legendre(m).nodes
    assert nodes.tobytes() == _two_sweep_nodes(m).tobytes()


@pytest.mark.parametrize("m", [60, 1100, 1101])
def test_gauss_rule_is_one_half_size_sweep(monkeypatch, m):
    # the Newton step and the weights come from one sweep of P_m over the
    # ceil(m/2) nonnegative guesses
    from prolate import legendre
    sweeps = []

    def counting(x, top):
        sweeps.append((top, x.size))
        return real(x, top)

    real = legendre.legendre_sweep
    monkeypatch.setattr(legendre, "legendre_sweep", counting)
    legendre.gauss_legendre(m)
    assert sweeps == [(m, (m + 1) // 2)]


@pytest.mark.parametrize("top", [1, 2, 7, 60])
def test_legendre_sweep_matches_legendre_value(top):
    x = np.array([-1.0, -0.7, -0.0, 0.0, 0.3, 1.0])
    seen = []
    for k, p, p_prev in legendre_sweep(x, top):
        assert p.tobytes() == legendre_value(k, x).tobytes()
        assert p_prev.tobytes() == legendre_value(k - 1, x).tobytes()
        seen.append(k)
    assert seen == list(range(1, top + 1))


def test_gauss_rule_refuses_failed_eigenvalue_solve(monkeypatch):
    from prolate import legendre
    monkeypatch.setattr(legendre, "dsterf", lambda d, e: (d, 3))
    with pytest.raises(ArithmeticError, match="info = 3"):
        legendre.gauss_legendre(40)
