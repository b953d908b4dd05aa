import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from prolate import QuadratureRule, gauss_legendre
from prolate.legendre import (dsterf, even_values_at_zero, legendre_sweep,
                              odd_derivs_at_zero)


def degree6_closed_form(x):
    # independent oracle: the explicit degree-6 polynomial
    return (231 * x**6 - 315 * x**4 + 105 * x**2 - 5) / 16.0


def normalized(k, t):
    # independent oracle: numpy's Clenshaw sum, normalized to unit L2 norm
    return npleg.legval(t, [0.0] * k + [1.0]) * math.sqrt(k + 0.5)


def sweep_to(x, k):
    """A copy of P_k(x) from legendre_sweep, k >= 0."""
    for _, p, p_prev in legendre_sweep(np.asarray(x, dtype=float), max(k, 1)):
        pass
    return (p if k else p_prev).copy()


def textbook_loop(k, t):
    """(P_k(t), P_k'(t)) for a float t, by the upward value and derivative
    recurrences written out in Python floats."""
    p_prev, p, d_prev, d = 1.0, t, 0.0, 1.0
    if k == 0:
        return p_prev, d_prev
    for j in range(1, k):
        p_prev, p, d_prev, d = (p, ((2 * j + 1) * t * p - j * p_prev) / (j + 1),
                                d, d_prev + (2 * j + 1) * p)
    return p, d


def test_base_cases():
    x = np.array([-0.25, 0.3])
    steps = legendre_sweep(x, 2)
    k, p, p_prev = next(steps)
    assert k == 1 and p.tolist() == x.tolist() and p_prev.tolist() == [1.0, 1.0]
    k, p, p_prev = next(steps)
    assert k == 2 and p_prev.tolist() == x.tolist()
    assert p == pytest.approx((3 * x * x - 1) / 2, abs=1e-16)


def test_degree_six_against_closed_form():
    x = np.array([-1.0, -0.7, 0.0, 0.3, 0.7, 1.0])
    assert sweep_to(x, 6) == pytest.approx(degree6_closed_form(x), abs=1e-14)


def test_recurrence_consistency_random():
    # every degree up to 200 at 60 random points, against numpy's Clenshaw sum
    t = np.random.default_rng(42).uniform(-1, 1, 60)
    for k, p, _ in legendre_sweep(t, 200):
        assert p == pytest.approx(npleg.legval(t, [0.0] * k + [1.0]), abs=1e-12)


def test_bounded_by_one():
    t = np.random.default_rng(7).uniform(-1, 1, 40)
    for _, p, _ in legendre_sweep(t, 150):
        assert np.max(np.abs(p)) <= 1.0 + 1e-14


def test_normalized_unit_norm_by_quadrature():
    rule = gauss_legendre(12)
    for k in (0, 1, 3, 8):
        val = rule.integrate(lambda t, k=k: normalized(k, t) ** 2)
        assert val == pytest.approx(1.0, abs=1e-13)


def test_orthogonality_by_quadrature():
    rule = gauss_legendre(6)
    val = rule.integrate(lambda t: normalized(3, t) * normalized(5, t))
    assert abs(val) < 1e-12


def test_orthonormality_pairs():
    for j, k in ((0, 4), (2, 2), (1, 7), (5, 5), (6, 2)):
        rule = gauss_legendre(max(j, k) + 1)
        val = rule.integrate(lambda t: normalized(j, t) * normalized(k, t))
        assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def test_values_at_zero():
    ev = even_values_at_zero(101)
    assert ev[0] == pytest.approx(math.sqrt(0.5))
    assert ev[1] == pytest.approx(-0.5 * math.sqrt(2.5))
    # ratio chain against the recurrence run to t = 0, including a large degree
    for k in (4, 10, 36, 200):
        assert ev[k // 2] == pytest.approx(
            textbook_loop(k, 0.0)[0] * math.sqrt(k + 0.5), rel=1e-13)
    assert np.isfinite(even_values_at_zero(50001)[-1])


def test_derivs_at_zero():
    od = odd_derivs_at_zero(21)
    assert od[0] == pytest.approx(math.sqrt(1.5))
    # P'_3(0) = -3/2
    assert od[1] == pytest.approx(-1.5 * math.sqrt(3.5))
    for k in (5, 11, 41):
        assert od[k // 2] == pytest.approx(
            textbook_loop(k, 0.0)[1] * math.sqrt(k + 0.5), rel=1e-13)


def test_weight_tables_match_scalars():
    # degrees up to 2e4; each entry equals the last entry of the shortest
    # table that holds it, so an entry does not depend on its table's length
    count = 10001
    ev = even_values_at_zero(count)
    od = odd_derivs_at_zero(count)
    for j in [*range(6), *range(6, count, 97), count - 1]:
        assert ev[j] == even_values_at_zero(j + 1)[-1]
        assert od[j] == odd_derivs_at_zero(j + 1)[-1]


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
        assert np.max(np.abs(sweep_to(rule.nodes, m))) < floor


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
    # bool is an int subclass, and True used to give the 1-point rule
    for m in (0, -3, True, False, 2.0):
        with pytest.raises(ValueError, match="rule size must be a positive integer"):
            gauss_legendre(m)


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


def textbook_sweep(x, top):
    """(k, P_k(x), P_{k-1}(x)) for k = 1 .. top, each step written as one
    array expression, ((2j + 1) x) P_j - j P_{j-1} over j + 1."""
    p_prev, p = np.ones_like(x), x.copy()
    yield 1, p, p_prev
    for j in range(1, top):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        yield j + 1, p, p_prev


def five_call_sweep(x, top):
    """The sweep as it was before the factors came in blocks: five in-place
    ufunc calls per step, with int scalars passed by keyword."""
    prev = np.ones_like(x)
    cur = x.copy()
    tmp = np.empty_like(x)
    yield 1, cur, prev
    for j in range(1, top):
        np.multiply(x, 2 * j + 1, out=tmp)
        np.multiply(tmp, cur, out=tmp)
        np.multiply(prev, j, out=prev)
        np.subtract(tmp, prev, out=prev)
        np.divide(prev, j + 1, out=prev)
        prev, cur = cur, prev
        yield j + 1, cur, prev


def assert_same_steps(got, want):
    count = 0
    for (k, p, p_prev), (k_ref, p_ref, p_prev_ref) in zip(got, want,
                                                          strict=True):
        assert k == k_ref and type(k) is int
        assert p.tobytes() == p_ref.tobytes()
        assert p_prev.tobytes() == p_prev_ref.tobytes()
        count += 1
    return count


@pytest.mark.parametrize("top", [1, 2, 7, 60])
def test_legendre_sweep_matches_legendre_value(top):
    # the textbook loop the scalar legendre_value ran, copied here
    x = np.array([-1.0, -0.7, -0.0, 0.0, 0.3, 1.0])
    steps = assert_same_steps(legendre_sweep(x, top), textbook_sweep(x, top))
    assert steps == top


SWEEP_POINTS = [
    np.array([]),
    np.array([0.5]),
    np.array([-1.0, -0.0, 0.0, 1.0, 0.25, -0.6, 0.999]),
    np.random.default_rng(3).uniform(-1.0, 1.0, 129),
]


@pytest.mark.parametrize("top", [1, 2, 31, 32, 33, 64, 65, 1701])
@pytest.mark.parametrize("points", range(len(SWEEP_POINTS)))
def test_legendre_sweep_bitwise_equal_five_call_loop(top, points):
    # block edges at 32 and 64 degrees, and one degree either side of them
    x = SWEEP_POINTS[points]
    steps = assert_same_steps(legendre_sweep(x, top), five_call_sweep(x, top))
    assert steps == top


@pytest.mark.parametrize("top", [0, -1])
def test_legendre_sweep_refuses_top_below_one(top):
    with pytest.raises(ValueError, match="at least 1"):
        list(legendre_sweep(np.array([0.5]), top))


def five_call_rule(m):
    """Nodes and weights of the m-point rule with five_call_sweep in place
    of legendre_sweep, the rest of gauss_legendre copied here."""
    h = (m + 1) // 2
    k = np.arange(1.0, m)
    b = np.zeros(2 * h + 1)
    b[1:m] = k / np.sqrt(4.0 * k * k - 1.0)
    diag = b[0:2 * h:2] ** 2 + b[1:2 * h:2] ** 2
    off = b[1:2 * h:2] * b[2:2 * h + 1:2]
    y, _ = dsterf(diag, off[:max(h - 1, 1)])
    if m % 2:
        y[0] = 0.0
    x0 = np.sqrt(y)
    for _, p, p_prev in five_call_sweep(x0, m):
        pass
    d = m * (x0 * p - p_prev) / (x0 * x0 - 1.0)
    step = -p / d
    d += step * (2.0 * x0 * d - m * (m + 1) * p) / (1.0 - x0 * x0)
    x = x0 + step
    w = 2.0 / ((1.0 - x * x) * d * d)
    neg = m - h
    return (np.concatenate((-x[::-1][:neg], x)),
            np.concatenate((w[::-1][:neg], w)))


@pytest.mark.parametrize("m", [1, 2, 33, 34, 65, 1101])
def test_gauss_rule_bitwise_equal_five_call_rule(m):
    rule = gauss_legendre(m)
    nodes, weights = five_call_rule(m)
    assert rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


def test_gauss_rule_refuses_failed_eigenvalue_solve(monkeypatch):
    from prolate import legendre
    monkeypatch.setattr(legendre, "dsterf", lambda d, e: (d, 3))
    with pytest.raises(ArithmeticError, match="info = 3"):
        legendre.gauss_legendre(40)
