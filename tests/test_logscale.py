import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prolate import LogScaledReal, signed_log_sum

finite = st.floats(min_value=-1e300, max_value=1e300,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-300)


@given(nonzero)
def test_round_trip(x):
    # exp(log(x)) loses ~|log x| ulps, so the tolerance scales with the range
    y = LogScaledReal.from_float(x).to_float()
    assert y == pytest.approx(x, rel=1e-12)


@given(nonzero, nonzero)
def test_multiplication_adds_logs(a, b):
    la, lb = LogScaledReal.from_float(a), LogScaledReal.from_float(b)
    prod = la * lb
    assert prod.log_abs == pytest.approx(la.log_abs + lb.log_abs, abs=1e-12)
    assert prod.sign == la.sign * lb.sign


@given(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
       st.floats(min_value=-1e150, max_value=1e150, allow_nan=False))
def test_addition_matches_floats(a, b):
    s = LogScaledReal.from_float(a) + LogScaledReal.from_float(b)
    expect = a + b
    if expect == 0.0:
        # exact float cancellation may leave a tiny log-domain remainder
        assert s.is_zero() or s.log_abs < math.log(abs(a) + 1e-300) - 30
    else:
        assert s.to_float() == pytest.approx(expect, rel=1e-12)


@given(nonzero)
def test_self_subtraction_is_zero(x):
    v = LogScaledReal.from_float(x)
    assert (v - v).is_zero()


@given(nonzero, nonzero)
def test_ordering_matches_floats(a, b):
    la, lb = LogScaledReal.from_float(a), LogScaledReal.from_float(b)
    assert (la < lb) == (a < b)
    assert (la >= lb) == (a >= b)


@given(st.floats(min_value=-600.0, max_value=600.0, allow_nan=False))
def test_from_log_beyond_double_range(log_abs):
    v = LogScaledReal.from_log(log_abs)
    assert v.sign == 1
    assert v.log_abs == log_abs
    assert (v * v).log_abs == pytest.approx(2 * log_abs)


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=-1e10, max_value=1e10, allow_nan=False),
                min_size=1, max_size=30))
def test_signed_log_sum_matches_float_sum(xs):
    vals = [LogScaledReal.from_float(x) for x in xs]
    total = signed_log_sum([v.sign for v in vals], [v.log_abs for v in vals])
    expect = math.fsum(xs)
    if expect == 0.0:
        assert total.is_zero() or total.to_float() == pytest.approx(0.0, abs=1e-4)
    else:
        assert total.to_float() == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_extreme_magnitudes_survive_arithmetic():
    tiny = LogScaledReal.from_log(-125.0)           # ~e^-125
    huge = LogScaledReal.from_log(125.0)
    assert (tiny * huge).to_float() == pytest.approx(1.0)
    assert (tiny / huge).log_abs == pytest.approx(-250.0)
    deep = LogScaledReal.from_log(-5000.0)          # far below double underflow
    assert deep.to_float() == 0.0
    assert (deep ** 2).log_abs == pytest.approx(-10000.0)


def test_zero_handling():
    z = LogScaledReal.zero()
    one = LogScaledReal.one()
    assert z.is_zero() and z.to_float() == 0.0
    assert (z + one).to_float() == 1.0
    assert (z * one).is_zero()
    with pytest.raises(ZeroDivisionError):
        one / z
    with pytest.raises(ValueError):
        z.log()


def test_negative_values():
    v = LogScaledReal.from_float(-3.0)
    assert v.sign == -1
    assert abs(v).to_float() == pytest.approx(3.0)
    assert (-v).to_float() == pytest.approx(3.0)
    assert (v ** 2).to_float() == pytest.approx(9.0)
    assert (v ** 3).to_float() == pytest.approx(-27.0)
    with pytest.raises(ValueError):
        v ** 0.5
    with pytest.raises(ValueError):
        v.sqrt()


def test_mixed_scalar_arithmetic():
    v = LogScaledReal.from_float(4.0)
    assert (v * 2.0).to_float() == pytest.approx(8.0)
    assert (2.0 * v).to_float() == pytest.approx(8.0)
    assert (v - 1.0).to_float() == pytest.approx(3.0)
    assert (1.0 - v).to_float() == pytest.approx(-3.0)
    assert (1.0 / v).to_float() == pytest.approx(0.25)
    assert v.sqrt().to_float() == pytest.approx(2.0)
    assert v > 3.9999


def test_signed_log_sum_accepts_arrays_and_generators():
    xs = [3.5, -2.0, 1e-3, -7.25, 0.0, 4.0]
    vals = [LogScaledReal.from_float(x) for x in xs]
    signs = [v.sign for v in vals]
    logs = [v.log_abs for v in vals]
    from_lists = signed_log_sum(signs, logs)
    from_arrays = signed_log_sum(np.array(signs), np.array(logs))
    from_gens = signed_log_sum((s for s in signs), (l for l in logs))
    assert from_lists == from_arrays == from_gens
    assert from_lists.to_float() == pytest.approx(math.fsum(xs), rel=1e-14)


def test_signed_log_sum_ignores_zero_signs_and_neg_inf_logs():
    # a zero-sign term must not set the shift, whatever its log says
    total = signed_log_sum([1, 0, -1, 1, 0, -1],
                           [2.0, 5000.0, 1.0, -math.inf, -math.inf, -math.inf])
    assert total.sign == 1
    assert total.to_float() == pytest.approx(math.exp(2.0) - math.exp(1.0), rel=1e-14)


def test_signed_log_sum_far_terms_underflow_harmlessly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = signed_log_sum([1, 1, -1], [1000.0, 200.0, 0.0])
        deep = signed_log_sum([-1, 1], [-5000.0, -5800.0])
    assert total == LogScaledReal(1, 1000.0)
    assert deep == LogScaledReal(-1, -5000.0)


def test_signed_log_sum_exact_cancellation_is_zero():
    assert signed_log_sum([1, -1, 1, -1], [3.0, 3.0, -2.0, -2.0]).is_zero()


def test_signed_log_sum_without_live_terms_is_zero():
    assert signed_log_sum([0, 0, 0], [1.0, 2.0, 3.0]).is_zero()
    assert signed_log_sum([], []).is_zero()
    assert signed_log_sum([1, -1], [-math.inf, -math.inf]).is_zero()


def test_signed_log_sum_long_mixed_input_matches_fsum():
    rng = np.random.default_rng(20000)
    xs = rng.standard_normal(20000) * np.exp(rng.uniform(-30.0, 30.0, 20000))
    total = signed_log_sum(np.sign(xs), np.log(np.abs(xs)))
    expect = math.fsum(xs.tolist())
    assert total.sign == (1 if expect > 0 else -1)
    # a log difference d is a relative difference of about d in the value
    assert abs(total.log_abs - math.log(abs(expect))) < 1e-12
