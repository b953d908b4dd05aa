import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prolate import LogScaledReal, signed_log_sum

EPS = 2.0 ** -52
finite = st.floats(min_value=-1e300, max_value=1e300,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-300)


@example(-3.0)
@example(4.0)
@given(nonzero)
def test_round_trip(x):
    v = LogScaledReal.from_float(x)
    assert v.sign == (1 if x > 0 else -1)
    assert v.log_abs == math.log(abs(x))
    # exp(log(x)) loses ~|log x| ulps, so the tolerance scales with the range
    y = v.to_float()
    assert y == pytest.approx(x, rel=1e-12)
    assert float(v) == y


@example(-9.999999999999198e299, -9.999999999999196e299)   # equal logs
@given(nonzero, nonzero)
def test_ordering_matches_floats(a, b):
    # the docstring's contract holds x to about eps |log x| relative, so
    # floats closer than that may compare equal, but never inconsistently
    la, lb = LogScaledReal.from_float(a), LogScaledReal.from_float(b)
    assert (la < lb) != (la >= lb)
    assert (la < lb) == (lb > la) and (la >= lb) == (lb <= la)
    # a plain float compares as its from_float value
    assert (la < b, la <= b, la > b, la >= b) == (la < lb, la <= lb, la > lb, la >= lb)
    big = max(abs(a), abs(b))
    if abs(a - b) > 4 * EPS * big * (1.0 + abs(math.log(big))):
        assert (la < lb) == (a < b)
        assert (la >= lb) == (a >= b)


@example(-5000.0)
@example(709.5)                 # exp(709.5) is still a finite double
@example(-125.0)
@example(125.0)
@given(st.floats(min_value=-6000.0, max_value=6000.0, allow_nan=False))
def test_from_log_beyond_double_range(log_abs):
    v = LogScaledReal.from_log(log_abs)
    assert v.sign == 1
    assert v.log_abs == log_abs
    assert LogScaledReal.from_log(log_abs, sign=-1) < v < LogScaledReal.from_log(log_abs + 1.0)
    # read back as the nearest double: 0.0 below the subnormals, inf above
    # the largest double
    if log_abs < -746.0:
        assert v.to_float() == 0.0
    elif log_abs > math.log(sys.float_info.max):
        assert v.to_float() == math.inf
    else:
        assert v.to_float() == math.exp(log_abs)


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


def test_zero_handling():
    z = LogScaledReal.zero()
    assert z.is_zero() and z.to_float() == 0.0
    assert z == LogScaledReal.from_float(0.0) == LogScaledReal.from_log(-math.inf)
    assert LogScaledReal.from_log(3.0, sign=0) == z
    # zero orders between every negative and every positive value
    assert LogScaledReal.from_log(-5000.0, sign=-1) < z < LogScaledReal.from_log(-5000.0)
    assert z <= 0.0 and z >= 0.0 and not z < 0.0
    with pytest.raises(ValueError):
        LogScaledReal.from_log(1.0, sign=2)
    with pytest.raises(ValueError):
        LogScaledReal.from_float(math.nan)


def test_fixed_values_read_back_and_order():
    tiny = LogScaledReal.from_log(-125.0)           # ~e^-125
    huge = LogScaledReal.from_log(125.0)
    assert tiny.to_float() == pytest.approx(math.exp(-125.0))
    assert tiny < 1.0 < huge
    deep = LogScaledReal.from_log(-5000.0)          # far below double underflow
    assert deep.to_float() == 0.0
    assert 0.0 < deep < tiny
    neg = LogScaledReal.from_float(-3.0)
    assert neg.sign == -1 and neg.to_float() == pytest.approx(-3.0)
    assert neg < -2.9999 and neg < deep
    v = LogScaledReal.from_float(4.0)
    assert v.to_float() == pytest.approx(4.0)
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
