import math

import numpy as np
import pytest

from prolate import (MatchFailure, ProlateContext, ResolutionLoss,
                     bound_report, count_above, eigenvalue_record,
                     lambda_direct, lambda_log, lambda_odd,
                     lambda_quadrature, mu)
from prolate import eigenvalues
from prolate.eigenvalues import _two_sided_profile
from prolate.experiments import TABLE_C, table1_indices
from prolate.spectrum import build_matrix

# published eigenvalue magnitudes at desk scale (five significant digits)
PINNED = [
    (10.0, 0, 0.79267, 1.0000),
    (10.0, 3, 0.79183, 0.99790),
    (10.0, 6, 0.52588, 0.44015),
    (100.0, 0, 0.25066, 1.0000),
    (100.0, 31, 0.25066, 1.0000),
    (100.0, 63, 0.18589, 0.54997),
]


@pytest.mark.parametrize("c,n,lam_ref,mu_ref", PINNED)
def test_pinned_magnitudes(c, n, lam_ref, mu_ref):
    ctx = ProlateContext(c)
    rec = eigenvalue_record(ctx, n)
    assert rec.lambda_abs.to_float() == pytest.approx(lam_ref, rel=1e-4)
    assert rec.mu.to_float() == pytest.approx(mu_ref, rel=5e-4)


# table1's default rows, plus an even and an odd index in the bulk at two c
ROUTE_ROWS = [(c, n) for c in TABLE_C for n in table1_indices(c)] \
    + [(100.0, 40), (100.0, 41), (1000.0, 500), (1000.0, 501)]


@pytest.fixture(scope="module")
def table_contexts():
    return {c: ProlateContext(c) for c in TABLE_C}


@pytest.mark.parametrize("c,n", ROUTE_ROWS)
def test_records_and_reports_carry_the_log_route(c, n, table_contexts):
    ctx = table_contexts[c]
    lam = lambda_log(ctx, n)
    assert eigenvalue_record(ctx, n).lambda_abs == lam
    assert bound_report(ctx, n).lambda_abs == lam


@pytest.mark.parametrize("c,n", ROUTE_ROWS)
def test_log_route_prints_the_eigenvector_route_digits(c, n, table_contexts):
    # the direct and odd formulas are oracles for the printed five digits
    ctx = table_contexts[c]
    oracle = lambda_direct if n % 2 == 0 else lambda_odd
    assert f"{lambda_log(ctx, n).to_float():.5e}" \
        == f"{oracle(ctx.mode(n)).to_float():.5e}"


def test_parity_dispatch(ctx10):
    with pytest.raises(ValueError):
        lambda_direct(ctx10.mode(3))
    with pytest.raises(ValueError):
        lambda_odd(ctx10.mode(2))


def test_resolution_loss_deep_tail(ctx10):
    # by n = 40 at c = 10 the magnitude is ~e^-80: invisible to doubles
    with pytest.raises(ResolutionLoss):
        lambda_direct(ctx10.mode(40))
    assert lambda_log(ctx10, 40).log_abs < -60


def test_quadrature_route_even(ctx10):
    val = lambda_quadrature(ctx10.mode(6))
    assert val.to_float() == pytest.approx(0.52588, rel=1e-4)
    direct = lambda_direct(ctx10.mode(6))
    assert val.to_float() == pytest.approx(direct.to_float(), rel=1e-8)


def test_quadrature_route_odd(ctx10):
    val = lambda_quadrature(ctx10.mode(5))
    direct = lambda_odd(ctx10.mode(5))
    assert val.to_float() == pytest.approx(direct.to_float(), rel=1e-8)


def test_quadrature_route_near_band_edge(ctx100):
    # even neighbor of the last flat-region index
    m = ctx100.mode(62)
    assert lambda_quadrature(m).to_float() == pytest.approx(
        lambda_direct(m).to_float(), rel=1e-8)


def test_vanishing_bandlimit_limit():
    # as c -> 0 the kernel flattens and the top eigenvalue goes to 2
    ctx = ProlateContext(1e-6)
    assert lambda_direct(ctx.mode(0)).to_float() == pytest.approx(2.0, rel=1e-9)


def test_log_route_matches_direct(ctx100):
    for n in (64, 70, 71):
        direct = lambda_direct(ctx100.mode(n)) if n % 2 == 0 else lambda_odd(ctx100.mode(n))
        ll = lambda_log(ctx100, n)
        assert abs(ll.log_abs - direct.log_abs) < 1e-6 * max(1.0, abs(direct.log_abs))


def test_log_route_deep_tail_thresholds(ctx100):
    # smallest n past 2c/pi with log-magnitude under -100 (published: 138)
    n = 128
    while lambda_log(ctx100, n).log_abs >= -100.0:
        n += 1
    assert n == 138


# log|lambda_n| at c = 1e4 inside the experiment-3 window, as computed by
# the scalar-loop log route before it was vectorised
DEEP_TAIL_PINS = [
    (6450, -50.44357897369934),
    (6526, -100.50146900175542),
    (6596, -150.18296603280345),
]


def test_log_route_deep_tail_pinned():
    ctx = ProlateContext(1.0e4)
    for n, log_ref in DEEP_TAIL_PINS:
        assert lambda_log(ctx, n).log_abs == pytest.approx(log_ref, rel=1e-12)


def test_two_sided_profile_arrays(ctx100):
    n = 90
    dim = ctx100.converged_dim(n)
    band = build_matrix(100.0, 0, dim)
    signs, logs, mismatch = _two_sided_profile(band.diag, band.offdiag,
                                               ctx100.chi(n), dim)
    assert signs.shape == logs.shape == (dim,)
    assert signs[0] == 1.0 and logs[0] == 0.0     # ratios to the leading entry
    assert set(np.unique(signs)) <= {-1.0, 0.0, 1.0}
    assert np.all((signs == 0) == np.isneginf(logs))
    assert mismatch < 1e-3


def test_two_sided_profile_rejects_non_eigenvalue(ctx10):
    # between two eigenvalues no minimal/dominant match can exist
    band = build_matrix(10.0, 0, 120)
    fake = 0.5 * (ctx10.chi(0) + ctx10.chi(2))
    with pytest.raises(MatchFailure):
        _two_sided_profile(band.diag, band.offdiag, fake, 120)


_RESCALE = 1e250


def _reference_profile(diag, offdiag, chi, dim):
    """The two-sided profile as scalar loops: the forward recurrence from
    v_0 = 1 and the backward one from v_{dim-1} = 1, each rescaled by its
    running magnitude past 1e250, matched at the forward peak."""
    d = (diag - chi).tolist()
    e = offdiag.tolist()
    j_hi = min(dim - 2, int(math.sqrt(max(chi, 0.0)) / 2.0) + 3)

    f_val = [0.0] * (j_hi + 2)
    f_off = [0.0] * (j_hi + 2)
    x0, x1, shift = 1.0, -d[0] / e[0], 0.0
    f_val[0], f_off[0] = 1.0, 0.0
    f_val[1], f_off[1] = x1, 0.0
    for j in range(1, j_hi + 1):
        x2 = -(d[j] * x1 + e[j - 1] * x0) / e[j]
        x0, x1 = x1, x2
        a = abs(x1)
        if a > _RESCALE:
            x0 /= a
            x1 /= a
            shift += math.log(a)
        f_val[j + 1], f_off[j + 1] = x1, shift

    f_val = np.array(f_val)
    with np.errstate(divide="ignore"):
        f_logs = np.log(np.abs(f_val)) + f_off
    km = int(np.argmax(f_logs[:j_hi + 1]))

    b_val = [0.0] * dim
    b_off = [0.0] * dim
    y2, y1, shift = 0.0, 1.0, 0.0
    b_val[dim - 1], b_off[dim - 1] = 1.0, 0.0
    for j in range(dim - 2, km - 1, -1):
        y0 = -(d[j + 1] * y1 + (e[j + 1] * y2 if j + 2 < dim else 0.0)) / e[j]
        y2, y1 = y1, y0
        a = abs(y1)
        if a > _RESCALE:
            y1 /= a
            y2 /= a
            shift += math.log(a)
        b_val[j], b_off[j] = y1, shift

    def flog(v, o):
        return math.log(abs(v)) + o if v != 0.0 else -math.inf

    if f_val[km] == 0.0 or b_val[km] == 0.0 or f_val[km + 1] == 0.0 or b_val[km + 1] == 0.0:
        raise MatchFailure("zero profile value at the matching index")
    r0 = flog(f_val[km], f_off[km]) - flog(b_val[km], b_off[km])
    s0 = (1 if f_val[km] > 0 else -1) * (1 if b_val[km] > 0 else -1)
    r1 = flog(f_val[km + 1], f_off[km + 1]) - flog(b_val[km + 1], b_off[km + 1])
    s1 = (1 if f_val[km + 1] > 0 else -1) * (1 if b_val[km + 1] > 0 else -1)
    mismatch = abs(r1 - r0)
    if s0 != s1 or mismatch > eigenvalues._MATCH_TOL:
        raise MatchFailure(
            f"forward/backward ratio mismatch {mismatch:.2e} at row {km}")

    b_val = np.array(b_val[km + 1:])
    signs = np.concatenate([np.sign(f_val[:km + 1]), s0 * np.sign(b_val)])
    with np.errstate(divide="ignore"):
        b_logs = np.log(np.abs(b_val)) + b_off[km + 1:] + r0
    logs = np.concatenate([f_logs[:km + 1], b_logs])
    return signs, logs, mismatch


def _profile_args(c, n):
    ctx = ProlateContext(c)
    dim = ctx.converged_dim(n)
    band = build_matrix(c, n % 2, dim)
    return ctx, (band.diag, band.offdiag, ctx.chi(n), dim)


@pytest.mark.parametrize("c,n", [(10.0, 250), (10.0, 400), (1000.0, 700)]
                         + [(1.0e4, n) for n, _ in DEEP_TAIL_PINS])
def test_profile_matches_loop_reference(monkeypatch, c, n):
    ctx, args = _profile_args(c, n)
    signs, logs, _ = _two_sided_profile(*args)
    ref_signs, ref_logs, _ = _reference_profile(*args)
    # entries within 700 of the peak; deeper ones may underflow to zero
    live = ref_logs > np.max(ref_logs) - 700.0
    assert np.array_equal(signs[live], ref_signs[live])
    assert np.max(np.abs(logs[live] - ref_logs[live])) < 1e-10
    log_lam = lambda_log(ctx, n).log_abs
    monkeypatch.setattr(eigenvalues, "_two_sided_profile", _reference_profile)
    assert log_lam == pytest.approx(lambda_log(ctx, n).log_abs, rel=1e-12)


def test_profile_forward_rows_in_rescaled_blocks(monkeypatch):
    # c = 10, n = 400 grows the forward rows by about e^1633, more than
    # three times the 2^500 one block may grow; the reference comparison
    # at this point is in test_profile_matches_loop_reference
    blocks = []
    dtbtrs = eigenvalues.dtbtrs

    def counted(ab, *args, **kwargs):
        blocks.append(ab.shape[1])
        return dtbtrs(ab, *args, **kwargs)

    monkeypatch.setattr(eigenvalues, "dtbtrs", counted)
    _, args = _profile_args(10.0, 400)
    logs = _two_sided_profile(*args)[1]
    assert len(blocks) >= 3
    assert np.max(logs) > 3 * 500 * math.log(2.0)


def _dedicated_forward_profile(d, e, rows):
    """The profile's forward rows as solved before scaled_recurrence served
    the sequence trace too: one dtbtrs call per block, from v_0 = 1."""
    ab = np.zeros((3, rows), order="F")
    ab[0] = e[:rows]
    ab[1, :-1] = d[1:rows]
    ab[2, :-2] = e[1:rows - 1]
    e_prev = np.concatenate(([0.0], e[:rows - 1]))
    step = np.log((np.abs(d[:rows]) + e_prev) / e[:rows])
    growth = np.cumsum(np.fmin(np.fmax(step, 0.0), eigenvalues._BLOCK_GROWTH))
    vals = np.empty(rows + 1)
    exps = np.zeros(rows + 1, dtype=int)
    vals[0] = 1.0
    prev, cur, k, a = 0.0, 1.0, 0, 0
    while a < rows:
        base = growth[a - 1] if a else 0.0
        b = max(a + 1, int(np.searchsorted(growth, base + eigenvalues._BLOCK_GROWTH,
                                           side="right")))
        s = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, k = math.ldexp(prev, -s), math.ldexp(cur, -s), k + s
        rhs = np.zeros((b - a, 1))
        rhs[0, 0] = -(d[a] * cur + (e[a - 1] * prev if a else 0.0))
        if b - a > 1:
            rhs[1, 0] = -e[a] * cur
        x, info = eigenvalues.dtbtrs(ab[:, a:b], rhs, uplo="L")
        assert info == 0
        vals[a + 1:b + 1] = x[:, 0]
        exps[a + 1:b + 1] = k
        prev, cur, a = vals[b - 1] if b - a > 1 else cur, vals[b], b
    return vals, exps


@pytest.mark.parametrize("c,n", [(0.1, 0), (0.1, 1), (10.0, 6), (10.0, 7),
                                 (10.0, 400), (10.0, 401), (100.0, 80),
                                 (100.0, 81), (1.0e4, 6450), (1.0e4, 6451)])
def test_forward_profile_bitwise_equal_dedicated_solve(c, n):
    # the shared solver forms the same products and sums in the same order,
    # over the profile's rows and over every row of the block (where the
    # forward rows pass the peak and grow again, block after block)
    _, (diag, offdiag, chi, dim) = _profile_args(c, n)
    d = diag - chi
    j_hi = min(dim - 2, int(math.sqrt(max(chi, 0.0)) / 2.0) + 3)
    for rows in (j_hi + 1, dim - 1):
        vals, exps = eigenvalues._forward_profile(d, offdiag, rows)
        ref_vals, ref_exps = _dedicated_forward_profile(d, offdiag, rows)
        assert vals.tobytes() == ref_vals.tobytes()
        assert np.array_equal(exps, ref_exps)


@pytest.mark.parametrize("c", [1e-153, 1e-100, 1e-20, 1e-4, 0.01])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 12])
def test_profile_fails_where_loop_fails_at_small_c(c, n):
    # at c = 1e-153 the banded solve overflows too, and its NaN mismatch
    # must fail the match
    _, args = _profile_args(c, n)
    with pytest.raises(MatchFailure):
        _two_sided_profile(*args)
    # the loop fails at every point of this grid too: it raises, or (at
    # c <= 1e-100, where its forward rows overflow) returns a NaN mismatch
    try:
        assert math.isnan(_reference_profile(*args)[2])
    except MatchFailure:
        pass


def test_log_route_match_failure_is_not_retried(monkeypatch):
    # at c = 0.01 the match fails at every dimension, so one profile is all
    # the route may spend before it reports the failure
    calls = []

    def counted(*args):
        calls.append(args)
        return _two_sided_profile(*args)

    monkeypatch.setattr(eigenvalues, "_two_sided_profile", counted)
    with pytest.raises(MatchFailure):
        lambda_log(ProlateContext(0.01), 6)
    assert len(calls) == 1


def test_mu_arithmetic():
    assert mu(10.0, 0.79267).to_float() == pytest.approx(1.0000, rel=5e-4)
    assert mu(1e5, 0.60295e-2).to_float() == pytest.approx(0.57861, rel=5e-4)
    assert mu(10.0, 0.0).is_zero()
    with pytest.raises(ValueError):
        mu(-1.0, 0.5)


def test_count_above(ctx100):
    n_half = count_above(ctx100, 0.5)
    assert abs(n_half - 63) <= 2
    assert count_above(ctx100, 0.999999) >= 0
    with pytest.raises(ValueError):
        count_above(ctx100, 0.0)
    with pytest.raises(ValueError):
        count_above(ctx100, 1.0)


def test_count_above_grows_toward_small_alpha(ctx100):
    counts = [count_above(ctx100, a) for a in (0.9, 0.5, 0.1)]
    assert counts[0] < counts[1] < counts[2]
    assert abs(counts[1] - 2 * 100.0 / math.pi) <= 2


def test_plunge_profile_tracks_log_odds(ctx100):
    # over an alpha grid, N(c, a) - 2c/pi moves with log((1-a)/a) log(c)/pi^2
    alphas = (0.9, 0.7, 0.5, 0.3, 0.1)
    xs = [math.log((1 - a) / a) for a in alphas]
    ys = [count_above(ctx100, a) - 2 * 100.0 / math.pi for a in alphas]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert ys[-1] > ys[0]
    slope = np.polyfit(xs, ys, 1)[0]
    expect = math.log(100.0) / math.pi**2
    assert 0.2 * expect < slope < 5.0 * expect


def test_monotone_decay(ctx10):
    vals = [lambda_log(ctx10, n).log_abs for n in range(20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mu_in_unit_interval(ctx10):
    for n in range(12):
        m = eigenvalue_record(ctx10, n).mu
        assert 0.0 < m.to_float() < 1.0


def test_phase_bookkeeping(ctx10):
    for n in range(8):
        rec = eigenvalue_record(ctx10, n)
        assert rec.phase == n % 4
        # even indices are real (phase 0 or 2), odd purely imaginary (1 or 3)
        assert (rec.phase % 2 == 0) == (n % 2 == 0)


def test_record_mu_consistency(ctx10):
    rec = eigenvalue_record(ctx10, 4)
    expect = 10.0 / (2 * math.pi) * rec.lambda_abs.to_float() ** 2
    assert rec.mu.to_float() == pytest.approx(expect, rel=1e-12)
