import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prolate.spectrum as spectrum
from prolate import (ProlateContext, TruncationNotConverged, build_matrix,
                     chi, gauss_legendre, lambda_log, mode, psi_value)


def entry_diag(k, c):
    # independent re-derivation of the diagonal entry for one degree
    return k * (k + 1) + (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1)) * c * c


def entry_coupling(k, c):
    return (k + 2) * (k + 1) / ((2 * k + 3) * math.sqrt((2 * k + 1) * (2 * k + 5))) * c * c


def test_matrix_entries_even_block():
    c = 5.0
    band = build_matrix(c, 0, 6)
    assert band.diag[0] == pytest.approx(c * c / 3.0, rel=1e-15)
    for j, deg in enumerate(band.degrees()):
        assert band.diag[j] == pytest.approx(entry_diag(deg, c), rel=1e-14)
    for j, deg in enumerate(band.degrees()[:-1]):
        assert band.offdiag[j] == pytest.approx(entry_coupling(deg, c), rel=1e-14)
        assert band.offdiag[j] > 0


def test_matrix_entries_odd_block():
    c = 3.0
    band = build_matrix(c, 1, 5)
    assert list(band.degrees()) == [1, 3, 5, 7, 9]
    for j, deg in enumerate(band.degrees()):
        assert band.diag[j] == pytest.approx(entry_diag(deg, c), rel=1e-14)


def test_zero_bandlimit_decouples():
    band = build_matrix(0.0, 0, 5)
    assert band.diag == pytest.approx([d * (d + 1) for d in band.degrees()])
    assert np.all(band.offdiag == 0.0)


def test_dense_assembly_is_symmetric():
    band = build_matrix(7.0, 1, 8)
    dense = np.diag(band.diag) + np.diag(band.offdiag, 1) + np.diag(band.offdiag, -1)
    assert np.array_equal(dense, dense.T)


def test_build_matrix_validation():
    with pytest.raises(ValueError):
        build_matrix(1.0, 2, 5)
    with pytest.raises(ValueError):
        build_matrix(1.0, 0, 1)
    with pytest.raises(ValueError):
        build_matrix(-1.0, 0, 5)


def test_chi_small_c_limit():
    ctx = ProlateContext(1e-4)
    assert chi(ctx, 2) == pytest.approx(6.0, rel=1e-6)
    for n in (1, 5, 11):
        assert chi(ctx, n) == pytest.approx(n * (n + 1), rel=1e-6)


def test_chi_below_c_squared_inside_band(ctx100):
    # indices up to 2c/pi - 1 stay below c^2
    assert chi(ctx100, 60) < 100.0**2


def test_chi_against_dense_oracle(ctx10):
    band = build_matrix(10.0, 0, 200)
    dense = np.diag(band.diag) + np.diag(band.offdiag, 1) + np.diag(band.offdiag, -1)
    oracle = np.linalg.eigvalsh(dense)
    assert chi(ctx10, 6) == pytest.approx(oracle[3], rel=1e-12)
    assert chi(ctx10, 0) == pytest.approx(oracle[0], rel=1e-12)


def test_chi_strictly_increasing(ctx10):
    values = np.array([chi(ctx10, n) for n in range(26)])
    assert np.all(np.diff(values) > 0)
    # interleaving: the parity-block solves agree with the global ordering,
    # the merged spectrum of both dense blocks
    blocks = []
    for parity in (0, 1):
        band = build_matrix(10.0, parity, 60)
        dense = np.diag(band.diag) + np.diag(band.offdiag, 1) + np.diag(band.offdiag, -1)
        blocks.append(np.linalg.eigvalsh(dense))
    oracle = np.sort(np.concatenate(blocks))[:26]
    assert values == pytest.approx(oracle, rel=1e-12)


def test_mode_invariants(ctx10, ctx100):
    for ctx, n in ((ctx10, 0), (ctx10, 7), (ctx100, 31), (ctx100, 70)):
        m = mode(ctx, n)
        assert m.parity == n % 2
        assert abs(np.sum(m.coeffs**2) - 1.0) < 1e-12
        assert m.coeffs[np.argmax(np.abs(m.coeffs))] > 0
        assert np.all(m.degrees() % 2 == n % 2)


def test_mode_recurrence_residual(ctx10, ctx100):
    for ctx, n in ((ctx10, 4), (ctx10, 9), (ctx100, 64)):
        m = mode(ctx, n)
        band = build_matrix(ctx.c, m.parity, m.dim)
        v = m.coeffs
        resid = np.empty(m.dim)
        resid[0] = (band.diag[0] - m.chi) * v[0] + band.offdiag[0] * v[1]
        resid[1:-1] = (band.offdiag[:-1] * v[:-2]
                       + (band.diag[1:-1] - m.chi) * v[1:-1]
                       + band.offdiag[1:] * v[2:])
        resid[-1] = band.offdiag[-1] * v[-2] + (band.diag[-1] - m.chi) * v[-1]
        scale = np.max(np.abs(v))
        assert np.max(np.abs(resid)) < 1e-8 * scale
        # matrix-norm form of the same statement
        norm_a = np.max(np.abs(band.diag)) + 2 * np.max(np.abs(band.offdiag))
        assert np.linalg.norm(resid) <= 1e-8 * norm_a


def test_ground_mode_shape(ctx10):
    # the ground eigenfunction is a single-signed bell: no roots in (-1, 1)
    m = mode(ctx10, 0)
    assert m.psi_at_zero > 0
    xs = np.linspace(-1, 1, 2001)
    assert np.all(psi_value(m, xs) > 0)
    # its basis coefficients alternate (positive coupling block), peak first
    assert np.argmax(np.abs(m.coeffs)) == 0


def test_psi_sign_changes(ctx10):
    m = mode(ctx10, 4)
    xs = np.linspace(-1, 1, 4001)
    vals = psi_value(m, xs)
    changes = int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))
    assert changes == 4


def test_psi_odd_vanishes_at_origin(ctx10):
    for n in (1, 3, 9):
        assert abs(psi_value(mode(ctx10, n), 0.0)) < 1e-12


def test_psi_orthonormality(ctx10):
    rule = gauss_legendre(80)
    m3, m5 = mode(ctx10, 3), mode(ctx10, 5)
    cross = rule.integrate(lambda t: psi_value(m3, t) * psi_value(m5, t))
    assert abs(cross) < 1e-8
    for m in (m3, m5):
        norm = rule.integrate(lambda t, m=m: psi_value(m, t) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_psi_matches_stored_origin_values(ctx100):
    m = mode(ctx100, 64)
    assert psi_value(m, 0.0) == pytest.approx(m.psi_at_zero, rel=1e-10)
    step = 1e-6
    m_odd = mode(ctx100, 63)
    deriv = (psi_value(m_odd, step) - psi_value(m_odd, -step)) / (2 * step)
    assert deriv == pytest.approx(m_odd.dpsi_at_zero, rel=1e-4)


def test_psi_one_sweep_equals_two(ctx100):
    # lambda_quadrature evaluates grid and nodes in one call
    a = np.linspace(-1.0, 1.0, 257)
    b = gauss_legendre(161).nodes
    for n in (40, 63):
        m = mode(ctx100, n)
        joint = psi_value(m, np.concatenate([a, b]))
        assert np.array_equal(joint, np.concatenate([psi_value(m, a), psi_value(m, b)]))


def _psi_loop(m, x):
    """psi_n by the full-length loop over every point, as a bitwise oracle."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    max_degree = m.parity + 2 * (m.dim - 1)
    acc = np.zeros_like(x_arr)
    p_prev = np.ones_like(x_arr)
    if m.parity == 0:
        acc += m.coeffs[0] * math.sqrt(0.5) * p_prev
    p_cur = x_arr.copy()
    if m.parity == 1:
        acc += m.coeffs[0] * math.sqrt(1.5) * p_cur
    for deg in range(2, max_degree + 1):
        j = deg - 1
        p_next = ((2 * j + 1) * x_arr * p_cur - j * p_prev) / (j + 1)
        p_prev, p_cur = p_cur, p_next
        if deg % 2 == m.parity:
            acc += m.coeffs[(deg - m.parity) // 2] * math.sqrt(deg + 0.5) * p_cur
    return acc if np.ndim(x) else float(acc[0])


@pytest.mark.parametrize("n", [0, 1, 40, 63])
def test_psi_bitwise_equal_full_length_loop(ctx10, ctx100, n):
    # one sweep over the distinct |x| with the odd values negated gives
    # the loop's bits, signed zeros included
    m = mode(ctx10 if n < 2 else ctx100, n)
    edge = [0.0, -0.0, 1.0, -1.0, 0.37, -0.37]
    rng = np.random.default_rng(n)
    grid = np.linspace(-1.0, 1.0, 257)
    for x in [*edge, np.array(edge), rng.uniform(-1.0, 1.0, (5, 7)),
              np.concatenate([grid, gauss_legendre(161).nodes, [-0.0]]),
              np.array(edge).reshape(2, 3)]:
        got, want = psi_value(m, x), _psi_loop(m, x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("c", [0.1, 1000.0])
@pytest.mark.parametrize("parity", [0, 1])
def test_psi_bitwise_equal_full_length_loop_at_extreme_c(c, parity):
    # the smallest band limit the CLI accepts and the largest of the
    # quadrature oracle, at the first modes and past 2c/pi
    ctx = ProlateContext(c)
    x = np.concatenate([np.linspace(-1.0, 1.0, 257), [-0.0, 0.3, -0.3]])
    for n in (parity, parity + 2 * (int(c / math.pi) + 1)):
        m = mode(ctx, n)
        assert psi_value(m, x).tobytes() == _psi_loop(m, x).tobytes()


def test_psi_sweeps_each_distinct_magnitude_once(ctx100, monkeypatch):
    from prolate import spectrum
    sizes = []

    def counting(x, top):
        sizes.append(x.size)
        return real(x, top)

    real = spectrum.legendre_sweep
    monkeypatch.setattr(spectrum, "legendre_sweep", counting)
    grid = np.linspace(-1.0, 1.0, 257)
    psi_value(mode(ctx100, 63), np.concatenate([grid, gauss_legendre(161).nodes]))
    # 129 grid magnitudes, and 81 node magnitudes of which 0.0 is a grid point
    assert sizes == [129 + 80]


def test_psi_domain_error(ctx10):
    with pytest.raises(ValueError):
        psi_value(mode(ctx10, 0), 1.0001)


@pytest.mark.parametrize("n", [0, 1])
def test_psi_refuses_nan(ctx10, n):
    m = mode(ctx10, n)
    for x in (float("nan"), np.array([0.0, 0.5, np.nan]), np.array([[np.nan]])):
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            psi_value(m, x)


def test_index_validation(ctx10):
    with pytest.raises(ValueError):
        chi(ctx10, -1)
    with pytest.raises(ValueError):
        ProlateContext(0.0)
    with pytest.raises(ValueError):
        ProlateContext(float("nan"))
    with pytest.raises(ValueError, match="underflows"):
        ProlateContext(1e-300)
    for dim in (0, 1, -5, spectrum._MAX_ROWS + 1):
        with pytest.raises(ValueError):
            ProlateContext(10.0, truncation_dim=dim)


def test_mode_index_must_be_an_integer():
    ctx = ProlateContext(10.0)
    for bad in (True, False, 2.0, 2.5, "2", np.float64(2.0), -1, np.int64(-3)):
        with pytest.raises(ValueError, match="mode index must be a non-negative integer"):
            ctx.mode(bad)
        with pytest.raises(ValueError, match="mode index must be a non-negative integer"):
            chi(ctx, bad)
    with pytest.raises(ValueError, match="mode index must be a non-negative integer"):
        lambda_log(ctx, 3.0)
    from prolate import bound_report
    for bad in (-1, 2.5, "2"):
        with pytest.raises(ValueError, match="mode index must be a non-negative integer"):
            bound_report(ctx, bad)
    # nothing was cached under a refused index
    assert ctx._modes == {}
    m = ctx.mode(np.int64(3))
    assert type(m.n) is int and m.n == 3
    assert ctx.mode(3) is m and ctx.mode(np.int32(3)) is m


def test_fixed_truncation_failure():
    ctx = ProlateContext(100.0, truncation_dim=40)
    with pytest.raises(TruncationNotConverged):
        ctx.mode(20)


def _live_rows(m):
    mags = np.abs(m.coeffs)
    return int(np.flatnonzero(mags >= spectrum.TAIL_RTOL * mags.max())[-1]) + 1


@pytest.mark.parametrize("c", [10.0, 100.0, 1000.0, 1.0e4])
def test_estimate_covers_live_tail(c):
    # the reference is pinned at twice the estimate, so its tail does not
    # depend on the estimate; the four rows the tail check reads are dead
    edge = int(2.0 * c / math.pi)
    ns = {0, 1, int(c / math.pi), edge, edge + 1,
          int(edge + 10.0 * math.log(c)), int(edge + 20.0 * math.log(c)) + 1}
    ctx = ProlateContext(c)
    for n in sorted(ns):
        est = ctx._start_dim(n)
        ref = ProlateContext(c, truncation_dim=2 * est).mode(n)
        assert _live_rows(ref) <= est - 4, (c, n)


def test_fresh_mode_costs_one_solve(monkeypatch):
    calls = []
    real = spectrum.eigh_tridiagonal
    monkeypatch.setattr(spectrum, "eigh_tridiagonal",
                        lambda *a, **k: calls.append(len(a[0])) or real(*a, **k))
    for c, n in ((10.0, 7), (100.0, 64), (100.0, 101), (1000.0, 780), (1.0e4, 6596)):
        ctx = ProlateContext(c)
        calls.clear()
        ctx.mode(n)
        assert len(calls) == 1, (c, n, calls)
        # chi first, then everything else the record holds
        ctx = ProlateContext(c)
        calls.clear()
        ctx.chi(n + 1)
        ctx.converged_dim(n + 1)
        ctx.mode(n + 1)
        lambda_log(ctx, n + 1)
        assert len(calls) == 1, (c, n + 1, calls)


@pytest.mark.parametrize("pinned", [None, 400])
def test_chi_and_dimension_read_the_mode_record(pinned):
    ctx = ProlateContext(100.0, truncation_dim=pinned)
    for n in (0, 31, 64, 101):
        m = ctx.mode(n)
        assert ctx.chi(n) == m.chi
        assert ctx.converged_dim(n) == m.dim
        assert ctx.mode(n) is m


def test_chi_first_record_equals_mode_first_record():
    for c, n in ((100.0, 64), (1000.0, 780), (1.0e4, 6596)):
        chi_first = ProlateContext(c)
        chi_first.chi(n)
        a = chi_first.mode(n)
        b = ProlateContext(c).mode(n)
        assert a.chi == b.chi and a.dim == b.dim
        assert np.array_equal(a.coeffs, b.coeffs), (c, n)
        assert a.psi_at_zero == b.psi_at_zero


def test_poor_estimate_converges_by_doubling(monkeypatch):
    cases = ((100.0, 64), (100.0, 101), (1000.0, 780))
    good = [(ProlateContext(c).chi(n), lambda_log(ProlateContext(c), n).log_abs)
            for c, n in cases]
    monkeypatch.setattr(ProlateContext, "_start_dim", lambda self, n: n // 2 + 2)
    for (c, n), (chi_ref, log_ref) in zip(cases, good):
        ctx = ProlateContext(c)
        assert ctx.chi(n) == pytest.approx(chi_ref, rel=1e-12)
        assert ctx.converged_dim(n) > n // 2 + 2
        assert lambda_log(ctx, n).log_abs == pytest.approx(log_ref, rel=1e-12)


def test_residual_check_alone_resolves_chi(monkeypatch):
    # a tail tolerance of 1 accepts any tail, so only the residual of the
    # zero-padded eigenvector stands between a too-small block and chi
    refs = [ProlateContext(c, truncation_dim=1000).chi(n)
            for c, n in ((100.0, 64), (1000.0, 700))]
    monkeypatch.setattr(ProlateContext, "_start_dim", lambda self, n: n // 2 + 2)
    monkeypatch.setattr(spectrum, "TAIL_RTOL", 1.0)
    for (c, n), ref in zip(((100.0, 64), (1000.0, 700)), refs):
        assert ProlateContext(c).chi(n) == pytest.approx(ref, rel=spectrum.CHI_RTOL)


def test_log_route_at_converged_dim_matches_wider_block():
    # independent of the estimate: a block four times the converged one
    c, n = 1.0e4, 6596
    ctx = ProlateContext(c)
    dim = ctx.converged_dim(n)
    wide = ProlateContext(c, truncation_dim=4 * dim)
    assert lambda_log(ctx, n).log_abs == pytest.approx(lambda_log(wide, n).log_abs,
                                                      rel=1e-12)


def test_row_cap_raises_truncation_error(monkeypatch):
    # the estimate alone passes the cap
    monkeypatch.setattr(spectrum, "_MAX_ROWS", 64)
    with pytest.raises(TruncationNotConverged, match="row cap"):
        ProlateContext(100.0).chi(20)
    with pytest.raises(TruncationNotConverged, match="row cap"):
        ProlateContext(100.0).mode(20)
    # a doubling passes the cap
    monkeypatch.setattr(spectrum, "_MAX_ROWS", 40)
    monkeypatch.setattr(ProlateContext, "_start_dim", lambda self, n: n // 2 + 2)
    with pytest.raises(TruncationNotConverged, match="row cap"):
        ProlateContext(100.0).chi(20)
    with pytest.raises(TruncationNotConverged, match="row cap"):
        ProlateContext(100.0).mode(20)


def test_chi_stability_under_explicit_doubling(ctx100):
    n = 70
    d = ctx100.converged_dim(n)
    a = ProlateContext(100.0, truncation_dim=d).chi(n)
    b = ProlateContext(100.0, truncation_dim=2 * d).chi(n)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_pinned_context_ignores_cache_dir_variable(tmp_path, monkeypatch):
    # chi computed at the auto-converged dimension must not leak into a
    # context whose pinned dimension leaves a live tail
    monkeypatch.setenv("PROLATE_CACHE_DIR", str(tmp_path))
    ProlateContext(10.0).chi(8)
    with pytest.raises(TruncationNotConverged):
        ProlateContext(10.0, truncation_dim=6).chi(8)
    assert list(tmp_path.iterdir()) == []


def _record(ctx, n):
    m = ctx.mode(n)
    return (m.chi, m.dim, m.coeffs.tobytes(), m.psi_at_zero, m.dpsi_at_zero,
            lambda_log(ctx, n).log_abs)


@pytest.mark.parametrize("c, evens, odds", [
    (100.0, [0, 2, 30, 62, 64, 70, 90], [1, 33, 63, 65, 81]),
    (1.0e4, [0, 6300, 6368, 6450, 6532, 6600], [6367, 6451, 6601]),
])
def test_records_do_not_depend_on_solve_order(c, evens, odds):
    # the cached band and weight tables grow with the order of the
    # requests; a record must be the same bits as from a fresh context
    fresh = {n: _record(ProlateContext(c), n) for n in evens + odds}
    interleaved = [n for pair in zip(evens, odds) for n in pair]
    interleaved += evens[len(odds):]
    for order in (evens, evens[::-1], interleaved):
        ctx = ProlateContext(c)
        for n in order:
            assert _record(ctx, n) == fresh[n], (c, n, order)
    pinned = 2 * max(rec[1] for rec in fresh.values())
    pinned_fresh = {n: _record(ProlateContext(c, truncation_dim=pinned), n)
                    for n in evens + odds}
    ctx = ProlateContext(c, truncation_dim=pinned)
    for n in interleaved[::-1]:
        assert _record(ctx, n) == pinned_fresh[n], (c, n, pinned)


@pytest.mark.parametrize("c", [0.1, 10.0, 1.0e4])
@pytest.mark.parametrize("parity", [0, 1])
def test_band_prefix_is_bitwise_a_fresh_build(c, parity):
    big = build_matrix(c, parity, 5000)
    for k in (2, 3, 17, 1000, 4999):
        small = build_matrix(c, parity, k)
        assert small.diag.tobytes() == big.diag[:k].tobytes(), k
        assert small.offdiag.tobytes() == big.offdiag[:k - 1].tobytes(), k
    # the context's views, requested out of order, read the same bits
    ctx = ProlateContext(c)
    for k in (40, 3, 700, 2, 5000, 1301):
        band = ctx.band(parity, k)
        fresh = build_matrix(c, parity, k)
        assert band.dim == k and band.parity == parity and band.c == fresh.c
        assert band.diag.tobytes() == fresh.diag.tobytes(), k
        assert band.offdiag.tobytes() == fresh.offdiag.tobytes(), k
        assert not band.diag.flags.writeable and not band.offdiag.flags.writeable
        assert ctx._bands[parity].dim <= spectrum._MAX_ROWS + 1


@pytest.mark.parametrize("parity", [0, 1])
def test_weight_table_prefix_is_bitwise_a_fresh_build(parity):
    table = spectrum.even_values_at_zero if parity == 0 else spectrum.odd_derivs_at_zero
    big = table(30000)
    for k in (0, 1, 2, 7, 1000, 29999):
        assert table(k).tobytes() == big[:k].tobytes(), k
    ctx = ProlateContext(10.0)
    for k in (40, 1, 700, 2, 30000, 1301):
        w = ctx.weights_at_zero(parity, k)
        assert w.tobytes() == table(k).tobytes(), k
        assert not w.flags.writeable


def test_ascending_scan_builds_few_tables(monkeypatch):
    # the deep_tail pattern: rising even indices at c = 1e4, each solve
    # followed by its log-route eigenvalue
    calls = []

    def counted(name, real):
        return lambda *a: calls.append(name) or real(*a)

    for name in ("build_matrix", "even_values_at_zero", "odd_derivs_at_zero"):
        monkeypatch.setattr(spectrum, name, counted(name, getattr(spectrum, name)))
    ctx = ProlateContext(1.0e4)
    ns = range(6368, 6368 + 2 * 12 * 24, 2 * 12)
    for n in ns:
        ctx.mode(n)
    assert calls.count("build_matrix") <= 3, calls
    assert calls.count("even_values_at_zero") <= 3, calls
    assert "odd_derivs_at_zero" not in calls
    before = len(calls)
    for n in ns:
        lambda_log(ctx, n)
    assert len(calls) == before, calls[before:]


def _old_start_dim(c, n):
    """The dimension scan as written before the scan size was tied to
    chi_hi: a fresh block of n // 2 + ceil(c) + 64 rows, doubled."""
    chi_hi = n * (n + 1.0) + c * c
    target = math.log(spectrum.TAIL_RTOL) - spectrum._ESTIMATE_MARGIN
    size = n // 2 + math.ceil(c) + 64
    while True:
        band = build_matrix(c, n % 2, size)
        e = band.offdiag
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.log(e[:-1] / (band.diag[1:-1] - chi_hi - e[1:]))
        growing = np.flatnonzero(~(steps < 0.0))
        j0 = int(growing[-1]) + 1 if growing.size else 0
        dead = np.flatnonzero(np.cumsum(steps[j0:]) < target)
        if dead.size:
            return j0 + int(dead[0]) + 5
        size *= 2


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 100.0, 1000.0, 1.0e4, 1.0e5])
def test_start_dim_does_not_depend_on_scan_size(c):
    edge = int(2.0 * c / math.pi)
    ns = {0, 1, 2, 7, 40, 41, 120, edge, edge + 1, edge // 2,
          int(edge + 10.0 * math.log(c + 2.0)), int(edge + 20.0 * math.log(c + 2.0)) + 1}
    ctx = ProlateContext(c)
    for n in sorted(ns):
        assert ctx._start_dim(n) == _old_start_dim(c, n), (c, n)


_THREAD_PROBE = """
import hashlib
from prolate import ProlateContext
m = ProlateContext(3.0e4).mode(19000)
print(m.dim, hashlib.sha256(m.coeffs.tobytes()).hexdigest(), m.psi_at_zero.hex())
"""


def test_mode_does_not_depend_on_blas_thread_count():
    # OpenBLAS splits a dot product of more than about 10 000 entries
    # across its threads; with np.linalg.norm and vec @ weights, psi(0) of
    # this 18 184-row mode read ...a22ec with one thread and ...a22ea with two
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert 15000 <= int(outputs[0].split()[0]) <= 18500
    assert outputs[0] == outputs[1]
