"""Eigenvalues of the bandlimited integral operator: one route, two oracles.

Route 3 (log-domain) is the production route; every command prints its
|lambda_n|.  The coefficient profile is rebuilt as ratios against the
leading coefficient by the two-sided treatment of the three-term
recurrence (T - chi I) v = 0 (Gautschi 1967; Miller's algorithm on the
decaying side).  The forward rows, through the growth region, are a
lower-banded triangular solve (LAPACK dtbtrs) in blocks rescaled by powers
of two (scaled_recurrence, which runs the sequence trace's recurrences
too); the backward rows, from the decaying tail, are one tridiagonal
solve (LAPACK dgtsv); the two are matched at the peak of the forward
profile and kept as signs and logs.  This resolves magnitudes like e^-125
that are pure rounding noise in any eigenvector.

Routes 1 and 2 are oracles, run by verify and the tests.

Route 1 (direct): for even modes the eigenvalue is sqrt(2) * a1 / psi(0)
where a1 is the degree-0 basis coefficient; the odd companion, obtained by
differentiating the defining integral identity at the origin, is
c * sqrt(2/3) * b1 / psi'(0) with b1 the degree-1 coefficient.  The odd
formula is this package's own derivation and is validated against the
published even-index machinery and the quadrature route.  It is the same
scale-invariant sqrt(2) v_0 / sum w_j v_j as route 3, with v taken from
the eigenvector, so it refuses (ResolutionLoss) once the leading
coefficient sinks into the eigenvector's rounding noise.

Route 2 (quadrature): apply the integral operator at the point where the
eigenfunction is largest and divide.  Only meaningful while the eigenvalue
is resolvable in doubles, which makes it an independent oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv, dtbtrs
from .legendre import gauss_legendre
from .logscale import LogScaledReal, signed_log_sum
from .spectrum import ProlateContext, ProlateMode, psi_value

_EPS = np.finfo(float).eps
RESOLUTION_FLOOR = 1e3 * _EPS    # smallest usable leading coefficient, relative
_MATCH_TOL = 1e-3
_LN2 = math.log(2.0)
# log of the largest growth the bound allows within one forward block
_BLOCK_GROWTH = 500 * _LN2


class ResolutionLoss(ArithmeticError):
    """Leading coefficient lost in eigenvector noise; the oracle cannot run."""


class OracleUnreliable(RuntimeError):
    """Quadrature route evaluated where the eigenfunction is too small."""


class MatchFailure(RuntimeError):
    """Forward/backward recurrence passes disagree at the matching row."""


def lambda_direct(m: ProlateMode) -> LogScaledReal:
    """|lambda_n| for even n from the leading coefficient and psi(0)."""
    if m.parity != 0:
        raise ValueError("direct route requires an even mode index")
    a1 = m.coeffs[0]
    if abs(a1) < RESOLUTION_FLOOR * np.max(np.abs(m.coeffs)):
        raise ResolutionLoss(
            f"leading coefficient {a1:.3e} is below eigenvector resolution")
    return LogScaledReal.from_float(math.sqrt(2.0) * abs(a1) / abs(m.psi_at_zero))


def lambda_odd(m: ProlateMode) -> LogScaledReal:
    """|lambda_n| for odd n from the degree-1 coefficient and psi'(0)."""
    if m.parity != 1:
        raise ValueError("odd route requires an odd mode index")
    b1 = m.coeffs[0]
    if abs(b1) < RESOLUTION_FLOOR * np.max(np.abs(m.coeffs)):
        raise ResolutionLoss(
            f"leading coefficient {b1:.3e} is below eigenvector resolution")
    return LogScaledReal.from_float(
        m.c * math.sqrt(2.0 / 3.0) * abs(b1) / abs(m.dpsi_at_zero))


def lambda_quadrature(m: ProlateMode, rule=None) -> LogScaledReal:
    """Oracle route: apply the integral operator at argmax |psi| and divide.

    The integrand is bandlimited, so ceil(c) + n + 30 Gauss points converge
    super-algebraically; parity selects the real or imaginary part.
    """
    if rule is None:
        rule = gauss_legendre(math.ceil(m.c) + m.n + 30)
    grid = np.linspace(-1.0, 1.0, 257)
    # one recurrence sweep over grid and nodes, both symmetric about 0;
    # psi_value sweeps the distinct |x| only and treats each point on its
    # own, so the values equal those of two separate calls
    vals = psi_value(m, np.concatenate([grid, rule.nodes]))
    vals, pt = vals[:grid.size], vals[grid.size:]
    i = int(np.argmax(np.abs(vals)))
    x_star, p_star = grid[i], vals[i]
    if abs(p_star) < 0.1:
        raise OracleUnreliable("eigenfunction below 0.1 at every grid point")
    t = rule.nodes
    # a BLAS dot, whose digits depend on the thread count once OpenBLAS
    # splits it (past about 10 000 nodes); the rules of every command and
    # benchmark workload stay below 1 700 nodes, and a pairwise sum here
    # would move the digits the benchmark's rows digest pins
    if m.parity == 0:
        integral = float(rule.weights @ (pt * np.cos(m.c * x_star * t)))
    else:
        integral = float(rule.weights @ (pt * np.sin(m.c * x_star * t)))
    return LogScaledReal.from_float(abs(integral / p_star))


def scaled_recurrence(diag, sub1, sub2, heads, head_exps):
    """The heads, then one entry per row of a forward three-term recurrence.

    Row j gives diag_j y_{j+1} = -(sub1_j y_j + sub2_j y_{j-1}) from the last
    two entries so far; entry i is vals[i] * 2**exps[i], the heads included.
    The rows are a lower-triangular band with diag on the diagonal and
    sub1, sub2 on the two subdiagonals, solved by LAPACK dtbtrs.  Row j
    grows max(|y_j|, |y_{j+1}|) by at most (|sub1_j| + |sub2_j|) / |diag_j|,
    so the rows are solved in blocks over which that bound stays below
    2^500, each block starting from the last two values of the one before,
    rescaled by a power of two to at most 1.  Returns (vals, exps).
    """
    rows, h = len(diag), len(heads)
    ab = np.zeros((3, rows), order="F")    # columns of a block are contiguous
    ab[0] = diag
    ab[1, :-1] = sub1[1:]
    ab[2, :-2] = sub2[2:]
    step = np.log((np.abs(sub1) + np.abs(sub2)) / np.abs(diag))
    # a row whose bound alone passes the limit forms a block of its own
    growth = np.cumsum(np.fmin(np.fmax(step, 0.0), _BLOCK_GROWTH))

    vals = np.empty(h + rows)
    exps = np.zeros(h + rows, dtype=int)
    vals[:h], exps[:h] = heads, head_exps
    k = int(head_exps[-1])
    prev, cur, a = math.ldexp(heads[-2], int(head_exps[-2]) - k), heads[-1], 0
    while a < rows:
        base = growth[a - 1] if a else 0.0
        b = max(a + 1, int(np.searchsorted(growth, base + _BLOCK_GROWTH, side="right")))
        s = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, k = math.ldexp(prev, -s), math.ldexp(cur, -s), k + s
        rhs = np.zeros((b - a, 1))
        rhs[0, 0] = -(sub1[a] * cur + sub2[a] * prev)
        if b - a > 1:
            rhs[1, 0] = -sub2[a + 1] * cur
        x, info = dtbtrs(ab[:, a:b], rhs, uplo="L")
        if info:
            raise MatchFailure(f"forward system singular at row {a + info - 1}")
        vals[h + a:h + b] = x[:, 0]
        exps[h + a:h + b] = k
        # a one-row block leaves its previous entry in the old scale
        prev, cur, a = vals[h + b - 2] if b - a > 1 else cur, vals[h + b - 1], b
    return vals, exps


def scaled_logs(vals, exps):
    """log |vals[i] * 2**exps[i]|, elementwise."""
    return np.log(np.abs(vals)) + exps * _LN2


def _forward_profile(d, e, rows):
    """v_0 = 1 and v_1 .. v_rows from rows 0 .. rows-1 of (T - chi I) v = 0,
    as (vals, exps): row j gives e_j v_{j+1} = -(d_j v_j + e_{j-1} v_{j-1})."""
    vals, exps = scaled_recurrence(e[:rows], d[:rows],
                                   np.concatenate(([0.0], e[:rows - 1])),
                                   [0.0, 1.0], [0, 0])
    return vals[1:], exps[1:]


# at tiny c the forward rows can overflow; the non-finite values then fail
# the match instead of warning on the way
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _two_sided_profile(diag, offdiag, chi, dim):
    """Signed log profile of coefficient ratios against the leading entry.

    The forward rows 0 .. j_hi + 1 grow from v_0 = 1 (_forward_profile);
    the rows past the forward peak km come from the decaying tail, as the
    tridiagonal solve of rows km+1 .. dim-1 with v_km = 1 and v_dim = 0.
    The two are matched at km, and km + 1 checks the match.  Entries more
    than about e^-745 below v_km underflow to zero and get sign 0.

    Returns (signs, logs, mismatch): arrays over block rows, plus the
    forward/backward log-ratio discrepancy at the matching check.
    """
    d = diag - chi
    e = offdiag
    j_hi = min(dim - 2, int(math.sqrt(max(chi, 0.0)) / 2.0) + 3)

    f_val, f_exp = _forward_profile(d, e, j_hi + 1)
    f_logs = scaled_logs(f_val, f_exp)
    km = int(np.argmax(f_logs[:j_hi + 1]))

    rows = dim - 1 - km
    # the wrapper rejects an empty off-diagonal, even for a single row
    off = e[km + 1:] if rows > 1 else np.zeros(1)
    rhs = np.zeros((rows, 1))
    rhs[0, 0] = -e[km]
    *_, b_val, info = dgtsv(off, d[km + 1:], off, rhs)
    if info:
        raise MatchFailure(f"backward system singular at row {km + info}")
    b_val = b_val[:, 0]

    if f_val[km] == 0.0 or f_val[km + 1] == 0.0 or b_val[0] == 0.0:
        raise MatchFailure("zero profile value at the matching index")
    b_logs = np.log(np.abs(b_val))
    r0 = f_logs[km]                         # v_km = 1 on the backward side
    s0 = 1 if f_val[km] > 0 else -1
    r1 = f_logs[km + 1] - b_logs[0]
    s1 = (1 if f_val[km + 1] > 0 else -1) * (1 if b_val[0] > 0 else -1)
    mismatch = abs(r1 - r0)
    if s0 != s1 or not mismatch <= _MATCH_TOL:
        raise MatchFailure(
            f"forward/backward ratio mismatch {mismatch:.2e} at row {km}")

    signs = np.concatenate([np.sign(f_val[:km + 1]), s0 * np.sign(b_val)])
    logs = np.concatenate([f_logs[:km + 1], b_logs + r0])
    return signs, logs, mismatch


def lambda_log(ctx: ProlateContext, n: int) -> LogScaledReal:
    """|lambda_n| in log scale, valid arbitrarily deep into the decay tail.

    Works for either parity; the odd case pairs the two-sided profile with
    the derivative-at-zero weights of the odd companion formula.
    """
    m = ctx.mode(n)
    dim = m.dim
    parity = m.parity
    diag, offdiag, w = ctx.table(parity, dim)
    signs, logs, _ = _two_sided_profile(diag, offdiag, m.chi, dim)
    total = signed_log_sum(signs * np.sign(w), logs + np.log(np.abs(w)))
    if total.is_zero():
        raise ArithmeticError("series at the origin summed to zero")
    if parity == 0:
        return LogScaledReal.from_log(0.5 * math.log(2.0) - total.log_abs)
    return LogScaledReal.from_log(
        math.log(ctx.c) + 0.5 * math.log(2.0 / 3.0) - total.log_abs)


def mu(c: float, lam) -> LogScaledReal:
    """Eigenvalue of the sinc-kernel operator: (c / 2 pi) |lambda|^2."""
    if c <= 0:
        raise ValueError("band limit must be positive")
    lam = lam if isinstance(lam, LogScaledReal) else LogScaledReal.from_float(lam)
    if lam.is_zero():
        return LogScaledReal.zero()
    return LogScaledReal.from_log(math.log(c / (2.0 * math.pi)) + 2.0 * lam.log_abs)


def count_above(ctx: ProlateContext, alpha: float) -> int:
    """Number of sinc-operator eigenvalues exceeding alpha, by direct scan."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    cap = int(2 * ctx.c / math.pi + 40 * math.log(ctx.c + 2.0) + 60)
    log_alpha = math.log(alpha)
    for n in range(cap):
        rec = eigenvalue_record(ctx, n)
        if rec.mu.log_abs <= log_alpha:
            return n
    raise RuntimeError("eigenvalue scan exceeded its safety cap")


@dataclass(frozen=True)
class EigenvalueRecord:
    """Magnitude, phase class (i^n, stored as n mod 4) and mu for one index."""

    n: int
    lambda_abs: LogScaledReal
    phase: int
    mu: LogScaledReal


def eigenvalue_record(ctx: ProlateContext, n: int) -> EigenvalueRecord:
    lam = lambda_log(ctx, n)
    return EigenvalueRecord(n, lam, n % 4, mu(ctx.c, lam))
