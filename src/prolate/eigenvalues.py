"""Eigenvalues of the bandlimited integral operator, by three routes.

Route 1 (direct): for even modes the eigenvalue is sqrt(2) * a1 / psi(0)
where a1 is the degree-0 basis coefficient; the odd companion, obtained by
differentiating the defining integral identity at the origin, is
c * sqrt(2/3) * b1 / psi'(0) with b1 the degree-1 coefficient.  The odd
formula is this package's own derivation and is validated against the
published even-index machinery and the quadrature route.

Route 2 (quadrature): apply the integral operator at the point where the
eigenfunction is largest and divide.  Only meaningful while the eigenvalue
is resolvable in doubles, which makes it an independent oracle for route 1.

Route 3 (log-domain): the coefficient profile is rebuilt as ratios against
the leading coefficient by a two-sided Miller-type recurrence -- forward
through the growth region, backward from the decaying tail, matched at the
peak of the forward profile -- entirely in scaled arithmetic.  This resolves
magnitudes like e^-125 that are pure rounding noise in any eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .legendre import even_values_at_zero, gauss_legendre, odd_derivs_at_zero
from .logscale import LogScaledReal, signed_log_sum
from .spectrum import ProlateContext, ProlateMode, build_matrix, psi_value

_EPS = np.finfo(float).eps
RESOLUTION_FLOOR = 1e3 * _EPS    # smallest usable leading coefficient, relative
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_MATCH_TOL = 1e-3


class ResolutionLoss(ArithmeticError):
    """Leading coefficient lost in eigenvector noise; use the log route."""


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
    # one recurrence sweep over grid and nodes; psi_value treats each
    # point on its own, so the values equal those of two separate calls
    vals = psi_value(m, np.concatenate([grid, rule.nodes]))
    vals, pt = vals[:grid.size], vals[grid.size:]
    i = int(np.argmax(np.abs(vals)))
    x_star, p_star = grid[i], vals[i]
    if abs(p_star) < 0.1:
        raise OracleUnreliable("eigenfunction below 0.1 at every grid point")
    t = rule.nodes
    if m.parity == 0:
        integral = float(rule.weights @ (pt * np.cos(m.c * x_star * t)))
    else:
        integral = float(rule.weights @ (pt * np.sin(m.c * x_star * t)))
    return LogScaledReal.from_float(abs(integral / p_star))


def _two_sided_profile(diag, offdiag, chi, dim):
    """Signed log profile of coefficient ratios against the leading entry.

    Returns (signs, logs, mismatch): arrays over block rows, plus the
    forward/backward log-ratio discrepancy at the matching check.
    """
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
    if s0 != s1 or mismatch > _MATCH_TOL:
        raise MatchFailure(
            f"forward/backward ratio mismatch {mismatch:.2e} at row {km}")

    b_val = np.array(b_val[km + 1:])
    signs = np.concatenate([np.sign(f_val[:km + 1]), s0 * np.sign(b_val)])
    with np.errstate(divide="ignore"):
        b_logs = np.log(np.abs(b_val)) + b_off[km + 1:] + r0
    logs = np.concatenate([f_logs[:km + 1], b_logs])
    return signs, logs, mismatch


def lambda_log(ctx: ProlateContext, n: int) -> LogScaledReal:
    """|lambda_n| in log scale, valid arbitrarily deep into the decay tail.

    Works for either parity; the odd case pairs the two-sided profile with
    the derivative-at-zero weights of the odd companion formula.
    """
    chi_val = ctx.chi(n)
    dim = ctx.converged_dim(n)
    parity = n % 2
    band = build_matrix(ctx.c, parity, dim)
    signs, logs, _ = _two_sided_profile(band.diag, band.offdiag, chi_val, dim)
    w = even_values_at_zero(dim) if parity == 0 else odd_derivs_at_zero(dim)
    total = signed_log_sum(signs * np.sign(w), logs + np.log(np.abs(w)))
    if total.is_zero():
        raise ArithmeticError("series at the origin summed to zero")
    if parity == 0:
        return LogScaledReal.from_log(0.5 * math.log(2.0) - total.log_abs)
    return LogScaledReal.from_log(
        math.log(ctx.c) + 0.5 * math.log(2.0 / 3.0) - total.log_abs)


def lambda_abs(ctx: ProlateContext, n: int) -> LogScaledReal:
    """|lambda_n| by the cheapest reliable route for this regime."""
    m = ctx.mode(n)
    try:
        return lambda_direct(m) if n % 2 == 0 else lambda_odd(m)
    except ResolutionLoss:
        return lambda_log(ctx, n)


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
    lam = lambda_abs(ctx, n)
    return EigenvalueRecord(n, lam, n % 4, mu(ctx.c, lam))
