"""Explicit upper bounds on the integral-operator eigenvalues.

The bound zoo, in decreasing tightness and increasing simplicity:

* zeta  -- the sharp bound built from chi, psi(0) and the decay exponent;
* eta   -- same exponent, prefactor depending only on n and c;
* xi    -- no chi at all: valid for c > 22 with a free depth parameter;
* nu    -- the classical gamma-function bound, useful only for n >> 2c/pi;
* p0    -- a non-rigorous approximation, kept as a diagnostic.

Plus the auxiliary machinery shared by their hypotheses: the exponent
inverse H, the prefactor integral G, the depth parameter delta(n), and the
turning index k0 of the coefficient recurrence.

All values are carried log-scaled; at the indices where these bounds are
interesting they are far below double-precision underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import _agm_scale, complete_E, exponent_term
from .eigenvalues import lambda_log
from .logscale import LogScaledReal
from .spectrum import ProlateContext, ProlateMode


class HypothesisViolated(ValueError):
    """A bound was requested outside the hypotheses of its theorem."""


# -- the classical gamma-function bound ------------------------------------

def nu(n: int, c: float) -> LogScaledReal:
    """sqrt(pi) c^n (n!)^2 / ((2n)! Gamma(n + 3/2)), in log-gamma arithmetic."""
    if n < 0 or c <= 0:
        raise ValueError("need n >= 0 and c > 0")
    log_val = (0.5 * math.log(math.pi) + n * math.log(c)
               + 2.0 * math.lgamma(n + 1) - math.lgamma(2 * n + 1)
               - math.lgamma(n + 1.5))
    return LogScaledReal.from_log(log_val)


# -- the principal bound and its simplifications ---------------------------

def zeta_hypothesis(m: ProlateMode) -> bool:
    """Hypothesis of the principal bound: even index and chi > c^2 + 42."""
    return m.parity == 0 and m.chi > m.c * m.c + 42.0


def zeta(m: ProlateMode) -> LogScaledReal:
    """Principal upper bound on |lambda_n| for an even mode.

    Defined whenever chi > c^2; rigorous once chi > c^2 + 42 (flagged by
    zeta_hypothesis, which holds for every even n > 2c/pi + sqrt(42)).
    """
    if m.parity != 0:
        raise ValueError("zeta is defined for even mode indices")
    c, chi = m.c, m.chi
    if chi <= c * c:
        raise ValueError("zeta requires chi > c^2")
    ratio = chi / (c * c)
    log_val = (math.log(7.0 / (2.0 * abs(m.psi_at_zero)))
               + 4.0 * math.log(4.0 * ratio - 2.0)
               - math.log(3.0 * ratio - 1.0)
               + 0.25 * math.log(chi - c * c)
               - exponent_term(c, chi))
    return LogScaledReal.from_log(log_val)


def eta(n: int, c: float, chi: float) -> LogScaledReal:
    """Simpler bound 18 (n+1) (pi (n+1)/c)^7 exp(-exponent); even n."""
    if chi <= c * c:
        raise ValueError("eta requires chi > c^2")
    log_val = (math.log(18.0 * (n + 1.0))
               + 7.0 * math.log(math.pi * (n + 1.0) / c)
               - exponent_term(c, chi))
    return LogScaledReal.from_log(log_val)


def xi_value(c: float, delta: float) -> LogScaledReal:
    """The chi-free bound formula with no hypothesis checking."""
    return LogScaledReal.from_log(
        math.log(7056.0 * c) - delta * (1.0 - delta / (2.0 * math.pi * c)))


def xi_threshold(c: float, delta: float) -> float:
    """Smallest n admitted by the chi-free bound for this depth delta."""
    return 2.0 * c / math.pi + (2.0 / math.pi ** 2) * delta * math.log(
        4.0 * math.e * math.pi * c / delta)


def xi(n: int, c: float, delta: float) -> LogScaledReal:
    """Chi-free bound 7056 c exp(-delta (1 - delta / 2 pi c)).

    Raises HypothesisViolated naming the first failed clause.
    """
    if not c > 22.0:
        raise HypothesisViolated(f"requires c > 22, got c = {c}")
    if not 3.0 < delta < math.pi * c / 16.0:
        raise HypothesisViolated(
            f"requires 3 < delta < pi c / 16, got delta = {delta}")
    if n < xi_threshold(c, delta):
        raise HypothesisViolated(
            f"requires n >= {xi_threshold(c, delta):.3f}, got n = {n}")
    return xi_value(c, delta)


def p0(n: int, c: float, chi: float) -> LogScaledReal:
    """Diagnostic approximation sqrt(2 pi / c) exp(-exponent); not a bound."""
    if chi < c * c:
        raise ValueError("p0 requires chi >= c^2")
    return LogScaledReal.from_log(
        0.5 * math.log(2.0 * math.pi / c) - exponent_term(c, chi))


def lambda_chi_bound(n: int, c: float, chi: float) -> LogScaledReal:
    """Bound 1195 c x^(3/4) (x-1)^(1/4) (x-1/2)^3 exp(-(pi/4)(sqrt(x)-1/sqrt(x)) c)
    with x = chi / c^2; valid for n > 2c/pi + sqrt(42)."""
    x = chi / (c * c)
    if x <= 1.0:
        raise ValueError("requires chi > c^2")
    log_val = (math.log(1195.0 * c) + 0.75 * math.log(x)
               + 0.25 * math.log(x - 1.0) + 3.0 * math.log(x - 0.5)
               - (math.pi / 4.0) * (math.sqrt(x) - 1.0 / math.sqrt(x)) * c)
    return LogScaledReal.from_log(log_val)


# -- root finding -------------------------------------------------------------

_BRENT_MAXITER = 100  # scipy's brentq default


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f on [xa, xb] by Brent's method, step for step scipy's brentq.

    A port of the C loop behind ``scipy.optimize.brentq`` (brentq.c in
    scipy's optimize/Zeros): the same bracket swap, the same tolerance
    delta = (xtol + rtol |x|) / 2 and the same interpolate, extrapolate and
    bisect branches, so it returns the same float for the same f, bracket
    and tolerances without loading scipy.optimize.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


# -- auxiliary functions ----------------------------------------------------

def aux_f(x: float) -> float:
    """f(x) = -1 + integral of sqrt(x + cos^2) over a quarter period.

    Closed form sqrt(1+x) E(1/sqrt(1+x)); strictly increasing from f(0) = 0.
    """
    if x < 0:
        raise ValueError("defined for x >= 0")
    s = math.sqrt(1.0 + x)
    return s * complete_E(1.0 / s) - 1.0


def aux_H(y: float) -> float:
    """Inverse of aux_f on [0, inf), by bracketed root finding."""
    if y < 0:
        raise ValueError("defined for y >= 0")
    if y == 0.0:
        return 0.0
    hi = 1.0
    while aux_f(hi) < y:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("bracket growth failed; aux_f should be unbounded")
    # xtol at the evaluation-noise scale: tighter brackets cannot resolve
    return _brentq(lambda x: aux_f(x) - y, 0.0, hi, xtol=1e-16, rtol=8.9e-16)


def aux_G(x: float) -> float:
    """G(x) = integral of sin^2 / sqrt(1 + x cos^2) over a quarter period.

    Closed form sqrt(1+x) (F - E)(kappa) / x with kappa^2 = x / (1+x); the
    cancellation-free F - E keeps this accurate down to x -> 0 where the
    value tends to pi/4.
    """
    if x < 0:
        raise ValueError("defined for x >= 0")
    if x == 0.0:
        return math.pi / 4.0
    big_k, s = _agm_scale(1.0 / (1.0 + x), x / (1.0 + x))
    return math.sqrt(1.0 + x) * big_k * s / x


# -- depth parameter and turning index ---------------------------------------

def delta_defined(n: int, c: float) -> bool:
    """Whether delta(n) exists: 2c/pi < n < 10c/pi."""
    return 2.0 * c / math.pi < n < 10.0 * c / math.pi


def delta_of_n(n: int, c: float) -> float:
    """Depth delta(n): the root X of n = 2c/pi + (2/pi^2) X log(4 e pi c / X).

    Unique on (0, 4 pi c) because the right side increases there; defined
    where delta_defined(n, c) holds.
    """
    if not delta_defined(n, c):
        raise ValueError(f"delta(n) needs 2c/pi < n < 10c/pi, got n = {n}")

    def g(x):
        return xi_threshold(c, x) - n

    root = _brentq(g, 1e-300, 4.0 * math.pi * c * (1.0 - 1e-14),
                   xtol=1e-300, rtol=8.9e-16)
    return float(root)


def clamp_delta(delta: float, c: float) -> float:
    """delta clamped into the open interval (3, pi c / 16) of xi's hypothesis.

    Clamping keeps the n-threshold clause satisfied whenever the raw
    delta(n) exceeds the cap, because the threshold increases with delta.
    """
    return min(max(delta, 3.0 + 1e-9), math.pi * c / 16.0 - 1e-9)


def report_delta(n: int, c: float) -> float | None:
    """clamp_delta(delta(n)), or None where delta(n) is not defined."""
    return clamp_delta(delta_of_n(n, c), c) if delta_defined(n, c) else None


def k0(c: float, chi: float) -> int:
    """Turning index: largest k >= 1 with 2k(2k+1) < chi - c^2, else 0."""
    if chi < c * c:
        raise ValueError("turning index requires chi >= c^2")
    gap = chi - c * c
    k = int(0.5 * math.sqrt(gap + 0.25) - 0.25)
    while 2.0 * (k + 1) * (2.0 * (k + 1) + 1) < gap:
        k += 1
    while k >= 1 and not 2.0 * k * (2.0 * k + 1) < gap:
        k -= 1
    return max(k, 0)


# -- chi bounds from the depth parameter --------------------------------------

def chi_lower(n: int, c: float, delta: float) -> tuple[float, bool]:
    """Lower bound c^2 + (4/pi) delta c, with its hypothesis flag."""
    value = c * c + (4.0 / math.pi) * delta * c
    ok = 0.0 < delta < 1.25 * math.pi * c and n > xi_threshold(c, delta)
    return value, ok


def chi_upper(n: int, c: float, delta: float) -> tuple[float, bool]:
    """Upper bound c^2 + (8/pi) delta c, with its hypothesis flag."""
    value = c * c + (8.0 / math.pi) * delta * c
    ok = (3.0 < delta < 1.25 * math.pi * c
          and 2.0 * c / math.pi <= n <= xi_threshold(c, delta) - 3.0)
    return value, ok


# -- aggregated report --------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated at one (c, n), with per-theorem validity flags.

    Fields that a formula cannot produce (zeta for an odd index, or any
    exponent-based bound when chi <= c^2) are None with the flag False.
    The verification payload is: flag True implies value >= lambda_abs.
    """

    n: int
    c: float
    chi: float
    lambda_abs: LogScaledReal
    nu: LogScaledReal
    zeta: LogScaledReal | None
    eta: LogScaledReal | None
    xi: LogScaledReal | None
    p0: LogScaledReal | None
    delta_n: float | None
    hypotheses: dict


def bound_report(ctx: ProlateContext, n: int, delta: float | None = None) -> BoundReport:
    """Evaluate the whole bound zoo at (ctx.c, n).

    delta defaults to the clamped delta(n) policy; pass a value to pin it.
    """
    c = ctx.c
    m = ctx.mode(n)     # refuses an index that is not a non-negative integer
    chi_val = m.chi
    lam = lambda_log(ctx, n)
    above_c2 = chi_val > c * c

    nu_v = nu(n, c)
    zeta_v = eta_v = p0_v = xi_v = None
    if m.parity == 0 and above_c2:
        zeta_v = zeta(m)
    if above_c2:
        eta_v = eta(n, c, chi_val)
        p0_v = p0(n, c, chi_val)

    delta_raw = delta_of_n(n, c) if delta_defined(n, c) else None
    if delta is None and delta_raw is not None:
        delta = clamp_delta(delta_raw, c)
    xi_ok = False
    if delta is not None:
        try:
            xi_v, xi_ok = xi(n, c, delta), True
        except HypothesisViolated:
            xi_v = xi_value(c, delta)

    zeta_ok = zeta_hypothesis(m)
    flags = {
        "zeta": zeta_ok,
        "eta": zeta_ok,
        "xi": xi_ok,
        "nu": True,
        "p0": above_c2,
    }
    return BoundReport(n, c, chi_val, lam, nu_v, zeta_v, eta_v, xi_v, p0_v,
                       delta_raw, flags)
