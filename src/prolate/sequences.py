"""Coefficient-ratio sequences behind the principal bound.

The proof of the principal bound runs through a chain of rescaled versions
of the coefficient ratios a_k / a_1: alpha (raw ratios), beta (square-root
rescaling), beta_new (a minorant with the same head), gamma (a second
rescaling whose recurrence has constant trailing coefficient 1), the
consecutive-ratio sequence r, and its closed-form minorant sigma.  Each
monotonicity or domination statement about these sequences is executable,
so this module materializes them all.  gamma spans hundreds of orders of
magnitude by the turning index, so each sequence is kept as a sign array
and a log-magnitude array.  The three-term recurrences run on the one
blocked solver that also gives lambda_log its forward rows
(eigenvalues.scaled_recurrence, single-threaded LAPACK rescaled by powers
of two), so their digits do not depend on the BLAS thread count.

Rational coefficients are evaluated exactly as written (not pre-simplified)
to keep the code auditable against their defining formulas.  The families
the trace uses accept an integer k or a float array of k; numpy's
elementwise arithmetic and square root are correctly rounded, so while
the integer products in a formula stay below 2^53 (k up to about 4000)
an array holds exactly the values of the scalar calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import k0 as turning_index
from .eigenvalues import scaled_logs, scaled_recurrence
from .elliptic import exponent_term
from .logscale import LogScaledArray, LogScaledReal

# -- coefficient families (k is the 1-based sequence index) ------------------

def big_a(k: int) -> float:
    return (k * (2 * k - 1) * (4 * k + 3)) / ((k + 1) * (2 * k + 1) * (4 * k - 1)) \
        * np.sqrt((4 * k + 5) / (4 * k - 3))


def big_b(k: int, c: float, chi: float) -> float:
    c2 = c * c
    root = np.sqrt((4 * k + 1) * (4 * k + 5))
    return ((chi - 2 * k * (2 * k + 1)) / c2) * (4 * k + 3) * root / ((2 * k + 1) * (2 * k + 2)) \
        - (4 * k * (2 * k + 1) - 1) * root / ((4 * k - 1) * (2 * k + 1) * (2 * k + 2))


def a_tilde(k: int) -> float:
    if k == 0:
        return 0.0
    return (k * (2 * k - 1) * (4 * k + 3)) / ((k + 1) * (2 * k + 1) * (4 * k - 1))


def b_chi(k: int, c: float, chi: float) -> float:
    return ((4 * k + 1) * (4 * k + 3)) / ((2 * k + 1) * (2 * k + 2)) \
        * (chi - c * c - 2 * k * (2 * k + 1)) / (c * c)


def rho_seq(k: int) -> float:
    return ((4 * k - 6) * (4 * k - 4) * (4 * k + 7)) / ((4 * k - 2) * (4 * k) * (4 * k + 3))


def a_new(k: int) -> float:
    return ((4 * k - 4) / (4 * k + 4)) * ((4 * k - 6) / (4 * k + 2)) * ((4 * k + 7) / (4 * k - 1))


def f_seq(k: int) -> float:
    return ((4 * k - 4) * (4 * k - 6)) / (4 * k - 1)


def b_one(k: int, c: float, chi: float) -> float:
    return (4 * (4 * k + 1) * (4 * k + 3) ** 2) / (4 * k * (4 * k - 2) * (4 * k + 7)) \
        * (chi - c * c - 2 * k * (2 * k + 1)) / (c * c)


def b_two(k: int) -> float:
    return 2.0 + 60.0 / (32 * k ** 4 + 32 * k ** 3 - 38 * k ** 2 + 7 * k)


def g_n_value(c: float, chi: float, x: float) -> float:
    """Integrand base for the product bound; needs 4 x^2 <= chi - c^2."""
    gap = chi - c * c
    if gap < 0:
        raise ValueError("requires chi >= c^2")
    if 4.0 * x * x > gap * (1.0 + 1e-12):
        raise ValueError("requires 4 x^2 <= chi - c^2")
    u = 1.0 + 2.0 * max(gap - 4.0 * x * x, 0.0) / (c * c)
    return u + math.sqrt(max(u * u - 1.0, 0.0))


def _log_scaled(vals, exps) -> LogScaledArray:
    """vals * 2^exps as signs and logs; the placeholder entry 0 reads as zero."""
    with np.errstate(divide="ignore"):
        logs = scaled_logs(vals, exps)
    logs[0] = np.nan
    return LogScaledArray(np.sign(vals), logs)


@dataclass(frozen=True)
class SequenceTrace:
    """Materialized sequences for one (c, n, chi); index k addresses entry [k].

    alpha/beta/beta_new/gamma are LogScaledArray (sign and log arrays)
    whose entry [k] reads as a LogScaledReal; [0] is unused and reads as
    zero.  r[k] = gamma_{k+1}/gamma_k and sigma[k] are float arrays with
    NaN at index 0; r is NaN at index K and wherever gamma_k is zero, and
    sigma is NaN where its discriminant goes negative, past the turning
    region.
    """

    c: float
    n: int
    chi: float
    k0: int
    K: int
    alpha: LogScaledArray
    beta: LogScaledArray
    beta_new: LogScaledArray
    gamma: LogScaledArray
    r: np.ndarray
    sigma: np.ndarray


def trace(c: float, n: int, chi: float, K: int | None = None) -> SequenceTrace:
    """Populate every sequence up to index K (default: turning index + 2).

    The default is the deepest index any consumer reads, and every entry up
    to it is trusted: against a 50-digit evaluation of the recurrences the
    logs agree within 2e-14 through k0 + 2.  Past the turning index alpha (and
    so beta) decays, and its forward recurrence loses digits in any double
    arithmetic (9e-4 in log at k0 + 8 for c = 10, n = 40); beta_new, gamma
    and r keep growing and stay accurate.
    """
    if chi <= c * c:
        raise ValueError("sequence trace requires chi > c^2")
    k_turn = turning_index(c, chi)
    if K is None:
        K = k_turn + 2
    if K < k_turn + 2:
        raise ValueError("K must reach at least the turning index + 2")

    k = np.arange(1.0, K + 1.0)          # k[j] = j + 1

    # x_{k+2} = p_k x_{k+1} + q_k x_k is solved as -(-p_k x_{k+1} - q_k x_k),
    # from heads that start with the placeholder entry 0
    # alpha_{k+2} = B_k alpha_{k+1} - A_k alpha_k for k = 1 .. K-2
    ka = k[:K - 2]
    alpha_vals, exps = scaled_recurrence(
        np.ones(K - 2), -big_b(ka, c, chi), big_a(ka),
        [0.0, 1.0, float(big_b(0, c, chi))], [0, 0, 0])
    beta_vals = alpha_vals * np.concatenate([[0.0], np.sqrt(2.0 / (4 * k - 3))])

    # beta_new_{k+2} = (b_chi_k + 1) beta_new_{k+1}
    #                  + a_new_k (beta_new_{k+1} - beta_new_k),  k = 2 .. K-2,
    # as p x_{k+1} + q x_k with p = b_chi_k + 1 + a_new_k, q = -a_new_k;
    # it shares its first three entries with beta
    kb = k[1:K - 2]
    a_k = a_new(kb)
    ones = np.ones(kb.size)
    beta_new = _log_scaled(*scaled_recurrence(
        ones, -(b_chi(kb, c, chi) + 1.0 + a_k), a_k,
        beta_vals[:4], exps[:4]))

    # gamma_{k+2} = (b_one_k + b_two_k) gamma_{k+1} - gamma_k, k = 2 .. K-2
    v2 = (chi - c * c) / (c * c)
    heads = [0.0, math.sqrt(2.0),
             8.0 / (7.0 * math.sqrt(2.0)) * (2.0 + 3.0 * v2),
             16.0 * math.sqrt(2.0) / 11.0
             * (3.0 + 15.0 * v2
                + (105.0 / 8.0) * v2 * (chi - c * c - 6.0) / (c * c)
                - 105.0 / (2.0 * c * c))][:K + 1]    # K = 2 keeps two heads
    b12 = b_one(k, c, chi) + b_two(k)
    gamma = _log_scaled(*scaled_recurrence(
        ones, -b12[1:K - 2], ones, heads, [0] * len(heads)))

    half = 0.5 * b12
    with np.errstate(invalid="ignore"):
        r = np.where(gamma.signs[1:K] != 0,
                     gamma.signs[2:] * gamma.signs[1:K]
                     * np.exp(gamma.logs[2:] - gamma.logs[1:K]), np.nan)
        sigma = np.where(half >= 1.0, half + np.sqrt(half * half - 1.0), np.nan)
    r = np.concatenate([[np.nan], r, [np.nan]])
    sigma = np.concatenate([[np.nan], sigma])

    return SequenceTrace(c, n, chi, k_turn, K, _log_scaled(alpha_vals, exps),
                         _log_scaled(beta_vals, exps), beta_new, gamma, r, sigma)


def product_lower_bound(tr: SequenceTrace) -> LogScaledReal:
    """Integral lower bound on sigma_2 * ... * sigma_{k0-1}.

    Returns g(0)^-4 * exp(integral of log g over the turning range), which
    equals g(0)^-4 * exp(exponent_term); raises if the product fails to
    exceed it (it cannot, for a valid trace).
    """
    if tr.k0 <= 2:
        raise ValueError("product bound needs turning index k0 > 2")
    bound_log = -4.0 * math.log(g_n_value(tr.c, tr.chi, 0.0)) \
        + exponent_term(tr.c, tr.chi)
    product_log = float(np.sum(np.log(tr.sigma[2:tr.k0])))
    if not product_log > bound_log:
        raise ArithmeticError(
            f"sigma product {product_log:.6e} fails its integral bound "
            f"{bound_log:.6e} at c={tr.c}, n={tr.n}")
    return LogScaledReal.from_log(bound_log)


def lambda_gamma_bound(tr: SequenceTrace, psi_at_zero: float) -> LogScaledReal:
    """Intermediate eigenvalue bound 2 prefactor(k0) / (|psi(0)| gamma_k0).

    Tighter than the closed-form principal bound, since the loosening of
    the prefactor and of 1/gamma_k0 both happen after this point.
    """
    if tr.n % 2 != 0:
        raise ValueError("gamma-route bound applies to even mode indices")
    if tr.k0 <= 2:
        raise ValueError("gamma-route bound needs turning index k0 > 2")
    if psi_at_zero == 0.0:
        raise ValueError("psi(0) must be non-zero")
    g = tr.gamma[tr.k0]
    if g.sign <= 0:
        raise ArithmeticError("gamma at the turning index should be positive")
    q = tr.k0
    log_val = (math.log(2.0 / abs(psi_at_zero))
               + math.log((4 * q - 4) * (4 * q - 6))
               - math.log(4 * q - 1) - 0.5 * math.log(4 * q - 3)
               - g.log_abs)
    return LogScaledReal.from_log(log_val)
