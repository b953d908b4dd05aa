"""Legendre polynomials, their normalized variants, and Gauss-Legendre rules.

The upward three-term recurrence is forward-stable on [-1, 1], so no
asymptotic formulas are used.  Special values at the origin are built from
ratio chains instead of factorials so they stay finite for degrees ~1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_degree(k):
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k!r}")


def _check_domain(t):
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")


def legendre_value(k: int, t):
    """P_k(t) by upward recurrence; t may be a scalar or an array in [-1, 1]."""
    _check_degree(k)
    t = np.asarray(t, dtype=float)
    _check_domain(t)
    p_prev = np.ones_like(t)
    if k == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = t.copy()
    for j in range(1, k):
        p_next = ((2 * j + 1) * t * p_cur - j * p_prev) / (j + 1)
        p_prev, p_cur = p_cur, p_next
    return p_cur if p_cur.ndim else float(p_cur)


def normalized_legendre_value(k: int, t):
    """P_k(t) * sqrt(k + 1/2), so the L2[-1,1] norm is one."""
    return legendre_value(k, t) * math.sqrt(k + 0.5)


def legendre_deriv_value(k: int, t):
    """P_k'(t) via the standard derivative recurrence."""
    _check_degree(k)
    t = np.asarray(t, dtype=float)
    _check_domain(t)
    p_prev = np.ones_like(t)
    d_prev = np.zeros_like(t)
    if k == 0:
        return d_prev if d_prev.ndim else 0.0
    p_cur = t.copy()
    d_cur = np.ones_like(t)
    for j in range(1, k):
        p_next = ((2 * j + 1) * t * p_cur - j * p_prev) / (j + 1)
        d_next = d_prev + (2 * j + 1) * p_cur
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return d_cur if d_cur.ndim else float(d_cur)


def normalized_legendre_at_zero(k: int) -> float:
    """Value of the normalized polynomial at t = 0; zero for odd k."""
    _check_degree(k)
    if k % 2 == 1:
        return 0.0
    # P_{2m}(0) = (-1)^m (2m-1)!!/(2m)!! via the ratio chain
    p = 1.0
    for j in range(k // 2):
        p *= -(2 * j + 1) / (2 * j + 2)
    return p * math.sqrt(k + 0.5)


def normalized_legendre_deriv_at_zero(k: int) -> float:
    """Derivative of the normalized polynomial at t = 0; zero for even k."""
    _check_degree(k)
    if k % 2 == 0:
        return 0.0
    # P'_{2m+1}(0) = (-1)^m (2m+1)!!/(2m)!!
    d = 1.0
    for j in range((k - 1) // 2):
        d *= -(2 * j + 3) / (2 * j + 2)
    return d * math.sqrt(k + 0.5)


def even_values_at_zero(count: int) -> np.ndarray:
    """Normalized values at 0 for degrees 0, 2, ..., 2*(count-1)."""
    out = np.empty(count)
    p = 1.0
    for j in range(count):
        out[j] = p * math.sqrt(2 * j + 0.5)
        p *= -(2 * j + 1) / (2 * j + 2)
    return out


def odd_derivs_at_zero(count: int) -> np.ndarray:
    """Normalized derivatives at 0 for degrees 1, 3, ..., 2*count-1."""
    out = np.empty(count)
    d = 1.0
    for j in range(count):
        out[j] = d * math.sqrt(2 * j + 1.5)
        d *= -(2 * j + 3) / (2 * j + 2)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an m-point Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, f) -> float:
        """Integral over [-1, 1] of a vectorized callable."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


# Newton converges quadratically from the Chebyshev guesses, so a step this
# small leaves the node at its rounding floor.
_NEWTON_STEP_TOL = 4.0 * np.finfo(float).eps


def _legendre_and_deriv(m, x):
    """P_m and P_m' on an array of points, by one recurrence sweep."""
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    for j in range(1, m):
        p_next = ((2 * j + 1) * x * p_cur - j * p_prev) / (j + 1)
        p_prev, p_cur = p_cur, p_next
    d = m * (x * p_cur - p_prev) / (x * x - 1.0)
    return p_cur, d


def gauss_legendre(m: int) -> QuadratureRule:
    """m-point Gauss-Legendre rule, exact for polynomials of degree 2m-1.

    Nodes by Newton iteration from Chebyshev initial guesses, stopped once
    the largest step is within a few ulps of 1.  The residual |P_m(node)|
    is no stopping test: the recurrence evaluates P_m at a true root with
    about m^1.5 eps of rounding noise, so it stalls above any fixed 1e-15.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("rule size must be a positive integer")
    if m == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]))
    i = np.arange(m)
    x = np.cos(math.pi * (i + 0.75) / (m + 0.5))
    for _ in range(100):
        p, d = _legendre_and_deriv(m, x)
        dx = p / d
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_STEP_TOL:
            break
    p, d = _legendre_and_deriv(m, x)
    w = 2.0 / ((1.0 - x * x) * d * d)
    order = np.argsort(x)
    return QuadratureRule(x[order], w[order])
