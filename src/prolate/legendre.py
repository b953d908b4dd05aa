"""Legendre polynomials, their normalized variants, and Gauss-Legendre rules.

The upward three-term recurrence is forward-stable on [-1, 1], so no
asymptotic formulas are used.  Special values at the origin are built from
ratio chains instead of factorials so they stay finite for degrees ~1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dsterf


def _check_degree(k):
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k!r}")


def _check_domain(t):
    # written so that NaN fails the comparison and is refused too
    if not np.all(np.abs(t) <= 1.0):
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
    return float(even_values_at_zero(k // 2 + 1)[-1])


def normalized_legendre_deriv_at_zero(k: int) -> float:
    """Derivative of the normalized polynomial at t = 0; zero for even k."""
    _check_degree(k)
    if k % 2 == 0:
        return 0.0
    return float(odd_derivs_at_zero(k // 2 + 1)[-1])


def _table_at_zero(count, parity):
    # row j is degree 2j + parity, and row j + 1 is row j times
    # -(2j + 1 + 2 parity)/(2j + 2); cumprod takes these products in order
    j = np.arange(count)
    chain = np.ones(count)
    chain[1:] = -(2 * j[:-1] + 1 + 2 * parity) / (2 * j[:-1] + 2)
    return np.cumprod(chain) * np.sqrt(2 * j + parity + 0.5)


def even_values_at_zero(count: int) -> np.ndarray:
    """Normalized values at 0 for degrees 0, 2, ..., 2*(count-1).

    P_{2m}(0) = (-1)^m (2m-1)!!/(2m)!!, built as a ratio chain.
    """
    return _table_at_zero(count, 0)


def odd_derivs_at_zero(count: int) -> np.ndarray:
    """Normalized derivatives at 0 for degrees 1, 3, ..., 2*count-1.

    P'_{2m+1}(0) = (-1)^m (2m+1)!!/(2m)!!, built as a ratio chain.
    """
    return _table_at_zero(count, 1)


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


def legendre_sweep(x: np.ndarray, top: int):
    """Yield (k, P_k(x), P_{k-1}(x)) for k = 1 .. top (top >= 1).

    Each step of the upward recurrence forms ((2j + 1) x) P_j - j P_{j-1},
    then divides by j + 1, in the order legendre_value uses, so the values
    are the same bits.  The step writes in place into arrays the sweep
    reuses: a yielded array holds its values only until the next step.
    """
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


def gauss_legendre(m: int) -> QuadratureRule:
    """m-point Gauss-Legendre rule, exact for polynomials of degree 2m-1.

    Golub-Welsch on half the problem: the Jacobi matrix J of the Legendre
    recurrence has a zero diagonal and off-diagonal b_k = k/sqrt(4k^2 - 1),
    so J^2 splits by index parity, and its even-index block (h = ceil(m/2)
    rows, diagonal b_2i^2 + b_2i+1^2, off-diagonal b_2i+1 b_2i+2) has the
    eigenvalues x^2 of the nonnegative nodes, plus 0 for odd m.  LAPACK's
    dsterf gives them to an absolute error near eps; the square root loses
    relative accuracy near 0, which one Newton step on P_m restores.  The
    same recurrence sweep gives P_m' at the guess x0; Legendre's equation
    (1 - x^2) P'' = 2x P' - m(m+1) P carries it to first order along the
    Newton step, and the weights are 2/((1 - x^2) P_m'(x)^2).  The negative
    half is the mirror image, so the rule is exactly antisymmetric (the
    centre node of an odd m is 0.0).

    Against a 40-digit reference, nodes and weights are within 2e-16
    absolute at m = 40, 41 and 400.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("rule size must be a positive integer")
    h = (m + 1) // 2
    k = np.arange(1.0, m)
    b = np.zeros(2 * h + 1)
    b[1:m] = k / np.sqrt(4.0 * k * k - 1.0)
    diag = b[0:2 * h:2] ** 2 + b[1:2 * h:2] ** 2
    # h products, the last one b_2h-1 b_2h = 0; dsterf takes the first h - 1,
    # but its wrapper wants at least one
    off = b[1:2 * h:2] * b[2:2 * h + 1:2]
    y, info = dsterf(diag, off[:max(h - 1, 1)])
    if info != 0:
        raise ArithmeticError(f"dsterf failed on the {h}-row Legendre block "
                              f"(info = {info})")
    if m % 2:
        y[0] = 0.0
    x0 = np.sqrt(y)
    for _, p, p_prev in legendre_sweep(x0, m):
        pass
    d = m * (x0 * p - p_prev) / (x0 * x0 - 1.0)
    step = -p / d
    d += step * (2.0 * x0 * d - m * (m + 1) * p) / (1.0 - x0 * x0)
    x = x0 + step
    w = 2.0 / ((1.0 - x * x) * d * d)
    # mirror the m - h largest nodes; the centre 0.0 of an odd m appears once
    neg = m - h
    return QuadratureRule(np.concatenate((-x[::-1][:neg], x)),
                          np.concatenate((w[::-1][:neg], w)))
