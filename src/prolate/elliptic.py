"""Complete elliptic integrals, and the shared decay exponent.

Complete integrals use the arithmetic-geometric mean, which stays uniformly
accurate as the modulus approaches one (the deep-tail regime where the
eigenvalue ratio chi/c^2 is large).  F - E is returned from the AGM scale
sum directly, never as a difference, so it keeps full relative accuracy
even for small modulus where F and E agree to many digits.
"""

from __future__ import annotations

import math


def _agm_scale(kprime_sq: float, k_sq: float | None = None):
    """AGM of (1, k') given k'^2; returns (K, S) with E = K*(1-S), F-E = K*S.

    Callers that know k^2 exactly should pass it, since re-deriving it as
    1 - k'^2 cancels badly when the modulus is tiny.
    """
    if k_sq is None:
        k_sq = 1.0 - kprime_sq
    a = 1.0
    b = math.sqrt(kprime_sq)
    # c_0^2 = k^2; the running factor p doubles each iteration
    s = 0.5 * k_sq
    p = 1.0
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        p *= 2.0
        s += 0.5 * p * c * c
        if c == 0.0 or abs(c) < 8e-16 * a:
            break
    return math.pi / (2.0 * a), s


def _check_modulus(k, allow_one=True):
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0 and not allow_one:
        raise ValueError("first-kind complete integral diverges at modulus 1")


def complete_F(k: float) -> float:
    """Complete elliptic integral of the first kind, F(k) = K(k)."""
    _check_modulus(k, allow_one=False)
    big_k, _ = _agm_scale((1.0 - k) * (1.0 + k), k * k)
    return big_k


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind."""
    _check_modulus(k)
    if k == 1.0:
        return 1.0
    big_k, s = _agm_scale((1.0 - k) * (1.0 + k), k * k)
    return big_k * (1.0 - s)


def complete_F_minus_E(k: float) -> float:
    """F(k) - E(k) without cancellation; finite and positive on (0, 1)."""
    _check_modulus(k, allow_one=False)
    big_k, s = _agm_scale((1.0 - k) * (1.0 + k), k * k)
    return big_k * s


def exponent_term(c: float, chi: float) -> float:
    """sqrt(chi) * (F - E) at modulus sqrt((chi - c^2)/chi).

    This is the decay exponent shared by every upper bound on the integral
    operator eigenvalues.  The complementary modulus squared c^2/chi is
    formed straight from the inputs, avoiding the cancellation in
    1 - k^2 when chi - c^2 dwarfs c^2.
    """
    if c <= 0.0:
        raise ValueError("band limit must be positive")
    if chi < c * c:
        raise ValueError("exponent term requires chi >= c^2")
    if chi == c * c:
        return 0.0
    big_k, s = _agm_scale(c * c / chi, (chi - c * c) / chi)
    return math.sqrt(chi) * big_k * s
