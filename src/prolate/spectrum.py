"""Spectral problem for the prolate differential operator.

In the normalized-Legendre basis the operator is an infinite symmetric
matrix coupling only degrees of equal parity, so each parity class gives a
tridiagonal block.  Selected eigenvalues come from bisection with Sturm
counts and eigenvectors from inverse iteration (LAPACK dstebz/dstein, which
eigh_tridiagonal below calls through the package's _lapack loader, so that
scipy.linalg itself is never imported), which keeps the cost O(dim) per
mode and reaches c = 1e5 at desk scale.  Truncation is never trusted
blindly: the dimension is estimated from a bound on the coefficient decay,
and a solve is accepted only when its coefficient tail has died off and the
residual of its eigenvector in the infinite operator is within the
eigenvalue tolerance; otherwise the dimension is doubled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._lapack import dstebz, dstein
from .legendre import even_values_at_zero, legendre_sweep, odd_derivs_at_zero

CHI_RTOL = 1e-10       # eigenvalue accuracy, relative
TAIL_RTOL = 1e-20      # trailing coefficient magnitude, relative to the peak
# slack, in log units, between the decay bound of the dimension estimate
# and log(TAIL_RTOL), for rounding in the computed eigenvector
_ESTIMATE_MARGIN = math.log(1e3)
# Largest block dimension any solve may use.  A mode plus its log-route
# eigenvalue raises the peak resident memory by about 113 bytes per row
# (measured at c = 100, n = 140 with the dimension pinned at 1e5 and 4e5
# rows, the context's cached band and weight table included; the
# eigenvector solve alone takes about 85), so the cap stands for about
# 0.12 GB.  c = 1e5 needs about 6e4 rows at the top of its decay
# window.
_MAX_ROWS = 1 << 20
_EPS = np.finfo(float).eps


class TruncationNotConverged(RuntimeError):
    """No admissible matrix dimension resolved the requested quantity, or
    the LAPACK eigensolver reported failure on a block."""


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, idx: int):
    """Eigenvalue idx (counted from 0, ascending) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, and its unit
    eigenvector.

    The same two LAPACK calls that scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(idx, idx)) makes with its default tolerance,
    so the results are bitwise scipy's: dstebz bisects to eps times the
    1-norm of the matrix, dstein finds the vector by inverse iteration.
    Like scipy, it refuses non-finite entries with ValueError; a nonzero
    LAPACK info raises TruncationNotConverged.
    """
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("array must not contain infs or NaNs")
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, idx + 1, idx + 1,
                                        0.0, "B")
    _check_info("dstebz", info, d.size, idx)
    v, info = dstein(d, e, w[:m], iblock, isplit)
    _check_info("dstein", info, d.size, idx)
    return float(w[0]), v[:, 0]


def _check_info(routine: str, info: int, rows: int, idx: int) -> None:
    if info:
        raise TruncationNotConverged(
            f"LAPACK {routine} failed with info = {info} on the {rows}-row "
            f"block (eigenvalue index {idx})")


@dataclass(frozen=True)
class MatrixBand:
    """Tridiagonal block of the operator matrix for one parity class.

    Row j corresponds to Legendre degree parity + 2*j; diag holds the
    degree-coupling entries A[m, m] and offdiag the A[m, m+2] couplings,
    which are positive for c > 0.
    """

    c: float
    parity: int
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag.setflags(write=False)
        self.offdiag.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.diag.size

    def degrees(self) -> np.ndarray:
        return self.parity + 2 * np.arange(self.dim)


def build_matrix(c: float, parity: int, dim: int) -> MatrixBand:
    """Tridiagonal block over degrees congruent to parity mod 2."""
    if c < 0:
        raise ValueError("band limit must be non-negative")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    m = parity + 2.0 * np.arange(dim)
    c2 = c * c
    diag = m * (m + 1.0) + (2.0 * m * (m + 1.0) - 1.0) / ((2.0 * m + 3.0) * (2.0 * m - 1.0)) * c2
    mo = m[:-1]
    offdiag = (mo + 2.0) * (mo + 1.0) / ((2.0 * mo + 3.0) * np.sqrt((2.0 * mo + 1.0) * (2.0 * mo + 5.0))) * c2
    return MatrixBand(float(c), parity, diag, offdiag)


def _noise(band: MatrixBand) -> float:
    """Bisection resolves eigenvalues to a few ulps of the matrix norm."""
    return 32.0 * _EPS * (float(np.max(np.abs(band.diag)))
                          + 2.0 * float(np.max(band.offdiag, initial=0.0)))


@dataclass(frozen=True)
class ProlateMode:
    """One eigenfunction: index, operator eigenvalue, and basis coefficients.

    coeffs[j] multiplies the normalized Legendre polynomial of degree
    parity + 2*j; the vector has unit Euclidean norm and its largest-
    magnitude entry is positive (the norm is intrinsic, the sign is a
    convention of this package).  psi_at_zero is set for even modes,
    dpsi_at_zero for odd ones.
    """

    n: int
    c: float
    chi: float
    parity: int
    coeffs: np.ndarray
    psi_at_zero: float | None
    dpsi_at_zero: float | None

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def degrees(self) -> np.ndarray:
        return self.parity + 2 * np.arange(self.dim)


class ProlateContext:
    """A band limit plus truncation policy, owning cached spectral data.

    The default policy sizes each parity block from a bound on the
    coefficient decay (see _start_dim) and solves once.  The solve is
    accepted when the coefficient tail is below TAIL_RTOL of the peak and
    the eigenvector, padded with zeros, leaves a residual in the infinite
    operator within CHI_RTOL of the eigenvalue (so the infinite operator
    has an eigenvalue that close); otherwise the dimension is doubled, up
    to _MAX_ROWS rows.  Passing truncation_dim (2 to _MAX_ROWS) pins the
    dimension instead; the tail check still runs and failure raises
    TruncationNotConverged.

    Each index n has one cached record, its ProlateMode, built by one
    converged solve and kept for the life of the context; chi(n) and
    converged_dim(n) read chi and the dimension from that record, so any
    mix of calls for one n solves once.

    The context is also the only place that builds a parity block or a
    weight table at the origin: it keeps one of each per parity, read-only,
    and hands out prefixes (band, weights_at_zero).  The dimension scan,
    each solve, psi(0) or psi'(0) of a record and lambda_log all read
    them.  Every band entry depends on its own row only and the weight
    table's ratio chain runs from the first row on, so a prefix is
    bitwise equal to a fresh build of that size.  A table too short for
    a request is rebuilt at twice its length or the request, whichever is
    larger (the band never past _MAX_ROWS + 1 rows), so a scan over rising
    indices builds each a few times at most.  A context is not meant to be
    shared across threads.
    """

    def __init__(self, c: float, truncation_dim: int | None = None):
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
            raise ValueError("band limit c must be a positive finite number")
        if c * c < sys.float_info.min:
            # every coupling scales with c^2; below about 1.5e-154 it is
            # subnormal or zero and the profile recurrence turns to NaN
            raise ValueError(f"band limit c={c} is too small: c^2 underflows "
                             "below the smallest normal double")
        if truncation_dim is not None and not 2 <= truncation_dim <= _MAX_ROWS:
            raise ValueError(
                f"truncation dimension must lie in [2, {_MAX_ROWS}], got {truncation_dim}")
        self.c = float(c)
        self.truncation_dim = truncation_dim
        self._modes: dict[int, ProlateMode] = {}
        self._bands: list[MatrixBand | None] = [None, None]
        self._weights: list[np.ndarray | None] = [None, None]

    # -- cached tables -------------------------------------------------------

    def band(self, parity: int, rows: int) -> MatrixBand:
        """The first rows rows of the parity block, a view of the cached band."""
        band = self._bands[parity]
        have = band.dim if band is not None else 0
        if have < rows:
            band = self._bands[parity] = build_matrix(
                self.c, parity, min(max(rows, 2 * have), _MAX_ROWS + 1))
        return MatrixBand(self.c, parity, band.diag[:rows], band.offdiag[:rows - 1])

    def weights_at_zero(self, parity: int, rows: int) -> np.ndarray:
        """Normalized Legendre values (even) or derivatives (odd) at the
        origin for the first rows degrees of the parity, read-only."""
        table = self._weights[parity]
        have = table.size if table is not None else 0
        if have < rows:
            build = even_values_at_zero if parity == 0 else odd_derivs_at_zero
            table = build(min(max(rows, 2 * have), _MAX_ROWS))
            table.setflags(write=False)
            self._weights[parity] = table
        return table[:rows]

    # -- solves ------------------------------------------------------------

    def _capped(self, dim: int, n: int) -> int:
        """dim itself, unless it passes the row cap."""
        if dim > _MAX_ROWS:
            raise TruncationNotConverged(
                f"c={self.c}, n={n} needs more than the row cap of "
                f"{_MAX_ROWS} matrix rows (_MAX_ROWS)")
        return dim

    def _start_dim(self, n: int) -> int:
        """Block dimension past which mode n's coefficients are dead.

        Past the rows where the diagonal outgrows chi_n and the couplings,
        the decaying solution of the three-term recurrence satisfies
        |v_{j+1} / v_j| <= e_j / (d_{j+1} - chi - e_{j+1}) < 1, and the
        min-max bound chi_n <= n(n+1) + c^2 (from c^2 x^2 <= c^2) keeps
        this true with chi replaced by that bound.  The log-ratios are
        summed from the first row of that region until they fall below
        log(TAIL_RTOL) minus _ESTIMATE_MARGIN, and four dead rows are kept
        for the tail check.

        The diagonal passes chi_hi near row sqrt(chi_hi) / 2, so the scan
        starts with 0.55 sqrt(chi_hi) + 64 rows of the cached band and
        doubles until the dead row lies inside it.  Past that region the
        steps only fall, so the answer does not depend on the scan size.
        """
        parity = n % 2
        chi_hi = n * (n + 1.0) + self.c * self.c
        target = math.log(TAIL_RTOL) - _ESTIMATE_MARGIN
        size = min(math.ceil(0.55 * math.sqrt(chi_hi)) + 64, _MAX_ROWS)
        while True:
            band = self.band(parity, size)
            e = band.offdiag
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.log(e[:-1] / (band.diag[1:-1] - chi_hi - e[1:]))
            # NaN (non-positive gap) and non-negative steps: not yet decaying
            growing = np.flatnonzero(~(steps < 0.0))
            j0 = int(growing[-1]) + 1 if growing.size else 0
            dead = np.flatnonzero(np.cumsum(steps[j0:]) < target)
            if dead.size:
                # the bound at dead[0] covers row j0 + dead[0] + 1 and beyond;
                # rows up to n // 2 have d_j < chi_hi, so j0 >= n // 2
                return self._capped(j0 + int(dead[0]) + 5, n)
            size = self._capped(2 * size, n)

    def _eig(self, n: int, dim: int):
        """chi_n and eigenvector of the dim-row block, with the residual of
        the zero-padded vector in the infinite operator and the noise level."""
        # one row more than the block: its coupling to the last row of the
        # block is the residual's only entry
        band = self.band(n % 2, dim + 1)
        chi_val, vec = eigh_tridiagonal(band.diag[:-1], band.offdiag[:-1], n // 2)
        return chi_val, vec, abs(band.offdiag[-1] * vec[-1]), _noise(band)

    @staticmethod
    def _tail_ok(vec: np.ndarray) -> bool:
        peak = np.max(np.abs(vec))
        return bool(np.max(np.abs(vec[-4:])) < TAIL_RTOL * peak)

    def _converged_solve(self, n: int):
        if self.truncation_dim is not None:
            dim = self._capped(max(self.truncation_dim, n // 2 + 2), n)
            chi_val, vec, _, _ = self._eig(n, dim)
            if not self._tail_ok(vec):
                raise TruncationNotConverged(
                    f"fixed dimension {dim} leaves a live coefficient tail "
                    f"for c={self.c}, n={n}")
            return chi_val, vec
        dim = self._start_dim(n)
        while True:
            chi_val, vec, resid, noise = self._eig(n, dim)
            if (self._tail_ok(vec)
                    and resid <= CHI_RTOL * abs(chi_val) + noise):
                return chi_val, vec
            dim = self._capped(2 * dim, n)

    def chi(self, n: int) -> float:
        """Operator eigenvalue chi_n, read from the mode record."""
        return self.mode(n).chi

    def converged_dim(self, n: int) -> int:
        """Matrix dimension at which the mode converged, from its record."""
        return self.mode(n).dim

    def mode(self, n: int) -> ProlateMode:
        """Full eigenvector record for index n, cached.

        n is a non-negative int or numpy integer; bool, float and other
        types raise ValueError."""
        if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
                or n < 0):
            raise ValueError(f"mode index must be a non-negative integer, got {n!r}")
        n = int(n)
        cached = self._modes.get(n)
        if cached is not None:
            return cached
        chi_val, vec = self._converged_solve(n)
        # pairwise sums: OpenBLAS splits a long dot product across its
        # threads, so the digits would depend on the thread count
        vec = vec / np.sqrt(np.sum(vec * vec))
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        parity = n % 2
        at_zero = float(np.sum(vec * self.weights_at_zero(parity, vec.size)))
        if parity == 0:
            m = ProlateMode(n, self.c, chi_val, parity, vec, at_zero, None)
        else:
            m = ProlateMode(n, self.c, chi_val, parity, vec, None, at_zero)
        self._modes[n] = m
        return m


def chi(ctx: ProlateContext, n: int) -> float:
    """Eigenvalue chi_n of the prolate differential operator."""
    return ctx.chi(n)


def mode(ctx: ProlateContext, n: int) -> ProlateMode:
    """Converged coefficient record for the n-th eigenfunction."""
    return ctx.mode(n)


def psi_value(m: ProlateMode, x):
    """Evaluate the eigenfunction at x in [-1, 1] (scalar or array).

    Sums the normalized-Legendre series with one recurrence sweep over all
    degrees up to the truncation, accumulating only the mode's parity.  The
    sweep runs once over the distinct |x|: negation is exact and rounding
    symmetric, so the recurrence gives P_k(-t) = (-1)^k P_k(t) bit for bit,
    and an odd mode's values at negative x are negated.
    """
    x_arr = np.asarray(x, dtype=float)
    t, inverse = np.unique(np.abs(x_arr).ravel(), return_inverse=True)
    if not np.all(t <= 1.0):   # NaN fails the comparison too
        raise ValueError("argument outside [-1, 1]")
    scale = (m.coeffs * np.sqrt(m.degrees() + 0.5)).tolist()
    acc = np.zeros_like(t)
    if m.parity == 0:
        acc += scale[0]
    term = np.empty_like(t)
    for deg, p, _ in legendre_sweep(t, m.parity + 2 * (m.dim - 1)):
        if deg % 2 == m.parity:
            np.multiply(p, scale[deg // 2], term)
            np.add(acc, term, acc)
    vals = acc[inverse].reshape(x_arr.shape)
    if m.parity == 1:
        np.negative(vals, out=vals, where=x_arr < 0)
    return vals if vals.ndim else float(vals)
