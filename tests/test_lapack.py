import importlib
import importlib.machinery
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from prolate import ProlateContext, _lapack, build_matrix
from prolate.spectrum import eigh_tridiagonal

ROUTINES = ("dstebz", "dstein", "dtbtrs", "dgtsv", "dsterf")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 100.0, 1.0e3, 1.0e4])
@pytest.mark.parametrize("parity", [0, 1])
def test_matches_scipy_eigh_tridiagonal_bitwise(c, parity):
    for dim in (2, 9, 64, 300):
        band = build_matrix(c, parity, dim)
        for idx in sorted({0, 1, dim // 2, dim - 1}):
            chi, vec = eigh_tridiagonal(band.diag, band.offdiag, idx)
            vals, vecs = scipy.linalg.eigh_tridiagonal(
                band.diag, band.offdiag, select="i", select_range=(idx, idx))
            assert _same_bits(chi, vals[0]), (c, parity, dim, idx)
            assert _same_bits(vec, vecs[:, 0]), (c, parity, dim, idx)


@pytest.mark.parametrize("c, n", [(10.0, 7), (1.0e3, 640), (1.0e4, 6366), (1.0e4, 6601)])
def test_matches_scipy_on_converged_blocks(c, n):
    # the blocks the solver itself takes: its dimension plus the residual row
    ctx = ProlateContext(c)
    band = ctx.band(n % 2, ctx._start_dim(n) + 1)
    d, e = band.diag[:-1], band.offdiag[:-1]
    chi, vec = eigh_tridiagonal(d, e, n // 2)
    vals, vecs = scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                               select_range=(n // 2, n // 2))
    assert _same_bits(chi, vals[0]) and _same_bits(vec, vecs[:, 0])
    assert chi == ctx.chi(n)


@pytest.mark.parametrize("which", ["diag", "offdiag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(which, bad):
    band = build_matrix(10.0, 0, 8)
    d, e = band.diag.copy(), band.offdiag.copy()
    (d if which == "diag" else e)[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigh_tridiagonal(d, e, 0)


def test_routines_are_scipys_own():
    # the extension loaded by path is the module scipy.linalg itself uses
    assert _lapack._flapack is sys.modules["scipy.linalg._flapack"]
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name)


def test_falls_back_to_scipy_linalg_when_the_file_is_missing(monkeypatch):
    asked = []

    class NoFile:
        def __init__(self, path, *loader_details):
            pass

        def find_spec(self, name, target=None):
            asked.append(name)
            return None

    with monkeypatch.context() as m:
        m.setattr(importlib.machinery, "FileFinder", NoFile)
        m.delitem(sys.modules, "scipy.linalg._flapack")
        try:
            fallback = importlib.reload(_lapack)
            assert asked == ["scipy.linalg._flapack"]
            assert fallback._flapack is scipy.linalg._flapack
            for name in ROUTINES:
                assert getattr(fallback, name) is getattr(scipy.linalg.lapack, name)
        finally:
            m.undo()
            importlib.reload(_lapack)
    assert _lapack._flapack is sys.modules["scipy.linalg._flapack"]
