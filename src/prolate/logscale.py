"""Sign plus log-magnitude scalars.

The eigenvalues of the bandlimited operator decay to e^-125 and far beyond
any useful double-precision range once the index passes the plunge region,
while the coefficient ratio sequences grow to the reciprocal of that.
Everything here is therefore carried as a sign and the natural log of the
magnitude.  A LogScaledReal is a value: build it, compare it, read it back.
Sums of many terms go through signed_log_sum, which shifts every term by
the largest magnitude first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogScaledReal:
    """A real number stored as sign in {-1, 0, +1} and log of |value|.

    Exact zero is (sign=0, log_abs=-inf).  Construct with from_float /
    from_log rather than the raw constructor.  log|x| is held to one ulp,
    so x itself is held to about eps * |log x| relative (eps = 2^-52).
    Values order by the real numbers they represent, and compare with
    plain floats too.
    """

    sign: int
    log_abs: float

    @staticmethod
    def from_float(x) -> "LogScaledReal":
        x = float(x)
        if x == 0.0:
            return LogScaledReal(0, -math.inf)
        if math.isnan(x):
            raise ValueError("cannot log-scale NaN")
        return LogScaledReal(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(log_abs, sign=1) -> "LogScaledReal":
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if sign == 0 or log_abs == -math.inf:
            return LogScaledReal(0, -math.inf)
        return LogScaledReal(sign, float(log_abs))

    @staticmethod
    def zero() -> "LogScaledReal":
        return LogScaledReal(0, -math.inf)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Nearest double; overflows to +-inf and underflows to 0.0."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return math.inf * self.sign

    __float__ = to_float

    # -- ordering (by represented real value) ------------------------------

    @staticmethod
    def _coerce(x) -> "LogScaledReal":
        if isinstance(x, LogScaledReal):
            return x
        return LogScaledReal.from_float(x)

    def _key(self):
        # monotone map to a comparable tuple: sign first, then signed log
        return (self.sign, self.sign * self.log_abs if self.sign else 0.0)

    def __lt__(self, other):
        return self._key() < self._coerce(other)._key()

    def __le__(self, other):
        return self._key() <= self._coerce(other)._key()

    def __gt__(self, other):
        return self._key() > self._coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= self._coerce(other)._key()

    def __repr__(self):
        if self.sign == 0:
            return "LogScaledReal(0)"
        pre = "-" if self.sign < 0 else "+"
        return f"LogScaledReal({pre}exp({self.log_abs:.6g}))"


class LogScaledArray:
    """A sequence of reals held as parallel sign and log|value| arrays.

    Indexing returns a LogScaledReal, so the arrays stand in for a list of
    them; entries of sign 0 read as exact zero, whatever their log.
    """

    __slots__ = ("signs", "logs")

    def __init__(self, signs, logs):
        self.signs = np.asarray(signs, dtype=float)
        self.logs = np.asarray(logs, dtype=float)

    def __len__(self) -> int:
        return self.logs.size

    def __getitem__(self, k) -> LogScaledReal:
        return LogScaledReal.from_log(float(self.logs[k]), int(self.signs[k]))


def _as_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values.astype(float, copy=False)
    return np.fromiter(values, dtype=float)


def signed_log_sum(signs, logs) -> LogScaledReal:
    """Sum of terms given as parallel sign / log-magnitude sequences.

    Max-shift accumulation, m + log|sum s exp(l - m)| over the terms of
    nonzero sign: terms more than ~745 below the peak m underflow to zero
    after shifting, which is harmless since they cannot affect the
    double-precision sum.
    """
    signs = _as_array(signs)
    logs = _as_array(logs)
    live = signs != 0
    signs, logs = signs[live], logs[live]
    m = float(logs.max(initial=-math.inf))
    if m == -math.inf:
        return LogScaledReal.zero()
    # pairwise np.sum, not a BLAS dot whose blocking can vary with the
    # thread count: the printed digits must not depend on the machine
    acc = float(np.sum(signs * np.exp(logs - m)))
    if acc == 0.0:
        return LogScaledReal.zero()
    return LogScaledReal(1 if acc > 0 else -1, m + math.log(abs(acc)))
