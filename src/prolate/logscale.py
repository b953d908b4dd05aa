"""Sign plus log-magnitude scalars.

The eigenvalues of the bandlimited operator decay to e^-125 and far beyond
any useful double-precision range once the index passes the plunge region,
while the coefficient ratio sequences grow to the reciprocal of that.
Everything here is therefore carried as a sign and the natural log of the
magnitude, with addition done by shifting both operands by the larger
magnitude first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogScaledReal:
    """A real number stored as sign in {-1, 0, +1} and log of |value|.

    Exact zero is (sign=0, log_abs=-inf).  Construct with from_float /
    from_log rather than the raw constructor.
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

    @staticmethod
    def one() -> "LogScaledReal":
        return LogScaledReal(1, 0.0)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Nearest double; overflows to +-inf and underflows to 0.0."""
        if self.sign == 0:
            return 0.0
        if self.log_abs > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_abs)

    __float__ = to_float

    def log(self) -> float:
        """Natural log of the value; requires a strictly positive value."""
        if self.sign <= 0:
            raise ValueError("log of a non-positive LogScaledReal")
        return self.log_abs

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "LogScaledReal":
        if isinstance(x, LogScaledReal):
            return x
        return LogScaledReal.from_float(x)

    def __neg__(self) -> "LogScaledReal":
        return LogScaledReal(-self.sign, self.log_abs)

    def __abs__(self) -> "LogScaledReal":
        return LogScaledReal(abs(self.sign), self.log_abs)

    def __mul__(self, other) -> "LogScaledReal":
        o = self._coerce(other)
        s = self.sign * o.sign
        if s == 0:
            return LogScaledReal.zero()
        return LogScaledReal(s, self.log_abs + o.log_abs)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogScaledReal":
        o = self._coerce(other)
        if o.sign == 0:
            raise ZeroDivisionError("division by log-scaled zero")
        if self.sign == 0:
            return LogScaledReal.zero()
        return LogScaledReal(self.sign * o.sign, self.log_abs - o.log_abs)

    def __rtruediv__(self, other) -> "LogScaledReal":
        return self._coerce(other) / self

    def __add__(self, other) -> "LogScaledReal":
        o = self._coerce(other)
        if self.sign == 0:
            return o
        if o.sign == 0:
            return self
        # shift by the larger magnitude so the exp() argument is <= 0
        if self.log_abs >= o.log_abs:
            big, small = self, o
        else:
            big, small = o, self
        d = small.log_abs - big.log_abs
        if big.sign == small.sign:
            return LogScaledReal(big.sign, big.log_abs + math.log1p(math.exp(d)))
        if d == 0.0:
            return LogScaledReal.zero()
        return LogScaledReal(big.sign, big.log_abs + math.log1p(-math.exp(d)))

    __radd__ = __add__

    def __sub__(self, other) -> "LogScaledReal":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LogScaledReal":
        return self._coerce(other) + (-self)

    def __pow__(self, p) -> "LogScaledReal":
        p = float(p)
        if self.sign == 0:
            if p <= 0:
                raise ZeroDivisionError("0 ** non-positive power")
            return LogScaledReal.zero()
        if self.sign < 0:
            if p != int(p):
                raise ValueError("fractional power of a negative value")
            s = -1 if int(p) % 2 else 1
            return LogScaledReal(s, self.log_abs * p)
        return LogScaledReal(1, self.log_abs * p)

    def sqrt(self) -> "LogScaledReal":
        if self.sign < 0:
            raise ValueError("sqrt of a negative value")
        if self.sign == 0:
            return LogScaledReal.zero()
        return LogScaledReal(1, 0.5 * self.log_abs)

    # -- ordering (by represented real value) ------------------------------

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
