"""Scalar special functions used throughout the package.

Factorial ladders, Pochhammer symbols and the hypergeometric series
0F1 / 2F1.  Everything here is pure and reentrant; the log-factorial
table is filled once at import time.
"""

import math
from dataclasses import dataclass

__all__ = [
    "SeriesControl",
    "DEFAULT_SERIES",
    "ConvergenceError",
    "log_factorial",
    "pochhammer",
    "hyp2f1",
    "hyp0f1",
]


class ConvergenceError(RuntimeError):
    """A series failed to converge within the allotted number of terms."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for infinite series."""

    tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_SERIES = SeriesControl()

# ln(n!) table; lgamma takes over past the cutoff.
_LOGFAC_CUTOFF = 256
_LOGFAC = [0.0] * (_LOGFAC_CUTOFF + 1)
for _n in range(2, _LOGFAC_CUTOFF + 1):
    _LOGFAC[_n] = _LOGFAC[_n - 1] + math.log(_n)


def log_factorial(n):
    """ln(n!) for integer n >= 0."""
    if n < 0:
        raise ValueError(f"log_factorial: n must be >= 0, got {n}")
    if n <= _LOGFAC_CUTOFF:
        return _LOGFAC[n]
    return math.lgamma(n + 1.0)


def pochhammer(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Computed as a direct product, which keeps the exact zero when a is a
    nonpositive integer and the product crosses it.
    """
    if k < 0:
        raise ValueError(f"pochhammer: k must be >= 0, got {k}")
    result = 1.0
    for i in range(k):
        result *= a + i
    return result


def _nonpositive_int(a):
    return a <= 0 and a == int(a)


def hyp2f1(a, b, c, z, ctl=DEFAULT_SERIES):
    """Gauss hypergeometric series 2F1(a, b; c; z).

    Terminating series (a or b a nonpositive integer) are summed over all
    their finite terms, whatever ctl says; otherwise partial sums run until
    the relative change drops below ctl.tol, which requires |z| < 1, or
    raise ConvergenceError after ctl.max_terms terms.
    """
    n_terms = None
    if _nonpositive_int(a):
        n_terms = int(-a)
    if _nonpositive_int(b):
        n_terms = int(-b) if n_terms is None else min(n_terms, int(-b))
    terminating = n_terms is not None
    if not terminating:
        if _nonpositive_int(c):
            raise ValueError("hyp2f1: c is a nonpositive integer and the "
                             "series does not terminate")
        if abs(z) >= 1.0:
            raise ValueError(f"hyp2f1: |z| >= 1 with non-terminating series "
                             f"(z = {z})")
        n_terms = ctl.max_terms
    term = 1.0
    total = 1.0
    for k in range(n_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if not terminating and abs(term) <= ctl.tol * abs(total):
            return total
    if terminating:
        return total
    raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) did not converge in "
                           f"{ctl.max_terms} terms")


def hyp0f1(c, z, ctl=DEFAULT_SERIES):
    """Confluent limit series 0F1(; c; z) = sum_k z^k / ((c)_k k!)."""
    if _nonpositive_int(c):
        raise ValueError(f"hyp0f1: c must not be a nonpositive integer, "
                         f"got {c}")
    term = 1.0
    total = 1.0
    for k in range(ctl.max_terms):
        term *= z / ((c + k) * (k + 1))
        total += term
        if abs(term) <= ctl.tol * abs(total):
            return total
    raise ConvergenceError(f"hyp0f1({c}; {z}) did not converge in "
                           f"{ctl.max_terms} terms")
