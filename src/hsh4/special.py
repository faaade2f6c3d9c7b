"""Scalar special functions used throughout the package, and its input
contract.

Log factorials, Pochhammer symbols and the hypergeometric series 0F1 /
2F1.  Everything here is pure and reentrant.  The checks below are the one
set every public function runs on its arguments; each ValueError names one.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

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


def _rank(name, value, low=0):
    """value as an int >= low (any int for low=None); 2, 2.0 and numpy
    integers pass, 2.5 or nan raise."""
    if type(value) is not int:
        if not (isinstance(value, Real) and math.isfinite(value)
                and value == int(value)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _floats(name, value, dtype=float):
    """value as a float (or complex) array; ValueError naming it for a Python
    int past the float range, which numpy reports as a bare OverflowError."""
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} must fit a float, got an integer past "
                         f"the float range") from None


def _finite(**values):
    """Raise for the first of values (reals, arrays) not a finite float."""
    for name, value in values.items():
        # np.isfinite takes ~2.4 us on a Python real, math.isfinite ~30 ns
        if isinstance(value, (int, float)):
            try:
                ok = math.isfinite(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"{name} must fit a float, got an integer "
                                 f"of {value.bit_length()} bits") from None
        else:
            arr = np.asarray(value)
            # np.isfinite rejects object arrays, such as one holding an int
            # past the float range; complex, so that complex entries pass.
            if arr.dtype == object:
                arr = _floats(name, arr, complex)
            ok = np.isfinite(arr).all()
        if not ok:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _tol(name, tol):
    if not 0.0 < tol < math.inf:  # a NaN tol fails too
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")


def validate_jm(tj, tm, label=""):
    """A doubled (2j, 2m) pair as ints: 2j >= 0, |m| <= j, j - m integer.
    label (say "1") tells the pairs of one call apart in the messages."""
    tj, tm = _rank(f"2j{label}", tj), _rank(f"2m{label}", tm, None)
    if abs(tm) > tj or (tj - tm) % 2 != 0:
        raise ValueError(f"invalid projection 2m{label} = {tm} for "
                         f"2j{label} = {tj}")
    return tj, tm


def _c_label(j, lam, alpha, label=""):
    """A C label (j, lam, alpha) as ints: 0 <= lam <= j, |alpha| <= lam."""
    lam, j = _rank(f"lambda{label}", lam), _rank(f"j{label}", j)
    alpha = _rank(f"alpha{label}", alpha, None)
    if lam > j:
        raise ValueError(f"invalid lambda{label} = {lam} for j{label} = {j}")
    if abs(alpha) > lam:
        raise ValueError(f"invalid projection alpha = {alpha} for lambda = "
                         f"{lam}: need |alpha{label}| <= lambda{label}")
    return j, lam, alpha


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for infinite series."""

    tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        _tol("tol", self.tol)
        object.__setattr__(self, "max_terms",
                           _rank("max_terms", self.max_terms, 1))


DEFAULT_SERIES = SeriesControl()

def log_factorial(n):
    """ln(n!) for integer n >= 0."""
    return math.lgamma(_rank("n", n) + 1)


def pochhammer(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Computed as a direct product, which keeps the exact zero when a is a
    nonpositive integer and the product crosses it.  A product past the
    float range raises ValueError.
    """
    _finite(a=a)
    result = 1.0
    for i in range(_rank("k", k)):
        result *= a + i
    if not math.isfinite(result):
        raise ValueError(f"pochhammer: ({a})_{k} exceeds the float range")
    return result


def _nonpositive_int(a):
    return a <= 0 and a == int(a)


def hyp2f1(a, b, c, z, ctl=DEFAULT_SERIES):
    """Gauss hypergeometric series 2F1(a, b; c; z).

    Terminating series (a or b a nonpositive integer) are summed over all
    their finite terms, whatever ctl says; otherwise partial sums run until
    the relative change drops below ctl.tol, which requires |z| < 1, or
    raise ConvergenceError after ctl.max_terms terms.  A non-finite argument,
    a c that is a nonpositive integer the series reaches, or partial sums
    past the float range raise ValueError.
    """
    # The sum is non-finite whenever an argument is, and overflows when an
    # int argument is past the float range, so the full check, which names
    # the argument, runs only then.  b_coeff calls this once per table
    # entry, where _finite alone would add ~1.1 us a call, ~15% of an
    # l_max = 60 table.
    try:
        ok = math.isfinite(a + b + c + z)
    except OverflowError:
        ok = False
    if not ok:
        _finite(a=a, b=b, c=c, z=z)
    n_terms = None
    if _nonpositive_int(a):
        n_terms = int(-a)
    if _nonpositive_int(b):
        n_terms = int(-b) if n_terms is None else min(n_terms, int(-b))
    terminating = n_terms is not None
    if _nonpositive_int(c) and not (terminating and n_terms <= -c):
        raise ValueError(f"hyp2f1: c = {c} is a nonpositive integer that "
                         f"the series reaches")
    if not terminating:
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
            break
    else:
        if not terminating:
            raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) did not "
                                   f"converge in {ctl.max_terms} terms")
    if not math.isfinite(total):
        raise ValueError(f"hyp2f1: the partial sums of 2F1({a}, {b}; {c}; "
                         f"{z}) exceed the float range")
    return total


def hyp0f1(c, z, ctl=DEFAULT_SERIES):
    """Confluent limit series 0F1(; c; z) = sum_k z^k / ((c)_k k!).

    Partial sums past the float range raise ValueError.
    """
    _finite(c=c, z=z)
    if _nonpositive_int(c):
        raise ValueError(f"hyp0f1: c must not be a nonpositive integer, "
                         f"got {c}")
    term = 1.0
    total = 1.0
    for k in range(ctl.max_terms):
        term *= z / ((c + k) * (k + 1))
        total += term
        if abs(term) <= ctl.tol * abs(total):
            break
    else:
        raise ConvergenceError(f"hyp0f1({c}; {z}) did not converge in "
                               f"{ctl.max_terms} terms")
    if not math.isfinite(total):
        raise ValueError(f"hyp0f1: the partial sums of 0F1(; {c}; {z}) "
                         f"exceed the float range")
    return total
