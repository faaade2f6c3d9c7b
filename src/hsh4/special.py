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
    int past the float range, which numpy reports as a bare OverflowError,
    and for what is no number at all, such as a string or None."""
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} must fit a float, got an integer past "
                         f"the float range") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric, got {value!r}") from None


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
            # past the float range, and strings; complex, so that complex
            # entries pass.
            if arr.dtype.kind not in "biufc":
                arr = _floats(name, value, complex)
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


def _hyp2f1_ratio(a, b, c, z, k):
    """Term k + 1 over term k of the 2F1 series, on scalars or arrays: the
    one expression that hyp2f1 and _hyp2f1_array step by."""
    return (a + k) * (b + k) / ((c + k) * (k + 1)) * z


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
    # the argument, runs only then.
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
        term *= _hyp2f1_ratio(a, b, c, z, k)
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


_HYP_CELLS = 1 << 16  # entries x terms per block of _hyp2f1_array


def _hyp2f1_array(a, b, c, z, ctl=DEFAULT_SERIES):
    """hyp2f1 over 1-D arrays of finite a, b and of c > 0, at one z, and the
    mask of the entries where hyp2f1 raises.

    Every entry adds hyp2f1's terms in hyp2f1's order and stops where it
    stops, so each sum that does not raise equals hyp2f1's bit for bit.  The
    terms run in blocks of steps shared by the entries still open: a running
    product of _hyp2f1_ratio gives the terms and a running sum the partial
    sums, each carried on from the block before.
    """
    ab = np.array((a, b))
    limit = np.where((ab <= 0) & (ab == np.trunc(ab)), -ab, np.inf).min(0)
    terminating = limit < np.inf
    limit[~terminating] = ctl.max_terms
    fail = ~terminating if abs(z) >= 1.0 else np.zeros(len(a), dtype=bool)
    total = np.ones(len(a))
    # The open entries and their a, b, c, step limit and terminating flag;
    # each has run hyp2f1's loop up to k = done, to the term and partial
    # sum carried.
    rows = np.flatnonzero(~fail & (limit > 0))
    args = np.array((a, b, c, limit, terminating))[:, rows]
    carry, done = np.ones((2, len(rows))), 0
    # A first block about as long as a geometric series in z takes to drop
    # under ctl.tol, then doubling ones, each at most _HYP_CELLS entries x
    # steps (or one step); block sizes only set the pace.
    block = (max(4, int(math.log(ctl.tol) / math.log(abs(z))) + 4)
             if 0.0 < abs(z) < 1.0 else 16)
    with np.errstate(all="ignore"):  # terms past an entry's stop are unread
        while len(rows):
            lim, term_ok = args[3] - done, args[4] == 1.0
            width = int(min(block, lim.max(),
                            max(1, _HYP_CELLS // len(rows))))
            terms = np.empty((len(rows), width + 1))
            terms[:, 0] = carry[0]
            terms[:, 1:] = _hyp2f1_ratio(*args[:3, :, None], z, np.arange(
                done, done + width, dtype=float))
            np.multiply.accumulate(terms, axis=1, out=terms)
            parts = terms.copy()
            parts[:, 0] = carry[1]
            np.add.accumulate(parts, axis=1, out=parts)
            # Step s of the block, hyp2f1's k = done + s - 1, is the last
            # of a terminating series at s = lim, and of any other at its
            # first term under ctl.tol (column s - 1 of small; the last
            # column stands for none), or at s = lim without one.
            small = np.ones((len(rows), width + 1), dtype=bool)
            np.less_equal(np.abs(terms[:, 1:]), ctl.tol * np.abs(parts[:, 1:]),
                          out=small[:, :width])
            small[term_ok, :width] = False
            first = small.argmax(1) + 1
            stop = np.minimum(first, lim)
            end = stop <= width
            fail[rows[end & (stop < first) & ~term_ok]] = True
            total[rows[end]] = parts[end, stop[end].astype(np.intp)]
            if end.all():
                break
            carry = np.array((terms[:, -1], parts[:, -1]))[:, ~end]
            rows, args = rows[~end], args[:, ~end]
            done += width
            block *= 2
    fail |= ~np.isfinite(total)
    return total, fail


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
