"""Tests for the scalar special-function kernel."""

import math

import numpy as np
import pytest
import scipy.special as sp

from hsh4.angular import _legendre_rows
from hsh4.special import (ConvergenceError, DEFAULT_SERIES, SeriesControl,
                          _hyp2f1_array, hyp0f1, hyp2f1, log_factorial,
                          pochhammer)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    assert DEFAULT_SERIES.tol == 1e-14


@pytest.mark.parametrize("n", [0, 1, 2, 50, 200, 300, 1000])
def test_log_factorial(n):
    assert log_factorial(n) == pytest.approx(math.lgamma(n + 1), rel=1e-15)


def test_log_factorial_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


@pytest.mark.parametrize("a,k", [(0.5, 3), (-2.0, 2), (-2.0, 4), (3.0, 0),
                                 (-0.5, 5), (7.25, 6)])
def test_pochhammer_vs_gamma(a, k):
    ref = sp.poch(a, k)
    assert pochhammer(a, k) == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_pochhammer_exact_zero():
    # a nonpositive integer start must truncate to an exact zero
    assert pochhammer(-3, 4) == 0.0
    assert pochhammer(0, 1) == 0.0
    assert pochhammer(-3, 3) == -6.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_gegenbauer_vs_scipy(alpha, n):
    # The package's one Gegenbauer recurrence is the normalised Legendre row
    # of angular._legendre_rows: with alpha = m + shift + 1/2, row n + m of
    # order m is (-1)^m 2^m Gamma(alpha)/Gamma(shift + 1/2)
    # sqrt(n!/Gamma(n + 2 alpha)) sin^m C^alpha_n(cos).
    m = int(alpha - 0.5)
    shift = alpha - 0.5 - m
    x = np.linspace(-1.0, 1.0, 11)
    s = np.sqrt(1.0 - x * x)
    rows = _legendre_rows(n + m, range(m, m + 1), x, s, shift=shift)
    pre = ((-1) ** m * 2 ** m * math.gamma(alpha) / math.gamma(shift + 0.5)
           * math.sqrt(math.gamma(n + 1) / math.gamma(n + 2 * alpha)))
    ref = pre * s ** m * sp.eval_gegenbauer(n, alpha, x)
    np.testing.assert_allclose(rows[n + m, 0], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("a,b,c,z", [
    (0.3, 0.7, 1.9, 0.4), (-2.0, 1.5, 0.5, 0.8), (1.0, 1.0, 2.0, -0.6),
    (-5.0, -1.0, 3.0, 0.9), (0.25, -0.75, 1.25, 0.5),
])
def test_hyp2f1_vs_scipy(a, b, c, z):
    assert hyp2f1(a, b, c, z) == pytest.approx(sp.hyp2f1(a, b, c, z),
                                               rel=1e-12)


def test_hyp2f1_terminating_outside_disk():
    # polynomial cases are valid for any argument
    assert hyp2f1(-2.0, 5.0, 1.5, 3.0) == pytest.approx(
        sp.hyp2f1(-2, 5, 1.5, 3.0), rel=1e-12)


def test_hyp2f1_terminating_ignores_term_cap():
    # a polynomial is summed over all its terms, whatever max_terms says
    full = hyp2f1(-6.0, 2.5, 1.5, 0.7)
    assert hyp2f1(-6.0, 2.5, 1.5, 0.7, SeriesControl(max_terms=1)) == full
    assert full == pytest.approx(sp.hyp2f1(-6, 2.5, 1.5, 0.7), rel=1e-12)


def test_hyp2f1_divergent_argument():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.5)


def test_hyp0f1_vs_bessel():
    # 0F1(l+2; x^2/4) relates to I_{l+1}; cross-check through scipy
    for l in range(4):
        for x in (0.1, 1.0, 3.0):
            ref = sp.hyp0f1(l + 2, 0.25 * x * x)
            assert hyp0f1(l + 2, 0.25 * x * x) == pytest.approx(ref,
                                                               rel=1e-12)


def test_series_control_cap():
    slow = SeriesControl(tol=1e-14, max_terms=3)
    with pytest.raises(ConvergenceError):
        hyp2f1(0.5, 0.5, 1.5, 0.99, slow)


def test_hyp0f1_cap():
    with pytest.raises(ConvergenceError, match=r"hyp0f1\(1.5; 10000.0\) did "
                       r"not converge in 5 terms"):
        hyp0f1(1.5, 1e4, SeriesControl(max_terms=5))


# (a, b, c, z, ctl): converging, terminating and failing series, one batch
# per (z, ctl) as _hyp2f1_array takes them.
HYP_BATCHES = [
    ([(0.5, 1.5, 2, 0.3), (-0.75, 2.25, 7, 0.3), (3.0, -4.0, 2, 0.3),
      (-3.0, 0.0, 5, 0.3), (2.5, 60.5, 62, 0.3)], DEFAULT_SERIES),
    # A terminating series whose first term lies under the tolerance but
    # whose next ones do not: it runs to its end all the same.
    ([(-5.0, 1e-21, 2, 1e6), (-3.0, -2.0, 4, 1e6), (0.5, 0.5, 2, 1e6)],
     DEFAULT_SERIES),
    # Too few terms for some (ConvergenceError), partial sums past the
    # float range for one (ValueError).
    ([(0.5, 1.5, 2, 0.81), (-1.0, 1.5, 2, 0.81), (0.5, 0.5, 400, 0.81)],
     SeriesControl(max_terms=30)),
    ([(999.25, 1000.25, 2, 0.81), (0.5, 1.5, 2, 0.81)], DEFAULT_SERIES),
    ([(0.5, 1.5, 2, 0.0), (-2.0, 1.5, 3, 0.0)], DEFAULT_SERIES),
    # |z| >= 1: an infinite series raises even where its terms fall fast.
    ([(0.5, 0.5, 400, 1.01), (-2.0, 0.5, 3, 1.01)], DEFAULT_SERIES),
]


@pytest.mark.parametrize("args, ctl", HYP_BATCHES)
def test_hyp2f1_array_stops_where_hyp2f1_stops(args, ctl):
    a, b, c, z = (np.array(x) for x in zip(*args))
    total, fail = _hyp2f1_array(a, b, c, z[0], ctl)
    for i, arg in enumerate(args):
        try:
            ref = hyp2f1(*arg, ctl)
        except (ValueError, ConvergenceError):
            assert fail[i], arg
        else:
            assert not fail[i] and total[i] == ref, arg
