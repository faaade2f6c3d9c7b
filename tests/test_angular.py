"""Tests for 3D angular-momentum algebra, generalised characters and
modified spherical harmonics.

All quantum numbers are passed doubled (2j, 2m) so half-integer cases stay
exact; sympy's wigner module serves as the independent oracle.
"""

import math
import warnings

import numpy as np
import pytest
from sympy import S
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import clebsch_gordan, wigner_6j, wigner_9j

from hsh4 import angular
from hsh4.angular import (_cg_entries, _cgc3_array, _wigner6j_array,
                          _wigner9j_array, cgc3, gen_character, mod_sph_harm,
                          wigner6j, wigner9j)
from hsh4.harmonics import hsh_c


def _rng():
    return np.random.default_rng(2024)


def test_cgc3_exact_values():
    assert cgc3(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2))
    assert cgc3(2, 2, 2, -2, 0, 0) == pytest.approx(1 / math.sqrt(3))
    assert cgc3(2, 0, 2, 0, 4, 0) == pytest.approx(math.sqrt(2.0 / 3.0))
    assert cgc3(2, 2, 2, 0, 4, 2) == pytest.approx(1 / math.sqrt(2))
    # trivial coupling to rank zero
    assert cgc3(0, 0, 4, 2, 4, 2) == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_cgc3_vs_sympy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        tj1, tj2 = rng.integers(0, 7, size=2)
        tj = rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1)
        if (tj1 + tj2 + tj) % 2:
            continue
        tm1 = rng.integers(-tj1, tj1 + 1)
        tm2 = rng.integers(-tj2, tj2 + 1)
        if (tm1 + tj1) % 2 or (tm2 + tj2) % 2 or abs(tm1 + tm2) > tj:
            continue
        ref = float(CG(S(int(tj1)) / 2, S(int(tm1)) / 2,
                       S(int(tj2)) / 2, S(int(tm2)) / 2,
                       S(int(tj)) / 2, S(int(tm1 + tm2)) / 2).doit())
        assert cgc3(tj1, tm1, tj2, tm2, tj, tm1 + tm2) == pytest.approx(
            ref, abs=1e-14)


def test_cgc3_orthogonality():
    for tj1, tj2 in ((2, 2), (3, 1), (4, 2), (3, 3)):
        for tm in range(-(tj1 + tj2), tj1 + tj2 + 1, 2):
            for tja in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tjb in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    if abs(tm) > tja or abs(tm) > tjb:
                        continue
                    acc = sum(
                        cgc3(tj1, tm1, tj2, tm - tm1, tja, tm)
                        * cgc3(tj1, tm1, tj2, tm - tm1, tjb, tm)
                        for tm1 in range(-tj1, tj1 + 1, 2)
                        if abs(tm - tm1) <= tj2)
                    expect = 1.0 if tja == tjb else 0.0
                    assert acc == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_wigner6j_vs_sympy(seed):
    rng = np.random.default_rng(100 + seed)
    found = 0
    while found < 5:
        args = [int(x) for x in rng.integers(0, 7, size=6)]
        try:
            ref = float(wigner_6j(*[S(a) / 2 for a in args]))
        except ValueError:
            continue
        found += 1
        assert wigner6j(*args) == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_wigner9j_vs_sympy(seed):
    rng = np.random.default_rng(200 + seed)
    found = 0
    while found < 3:
        args = [int(x) for x in rng.integers(0, 5, size=9)]
        try:
            ref = float(wigner_9j(*[S(a) / 2 for a in args]))
        except ValueError:
            continue
        found += 1
        assert wigner9j(*args) == pytest.approx(ref, abs=1e-14)


def test_mod_sph_harm_vs_scipy():
    from scipy.special import sph_harm_y
    rng = _rng()
    theta = rng.uniform(0.1, 3.0, size=5)
    phi = rng.uniform(0.0, 2 * np.pi, size=5)
    for lam in range(4):
        for alpha in range(-lam, lam + 1):
            ref = (math.sqrt(4 * math.pi / (2 * lam + 1))
                   * sph_harm_y(lam, alpha, theta, phi))
            np.testing.assert_allclose(mod_sph_harm(lam, alpha, theta, phi),
                                       ref, atol=1e-13)


def test_gen_character_rank_zero_is_character():
    # lam = 0 reduces to the ordinary SU(2) character sin((j+1)w/2)/sin(w/2)
    w = np.linspace(0.2, 5.0, 7)
    for tj in range(5):
        ref = np.sin((tj / 2 + 0.5) * w) / np.sin(0.5 * w)
        np.testing.assert_allclose(gen_character(tj, 0, w), ref, atol=1e-12)


def _chi_mp(tl, lam, w):
    """Generalised character from its defining formula in 40-digit mpmath."""
    import mpmath
    with mpmath.workdps(40):
        w = mpmath.mpf(w)
        return (mpmath.fac2(2 * lam) * mpmath.sqrt(tl + 1)
                * mpmath.sqrt(mpmath.factorial(tl - lam)
                              / mpmath.factorial(tl + lam + 1))
                * mpmath.sin(w / 2) ** lam
                * mpmath.gegenbauer(tl - lam, lam + 1, mpmath.cos(w / 2)))


@pytest.mark.parametrize("tl, lam", [(160, 150), (200, 150), (300, 299)])
def test_gen_character_high_rank_vs_mpmath(tl, lam):
    # (2 lam)!! alone overflows a float from lam ~ 151
    for w in (0.7, 2.0, 3.0, 5.5):
        ref = _chi_mp(tl, lam, w)
        assert abs((gen_character(tl, lam, w) - ref) / ref) <= 1e-11


def test_hsh_c_high_rank_is_finite():
    val = hsh_c(160, 150, 0, (0.3, -0.4, 0.5, 0.7))
    assert np.isfinite(val) and val != 0.0


def _mod_sph_harm_mp(lam, alpha, theta, phi):
    """sqrt(4 pi/(2 lam+1)) Y_{lam alpha} in 40-digit mpmath."""
    import mpmath
    with mpmath.workdps(40):
        return complex(mpmath.sqrt(4 * mpmath.pi / (2 * lam + 1))
                       * mpmath.spherharm(lam, alpha, mpmath.mpf(theta),
                                          mpmath.mpf(phi)))


@pytest.mark.parametrize("lam, alpha",
                         [(151, 151), (160, 160), (200, 150), (300, 10)])
def test_mod_sph_harm_high_rank_vs_mpmath(lam, alpha):
    # (2 alpha - 1)!! alone overflows a float from alpha ~ 151
    for theta in (0.3, 1.0, 2.0, 2.9):
        ref = _mod_sph_harm_mp(lam, alpha, theta, 0.5)
        got = mod_sph_harm(lam, alpha, theta, 0.5)
        assert np.isfinite(got)
        if abs(ref) > 1e-290:
            assert abs(got - ref) <= 1e-12 * abs(ref)


def test_hsh_c_stretched_high_rank_is_finite():
    val = hsh_c(320, 160, 160, (0.3, -0.4, 0.5, 0.7))
    assert np.isfinite(val) and val != 0.0


def _valid_cg_args(rng, top, count):
    args = []
    while len(args) < count:
        tj1, tj2 = (int(x) for x in rng.integers(0, top + 1, size=2))
        tj = int(rng.integers(abs(tj1 - tj2), min(tj1 + tj2, top) + 1))
        if (tj1 + tj2 + tj) % 2:
            continue
        tm1 = int(rng.integers(0, tj1 + 1)) * 2 - tj1
        tm2 = int(rng.integers(0, tj2 + 1)) * 2 - tj2
        if abs(tm1 + tm2) <= tj:
            args.append((tj1, tm1, tj2, tm2, tj, tm1 + tm2))
    return args


def _nonzero_args(rng, scalar, top, size, count):
    args = []
    while len(args) < count:
        x = [int(v) for v in rng.integers(0, top + 1, size=size)]
        if scalar(*x) != 0.0:
            args.append(x)
    return args


# The array forms add the same log factorials and the same term ratios in
# the same order as the scalar symbols; only numpy's exp and log may differ
# from libm's by an ulp, in the one exp of each coefficient.
RACAH_TOL = 1e-13


def test_array_racah_sums_match_scalar():
    rng = np.random.default_rng(48)
    for kernel, scalar, args in (
            (_cgc3_array, cgc3, _valid_cg_args(rng, 48, 400)),
            (_wigner6j_array, wigner6j,
             _nonzero_args(rng, wigner6j, 48, 6, 300)),
            (_wigner9j_array, wigner9j,
             _nonzero_args(rng, wigner9j, 48, 9, 60))):
        got = kernel(*np.array(args).T)
        ref = np.array([scalar(*a) for a in args])
        np.testing.assert_allclose(got, ref, rtol=0, atol=RACAH_TOL)


def test_cgc3_matches_exact_values_at_high_rank():
    # Each term steps from the last by an exact integer ratio, so the sums
    # at 2j <= 48 keep ~1e-14 (1.1e-14 on these arguments).
    args = _valid_cg_args(np.random.default_rng(7), 48, 100)
    ref = [float(clebsch_gordan(*(S(a[i]) / 2 for i in (0, 2, 4, 1, 3, 5))))
           for a in args]
    np.testing.assert_allclose([cgc3(*a) for a in args], ref, rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(_cgc3_array(*np.array(args).T), ref, rtol=0,
                               atol=1e-13)


def _cg_column(j):
    """C^{j 0}_{j m, j -m} over m, doubled arguments."""
    tm = np.arange(-2 * j, 2 * j + 1, 2)
    return _cgc3_array(2 * j, tm, 2 * j, -tm, 2 * j, 0)


@pytest.mark.parametrize("j, tol", [(40, 1e-10), (60, 1e-7)])
def test_cg_column_has_unit_norm_at_high_rank(j, tol):
    assert abs(np.sum(_cg_column(j) ** 2) - 1.0) <= tol


def test_cg_column_at_j80_raises_no_warning():
    # One exp per coefficient stays in range here; its unit-norm defect is
    # 5.7e-4.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        col = _cg_column(80)
    assert abs(np.sum(col ** 2) - 1.0) <= 1e-2


def test_array_racah_sums_selection_rules_and_shapes():
    # m1 + m2 != m, a broken triangle, and invalid triads give exact zeros
    assert _cgc3_array(2, 2, 2, 0, 2, 0) == 0.0
    assert _cgc3_array(2, 0, 2, 0, 6, 0) == 0.0
    assert _wigner6j_array(2, 2, 8, 2, 2, 2) == 0.0
    assert _wigner9j_array(2, 2, 8, 2, 2, 2, 2, 2, 2) == 0.0
    # broadcasting: a column over 2m1 at fixed (j1, j2, j, m)
    tm1 = np.arange(-4, 5, 2)
    col = _cgc3_array(4, tm1, 4, -tm1, 4, 0)
    assert col.shape == (5,)
    assert col == pytest.approx([cgc3(4, m, 4, -m, 4, 0) for m in tm1],
                                abs=1e-15)
    # a stretched coupling reads log factorials past n = 256, from lgamma
    assert _cgc3_array(300, 300, 2, 0, 302, 300) == pytest.approx(
        cgc3(300, 300, 2, 0, 302, 300), rel=1e-13)


def test_racah_sums_read_one_table_past_its_first_size():
    # C^{301 300}_{300 300, 1 0} = 1/sqrt(301) reads 603!, past the 512
    # entries that every smaller argument reads: the scalar symbol and the
    # array form then read one larger table, with the same first entries.
    ref = 1.0 / math.sqrt(301.0)
    assert cgc3(600, 600, 2, 0, 602, 600) == pytest.approx(ref, rel=1e-13)
    assert _cgc3_array(600, 600, 2, 0, 602, 600) == pytest.approx(ref,
                                                                  rel=1e-13)
    small, big = angular._logfac_table(9), angular._logfac_table(10)
    assert big[0][:512] == small[0] and len(big[0]) == 1024
    assert big[0][603] == math.lgamma(604.0)
    np.testing.assert_array_equal(big[1], big[0])
    assert not big[1].flags.writeable


def test_cg_entries_are_the_nonzero_cgc3(monkeypatch):
    # Stretched and difference edges, rank 0 on either side, half-integer
    # spins, two triples that break the triangle rule (no entries), then
    # random triangles, all with 2j <= 12.
    triples = [(12, 12, 0), (6, 6, 12), (12, 5, 7), (5, 12, 7), (0, 12, 12),
               (11, 1, 12), (1, 1, 0), (1, 1, 2), (2, 2, 6), (2, 2, 1)]
    rng = np.random.default_rng(12)
    while len(triples) < 40:
        tj1, tj2 = (int(v) for v in rng.integers(0, 13, size=2))
        tj = int(rng.integers(abs(tj1 - tj2), min(tj1 + tj2, 12) + 1))
        if (tj1 + tj2 + tj) % 2 == 0:
            triples.append((tj1, tj2, tj))
    batch = np.array(triples).T
    # Cut into runs of 7 entries, the batch gives the same arrays bit for bit
    # (computed first, so no buffer of the whole-batch call is reused).
    with monkeypatch.context() as patch:
        patch.setattr(angular, "_CG_RUN", 7)
        runs = _cg_entries(*batch)
    t, tm1, tm2, value = _cg_entries(*batch)
    for a, b in zip(runs, (t, tm1, tm2, value)):
        np.testing.assert_array_equal(a, b)
    want = {}
    for i, (tj1, tj2, tj) in enumerate(triples):
        for m1 in range(-tj1, tj1 + 1, 2):
            for m2 in range(-tj2, tj2 + 1, 2):
                if abs(m1 + m2) <= tj and (tj - m1 - m2) % 2 == 0:
                    cg = cgc3(tj1, m1, tj2, m2, tj, m1 + m2)
                    if cg != 0.0:
                        want[i, m1 + m2, m1] = cg
    got = list(zip(t.tolist(), (tm1 + tm2).tolist(), tm1.tolist()))
    # ordered by triple, then m, then m1, with no pair twice
    assert got == sorted(want)
    np.testing.assert_allclose(value, [want[k] for k in got], rtol=0,
                               atol=1e-15)
    # A mixed batch: the triangles above with broken triples (a side too
    # short, odd parity, j past j1 + j2) set between them, first and last.
    # The broken ones add no entry, and the rest are the triangles' own
    # entries bit for bit, at their positions in the mixed batch.
    broken = [(0, 12, 2), (3, 4, 8), (5, 5, 1), (12, 0, 2), (1, 2, 4)]
    mixed, where = [], []
    for i, triple in enumerate(triples):
        if i % 9 == 0:
            mixed.append(broken[(i // 9) % len(broken)])
        where.append(len(mixed))
        mixed.append(triple)
    mixed.append(broken[-1])
    mt, mtm1, mtm2, mvalue = _cg_entries(*np.array(mixed).T)
    np.testing.assert_array_equal(mt, np.array(where)[t])
    for a, b in zip((mtm1, mtm2, mvalue), (tm1, tm2, value)):
        np.testing.assert_array_equal(a, b)
