"""Tests for 3D angular-momentum algebra and the axis-angle rotation matrix.

All quantum numbers are passed doubled (2j, 2m) so half-integer cases stay
exact; sympy's wigner module serves as the independent oracle.
"""

import math

import numpy as np
import pytest
from sympy import S
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import wigner_6j, wigner_9j

from hsh4.angular import (_cgc3_array, _wigner6j_array, _wigner9j_array,
                          cgc3, gen_character, mod_sph_harm, rotation_u,
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


# The array forms add the same log factorials in the same order as the
# scalar loops; only numpy's exp and log may differ from libm's by an ulp,
# which the cancelling sums at 2j <= 48 amplify to ~1e-14.
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
    # a stretched coupling reads log factorials past special's table
    assert _cgc3_array(300, 300, 2, 0, 302, 300) == pytest.approx(
        cgc3(300, 300, 2, 0, 302, 300), rel=1e-13)


def test_rotation_u_identity_and_unitarity():
    rng = _rng()
    for tl in (1, 2, 3):
        dim = tl + 1
        # omega -> 0 gives the unit matrix
        U0 = np.array([[rotation_u(tl, tm, tn, 1e-12, 0.3, 0.8)
                        for tn in range(-tl, tl + 1, 2)]
                       for tm in range(-tl, tl + 1, 2)])
        np.testing.assert_allclose(U0, np.eye(dim), atol=1e-10)
        w, t, p = rng.uniform(0.3, 2.8), rng.uniform(0.1, 3.0), rng.uniform(0, 6)
        U = np.array([[rotation_u(tl, tm, tn, w, t, p)
                       for tn in range(-tl, tl + 1, 2)]
                      for tm in range(-tl, tl + 1, 2)])
        np.testing.assert_allclose(U @ U.conj().T, np.eye(dim), atol=1e-13)
        # the trace is the ordinary character of the rotation angle
        np.testing.assert_allclose(np.trace(U),
                                   gen_character(tl, 0, w), atol=1e-13)


def test_rotation_u_group_property():
    # two rotations about the same axis compose by adding angles
    t, p = 1.1, 2.3
    for tl in (1, 2):
        def mat(w):
            return np.array([[rotation_u(tl, tm, tn, w, t, p)
                              for tn in range(-tl, tl + 1, 2)]
                             for tm in range(-tl, tl + 1, 2)])
        np.testing.assert_allclose(mat(0.7) @ mat(0.9), mat(1.6), atol=1e-13)


def test_rotation_u_spin_half_explicit():
    # 2x2 block: U = cos(w/2) I - i sin(w/2) (n . sigma)
    w, t, p = 0.9, 0.6, 1.7
    n = np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p),
                  math.cos(t)])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ref = (math.cos(w / 2) * np.eye(2)
           - 1j * math.sin(w / 2) * (n[0] * sx + n[1] * sy + n[2] * sz))
    # row/col order is mu, nu = -1/2, +1/2; sigma_z acts with +1 on the
    # +1/2 state, so flip to match
    flip = np.array([[0, 1], [1, 0]])
    U = np.array([[rotation_u(1, tm, tn, w, t, p)
                   for tn in (-1, 1)] for tm in (-1, 1)])
    np.testing.assert_allclose(flip @ ref @ flip, U, atol=1e-14)
