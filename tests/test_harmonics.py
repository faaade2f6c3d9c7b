"""Tests for the two hyperspherical harmonic families and their transform."""

import cmath
import math
import warnings

import numpy as np
import pytest
from sympy import Float, N, Rational
from sympy.physics.wigner import wigner_d

from hsh4.angular import gen_character
from hsh4.harmonics import (HyperAngles, c_components, c_flat_index,
                            c_from_h, c_table, cos4, from_hyperangles,
                            h_components, h_flat_index, h_from_c,
                            h_to_c_matrix, hsh_c, hsh_h, hsh_y,
                            hyp_components, scalar_product_c,
                            scalar_product_h, to_hyperangles)


def _unit(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def test_hyperangle_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = _unit(rng)
        h = to_hyperangles(v)
        np.testing.assert_allclose(from_hyperangles(h), v, atol=1e-14)


def test_north_pole_angles():
    h = to_hyperangles([0.0, 0.0, 0.0, 1.0])
    assert h.theta0 == 0.0


def test_hyp_components_unitary():
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = _unit(rng)
        m = hyp_components(v)
        np.testing.assert_allclose(m @ m.conj().T, 0.5 * np.eye(2),
                                   atol=1e-14)
        # determinant carries the squared radius over 2
        assert np.linalg.det(m) == pytest.approx(0.5, abs=1e-14)


def test_rank_one_h_is_hyp_components():
    # H_{1, mu nu} reproduces the 2x2 matrix of Cartesian combinations
    rng = np.random.default_rng(9)
    v = _unit(rng)
    m = hyp_components(v)
    for i, tmu in enumerate((-1, 1)):
        for k, tnu in enumerate((-1, 1)):
            assert hsh_h(1, tmu, tnu, v) == pytest.approx(
                math.sqrt(2.0) * m[i, k], abs=1e-14)


def test_flat_index_bijections():
    for j in range(4):
        seen = set()
        for tmu in range(-j, j + 1, 2):
            for tnu in range(-j, j + 1, 2):
                seen.add(h_flat_index(j, tmu, tnu))
        assert seen == set(range((j + 1) ** 2))
        seen = {c_flat_index(lam, a) for lam in range(j + 1)
                for a in range(-lam, lam + 1)}
        assert seen == set(range((j + 1) ** 2))


def test_c_harmonic_north_pole():
    # at the pole only lam = 0 survives, with value j + 1 over sqrt(j+1)
    e0 = np.array([0.0, 0.0, 0.0, 1.0])
    for j in range(5):
        vals = c_components(j, e0)
        expect = np.zeros((j + 1) ** 2, dtype=complex)
        expect[c_flat_index(0, 0)] = (j + 1) / math.sqrt(j + 1.0)
        np.testing.assert_allclose(vals, expect, atol=1e-14)


def test_h_to_c_matrix_orthogonal():
    # Above j = 20 the float Racah sums of the CGCs lose digits (8.6e-13 at
    # j = 30), so that rank is held to its own bound.
    for j in list(range(5)) + [10, 20, 30]:
        T = h_to_c_matrix(j)
        np.testing.assert_allclose(T @ T.T, np.eye((j + 1) ** 2),
                                   atol=1e-13 if j <= 20 else 2e-12)
        assert np.abs(T.imag).max() == 0.0


def test_family_transform_consistency():
    rng = np.random.default_rng(10)
    for j in range(6):
        v = _unit(rng)
        h = h_components(j, v)
        c = c_components(j, v)
        np.testing.assert_allclose(c_from_h(j, h), c, atol=1e-13)
        np.testing.assert_allclose(h_from_c(j, c), h, atol=1e-13)


def test_transforms_keep_trailing_axes_and_check_length():
    rng = np.random.default_rng(16)
    j = 4
    x = rng.normal(size=((j + 1) ** 2, 3, 2))
    T = h_to_c_matrix(j)
    np.testing.assert_allclose(c_from_h(j, x),
                               np.einsum("ab,bcd->acd", T, x), atol=1e-15)
    np.testing.assert_allclose(h_from_c(j, x),
                               np.einsum("ba,bcd->acd", T, x), atol=1e-15)
    for func in (c_from_h, h_from_c):
        for bad in (np.zeros((j + 1) ** 2 + 1), np.zeros(j ** 2), 1.0):
            with pytest.raises(ValueError, match=f"rank {j}"):
                func(j, bad)


def _h_matrix(j, v):
    return h_components(j, v).reshape(j + 1, j + 1)


def test_h_matrix_is_sympy_wigner_d():
    # The rank-1 block sqrt(2) hyp_components(v) is an SU(2) matrix; read
    # its Euler angles off in sympy's convention, D = exp(i a Jz) exp(i b Jy)
    # exp(i c Jz) with rows m = J, ..., -J, and compare every rank with
    # sympy's D^{j/2} at those angles.
    rng = np.random.default_rng(17)
    for j in (1, 2, 3, 5, 8, 12):
        v = _unit(rng)
        u = (math.sqrt(2.0) * hyp_components(v))[::-1, ::-1]
        pa, pb = cmath.phase(u[0, 0]), cmath.phase(u[0, 1])
        angles = (pa + pb, 2.0 * math.atan2(abs(u[0, 1]), abs(u[0, 0])),
                  pa - pb)
        ref = wigner_d(Rational(j, 2), *(Float(x, 30) for x in angles))
        ref = np.array(N(ref, 20).tolist(), dtype=complex)
        np.testing.assert_allclose(_h_matrix(j, v)[::-1, ::-1], ref,
                                   rtol=0, atol=1e-12)


def _rotation(tl, w, t, p):
    """U^{tl/2} of angle w about the axis (t, p): the H matrix at theta0 = w/2."""
    return _h_matrix(tl, from_hyperangles(HyperAngles(1.0, 0.5 * w, t, p)))


def test_h_matrix_identity_and_unitarity():
    rng = np.random.default_rng(2024)
    for tl in (1, 2, 3):
        dim = tl + 1
        # omega -> 0 gives the unit matrix
        np.testing.assert_allclose(_rotation(tl, 1e-12, 0.3, 0.8),
                                   np.eye(dim), atol=1e-10)
        w, t, p = rng.uniform(0.3, 2.8), rng.uniform(0.1, 3.0), rng.uniform(0, 6)
        U = _rotation(tl, w, t, p)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(dim), atol=1e-13)
        # the trace is the ordinary character of the rotation angle
        np.testing.assert_allclose(np.trace(U),
                                   gen_character(tl, 0, w), atol=1e-13)


def test_h_matrix_group_property():
    # two rotations about the same axis compose by adding angles
    t, p = 1.1, 2.3
    for tl in (1, 2):
        np.testing.assert_allclose(
            _rotation(tl, 0.7, t, p) @ _rotation(tl, 0.9, t, p),
            _rotation(tl, 1.6, t, p), atol=1e-13)


def test_h_matrix_spin_half_explicit():
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
    np.testing.assert_allclose(flip @ ref @ flip, _rotation(1, w, t, p),
                               atol=1e-14)


def test_scalar_products_agree():
    rng = np.random.default_rng(11)
    for j in range(5):
        a, b = _unit(rng), _unit(rng)
        sh = scalar_product_h(j, a, b)
        sc = scalar_product_c(j, a, b)
        assert sh == pytest.approx(sc, abs=1e-13)


def test_scalar_product_is_chebyshev_in_relative_angle():
    # (H_j(a) . H_j(b)) depends only on a . b, through U_j(a . b)
    rng = np.random.default_rng(12)
    for _ in range(8):
        a, b = _unit(rng), _unit(rng)
        j = int(rng.integers(0, 6))
        x = cos4(a, b)
        gamma = math.acos(np.clip(x, -1, 1))
        ref = math.sin((j + 1) * gamma) / math.sin(gamma)
        got = scalar_product_h(j, a, b)
        assert got == pytest.approx(ref, abs=1e-12)


def test_y_normalisation_scale():
    # |Y| and |C| differ by the fixed factor sqrt((j+1)/2)/pi
    rng = np.random.default_rng(13)
    v = _unit(rng)
    for j, lam in ((0, 0), (2, 1), (3, 3)):
        y = hsh_y(j, lam, min(lam, 1), v)
        c = hsh_c(j, lam, min(lam, 1), v)
        assert abs(y) == pytest.approx(
            math.sqrt((j + 1) / 2.0) / math.pi * abs(c), abs=1e-14)


@pytest.mark.parametrize("v", [[math.nan, 0.0, 0.0, 1.0],
                               [0.0, math.inf, 0.0, 1.0]])
def test_non_finite_direction_rejected(v):
    with pytest.raises(ValueError, match="finite"):
        hsh_c(2, 1, 0, v)
    with pytest.raises(ValueError, match="finite"):
        hsh_h(1, 1, -1, v)


@pytest.mark.parametrize("func", [c_components, h_components, c_table])
def test_negative_rank_components_rejected(func):
    v = np.array([0.1, 0.2, 0.9, 0.4])
    with pytest.raises(ValueError, match="rank"):
        func(-1, v)


@pytest.mark.parametrize("func", [scalar_product_c, scalar_product_h])
def test_negative_rank_scalar_product_rejected(func):
    v = np.array([0.1, 0.2, 0.9, 0.4])
    with pytest.raises(ValueError, match="rank"):
        func(-1, v, v)


def test_invalid_indices_rejected():
    v = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        hsh_c(2, 3, 0, v)
    with pytest.raises(ValueError):
        hsh_c(2, 1, 2, v)
    with pytest.raises(ValueError):
        hsh_h(2, 1, 0, v)  # parity of 2mu must match j


def test_huge_vector_keeps_its_direction():
    # squaring 1e200 overflows; the angles must not
    h = to_hyperangles([1e200, 0.0, 0.0, 1e200])
    assert h.theta0 == pytest.approx(math.pi / 4, abs=1e-15)
    assert h.r == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    unit = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    for lam, alpha in ((0, 0), (1, -1), (2, 1)):
        assert hsh_c(2, lam, alpha, [1e200, 0.0, 0.0, 1e200]) == \
            pytest.approx(hsh_c(2, lam, alpha, unit), abs=1e-15)


def test_vector_past_float_max_raises_without_a_warning():
    # r overflows to inf; its direction is still well defined
    v = [1e308] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r must be finite"):
            to_hyperangles(v)
        assert hsh_c(2, 1, 1, v) == pytest.approx(
            hsh_c(2, 1, 1, [1.0] * 4), abs=1e-15)


@pytest.mark.parametrize("v", [[math.inf, 0.0, 0.0, 1.0],
                               [0.0, 0.0, math.nan, 1.0]])
def test_non_finite_vector_has_no_angles(v):
    with pytest.raises(ValueError, match="finite"):
        to_hyperangles(v)
    with pytest.raises(ValueError, match="finite"):
        hsh_c(1, 1, 0, v)
    with pytest.raises(ValueError, match="finite"):
        c_table(1, [[0.0, 0.0, 0.0, 1.0], v])


def test_c_table_ranks_are_c_components():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(3, 4))
    table = c_table(6, pts)
    assert len(table) == 7
    for j, block in enumerate(table):
        assert block.shape == ((j + 1) ** 2, 3)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(block[:, i], c_components(j, p),
                                       rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("points", [[[0.0, 0.0, 0.0, 0.0]], [0.0, 0.0, 1.0],
                                    [[0.0, 0.0, 0.0, 1.0, 2.0]]])
def test_c_table_rejects_bad_points(points):
    with pytest.raises(ValueError):
        c_table(2, points)


def test_scalar_product_c_is_gegenbauer_to_rank_40():
    # (C_j(a) . C_j(b)) = C^1_j(cos gamma) = sin((j+1) gamma)/sin(gamma)
    rng = np.random.default_rng(15)
    for j in range(41):
        a, b = rng.normal(size=4), rng.normal(size=4)
        gamma = math.acos(cos4(a, b))
        ref = math.sin((j + 1) * gamma) / math.sin(gamma)
        assert scalar_product_c(j, a, b) == pytest.approx(ref, abs=1e-12)


def test_cos4_huge_vectors():
    # the plain dot product overflows to inf/inf = nan here
    assert cos4([1e200, 0, 0, 1e200], [1e200, 0, 0, 0]) == pytest.approx(
        1 / math.sqrt(2.0), rel=1e-15)
    assert cos4([1e-200, 0, 0, 0], [0, 3e-200, 0, 0]) == 0.0


@pytest.mark.parametrize("v", [[math.nan, 0.0, 0.0, 1.0],
                               [0.0, 0.0, math.inf, 1.0]])
def test_cos4_and_hyp_components_reject_non_finite(v):
    with pytest.raises(ValueError, match="finite"):
        cos4(v, [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        cos4([0.0, 0.0, 0.0, 1.0], v)
    with pytest.raises(ValueError, match="finite"):
        hyp_components(v)


@pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [[0.0, 0.0, 0.0, 1.0]]])
def test_cos4_and_hyp_components_reject_non_4_vectors(v):
    with pytest.raises(ValueError, match="4-vector"):
        cos4(v, [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="4-vector"):
        hyp_components(v)
