"""Tests for the quadrature oracles."""

import math

import numpy as np
import pytest

from hsh4 import verify
from hsh4.harmonics import c_components, c_flat_index, cos4, h_to_c_matrix
from hsh4.multipole import ExpansionSpec, b_coeff
from hsh4.verify import (build_grid, c_harmonics_at_vectors, gram_matrix,
                         orthogonality_report, project_multipole)

S3 = 2.0 * math.pi ** 2


def test_total_weight_is_sphere_volume():
    for shape in ((4, 4, 8), (16, 12, 25), (1, 1, 1)):
        g = build_grid(*shape)
        assert g.weights.sum() == pytest.approx(S3, abs=1e-12)
        assert np.all(g.weights > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(0, 4, 4)


def test_scipy_route_matches_analytic_harmonics():
    rng = np.random.default_rng(30)
    pts = rng.normal(size=(6, 4))
    for j in (0, 2, 5):
        V = c_harmonics_at_vectors(j, pts)
        ref = np.column_stack([c_components(j, p) for p in pts])
        np.testing.assert_allclose(V, ref, atol=1e-13)


def _c_mp(j, lam, alpha, v):
    """C_{j lam alpha} at 4-vector v from its defining formula in 40-digit mpmath."""
    import mpmath
    with mpmath.workdps(40):
        x, y, z, z0 = (mpmath.mpf(float(t)) for t in v)
        rho = mpmath.sqrt(x * x + y * y + z * z)
        theta0 = mpmath.atan2(rho, z0)
        chi = (mpmath.fac2(2 * lam) * mpmath.sqrt(j + 1)
               * mpmath.sqrt(mpmath.factorial(j - lam)
                             / mpmath.factorial(j + lam + 1))
               * mpmath.sin(theta0) ** lam
               * mpmath.gegenbauer(j - lam, lam + 1, mpmath.cos(theta0)))
        return complex((-1j) ** lam * mpmath.sqrt(4 * mpmath.pi / (j + 1))
                       * chi * mpmath.spherharm(lam, alpha, mpmath.acos(z / rho),
                                                mpmath.atan2(y, x)))


@pytest.mark.parametrize("j", [150, 160, 200])
def test_scipy_route_high_rank_vs_mpmath(j):
    # (2 lam)!! alone overflows a float from lam ~ 151; checked against
    # mpmath, not hsh_c, so the oracle stays independent of the analytic route
    pts = np.array([[0.3, -0.4, 0.5, 0.7], [0.1, 0.2, -0.9, 0.3],
                    [0.6, 0.1, 0.2, -0.7]])
    V = c_harmonics_at_vectors(j, pts)
    assert np.all(np.isfinite(V))
    for lam in (0, 1, j // 2, j - 1, j):
        for alpha in {0, lam // 3, -lam}:
            for p, v in enumerate(pts):
                ref = _c_mp(j, lam, alpha, v)
                assert abs(V[c_flat_index(lam, alpha), p] - ref) \
                    <= 1e-10 * abs(ref)


def test_harmonic_norms():
    g = build_grid(14, 14, 29)
    vs = g.vectors()
    w = g.weights
    for j in range(7):
        V = c_harmonics_at_vectors(j, vs)
        norms = np.real(np.sum(V * w * V.conj(), axis=1))
        np.testing.assert_allclose(norms, S3 / (j + 1), atol=1e-10)


def test_unit_normalised_family():
    # the Y-normalisation factor brings every norm to one
    g = build_grid(10, 10, 21)
    vs = g.vectors()
    for j in (0, 1, 3):
        V = c_harmonics_at_vectors(j, vs)
        scale = (j + 1) / (2.0 * math.pi ** 2)  # |Y|^2 / |C|^2
        norms = scale * np.real(np.sum(V * g.weights * V.conj(), axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_orthogonality_report_passes():
    g = build_grid(16, 16, 33)
    checks, grams = orthogonality_report(4, g)
    assert all(c["pass"] for c in checks)
    for c in checks:
        assert set(c) == {"check", "params", "expected", "observed",
                          "abs_err", "rel_err", "pass"}
    # families share diagonal values
    np.testing.assert_allclose(np.diag(grams["c"]), np.diag(grams["h"]),
                               atol=1e-10)


def test_orthogonality_report_derives_h_from_one_c_gram(monkeypatch):
    g = build_grid(12, 12, 25)
    calls = []
    real = verify.gram_matrix

    def counting(family, *rest):
        calls.append(family)
        return real(family, *rest)

    monkeypatch.setattr(verify, "gram_matrix", counting)
    grams = orthogonality_report(3, g)[1]
    assert calls == ["c"]
    np.testing.assert_allclose(grams["h"], real("h", 3, g), rtol=0,
                               atol=1e-13)
    assert h_to_c_matrix.cache_info().currsize >= 4


def test_gram_needs_valid_family():
    g = build_grid(4, 4, 9)
    with pytest.raises(ValueError):
        gram_matrix("q", 1, g)


def test_grid_convergence():
    # doubling node counts leaves polynomial integrals unchanged
    coarse = build_grid(8, 8, 17)
    fine = build_grid(16, 16, 34)
    for g1, g2 in ((coarse, fine),):
        vals = []
        for g in (g1, g2):
            vs = g.vectors()
            f = (vs[:, 3] ** 2) * (1.0 + vs[:, 0]) ** 2
            vals.append(g.integrate(f))
        assert vals[0] == pytest.approx(vals[1], abs=1e-11)


def test_addition_theorem_quadrature():
    # integrating C_j(a . x) C_jp(b . x) over x picks out delta_{j jp}
    g = build_grid(12, 12, 25)
    vs = g.vectors()
    a = np.array([0.0, 0.0, 0.0, 1.0])
    b = np.array([0.0, 1.0, 0.0, 0.0])

    def cheb(j, x):
        gam = np.arccos(np.clip(x, -1, 1))
        return np.sin((j + 1) * gam) / np.sin(gam)

    ca = cheb(2, vs @ a)
    for jp in (1, 2, 3):
        val = g.integrate(ca * cheb(jp, vs @ b))
        if jp != 2:
            assert abs(val) < 1e-10
        else:
            ref = S3 / 3.0 * cheb(2, float(a @ b))
            assert val == pytest.approx(ref, abs=1e-10)


def test_projection_requires_ordered_radii():
    with pytest.raises(ValueError):
        project_multipole(1, 1, 1.0, 0.5, 0, 1)


def test_projection_inadmissible_pair_is_zero():
    g = build_grid(10, 10, 21)
    assert project_multipole(1, 1, 0.5, 1.0, 2, 0, grid=g,
                             agree_tol=1e-6) == 0.0


def test_projection_recovers_known_coefficients():
    g = build_grid(14, 14, 29)
    spec = ExpansionSpec(1.0, 1, 0.5, 1.0)
    got = project_multipole(1, 1, 0.5, 1.0, 0, 1, grid=g)
    assert got == pytest.approx(1.0, abs=1e-9)  # r2
    got = project_multipole(1, 1, 0.5, 1.0, 1, 0, grid=g)
    assert got == pytest.approx(0.5, abs=1e-9)  # r1
    spec = ExpansionSpec(2.0, 0, 0.5, 1.0)
    got = project_multipole(2, 0, 0.5, 1.0, 1, 1, grid=g)
    assert got == pytest.approx(b_coeff(spec, 1, 1), abs=1e-8)


def test_projection_seed_disagreement_flags_coarse_grid():
    g = build_grid(3, 3, 7)
    with pytest.raises(RuntimeError):
        project_multipole(-3, 1, 0.5, 1.0, 3, 4, grid=g,
                          agree_tol=1e-12)


def test_projection_gate_margin_rejects_close_but_wrong_seeds():
    # On 8x8x17 at r1/r2 = 0.5 the two default seeds agree to 3e-9 but
    # both miss B^{(-3 1)}_{7 8} by ~4e-8: a gate on the bare spread would
    # pass, the tenfold margin does not.
    g = build_grid(8, 8, 17)
    ref = b_coeff(ExpansionSpec(-3.0, 1, 0.5, 1.0, l_max=9), 7, 8)
    vals = [verify._project_one(-3.0, 1, 0.5, 1.0, 7, 8, g, s)
            for s in (7, 19)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert min(abs(v - ref) for v in vals) > 1e-8
    with pytest.raises(RuntimeError):
        project_multipole(-3.0, 1, 0.5, 1.0, 7, 8, grid=g)


def test_projection_refines_the_given_grid():
    # 10x10x21 is exact to degree 19; the x2 sum runs over its twofold
    # refinement, exact to degree 39, which recovers this coefficient to
    # rounding at r1/r2 = 0.38.
    g = build_grid(10, 10, 21)
    spec = ExpansionSpec(-3.0, 1, 0.38, 1.0, l_max=3)
    got = project_multipole(-3.0, 1, 0.38, 1.0, 1, 2, grid=g)
    assert got == pytest.approx(b_coeff(spec, 1, 2), abs=1e-13)
