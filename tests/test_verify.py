"""Tests for the quadrature oracles."""

import math

import numpy as np
import pytest

from hsh4 import verify
from hsh4.harmonics import c_components, cos4, h_to_c_matrix
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
    assert project_multipole(1, 1, 0.5, 1.0, 2, 0, grid=g, l_cap=2,
                             agree_tol=1e-6) == 0.0


def test_projection_recovers_known_coefficients():
    g = build_grid(14, 14, 29)
    spec = ExpansionSpec(1.0, 1, 0.5, 1.0)
    got = project_multipole(1, 1, 0.5, 1.0, 0, 1, grid=g, l_cap=2)
    assert got == pytest.approx(1.0, abs=1e-9)  # r2
    got = project_multipole(1, 1, 0.5, 1.0, 1, 0, grid=g, l_cap=2)
    assert got == pytest.approx(0.5, abs=1e-9)  # r1
    spec = ExpansionSpec(2.0, 0, 0.5, 1.0)
    got = project_multipole(2, 0, 0.5, 1.0, 1, 1, grid=g, l_cap=2)
    assert got == pytest.approx(b_coeff(spec, 1, 1), abs=1e-8)


def test_projection_seed_disagreement_flags_coarse_grid():
    g = build_grid(3, 3, 7)
    with pytest.raises(RuntimeError):
        project_multipole(-3, 1, 0.5, 1.0, 3, 4, grid=g, l_cap=4,
                          agree_tol=1e-12)
