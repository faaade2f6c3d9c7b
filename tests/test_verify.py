"""Tests for the quadrature oracles."""

import math

import numpy as np
import pytest

from hsh4 import verify
from hsh4.harmonics import (_h_to_c_entries, c_components, c_flat_index,
                            c_table, cos4)
from hsh4.multipole import (ExpansionSpec, b_coeff, coupling_checks,
                            expansion_checks)
from hsh4.verify import (build_grid, c_harmonics_at_vectors,
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


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0],
                                 [math.nan, 0.0, 0.0, 1.0],
                                 [0.0, math.inf, 0.0, 1.0]])
def test_scipy_route_rejects_directionless_rows(bad):
    pts = np.array([[0.3, -0.4, 0.5, 0.7], bad])
    with pytest.raises(ValueError, match="direction"):
        c_harmonics_at_vectors(1, pts)


def test_gram_matches_unseparated_sum():
    # the separated Gram against the plain sum of V w V^H over all nodes
    g = build_grid(8, 8, 17)
    V = np.vstack([c_harmonics_at_vectors(j, g.vectors()) for j in range(4)])
    brute = (V * g.weights) @ V.conj().T
    assert np.max(np.abs(verify.gram_matrix(3, g) - brute)) <= 1e-13


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
                          "abs_err", "rel_err", "tol", "pass"}
    # families share diagonal values
    np.testing.assert_allclose(np.diag(grams["c"]), np.diag(grams["h"]),
                               atol=1e-10)


def test_orthogonality_report_derives_h_from_one_c_gram(monkeypatch):
    g = build_grid(12, 12, 25)
    calls = []
    real = verify.gram_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "gram_matrix", counting)
    orthogonality_report(3, g)
    assert len(calls) == 1
    assert _h_to_c_entries.cache_info().currsize >= 4


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


@pytest.mark.parametrize("n,r1,r2", [(1.0, math.nan, 1.0),
                                     (1.0, 0.5, math.inf),
                                     (math.nan, 0.5, 1.0)])
def test_projection_rejects_non_finite(n, r1, r2):
    with pytest.raises(ValueError, match="finite"):
        project_multipole(n, 1, r1, r2, 0, 1, grid=build_grid(4, 4, 9))


@pytest.mark.parametrize("vals", [(math.nan, math.nan), (1.0, math.nan),
                                  (math.inf, math.inf), (math.nan, 1.0),
                                  (1.0, math.inf)])
def test_projection_gate_rejects_non_finite_seeds(monkeypatch, vals):
    # A NaN or inf from either the coarse or the fine rule must fail the
    # gate, also where the difference alone would not: |1 - inf| <= inf.
    rules = iter(vals)
    monkeypatch.setattr(verify, "_project_one", lambda *args: next(rules))
    with pytest.raises(RuntimeError, match="non-finite"):
        project_multipole(1, 1, 0.5, 1.0, 0, 1)


def test_orthogonality_report_rejects_negative_rank():
    with pytest.raises(ValueError, match="j_max"):
        orthogonality_report(-1, build_grid(4, 4, 9))


def test_projection_inadmissible_pair_is_zero():
    g = build_grid(10, 10, 21)
    assert project_multipole(1, 1, 0.5, 1.0, 2, 0, grid=g,
                             agree_tol=1e-6) == 0.0


@pytest.mark.parametrize("j,l,lp", [(-1, 0, 1), (1.5, 0, 1), (1, -1, 2),
                                    (1, 1.5, 0.5)])
def test_projection_rejects_invalid_ranks(j, l, lp):
    with pytest.raises(ValueError, match="rank"):
        project_multipole(1, j, 0.5, 1.0, l, lp, grid=build_grid(6, 6, 13))


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


def _coarse_rule(n, j, ratio, l, lp, m):
    """The gate's coarse value on the m x m x (2m + 1) grid."""
    return verify._project_one(n, j, ratio, 1.0, l, lp,
                               build_grid(2 * m, 2 * m, 1))


def test_projection_seed_disagreement_flags_coarse_grid():
    # On 3x3x7 the coarse rule misses B^{(-3 1)}_{3 4} by 2.6e-2.
    ref = b_coeff(ExpansionSpec(-3.0, 1, 0.5, 1.0, l_max=5), 3, 4)
    assert abs(_coarse_rule(-3.0, 1, 0.5, 3, 4, 3) - ref) > 1e-8
    with pytest.raises(RuntimeError, match="too coarse"):
        project_multipole(-3.0, 1, 0.5, 1.0, 3, 4, grid=build_grid(3, 3, 7))


def test_projection_gate_margin_rejects_close_but_wrong_seeds():
    # On 6x6x13 at r1/r2 = 0.5 the coarse rule misses B^{(-3 1)}_{1 0} by
    # 7.5e-9 and the fine rule by ~2e-15.  With agree_tol = 5e-9 the coarse
    # miss exceeds agree_tol; with the default 1e-8 the rules agree to
    # within agree_tol, so a gate on the bare difference would pass, and
    # the tenfold margin raises.
    g = build_grid(6, 6, 13)
    ref = b_coeff(ExpansionSpec(-3.0, 1, 0.5, 1.0, l_max=2), 1, 0)
    coarse = _coarse_rule(-3.0, 1, 0.5, 1, 0, 6)
    assert 1e-9 < abs(coarse - ref) <= 1e-8
    with pytest.raises(RuntimeError, match="too coarse"):
        project_multipole(-3.0, 1, 0.5, 1.0, 1, 0, grid=g, agree_tol=5e-9)
    with pytest.raises(RuntimeError, match="too coarse"):
        project_multipole(-3.0, 1, 0.5, 1.0, 1, 0, grid=g)


def test_projection_gate_passes_only_accurate_values():
    # Over grids from too coarse to ample, whenever the nested-rule gate
    # passes, the value is within agree_tol = 1e-8 of b_coeff, relative to
    # max(1, |B|): the gate lets nothing through that the bound would fail.
    passed = raised = 0
    for m, ratio in ((5, 0.5), (8, 0.5), (11, 0.7), (16, 0.7), (24, 0.9)):
        g = build_grid(m, m, 2 * m + 1)
        for n, j in ((-2.0, 0), (-3.0, 1), (1.0, 1)):
            spec = ExpansionSpec(n, j, ratio, 1.0, l_max=8 + j)
            for l in range(9):
                for lp in range(abs(l - j), l + j + 1, 2):
                    try:
                        got = project_multipole(n, j, ratio, 1.0, l, lp,
                                                grid=g)
                    except RuntimeError:
                        raised += 1
                        continue
                    ref = b_coeff(spec, l, lp)
                    assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))
                    passed += 1
    assert passed and raised


def test_projection_refines_the_given_grid():
    # 10x10x21 is exact to degree 19; the x2 sums run over the (theta0,
    # theta) factors of its twofold and fourfold refinements, exact to
    # degree 39 and 79, which recover this coefficient to rounding at
    # r1/r2 = 0.38.
    g = build_grid(10, 10, 21)
    spec = ExpansionSpec(-3.0, 1, 0.38, 1.0, l_max=3)
    got = project_multipole(-3.0, 1, 0.38, 1.0, 1, 2, grid=g)
    assert got == pytest.approx(b_coeff(spec, 1, 2), abs=1e-13)


def test_c_table_matches_scipy_route_to_rank_40():
    rng = np.random.default_rng(31)
    poles = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0],
                      [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 0.0]])
    pts = np.vstack([rng.normal(size=(6, 4)), poles])
    table = c_table(40, pts)
    for j in range(41):
        ref = c_harmonics_at_vectors(j, pts)
        assert np.max(np.abs(table[j] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("j", [150, 200, 320])
def test_c_table_high_rank_vs_mpmath(j):
    v = np.array([0.3, -0.4, 0.5, 0.7])
    comps = c_table(j, v[None])[j][:, 0]
    for lam, alpha in ((0, 0), (j // 2, 3), (j // 2, -(j // 2)),
                       (j - 1, j - 3), (j, j)):
        ref = _c_mp(j, lam, alpha, v)
        assert abs(comps[c_flat_index(lam, alpha)] - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_orthogonality_report_rejects_bad_tol(tol):
    grid = build_grid(4, 4, 9)
    with pytest.raises(ValueError, match="tol"):
        orthogonality_report(1, grid, tol=tol)
    checks, _ = orthogonality_report(1, grid, tol=1e-9)
    assert all(c["tol"] == 1e-9 for c in checks)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_expansion_checks_reject_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        expansion_checks(tol, 0)


def test_expansion_checks_report_their_floor():
    checks = expansion_checks(1e-14, 0)
    assert all(c["tol"] == 1e-8 for c in checks)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_coupling_checks_reject_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        coupling_checks(tol, 0)
    checks = coupling_checks(1e-14, 0)
    assert all(c["tol"] == 1e-12 for c in checks)
