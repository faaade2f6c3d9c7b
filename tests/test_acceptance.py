"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test emits a single "[ACCEPTANCE nn] name: PASS/FAIL" line with the
measured worst-case error, so a plain ``pytest -s tests/test_acceptance.py``
doubles as a release report.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import eval_chebyu

from hsh4.angular import cgc3, wigner9j
from hsh4.coupling import (bipolar_values, cgc4_c, cgc4_c_closed, cgc4_h,
                           linearize_product, ninej4)
from hsh4.harmonics import c_components, cos4, h_components, hsh_c, hsh_h
from hsh4.multipole import (ExpansionSpec, b_coeff, expand_translated,
                            laplacian_power, plane_wave_radial,
                            scalar_power_coeff)
from hsh4.special import hyp2f1, pochhammer
from hsh4.verify import (build_grid, c_harmonics_at_vectors,
                         orthogonality_report, project_multipole)


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _units(rng, count):
    v = rng.normal(size=(count, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_01_orthogonality():
    """Both families orthogonal on S^3 up to j = 6, abs tol 1e-10, < 60 s."""
    t0 = time.perf_counter()
    checks, _ = orthogonality_report(6, build_grid(64, 64, 128), tol=1e-10)
    elapsed = time.perf_counter() - t0
    worst = max(c["abs_err"] for c in checks)
    ok = all(c["pass"] for c in checks) and elapsed < 60.0
    _report(1, "orthogonality j<=6", ok,
            f"max dev {worst:.2e}, {elapsed:.1f} s")


def test_02_closed_form_cgc_suite():
    """All closed-form C-type CGC patterns, ranks <= 6, abs tol 1e-12."""
    cases = ("stretched", "stretched_j1_zero_lambda", "diff",
             "six_j_reduction", "spin1")
    worst, queries = 0.0, set()
    for case in cases:
        for j1 in range(7):
            for j2 in range(7):
                if case == "diff":
                    targets = [j2 - j1] if j2 >= j1 else []
                elif case == "six_j_reduction":
                    targets = range(abs(j1 - j2), min(j1 + j2, 6) + 1, 2)
                elif case == "spin1":
                    if j1 != 1:
                        continue
                    targets = [t for t in (j2 - 1, j2 + 1) if 0 <= t <= 6]
                else:
                    targets = [j1 + j2] if j1 + j2 <= 6 else []
                for j in targets:
                    for lam in range(j + 1):
                        for lam1 in range(j1 + 1):
                            for lam2 in range(j2 + 1):
                                for alf1 in {-lam1, min(lam1, 1)}:
                                    for alf2 in {-min(lam2, 1), lam2}:
                                        alf = alf1 + alf2
                                        if abs(alf) > lam:
                                            continue
                                        try:
                                            ref = cgc4_c_closed(
                                                case, j1, lam1, alf1, j2,
                                                lam2, alf2, j, lam, alf)
                                        except ValueError:
                                            continue
                                        val = cgc4_c(j1, lam1, alf1, j2,
                                                     lam2, alf2, j, lam, alf)
                                        worst = max(worst, abs(val - ref))
                                        queries.add((case, j1, lam1, alf1,
                                                     j2, lam2, alf2,
                                                     j, lam, alf))
    # j1 = 0 reduces to a plain delta; fold that pattern in as well
    for j2 in range(7):
        for lam2 in range(j2 + 1):
            for j in range(7):
                for lam in range(min(j, lam2) + 1):
                    ref = float(j == j2 and lam == lam2)
                    val = cgc4_c(0, 0, 0, j2, lam2, lam2, j, lam, lam)
                    if lam != lam2:
                        val = cgc4_c(0, 0, 0, j2, lam2, lam, j, lam, lam)
                        ref = 0.0
                    worst = max(worst, abs(val - ref))
                    queries.add(("delta", j2, lam2, j, lam))
    ok = worst <= 1e-12 and len(queries) >= 500
    _report(2, "closed-form CGC suite", ok,
            f"max dev {worst:.2e}, {len(queries)} queries")


def test_03_cgc_orthogonality_and_symmetries():
    """Contraction orthogonality plus both exchange symmetries, tol 1e-12."""
    worst = 0.0
    for j1 in range(5):
        for j2 in range(5):
            ranks = list(range(abs(j1 - j2), j1 + j2 + 1, 2))
            for ja in ranks:
                for jb in ranks:
                    lam = min(ja, jb)
                    alf = -min(lam, 1)
                    acc = 0.0
                    for lam1 in range(j1 + 1):
                        for alf1 in range(-lam1, lam1 + 1):
                            for lam2 in range(j2 + 1):
                                alf2 = alf - alf1
                                if abs(alf2) > lam2:
                                    continue
                                acc += (cgc4_c(j1, lam1, alf1, j2, lam2,
                                               alf2, ja, lam, alf)
                                        * cgc4_c(j1, lam1, alf1, j2, lam2,
                                                 alf2, jb, lam, alf))
                    worst = max(worst, abs(acc - float(ja == jb)))
    rng = np.random.default_rng(23)
    for _ in range(200):
        j1, j2 = (int(x) for x in rng.integers(0, 5, size=2))
        ranks = list(range(abs(j1 - j2), j1 + j2 + 1, 2))
        j = int(rng.choice(ranks))
        lam1, lam2 = int(rng.integers(0, j1 + 1)), int(rng.integers(0, j2 + 1))
        lam = int(rng.integers(0, j + 1))
        alf1 = int(rng.integers(-lam1, lam1 + 1))
        alf2 = int(rng.integers(-lam2, lam2 + 1))
        alf = alf1 + alf2
        if abs(alf) > lam:
            continue
        val = cgc4_c(j1, lam1, alf1, j2, lam2, alf2, j, lam, alf)
        swap = cgc4_c(j2, lam2, alf2, j1, lam1, alf1, j, lam, alf)
        worst = max(worst, abs(val - (-1.0) ** (j1 + j2 + j) * swap))
        rev = cgc4_c(j, lam, alf, j2, lam2, -alf2, j1, lam1, alf1)
        phase = (-1.0) ** (j1 + j2 + j + lam2 + alf2)
        worst = max(worst,
                    abs(val - phase * (j + 1.0) / (j1 + 1.0) * rev))
    ok = worst <= 1e-12
    _report(3, "CGC orthogonality and symmetries", ok,
            f"max dev {worst:.2e}")


def test_04_product_linearization():
    """Pointwise product expansion at 50 random directions, abs tol 1e-12."""
    rng = np.random.default_rng(31)
    dirs = _units(rng, 50)
    worst = 0.0
    for family in ("h", "c"):
        for j1 in range(4):
            for j2 in range(4):
                if family == "c":
                    idx1 = (min(j1, 1), -min(j1, 1))
                    idx2 = (min(j2, 2), min(j2, 1))
                else:
                    idx1 = (j1, -j1)
                    idx2 = (-j2, j2 - 4 * (j2 // 2))
                for v in dirs:
                    if family == "h":
                        lhs = hsh_h(j1, *idx1, v) * hsh_h(j2, *idx2, v)
                    else:
                        lhs = hsh_c(j1, *idx1, v) * hsh_c(j2, *idx2, v)
                    terms = linearize_product(family, j1, idx1, j2, idx2, v)
                    rhs = sum(c * val for (_, _, c, val) in terms)
                    worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _report(4, "product linearization", ok, f"max dev {worst:.2e}")


_SPECS_5 = ((1.0, 1), (2.0, 0), (2.0, 2), (3.0, 1), (4.0, 0),
            (-2.0, 0), (-3.0, 1), (-4.0, 2))
_L_MAX_5 = {(-2.0, 0): 30, (-3.0, 1): 36, (-4.0, 2): 40}


def test_05_multipole_residual():
    """Translated-kernel reconstruction at 20 random angle pairs, < 30 s.

    Non-terminating series need l_max beyond 30 to push the (r1/r2)^l
    truncation tail below the 1e-8 target; the overrides keep the stated
    tolerance honest instead of loosening it.
    """
    t0 = time.perf_counter()
    r1, r2 = 0.5, 1.0
    rng = np.random.default_rng(42)
    h1 = _units(rng, 20)
    h2 = _units(rng, 20)
    rvec = r1 * h1 + r2 * h2
    rnorm = np.linalg.norm(rvec, axis=1)
    comp1, comp2 = {}, {}
    worst_term, worst_series = 0.0, 0.0
    for (n, j) in _SPECS_5:
        spec = ExpansionSpec(n, j, r1, r2, l_max=_L_MAX_5.get((n, j), 30))
        table = expand_translated(spec)
        lhs = rnorm ** n * c_harmonics_at_vectors(j, rvec)
        rhs = np.zeros_like(lhs)
        for (l, lp), coeff in table.entries.items():
            if l not in comp1:
                comp1[l] = c_harmonics_at_vectors(l, h1)
            if lp not in comp2:
                comp2[lp] = c_harmonics_at_vectors(lp, h2)
            rhs += coeff * bipolar_values("c", l, lp, j,
                                          comp1[l], comp2[lp])
        rel = (np.abs(lhs - rhs).max(axis=0)
               / np.abs(lhs).max(axis=0)).max()
        if table.terminated:
            worst_term = max(worst_term, rel)
        else:
            worst_series = max(worst_series, rel)
    elapsed = time.perf_counter() - t0
    ok = (worst_term <= 1e-12 and worst_series <= 1e-8
          and elapsed < 30.0)
    _report(5, "multipole residual", ok,
            f"terminating {worst_term:.2e}, series {worst_series:.2e}, "
            f"{elapsed:.1f} s")


def test_06_special_cases():
    """Binomial coefficients, generating function and the j = 0 reduction."""
    worst_binom = 0.0
    for j in range(1, 7):
        spec = ExpansionSpec(float(j), j, 0.3, 0.9)
        for l in range(j + 1):
            ref = math.comb(j, l) * 0.3 ** l * 0.9 ** (j - l)
            worst_binom = max(worst_binom,
                              abs(b_coeff(spec, l, j - l) - ref) / ref)
    t = 0.5
    table = expand_translated(ExpansionSpec(-2.0, 0, t, 1.0, l_max=45))
    worst_gen = max(abs(table[(l, l)] - (l + 1) * (-t) ** l)
                    / abs((l + 1) * t ** l) for l in range(12))
    rng = np.random.default_rng(41)
    for h1, h2 in zip(_units(rng, 5), _units(rng, 5)):
        cg = cos4(h1, h2)
        ref = 1.0 / (1.0 + 2.0 * t * cg + t * t)
        val = sum(table[(l, l)] / (l + 1.0) * eval_chebyu(l, cg)
                  for (l, _) in table.entries)
        worst_gen = max(worst_gen, abs(val - ref) / abs(ref))
    worst_j0 = 0.0
    for n in (1.0, 3.0, -2.0, -3.5):
        spec = ExpansionSpec(n, 0, 0.5, 1.0)
        for l in range(6):
            direct = ((-0.5) ** l / math.factorial(l)
                      * pochhammer(-n / 2.0, l)
                      * hyp2f1(-1.0 - n / 2.0, l - n / 2.0, l + 2, 0.25))
            got = b_coeff(spec, l, l)
            if direct == 0.0:
                worst_j0 = max(worst_j0, abs(got))
            else:
                worst_j0 = max(worst_j0,
                               abs(got - (l + 1) * direct)
                               / abs((l + 1) * direct))
    ok = worst_binom <= 1e-13 and worst_gen <= 1e-10 and worst_j0 <= 1e-13
    _report(6, "multipole special cases", ok,
            f"binomial {worst_binom:.2e}, generating {worst_gen:.2e}, "
            f"j=0 {worst_j0:.2e}")


def test_07_projection_oracle():
    """Quadrature projection recovers every tabulated coefficient to 1e-8."""
    grid = build_grid(18, 18, 37)
    r1, r2 = 0.5, 1.0
    worst, checked = 0.0, 0
    for (n, j) in _SPECS_5:
        spec = ExpansionSpec(n, j, r1, r2, l_max=max(8, j + 4))
        cap = 4 + j
        for l in range(5):
            for lp in range(abs(l - j), min(l + j, cap) + 1, 2):
                ref = b_coeff(spec, l, lp)
                got = project_multipole(n, j, r1, r2, l, lp, grid=grid)
                worst = max(worst, abs(got - ref))
                checked += 1
    ok = worst <= 1e-8
    _report(7, "projection oracle", ok,
            f"max dev {worst:.2e}, {checked} coefficients")


def test_07b_projection_oracle_coverage():
    """Projection reaches l = 8 at r1/r2 = 0.5 and l = 4 at 0.7, to 1e-8.

    Each grid is the smallest of the (m, m, 2m+1) family from which on the
    seed spread and each seed's error stay below 1e-10 and shrink with m:
    at most 4e-12 at 0.5 on 12x12x25 (2e-10 on 11x11x23) and 4e-11 at 0.7
    on 19x19x39 (2e-10 on 18x18x37).
    """
    worst, checked = 0.0, 0
    for ratio, l_top, m in ((0.5, 8, 12), (0.7, 4, 19)):
        grid = build_grid(m, m, 2 * m + 1)
        for (n, j) in ((-2.0, 0), (-3.0, 1)):
            spec = ExpansionSpec(n, j, ratio, 1.0, l_max=l_top + j)
            for l in range(l_top + 1):
                for lp in range(abs(l - j), l + j + 1, 2):
                    got = project_multipole(n, j, ratio, 1.0, l, lp,
                                            grid=grid)
                    worst = max(worst, abs(got - b_coeff(spec, l, lp)))
                    checked += 1
    ok = worst <= 1e-8
    _report(7, "projection oracle coverage", ok,
            f"max dev {worst:.2e}, {checked} coefficients")


def test_08_scalar_power_expansion():
    """(a.r)^n from the Gegenbauer series at 20 random configurations."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 5))
        a = rng.normal(size=4) * 0.8
        r = rng.normal(size=4) * 1.3
        na, nr = np.linalg.norm(a), np.linalg.norm(r)
        cg = float(a @ r) / (na * nr)
        ref = float(a @ r) ** n
        terms = [scalar_power_coeff(n, l) * eval_chebyu(l, cg)
                 for l in range(n + 1)]
        val = (na * nr) ** n * sum(terms)
        # near-orthogonal configurations make (a.r)^n forward-unstable in
        # any floating-point route, so the residual is measured against the
        # series' own term scale (its backward-error denominator)
        scale = max(abs(ref),
                    (na * nr) ** n * sum(abs(t) for t in terms))
        worst = max(worst, abs(val - ref) / scale)
    ok = worst <= 1e-12
    _report(8, "scalar-power expansion", ok, f"max rel dev {worst:.2e}")


def test_09_plane_wave_expansion():
    """Partial sums to L = 30 reproduce exp(a.r) for ar <= 2, rel 1e-10."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        ar = float(rng.uniform(0.1, 2.0))
        cg = float(rng.uniform(-1.0, 1.0))
        val = sum(plane_wave_radial(l, 1.0, ar) * eval_chebyu(l, cg)
                  for l in range(31))
        ref = math.exp(ar * cg)
        worst = max(worst, abs(val - ref) / abs(ref))
    ok = worst <= 1e-10
    _report(9, "plane-wave expansion", ok, f"max rel dev {worst:.2e}")


def test_10_laplacian_checks():
    """laplacian_power against 4D central differences, h = 1e-3."""
    rng = np.random.default_rng(10)
    h = 1e-3
    worst_gen, worst_harm = 0.0, 0.0
    for j in range(4):
        for n in {2.0, 3.0, float(j), float(-j - 2)}:
            x = rng.normal(size=4)
            x *= (1.4 + rng.uniform(0, 0.4)) / np.linalg.norm(x)

            def f(pt):
                r = np.linalg.norm(pt)
                return r ** n * np.real(c_components(j, pt)[0])

            lap = 0.0
            for axis in range(4):
                e = np.zeros(4)
                e[axis] = h
                lap += (f(x + e) - 2.0 * f(x) + f(x - e)) / h ** 2
            r = np.linalg.norm(x)
            ref = (laplacian_power(n, j, 1) * r ** (n - 2.0)
                   * np.real(c_components(j, x)[0]))
            scale = max(abs(f(x)) / r ** 2, 1.0)
            if laplacian_power(n, j, 1) == 0.0:
                worst_harm = max(worst_harm, abs(lap) / scale)
            else:
                worst_gen = max(worst_gen, abs(lap - ref) / abs(ref))
    ok = worst_gen <= 1e-5 and worst_harm <= 1e-5
    _report(10, "radial Laplacian", ok,
            f"general {worst_gen:.2e}, harmonic {worst_harm:.2e}")


def test_11_recoupling():
    """Nested-bipolar recoupling and the 9j square law.

    The recoupling identity is exercised in its domain of validity, where
    each recoupled pair shares an argument; with four independent vectors
    the mixed-symmetry intermediates it omits contribute and the identity
    provably fails (see test_recoupling_fails_for_generic_vectors).
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    for family in ("h", "c"):
        comp = h_components if family == "h" else c_components
        for _ in range(8):
            a, b, d, e = (int(x) for x in rng.integers(0, 3, size=4))
            c = int(rng.choice(range(abs(a - b), a + b + 1, 2)))
            f = int(rng.choice(range(abs(d - e), d + e + 1, 2)))
            k = int(rng.choice(range(abs(c - f), c + f + 1, 2)))
            u, w = _units(rng, 2)
            P, R = comp(a, u), comp(d, u)
            Q, S = comp(b, w), comp(e, w)
            lhs = bipolar_values(family, c, f, k,
                                 bipolar_values(family, a, b, c, P, Q),
                                 bipolar_values(family, d, e, f, R, S))
            rhs = np.zeros_like(lhs)
            for g in range(abs(a - d), a + d + 1, 2):
                for hh in range(abs(b - e), b + e + 1, 2):
                    nj = ninej4(a, b, c, d, e, f, g, hh, k)
                    if nj == 0.0:
                        continue
                    rhs += ((c + 1) * (f + 1) * (g + 1) * (hh + 1) * nj
                            * bipolar_values(
                                family, g, hh, k,
                                bipolar_values(family, a, d, g, P, R),
                                bipolar_values(family, b, e, hh, Q, S)))
            worst = max(worst, np.abs(lhs - rhs).max())
    worst_nj, valid = 0.0, 0
    while valid < 200:
        args = [int(x) for x in rng.integers(0, 6, size=9)]
        ref = wigner9j(*args) ** 2
        got = ninej4(*args)
        if ref == 0.0:
            worst_nj = max(worst_nj, abs(got))
            continue
        worst_nj = max(worst_nj, abs(got - ref) / ref)
        valid += 1
    ok = worst <= 1e-10 and worst_nj <= 1e-12
    _report(11, "recoupling and 9j square law", ok,
            f"identity {worst:.2e}, 9j {worst_nj:.2e}")
