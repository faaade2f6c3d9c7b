"""Tests for O(4) Clebsch-Gordan coefficients, 9j symbols and bipolars."""

import math

import numpy as np
import pytest

from hsh4.angular import wigner9j
from hsh4.coupling import (bipolar, bipolar_plan, bipolar_values, cgc4_c,
                           cgc4_c_closed, cgc4_h, linearize_product, ninej4,
                           ninej4_closed, rank_triangle_ok)
from hsh4.harmonics import (c_components, c_flat_index, h_components,
                            h_flat_index, hsh_c, hsh_h, scalar_product_c)


def _unit(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def test_rank_triangle():
    assert rank_triangle_ok(1, 1, 2)
    assert rank_triangle_ok(1, 1, 0)
    assert not rank_triangle_ok(1, 1, 1)  # parity: j1 + j2 + j must be even
    assert not rank_triangle_ok(1, 2, 5)


def test_cgc4_c_reference_value():
    assert cgc4_c(1, 0, 0, 1, 0, 0, 2, 0, 0) == pytest.approx(
        math.sqrt(3.0) / 2.0, abs=1e-15)


def test_cgc4_h_factorises():
    from hsh4.angular import cgc3
    rng = np.random.default_rng(3)
    for _ in range(30):
        j1, j2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        j = int(rng.choice(range(abs(j1 - j2), j1 + j2 + 1, 2)))
        tmu1 = int(rng.integers(0, j1 + 1)) * 2 - j1
        tnu1 = int(rng.integers(0, j1 + 1)) * 2 - j1
        tmu2 = int(rng.integers(0, j2 + 1)) * 2 - j2
        tnu2 = int(rng.integers(0, j2 + 1)) * 2 - j2
        tmu, tnu = tmu1 + tmu2, tnu1 + tnu2
        if abs(tmu) > j or abs(tnu) > j:
            continue
        ref = (cgc3(j1, tmu1, j2, tmu2, j, tmu)
               * cgc3(j1, tnu1, j2, tnu2, j, tnu))
        assert cgc4_h(j1, tmu1, tnu1, j2, tmu2, tnu2, j, tmu, tnu) == \
            pytest.approx(ref, abs=1e-15)


def test_product_linearization_pointwise():
    """Products of two harmonics of the same argument expand exactly."""
    rng = np.random.default_rng(4)
    v = _unit(rng)
    cases = {
        "h": ((1, (1, 1), 1, (1, -1)), (2, (0, 0), 1, (1, 1)),
              (2, (2, 0), 2, (0, -2)), (3, (1, 1), 2, (2, 2))),
        "c": ((1, (1, 1), 1, (1, -1)), (2, (0, 0), 1, (1, 1)),
              (2, (2, 0), 2, (1, -1)), (3, (1, 1), 2, (2, 2))),
    }
    for family in ("h", "c"):
        for j1, idx1, j2, idx2 in cases[family]:
            if family == "h":
                f1 = hsh_h(j1, *idx1, v)
                f2 = hsh_h(j2, *idx2, v)
            else:
                f1 = hsh_c(j1, *idx1, v)
                f2 = hsh_c(j2, *idx2, v)
            terms = linearize_product(family, j1, idx1, j2, idx2, v)
            total = sum(c * val for (_, _, c, val) in terms)
            assert total == pytest.approx(f1 * f2, abs=1e-13)


def test_cgc4_c_contraction_orthogonality():
    for j1, j2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
        ranks = range(abs(j1 - j2), j1 + j2 + 1, 2)
        for ja in ranks:
            for jb in ranks:
                lam, alf = min(ja, jb), 0
                acc = 0.0
                for lam1 in range(j1 + 1):
                    for alf1 in range(-lam1, lam1 + 1):
                        for lam2 in range(j2 + 1):
                            alf2 = alf - alf1
                            if abs(alf2) > lam2:
                                continue
                            acc += (cgc4_c(j1, lam1, alf1, j2, lam2, alf2,
                                           ja, lam, alf)
                                    * cgc4_c(j1, lam1, alf1, j2, lam2, alf2,
                                             jb, lam, alf))
                assert acc == pytest.approx(1.0 if ja == jb else 0.0,
                                            abs=1e-13)


def test_closed_form_unknown_case_names_the_cases():
    with pytest.raises(ValueError, match="stretched, .*, spin1"):
        cgc4_c_closed("stretch", 1, 0, 0, 1, 0, 0, 2, 0, 0)


@pytest.mark.parametrize("q", [(1, 0, 0, 1, 0, 0, 2, 0, 5),
                               (2, 1, -2, 2, 1, 0, 2, 2, -2)])
def test_cgc4_c_projection_outside_lambda_names_alpha(q):
    # the labels are C-family ones, not the doubled 3D ones of cgc3
    with pytest.raises(ValueError, match=r"alpha = -?\d+ for lambda = \d+"):
        cgc4_c(*q)


@pytest.mark.parametrize("case", ["stretched", "stretched_j1_zero_lambda",
                                  "diff", "six_j_reduction", "spin1"])
def test_closed_forms_match_general(case):
    worst = 0.0
    count = 0
    for j1 in range(0, 5):
        for j2 in range(0, 5):
            if case == "stretched":
                targets = [j1 + j2]
            elif case == "stretched_j1_zero_lambda":
                targets = [j1 + j2]
            elif case == "diff":
                targets = [j2 - j1] if j2 >= j1 else []
            elif case == "six_j_reduction":
                targets = list(range(abs(j1 - j2), j1 + j2 + 1, 2))
            else:
                if j1 != 1:
                    continue
                targets = [t for t in (j2 - 1, j2 + 1) if t >= 0]
            for j in targets:
                for lam in range(j + 1):
                    for lam1 in range(j1 + 1):
                        for lam2 in range(j2 + 1):
                            alf1 = min(lam1, 1)
                            alf2 = -min(lam2, 1)
                            alf = alf1 + alf2
                            if abs(alf) > lam:
                                continue
                            if case in ("stretched_j1_zero_lambda",
                                        "six_j_reduction", "spin1"):
                                if lam1 != 0 or alf1 != 0:
                                    continue
                            try:
                                ref = cgc4_c_closed(case, j1, lam1, alf1,
                                                    j2, lam2, alf2,
                                                    j, lam, alf)
                            except ValueError:
                                continue
                            val = cgc4_c(j1, lam1, alf1, j2, lam2, alf2,
                                         j, lam, alf)
                            worst = max(worst, abs(val - ref))
                            count += 1
    assert count > 20
    assert worst < 1e-12


def test_ninej4_is_squared_halved_9j():
    rng = np.random.default_rng(5)
    for _ in range(60):
        args = [int(x) for x in rng.integers(0, 6, size=9)]
        ref = wigner9j(*args) ** 2
        assert ninej4(*args) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_ninej4_closed_form():
    for k in range(0, 3):
        for l in range(k, 5):
            for j in range(l, 7):
                for lp in range(abs(j - l), min(j + l, 6) + 1, 2):
                    ref = ninej4(k, k, 0, l - k, j - l + k, j, l, lp, j)
                    got = ninej4_closed(k, l, lp, j)
                    assert got == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("k, l, lp, j", [(2, 100, 100, 200), (0, 100, 150, 250),
                                         (1, 90, 100, 188), (2, 170, 170, 170)])
def test_ninej4_closed_high_rank_vs_mpmath(k, l, lp, j):
    # Gamma alone overflows a float from argument 172; the last case is an
    # exact zero of 1/Gamma((j - l - lp)/2 + k + 1)
    import mpmath
    with mpmath.workdps(40):
        ref = float(mpmath.factorial(k) * mpmath.factorial(j - l + k)
                    / (mpmath.factorial(l + 1) * mpmath.factorial(j + 1)
                       * (k + 1) * (j + 1))
                    * mpmath.gamma(mpmath.mpf(j + l + lp) / 2 + 2)
                    * mpmath.gamma(mpmath.mpf(j + l - lp) / 2 + 1)
                    * mpmath.rgamma(mpmath.mpf(j - l - lp) / 2 + k + 1)
                    * mpmath.rgamma(mpmath.mpf(j - l + lp) / 2 + k + 2))
    got = ninej4_closed(k, l, lp, j)
    if ref == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(ref, rel=1e-12)


def test_bipolar_rank_zero_is_scalar_product():
    rng = np.random.default_rng(6)
    for l in range(4):
        a, b = _unit(rng), _unit(rng)
        bip = bipolar("c", l, l, 0, a, b)
        ref = scalar_product_c(l, a, b) / (l + 1.0)
        assert bip[0] == pytest.approx(ref, abs=1e-13)


def test_bipolar_values_trailing_axes():
    rng = np.random.default_rng(60)
    pts_a = np.array([_unit(rng) for _ in range(5)])
    pts_b = np.array([_unit(rng) for _ in range(5)])
    ca = np.stack([c_components(2, p) for p in pts_a], axis=1)
    cb = np.stack([c_components(1, p) for p in pts_b], axis=1)
    batch = bipolar_values("c", 2, 1, 1, ca, cb)
    for i in range(5):
        single = bipolar("c", 2, 1, 1, pts_a[i], pts_b[i])
        np.testing.assert_allclose(batch[:, i], single, atol=1e-14)


def test_recoupling_identity_shared_arguments():
    """Nested bipolar recoupling with the 4D 9j weights.

    The identity requires each recoupled pair to share its argument (the
    intermediate mixed-symmetry O(4) tensors then vanish identically); see
    test_recoupling_fails_for_generic_vectors for the complement.
    """
    rng = np.random.default_rng(11)
    for family in ("h", "c"):
        comp = h_components if family == "h" else c_components
        for _ in range(10):
            a, b, d, e = (int(x) for x in rng.integers(0, 3, size=4))
            c = int(rng.choice(range(abs(a - b), a + b + 1, 2)))
            f = int(rng.choice(range(abs(d - e), d + e + 1, 2)))
            k = int(rng.choice(range(abs(c - f), c + f + 1, 2)))
            u, w = _unit(rng), _unit(rng)
            P, R = comp(a, u), comp(d, u)
            Q, S = comp(b, w), comp(e, w)
            lhs = bipolar_values(family, c, f, k,
                                 bipolar_values(family, a, b, c, P, Q),
                                 bipolar_values(family, d, e, f, R, S))
            rhs = np.zeros_like(lhs)
            for g in range(abs(a - d), a + d + 1, 2):
                for h in range(abs(b - e), b + e + 1, 2):
                    nj = ninej4(a, b, c, d, e, f, g, h, k)
                    if nj == 0.0:
                        continue
                    rhs += ((c + 1) * (f + 1) * (g + 1) * (h + 1) * nj
                            * bipolar_values(
                                family, g, h, k,
                                bipolar_values(family, a, d, g, P, R),
                                bipolar_values(family, b, e, h, Q, S)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_recoupling_fails_for_generic_vectors():
    """Four independent arguments break the recoupling identity.

    The step-two rank rule omits mixed-symmetry intermediates, so the
    right-hand basis cannot represent all four-vector invariants; the
    minimal counterexample shows a finite residual that no choice of
    weights can remove.
    """
    rng = np.random.default_rng(12)
    p, q, r, s = (_unit(rng) for _ in range(4))
    P, Q, R, S = (c_components(1, v) for v in (p, q, r, s))
    lhs = bipolar_values("c", 0, 0, 0,
                         bipolar_values("c", 1, 1, 0, P, Q),
                         bipolar_values("c", 1, 1, 0, R, S))
    rhs = np.zeros_like(lhs)
    for g in (0, 2):
        nj = ninej4(1, 1, 0, 1, 1, 0, g, g, 0)
        rhs += ((g + 1) ** 2 * nj
                * bipolar_values("c", g, g, 0,
                                 bipolar_values("c", 1, 1, g, P, R),
                                 bipolar_values("c", 1, 1, g, Q, S)))
    assert abs(lhs[0] - rhs[0]) > 1e-3


def _loop_plan(family, j1, j2, j):
    """{(i1, i2, iout): coeff} from one scalar cgc4_h / cgc4_c per term."""
    terms = {}
    if family == "h":
        for tmu1 in range(-j1, j1 + 1, 2):
            for tnu1 in range(-j1, j1 + 1, 2):
                for tmu2 in range(-j2, j2 + 1, 2):
                    for tnu2 in range(-j2, j2 + 1, 2):
                        tmu, tnu = tmu1 + tmu2, tnu1 + tnu2
                        if abs(tmu) > j or abs(tnu) > j:
                            continue
                        c = cgc4_h(j1, tmu1, tnu1, j2, tmu2, tnu2, j, tmu, tnu)
                        if c != 0.0:
                            terms[(h_flat_index(j1, tmu1, tnu1),
                                   h_flat_index(j2, tmu2, tnu2),
                                   h_flat_index(j, tmu, tnu))] = c
        return terms
    for lam1 in range(j1 + 1):
        for lam2 in range(j2 + 1):
            for lam in range(abs(lam1 - lam2), min(lam1 + lam2, j) + 1, 2):
                for alf in range(-lam, lam + 1):
                    for alf1 in range(max(-lam1, alf - lam2),
                                      min(lam1, alf + lam2) + 1):
                        alf2 = alf - alf1
                        c = cgc4_c(j1, lam1, alf1, j2, lam2, alf2, j, lam, alf)
                        if c != 0.0:
                            terms[(c_flat_index(lam1, alf1),
                                   c_flat_index(lam2, alf2),
                                   c_flat_index(lam, alf))] = c
    return terms


PLAN_CASES = [(l, lp, j) for l in range(11) for lp in range(11)
              for j in range(5)] + [(24, 24, 4)]


@pytest.mark.parametrize("family", ["h", "c"])
def test_bipolar_plan_matches_scalar_loop(family):
    worst = 0.0
    for j1, j2, j in PLAN_CASES:
        i1, i2, iout, coeff = bipolar_plan(family, j1, j2, j)
        assert i1.dtype == i2.dtype == iout.dtype == np.intp
        assert coeff.dtype == np.float64
        plan = dict(zip(zip(i1.tolist(), i2.tolist(), iout.tolist()),
                        coeff.tolist()))
        assert len(plan) == len(coeff)  # no term twice
        ref = _loop_plan(family, j1, j2, j)
        # the term sets differ at most by rounding-level reference entries
        assert all(abs(ref[k]) <= 1e-14 for k in set(ref) - set(plan))
        assert not set(plan) - set(ref)
        for key, c in plan.items():
            worst = max(worst, abs(c - ref.get(key, 0.0)))
    assert worst <= 1e-14


@pytest.mark.parametrize("family", ["h", "c"])
def test_bipolar_plan_unitary_at_rank_24(family):
    _, _, iout, coeff = bipolar_plan(family, 24, 24, 4)
    norms = np.bincount(iout, weights=coeff * coeff, minlength=25)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_bipolar_plan_empty_and_unknown_family():
    for family in ("h", "c"):
        plan = bipolar_plan(family, 2, 3, 2)  # j1 + j2 + j odd
        assert [len(x) for x in plan] == [0, 0, 0, 0]
        assert [x.dtype for x in plan] == [np.intp] * 3 + [np.float64]
    with pytest.raises(ValueError):
        bipolar_plan("x", 1, 1, 0)
