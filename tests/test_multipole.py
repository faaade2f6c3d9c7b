"""Tests for the multipole expansion engine."""

import math
import sys

import numpy as np
import pytest
from scipy.special import eval_chebyu

from hsh4.multipole import (CoeffTable, ExpansionSpec, admissible_pair,
                            b_coeff, eval_expansion, expand_radial_function,
                            expand_translated, laplacian_power,
                            plane_wave_radial, scalar_power_coeff)
from hsh4.harmonics import c_components, cos4
from hsh4.special import ConvergenceError, SeriesControl


def _unit(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExpansionSpec(1.0, -1, 0.5, 1.0)
    with pytest.raises(ValueError):
        ExpansionSpec(1.0, 2, 0.5, 1.0, l_max=1)
    with pytest.raises(ValueError):
        ExpansionSpec(-2.0, 0, 1.5, 1.0)  # diverges, needs the swap
    # terminating cases are polynomial identities, any radii allowed
    ExpansionSpec(2.0, 0, 1.5, 1.0)


def test_spec_rejects_other_series_control():
    with pytest.raises(TypeError, match="ctl must be a SeriesControl"):
        ExpansionSpec(-2.0, 0, 0.5, 1.0, ctl=1e-14)


@pytest.mark.parametrize("n,j", [(-2.0, 0), (1.5, 2), (-3.0, 1)])
def test_b_coeff_at_zero_r1(n, j):
    # At r1 = 0 the kernel is r2^n C_j(r2-hat): only (l, lp) = (0, j) stays.
    spec = ExpansionSpec(n, j, 0.0, 1.5, l_max=4)
    assert b_coeff(spec, 0, j) == pytest.approx(1.5 ** n, rel=1e-15)
    for l in range(1, 5):
        for lp in range(abs(j - l), j + l + 1, 2):
            assert b_coeff(spec, l, lp) == 0.0


@pytest.mark.parametrize("n,r1,r2", [(-2.0, math.nan, 1.0),
                                     (-2.0, 0.5, math.inf),
                                     (math.nan, 0.5, 1.0)])
def test_spec_rejects_non_finite(n, r1, r2):
    with pytest.raises(ValueError, match="finite"):
        ExpansionSpec(n, 0, r1, r2)


@pytest.mark.parametrize("j,l_max", [(1.5, 30), (1, 2.7)])
def test_spec_rejects_non_integer_rank(j, l_max):
    # int() used to truncate these silently
    with pytest.raises(ValueError, match="integer"):
        ExpansionSpec(1.0, j, 0.5, 1.0, l_max=l_max)


def test_spec_accepts_integer_valued_rank():
    for j in (2, 2.0, np.int64(2)):
        spec = ExpansionSpec(1.0, j, 0.5, 1.0, l_max=np.int32(4))
        assert (spec.j, spec.l_max) == (2, 4)
        assert type(spec.j) is int and type(spec.l_max) is int


def test_admissible_pairs():
    assert admissible_pair(1, 0, 1)
    assert admissible_pair(1, 1, 0)
    assert not admissible_pair(1, 1, 1)
    assert not admissible_pair(2, 0, 0)
    assert not admissible_pair(1, 3, 0)


def test_plane_wave_leading_term():
    assert plane_wave_radial(0, 1e-9, 1e-9) == pytest.approx(1.0)


def test_plane_wave_reconstructs_exponential():
    for ar in (0.5, 2.0):
        for cg in (-0.8, 0.1, 0.9):
            total = sum(plane_wave_radial(l, 1.0, ar) * eval_chebyu(l, cg)
                        for l in range(31))
            assert total == pytest.approx(math.exp(ar * cg), rel=1e-10)


def test_plane_wave_bessel_form():
    # equivalent modified-Bessel route: 2 (l+1) I_{l+1}(x) / x
    from scipy.special import iv
    for l in range(4):
        for x in (0.3, 1.7):
            ref = 2.0 * (l + 1) * iv(l + 1, x) / x
            assert plane_wave_radial(l, 1.0, x) == pytest.approx(ref,
                                                                rel=1e-12)


def test_scalar_power_values():
    assert scalar_power_coeff(0, 0) == 1.0
    assert scalar_power_coeff(1, 1) == 0.5
    assert scalar_power_coeff(3, 1) == pytest.approx(
        6 * 2 * 2 / (2 * 48), rel=1e-14)
    assert scalar_power_coeff(2, 1) == 0.0


@pytest.mark.parametrize("n", range(5))
def test_scalar_power_reconstruction(n):
    for cg in (-0.7, 0.2, 0.95):
        total = sum(scalar_power_coeff(n, l) * eval_chebyu(l, cg)
                    for l in range(n + 1))
        assert total == pytest.approx(cg ** n, abs=1e-14)


@pytest.mark.parametrize("l, a, r", [(171, 1.0, 100.0), (200, 2.0, 60.0),
                                     (251, -1.0, 150.0)])
def test_plane_wave_radial_high_rank_vs_mpmath(l, a, r):
    # 2^l l! alone overflows a float from l = 171
    import mpmath
    with mpmath.workdps(40):
        x = mpmath.mpf(a) * mpmath.mpf(r)
        ref = float((x / 2) ** l / mpmath.factorial(l)
                    * mpmath.hyp0f1(l + 2, x * x / 4))
    assert plane_wave_radial(l, a, r) == pytest.approx(ref, rel=1e-12)


def test_plane_wave_radial_zero_argument_is_exact():
    assert plane_wave_radial(0, 0.0, 1.0) == 1.0
    assert plane_wave_radial(3, 0.0, 1.0) == 0.0
    assert plane_wave_radial(3, -0.5, 1.0) < 0.0 < plane_wave_radial(2, -0.5, 1.0)


@pytest.mark.parametrize("n, l", [(171, 1), (200, 100), (300, 0), (400, 400)])
def test_scalar_power_coeff_high_rank_vs_mpmath(n, l):
    # n! alone overflows a float from n = 171
    import mpmath
    with mpmath.workdps(40):
        ref = float(mpmath.factorial(n) * 2 * (l + 1)
                    / (mpmath.fac2(n - l) * mpmath.fac2(n + l + 2)))
    assert scalar_power_coeff(n, l) == pytest.approx(ref, rel=1e-12)
    assert scalar_power_coeff(n, l + 1) == 0.0


def test_laplacian_power_harmonic_cases():
    for j in range(4):
        assert laplacian_power(j, j, 1) == 0.0
        assert laplacian_power(-j - 2, j, 1) == 0.0
    assert laplacian_power(2, 0, 1) == pytest.approx(8.0)


@pytest.mark.parametrize("k", [1, 60, 300, 600])
@pytest.mark.parametrize("n,j", [(-2, 0), (0.5, 0), (3, 1), (-3.5, 2),
                                 (1, 3), (7.0, 1)])
def test_laplacian_power_vs_mpmath(n, j, k):
    # 2^{2k} (a)_k (b)_k: exactly 0 once a factor crosses zero, and past
    # float range a ValueError that names k instead of an OverflowError
    import mpmath
    with mpmath.workdps(40):
        n_mp = mpmath.mpf(n)
        ref = (mpmath.mpf(4) ** k * mpmath.rf((-2 - j - n_mp) / 2, k)
               * mpmath.rf((j - n_mp) / 2, k))
    if ref == 0:
        assert laplacian_power(n, j, k) == 0.0
    elif abs(ref) > sys.float_info.max:
        with pytest.raises(ValueError, match=f"k = {k}"):
            laplacian_power(n, j, k)
    else:
        assert laplacian_power(n, j, k) == pytest.approx(float(ref),
                                                         rel=1e-13)


def test_laplacian_power_finite_difference():
    # central differences of r^n C_{j,0,0} in 4D
    rng = np.random.default_rng(17)
    h = 1e-3
    for (n, j) in ((3.0, 1), (2.5, 0), (5.0, 2)):
        x = rng.normal(size=4) * 0.8 + np.array([0.1, 0, 0, 1.2])

        def f(pt):
            r = np.linalg.norm(pt)
            return r ** n * np.real(c_components(j, pt)[0])

        lap = 0.0
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            lap += (f(x + e) - 2 * f(x) + f(x - e)) / h ** 2
        r = np.linalg.norm(x)
        ref = laplacian_power(n, j, 1) * r ** (n - 2) \
            * np.real(c_components(j, x)[0])
        assert lap == pytest.approx(ref, rel=2e-5, abs=1e-6)


def test_b_coeff_stretched_case():
    # n = j: binomial times powers
    for j in (1, 2, 4):
        spec = ExpansionSpec(j, j, 0.3, 0.9)
        for l in range(j + 1):
            ref = math.comb(j, l) * 0.3 ** l * 0.9 ** (j - l)
            assert b_coeff(spec, l, j - l) == pytest.approx(ref, rel=1e-13)


def test_b_coeff_inverse_case():
    # n = -j-2: single surviving column lp = j + l
    for j in (0, 1, 2):
        spec = ExpansionSpec(-j - 2.0, j, 0.4, 1.1)
        for l in range(4):
            ref = ((-1.0) ** l * 0.4 ** l / 1.1 ** (j + l + 2)
                   * math.comb(j + l + 1, l))
            assert b_coeff(spec, l, j + l) == pytest.approx(ref, rel=1e-13)
            for lp in range(j + l):
                assert b_coeff(spec, l, lp) == 0.0


def test_b_coeff_j_zero_closed_form():
    # diagonal coefficients against the direct j = 0 formula
    from hsh4.special import hyp2f1, pochhammer
    for n in (2.0, -2.0, 1.5, -3.5):
        spec = ExpansionSpec(n, 0, 0.5, 1.0)
        for l in range(6):
            direct = (1.0 ** n * (-0.5) ** l / math.factorial(l)
                      * pochhammer(-n / 2.0, l)
                      * hyp2f1(-1 - n / 2.0, l - n / 2.0, l + 2, 0.25))
            assert b_coeff(spec, l, l) == pytest.approx(
                (l + 1) * direct, rel=1e-13, abs=1e-300)


def test_law_of_cosines():
    # n = 2, j = 0 reproduces |r1 + r2|^2 through the Gegenbauer identity
    spec = ExpansionSpec(2.0, 0, 0.5, 1.0)
    table = expand_translated(spec)
    assert set(table.entries) == {(0, 0), (1, 1)}
    assert table[(0, 0)] == pytest.approx(1.25)
    assert table[(1, 1)] == pytest.approx(1.0)  # 2 r1 r2
    rng = np.random.default_rng(18)
    h1, h2 = _unit(rng), _unit(rng)
    val = eval_expansion(table, 0, h1, h2)[0]
    ref = np.linalg.norm(0.5 * h1 + h2) ** 2
    assert np.real(val) == pytest.approx(ref, rel=1e-12)
    assert abs(np.imag(val)) < 1e-12


def test_generating_function_inverse_square():
    # n = -2, j = 0: coefficients of 1/(1 + 2 t cos(gamma) + t^2)
    t = 0.5
    spec = ExpansionSpec(-2.0, 0, t, 1.0, l_max=40)
    table = expand_translated(spec)
    for l in range(10):
        assert table[(l, l)] == pytest.approx((l + 1) * (-t) ** l,
                                              rel=1e-13)
    rng = np.random.default_rng(19)
    h1, h2 = _unit(rng), _unit(rng)
    cg = cos4(h1, h2)
    ref = 1.0 / (1.0 + 2.0 * t * cg + t * t)
    val = np.real(eval_expansion(table, 0, h1, h2)[0])
    assert val == pytest.approx(ref, rel=1e-10)


def test_termination_bound():
    for (n, j) in ((4.0, 0), (3.0, 1), (6.0, 2)):
        spec = ExpansionSpec(n, j, 0.7, 1.0)
        table = expand_translated(spec)
        assert table.terminated
        assert all(l + lp - j <= n - j for (l, lp) in table.entries)


def test_near_terminating_power_is_terminating():
    # n within 1e-12 of n - j even counts as terminating: the table ends
    # there, and r1 >= r2 is allowed, as for the exact integer
    for r1 in (0.5, 1.5):
        near = expand_translated(ExpansionSpec(2.0 + 1e-13, 0, r1, 1.0))
        exact = expand_translated(ExpansionSpec(2.0, 0, r1, 1.0))
        assert near.terminated and near.entries == exact.entries


def test_radial_function_reduction():
    taylor = [0.0, 0.0, 1.0]  # f(r) = r^2
    table = expand_radial_function(taylor, 2, 0.4, 1.0)
    ref = expand_translated(ExpansionSpec(2.0, 2, 0.4, 1.0))
    assert set(table.entries) == set(ref.entries)
    for key in ref.entries:
        assert table[key] == pytest.approx(ref[key], rel=1e-14)
    assert len(expand_radial_function([], 0, 0.4, 1.0).entries) == 0


def test_radial_function_exponential():
    # truncated exp series approaches the plane-wave radial coefficients
    taylor = [1.0 / math.factorial(k) for k in range(18)]
    table = expand_radial_function(taylor, 0, 0.5, 1.0, l_max=20)
    rng = np.random.default_rng(20)
    h1, h2 = _unit(rng), _unit(rng)
    r = np.linalg.norm(0.5 * h1 + h2)
    val = np.real(eval_expansion(table, 0, h1, h2)[0])
    assert val == pytest.approx(math.exp(r), rel=1e-9)


def test_csv_roundtrip_bit_exact():
    spec = ExpansionSpec(-3.0, 1, 0.5, 1.0, l_max=12)
    table = expand_translated(spec)
    text = table.to_csv()
    assert text.splitlines()[0] == "l,lp,value"
    back = CoeffTable.from_csv(text, terminated=False, j=1)
    assert set(back.entries) == set(table.entries)
    for key in table.entries:
        assert back[key] == table[key]  # 17 digits round-trip exactly


def test_json_roundtrip():
    spec = ExpansionSpec(1.0, 1, 0.5, 1.0)
    table = expand_translated(spec)
    back = CoeffTable.from_json(table.to_json())
    assert back.terminated
    assert back.spec.n == 1.0
    assert set(back.entries) == set(table.entries)


def test_empty_table_evaluates_to_zero():
    table = CoeffTable({}, True, j=0)
    assert np.all(eval_expansion(table, 0, [1, 0, 0, 0], [0, 0, 0, 1]) == 0)


def _b_coeff_mp(n, j, r1, r2, l, lp):
    """B^{(n j)}_{l lp} from the hypergeometric formula in 40-digit mpmath."""
    import mpmath
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        ka, kb = (j + l - lp) // 2, (l + lp - j) // 2
        poch = mpmath.rf((-2 - j - n) / 2, ka) * mpmath.rf((j - n) / 2, kb)
        hyp = mpmath.hyp2f1((-2 + l - lp - n) / 2, (l + lp - n) / 2, l + 2,
                            (mpmath.mpf(r1) / r2) ** 2)
        return (mpmath.power(r2, n) * (-mpmath.mpf(r1) / r2) ** l * (lp + 1)
                / (mpmath.factorial(l) * (j + 1)) * poch * hyp)


@pytest.mark.parametrize("n", [-2.0, -3.0, -2.5, 3.0, -0.5])
def test_b_coeff_high_rank_vs_mpmath(n):
    # the Pochhammer factors and l! overflow apart from l ~ 158
    for j in (0, 2):
        for l in (150, 180, 200):
            for ratio in (0.5, 0.9):
                spec = ExpansionSpec(n, j, ratio, 1.0, l_max=l)
                ref = _b_coeff_mp(n, j, ratio, 1.0, l, l + j)
                got = b_coeff(spec, l, l + j)
                assert abs((got - ref) / ref) <= 1e-9


def test_expand_translated_at_l_max_200():
    table = expand_translated(ExpansionSpec(-2.0, 0, 0.5, 1.0, l_max=200))
    # |r1 + r2|^-2 at j = 0: B_{ll} = (l + 1) (-r1/r2)^l
    assert set(table.entries) == {(l, l) for l in range(201)}
    for l in (0, 157, 158, 200):
        assert table[(l, l)] == pytest.approx((l + 1) * (-0.5) ** l,
                                              rel=1e-12)


def _b_coeff_table(spec):
    """expand_translated's entries by the b_coeff loop, in table order."""
    entries = {}
    for l in range(spec.l_max + 1):
        for lp in range(abs(spec.j - l), spec.j + l + 1, 2):
            value = b_coeff(spec, l, lp)
            if value != 0.0:
                entries[l, lp] = value
    return entries


ARRAY_TABLE_SPECS = [
    (n, j, ratio, 24)
    # terminating n >= j, whose exact zeros end the table; half-integer n;
    # and a pole order, each at r1 = 0 too
    for n, j in ((4.0, 2), (6.0, 6), (5.0, 1), (-2.5, 3), (1.5, 6), (-3.0, 0))
    for ratio in (0.0, 0.2, 0.5, 0.9)
] + [(-2.5, 2, 0.9, 200), (6.0, 4, 0.5, 200), (-0.5, 6, 0.2, 200),
     (-3.0, 1, 0.0, 200)]


@pytest.mark.parametrize("n, j, ratio, l_max", ARRAY_TABLE_SPECS)
def test_array_table_is_the_b_coeff_loop(n, j, ratio, l_max):
    spec = ExpansionSpec(n, j, ratio, 1.0, l_max=l_max)
    got = expand_translated(spec).entries
    # the same keys in the same order, and the same floats bit for bit
    assert list(got.items()) == list(_b_coeff_table(spec).items())


@pytest.mark.parametrize("spec", [
    ExpansionSpec(-2.5, 2, 0.5, 1.0, l_max=10,
                  ctl=SeriesControl(max_terms=3)),
    # converges up to l = 11, and at l = 12 not within 21 terms
    ExpansionSpec(-3.0, 4, 0.45, 1.0, l_max=30,
                  ctl=SeriesControl(max_terms=21)),
    ExpansionSpec(2, 0, 1e199, 1e200, l_max=2),  # B past the float range
    ExpansionSpec(-2000.5, 2, 0.9, 1.0, l_max=4),  # 2F1 past it
], ids=["max-terms-3", "max-terms-21", "overflow-b", "overflow-2f1"])
def test_array_table_raises_what_b_coeff_raises(spec):
    with pytest.raises((ValueError, ConvergenceError)) as scalar:
        _b_coeff_table(spec)
    with pytest.raises((ValueError, ConvergenceError)) as array:
        expand_translated(spec)
    assert array.type is scalar.type
    assert str(array.value) == str(scalar.value)


def test_eval_expansion_rejects_other_rank():
    table = expand_translated(ExpansionSpec(-3.0, 1, 0.5, 1.0, l_max=4))
    with pytest.raises(ValueError):
        eval_expansion(table, 0, [1, 0, 0, 0], [0, 0, 0, 1])
    untagged = CoeffTable(table.entries, False)
    assert untagged.j is None
    np.testing.assert_array_equal(
        eval_expansion(untagged, 1, [1, 0, 0, 0], [0, 0, 0, 1]),
        eval_expansion(table, 1, [1, 0, 0, 0], [0, 0, 0, 1]))


def test_eval_expansion_batch_columns_are_single_pairs():
    table = expand_translated(ExpansionSpec(-3, 1, 0.3, 1.0, l_max=12))
    rng = np.random.default_rng(41)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    batch = eval_expansion(table, 1, a, b)
    assert batch.shape == (4, 5)
    for i in range(5):
        single = eval_expansion(table, 1, a[i], b[i])
        assert single.shape == (4,)
        np.testing.assert_allclose(batch[:, i], single, rtol=1e-15,
                                   atol=1e-15)


@pytest.mark.parametrize("shapes", [((3, 4), (2, 4)), ((4,), (1, 4)),
                                    ((3,), (3,)), ((2, 2, 4), (2, 2, 4))])
def test_eval_expansion_rejects_mismatched_batches(shapes):
    table = expand_translated(ExpansionSpec(-2, 0, 0.3, 1.0, l_max=4))
    with pytest.raises(ValueError, match="shape"):
        eval_expansion(table, 0, np.ones(shapes[0]), np.ones(shapes[1]))
