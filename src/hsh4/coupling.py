"""O(4) coupling coefficients and bipolar harmonics.

H-type Clebsch-Gordan coefficients factor into products of two 3D CGC;
C-type ones contract a 3D CGC with a 9j symbol.  The appendix closed forms
are provided as independent cross-checks, together with the 4D 9j
recoupling coefficient and CGC-contracted bipolar harmonics.

Coefficients are memoised; the caches only ever hold pure-function results
so concurrent lookup cannot change observable values.
"""

import math
from functools import lru_cache

import numpy as np

from .angular import (_cg_entries, _triangle_ok, _wigner9j_array, cgc3,
                      wigner6j, wigner9j)
from .harmonics import (_c_index, _component_array, _h_index, c_components,
                        h_components)
from .special import _c_label, _rank, validate_jm

__all__ = [
    "cgc4_h",
    "cgc4_c",
    "cgc4_c_closed",
    "ninej4",
    "ninej4_closed",
    "bipolar",
    "bipolar_values",
    "bipolar_plan",
    "linearize_product",
    "rank_triangle_ok",
]


def rank_triangle_ok(j1, j2, j):
    """O(4) triangle rule for ranks >= 0: |j1-j2| <= j <= j1+j2, j1+j2+j even."""
    return _triangle_ok(_rank("j1", j1), _rank("j2", j2), _rank("j", j))


@lru_cache(maxsize=None)
def cgc4_h(j1, tmu1, tnu1, j2, tmu2, tnu2, j, tmu, tnu):
    """H-type O(4) CGC: product of two 3D CGC coupling the mu and nu projections.

    Exactly 0 outside the selection rules; cgc3 rejects a (j, 2mu) or (j,
    2nu) pair outside validate_jm.
    """
    cg_mu = cgc3(j1, tmu1, j2, tmu2, j, tmu)
    cg_nu = cgc3(j1, tnu1, j2, tnu2, j, tnu)
    return cg_mu * cg_nu if cg_mu and cg_nu else 0.0


@lru_cache(maxsize=None)
def _cgc4_c_reduced(j1, j2, j, lam1, lam2, lam):
    """Projection-independent part of the C-type CGC."""
    return ((j + 1.0) * math.sqrt((2.0 * lam1 + 1.0) * (2.0 * lam2 + 1.0))
            * wigner9j(j1, j2, j, j1, j2, j, 2 * lam1, 2 * lam2, 2 * lam))


@lru_cache(maxsize=None)
def cgc4_c(j1, lam1, alf1, j2, lam2, alf2, j, lam, alf):
    """C-type O(4) CGC C^{j lam alf}_{j1 lam1 alf1; j2 lam2 alf2}.

    (j+1) sqrt((2 lam1+1)(2 lam2+1)) C^{lam alf}_{lam1 alf1, lam2 alf2}
    x 9j{j1/2 j2/2 j/2; j1/2 j2/2 j/2; lam1 lam2 lam}.  Each label must
    be a C label (0 <= lam <= j, |alf| <= lam; ValueError otherwise); valid
    labels outside the triangle/parity selection rules give exactly 0.
    """
    j1, lam1, alf1 = _c_label(j1, lam1, alf1, "1")
    j2, lam2, alf2 = _c_label(j2, lam2, alf2, "2")
    j, lam, alf = _c_label(j, lam, alf)
    if not _triangle_ok(j1, j2, j):
        return 0.0
    cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
    if cg == 0.0:
        return 0.0
    return _cgc4_c_reduced(j1, j2, j, lam1, lam2, lam) * cg


def ninej4(a, b, c, d, e, f, g, h, k):
    """4D 9j recoupling coefficient: the squared halved-argument 3D 9j symbol.

    Exactly 0 when a row or column fails the triangle rule (see wigner9j).
    """
    return wigner9j(a, b, c, d, e, f, g, h, k) ** 2


def ninej4_closed(k, l, lp, j):
    """Closed form of the 4D 9j pattern [k k 0; l-k j-l+k j; l l' j].

    The ranks must be nonnegative integers with k <= l <= j + k (ValueError
    otherwise); exactly 0 when (l, l', j) fails the triangle or parity rule.
    """
    k, l, lp, j = _rank("k", k), _rank("l", l), _rank("lp", lp), _rank("j", j)
    if not k <= l <= j + k:
        raise ValueError(f"pattern needs k <= l <= j + k, got k = {k}, "
                         f"l = {l}, j = {j}")
    if (j + l + lp) % 2 != 0:
        return 0.0
    # Every Gamma argument is an integer here, so a factor with a pole or a
    # zero gives the exact 0, and the rest is one correctly rounded division
    # of exact integers, where Gamma alone overflows a float from 172.
    d = (j + l - lp) // 2
    m1 = (j - l - lp) // 2 + k
    m2 = (j - l + lp) // 2 + k + 1
    if min(d, m1, m2) < 0:
        return 0.0
    fac = math.factorial
    return (fac(k) * fac(j - l + k) * fac((j + l + lp) // 2 + 1) * fac(d)
            / (fac(l + 1) * fac(j + 1) * fac(m1) * fac(m2)
               * (k + 1) * (j + 1)))


def _sqrt_ratio(num, den):
    """sqrt(num / den) of positive ints within 1 ulp: a floored integer root
    carrying 64 extra bits, then one correctly rounded division."""
    return math.isqrt((num * den) << 128) / (den << 64)


# The cases of cgc4_c_closed, in the order the CLI tries them.
_CLOSED_CASES = ("stretched", "stretched_j1_zero_lambda", "diff",
                 "six_j_reduction", "spin1")


def cgc4_c_closed(case, j1, lam1, alf1, j2, lam2, alf2, j, lam, alf):
    """Appendix closed forms for the C-type CGC.

    case selects the pattern:
      'stretched'                j = j1 + j2, general projections
      'stretched_j1_zero_lambda' j = j1 + j2 with lam1 = alf1 = 0
      'diff'                     j = j2 - j1
      'six_j_reduction'          lam1 = alf1 = 0, arbitrary j
      'spin1'                    j1 = 1, lam1 = alf1 = 0, j = j2 -+ 1
    A query that does not match the requested pattern, or whose labels are
    not C labels, is rejected; a matching query outside the selection rules
    gives exactly 0.
    """
    if case not in _CLOSED_CASES:
        raise ValueError(f"unknown closed-form case {case!r}; expected one "
                         f"of {', '.join(_CLOSED_CASES)}")
    j1, lam1, alf1 = _c_label(j1, lam1, alf1, "1")
    j2, lam2, alf2 = _c_label(j2, lam2, alf2, "2")
    j, lam, alf = _c_label(j, lam, alf)
    # The stretched and diff prefactors are square roots of exact ratios of
    # factorials, rounded once.
    fac = math.factorial
    if case == "stretched":
        if j != j1 + j2:
            raise ValueError("'stretched' needs j = j1 + j2")
        cg_par = cgc3(2 * lam1, 0, 2 * lam2, 0, 2 * lam, 0)
        cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
        if cg_par == 0.0 or cg == 0.0:
            return 0.0
        return cg_par * cg * _sqrt_ratio(
            (fac(j1) * fac(j2)) ** 2 * fac(j + lam + 1) * fac(j - lam)
            * (2 * lam1 + 1) * (2 * lam2 + 1),
            fac(j) ** 2 * fac(j1 + lam1 + 1) * fac(j1 - lam1)
            * fac(j2 + lam2 + 1) * fac(j2 - lam2) * (2 * lam + 1))

    if case == "stretched_j1_zero_lambda":
        if j != j1 + j2 or lam1 != 0 or alf1 != 0:
            raise ValueError("'stretched_j1_zero_lambda' needs j = j1 + j2, "
                             "lam1 = alf1 = 0")
        if lam != lam2 or alf != alf2:
            return 0.0
        return _sqrt_ratio(
            fac(j2) ** 2 * fac(j + lam + 1) * fac(j - lam),
            fac(j) ** 2 * (j1 + 1) * fac(j2 + lam + 1) * fac(j2 - lam))

    if case == "diff":
        if j != j2 - j1:
            raise ValueError("'diff' needs j = j2 - j1")
        cg_par = cgc3(2 * lam, 0, 2 * lam1, 0, 2 * lam2, 0)
        cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
        if cg_par == 0.0 or cg == 0.0:
            return 0.0
        return cg_par * cg * _sqrt_ratio(
            (fac(j1) * fac(j + 1)) ** 2 * fac(j2 + lam2 + 1) * fac(j2 - lam2)
            * (2 * lam1 + 1),
            fac(j2 + 1) ** 2 * fac(j1 + lam1 + 1) * fac(j1 - lam1)
            * fac(j + lam + 1) * fac(j - lam))

    if case == "six_j_reduction":
        if lam1 != 0 or alf1 != 0:
            raise ValueError("'six_j_reduction' needs lam1 = alf1 = 0")
        if lam != lam2 or alf != alf2 or not _triangle_ok(j1, j2, j):
            return 0.0
        phase = (-1.0) ** (lam + (j1 + j2 + j) // 2)
        return (phase * (j + 1.0) / math.sqrt(j1 + 1.0)
                * wigner6j(2 * lam, j, j, j1, j2, j2))

    # case == "spin1", the last of _CLOSED_CASES.
    if j1 != 1 or lam1 != 0 or alf1 != 0 or abs(j - j2) != 1:
        raise ValueError("'spin1' needs j1 = 1, lam1 = alf1 = 0, j = j2 -+ 1")
    if lam != lam2 or alf != alf2:
        return 0.0
    if j == j2 - 1:
        return (math.sqrt((j2 - lam) * (j2 + lam + 1.0))
                / ((j2 + 1.0) * math.sqrt(2.0)))
    return (math.sqrt((j2 - lam + 1.0) * (j2 + lam + 2.0))
            / ((j2 + 1.0) * math.sqrt(2.0)))


@lru_cache(maxsize=None)
def bipolar_plan(family, j1, j2, j):
    """Sparse contraction plan for {X_{j1}(a) (x) X_{j2}(b)}_j.

    Returns (i1, i2, iout, coeff) integer/float arrays over all nonzero
    CGC, with i1, i2, iout flat component indices of the two inner and the
    outer harmonic arrays.  The coefficients come from the array forms of
    the Racah sums, so they equal cgc4_h / cgc4_c up to rounding.  The plan
    is empty outside the triangle rule; a negative or non-integer rank
    raises ValueError.
    """
    if family not in ("h", "c"):
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    j1, j2, j = _rank("j1", j1), _rank("j2", j2), _rank("j", j)
    if not _triangle_ok(j1, j2, j):
        return (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=np.intp), np.zeros(0))
    if family == "h":
        i1, i2, iout, coeff = _h_plan(j1, j2, j)
    else:
        i1, i2, iout, coeff = _c_plan(j1, j2, j)
    keep = coeff != 0.0
    return (np.asarray(i1[keep], dtype=np.intp),
            np.asarray(i2[keep], dtype=np.intp),
            np.asarray(iout[keep], dtype=np.intp), coeff[keep])


def _h_plan(j1, j2, j):
    """cgc4_h = CG_mu CG_nu, so the plan is the CG column's outer product."""
    _, tmu1, tmu2, col = _cg_entries(j1, j2, j)
    # Row p of the outer product couples mu; column q couples nu.
    p, q = np.divmod(np.arange(len(col) ** 2), len(col))
    return (_h_index(j1, tmu1[p], tmu1[q]),
            _h_index(j2, tmu2[p], tmu2[q]),
            _h_index(j, tmu1[p] + tmu2[p], tmu1[q] + tmu2[q]),
            col[p] * col[q])


def _c_plan(j1, j2, j):
    """Every (lam1, lam2, lam) block's reduced factor in one 9j call, times
    the 3D CGC (lam1, alf1; lam2, alf2 | lam, alf) of all blocks at once.
    Blocks run lam-major, so the plan lists its entries by outer lam."""
    lam, lam1, lam2 = (x.ravel() for x in np.meshgrid(
        np.arange(j + 1), np.arange(j1 + 1), np.arange(j2 + 1),
        indexing="ij"))
    block = _triangle_ok(lam1, lam2, lam)
    lam1, lam2, lam = lam1[block], lam2[block], lam[block]
    reduced = ((j + 1.0) * np.sqrt((2.0 * lam1 + 1.0) * (2.0 * lam2 + 1.0))
               * _wigner9j_array(j1, j2, j, j1, j2, j,
                                 2 * lam1, 2 * lam2, 2 * lam))
    blk, talf1, talf2, cg = _cg_entries(2 * lam1, 2 * lam2, 2 * lam)
    return (_c_index(lam1[blk], talf1 // 2), _c_index(lam2[blk], talf2 // 2),
            _c_index(lam[blk], (talf1 + talf2) // 2), reduced[blk] * cg)


def bipolar_values(family, j1, j2, j, comps1, comps2):
    """All outer components of {X_{j1} (x) X_{j2}}_j from component arrays.

    comps1/comps2 may carry trailing axes (e.g. one column per evaluation
    point); the output has shape ((j+1)**2, *trailing).  It is exactly 0
    outside the triangle rule; bipolar_plan rejects a bad family or rank,
    and a component array whose leading length is not (j+1)^2 of its rank
    raises ValueError.
    """
    i1, i2, iout, coeff = bipolar_plan(family, j1, j2, j)
    comps1 = _component_array(j1, comps1, "comps1")
    comps2 = _component_array(j2, comps2, "comps2")
    trailing = comps1.shape[1:]
    j = _rank("j", j)
    out = np.zeros(((j + 1) ** 2,) + trailing, dtype=complex)
    if len(coeff):
        c = coeff.reshape((-1,) + (1,) * len(trailing))
        np.add.at(out, iout, c * comps1[i1] * comps2[i2])
    return out


def bipolar(family, j1, j2, j, a, b):
    """Bipolar harmonic component array {X_{j1}(a-hat) (x) X_{j2}(b-hat)}_j."""
    comps = h_components if family == "h" else c_components
    return bipolar_values(family, j1, j2, j, comps(j1, a), comps(j2, b))


def linearize_product(family, j1, idx1, j2, idx2, v):
    """Terms of the product expansion X_{j1,idx1} X_{j2,idx2} at v-hat.

    idx pairs are (2mu, 2nu) for the H family and (lam, alpha) for the C
    family.  Returns a list of (j, idx, coefficient, harmonic_value); the
    sum of coefficient * harmonic_value reproduces the pointwise product.
    Labels outside their domain raise ValueError.
    """
    if family not in ("h", "c"):
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    (p1, q1), (p2, q2) = idx1, idx2
    if family == "h":
        (j1, p1), (_, q1) = validate_jm(j1, p1, "1"), validate_jm(j1, q1, "1")
        (j2, p2), (_, q2) = validate_jm(j2, p2, "2"), validate_jm(j2, q2, "2")
    else:
        j1, p1, q1 = _c_label(j1, p1, q1, "1")
        j2, p2, q2 = _c_label(j2, p2, q2, "2")
    terms = []
    for j in range(abs(j1 - j2), j1 + j2 + 1, 2):
        comps = (h_components if family == "h" else c_components)(j, v)
        if family == "h":
            tmu = p1 + p2
            tnu = q1 + q2
            if abs(tmu) > j or abs(tnu) > j:
                continue
            c = cgc4_h(j1, p1, q1, j2, p2, q2, j, tmu, tnu)
            if c != 0.0:
                terms.append((j, (tmu, tnu), c,
                              complex(comps[_h_index(j, tmu, tnu)])))
        else:
            alf = q1 + q2
            for lam in range(abs(alf), j + 1):
                c = cgc4_c(j1, p1, q1, j2, p2, q2, j, lam, alf)
                if c != 0.0:
                    terms.append((j, (lam, alf), c,
                                  complex(comps[_c_index(lam, alf)])))
    return terms
