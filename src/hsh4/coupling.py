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

from .angular import (_cgc3_array, _wigner9j_array, cgc3, wigner6j,
                      wigner9j)
from .harmonics import (c_components, c_flat_index, h_components,
                        h_flat_index)
from .special import log_factorial

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
]


def rank_triangle_ok(j1, j2, j):
    """O(4) triangle rule: |j1-j2| <= j <= j1+j2 with j1+j2+j even."""
    return abs(j1 - j2) <= j <= j1 + j2 and (j1 + j2 + j) % 2 == 0


@lru_cache(maxsize=None)
def cgc4_h(j1, tmu1, tnu1, j2, tmu2, tnu2, j, tmu, tnu):
    """H-type O(4) CGC: product of two 3D CGC coupling the mu and nu projections."""
    if not rank_triangle_ok(j1, j2, j):
        return 0.0
    return (cgc3(j1, tmu1, j2, tmu2, j, tmu)
            * cgc3(j1, tnu1, j2, tnu2, j, tnu))


@lru_cache(maxsize=None)
def _cgc4_c_reduced(j1, j2, j, lam1, lam2, lam):
    """Projection-independent part of the C-type CGC."""
    return ((j + 1.0) * math.sqrt((2.0 * lam1 + 1.0) * (2.0 * lam2 + 1.0))
            * wigner9j(j1, j2, j, j1, j2, j, 2 * lam1, 2 * lam2, 2 * lam))


@lru_cache(maxsize=None)
def cgc4_c(j1, lam1, alf1, j2, lam2, alf2, j, lam, alf):
    """C-type O(4) CGC C^{j lam alf}_{j1 lam1 alf1; j2 lam2 alf2}.

    (j+1) sqrt((2 lam1+1)(2 lam2+1)) C^{lam alf}_{lam1 alf1, lam2 alf2}
    x 9j{j1/2 j2/2 j/2; j1/2 j2/2 j/2; lam1 lam2 lam}.  Zero outside the
    triangle/parity selection rules.
    """
    if not rank_triangle_ok(j1, j2, j):
        return 0.0
    if not (0 <= lam1 <= j1 and 0 <= lam2 <= j2 and 0 <= lam <= j):
        return 0.0
    for a, lm in ((alf1, lam1), (alf2, lam2), (alf, lam)):
        if abs(a) > lm:
            raise ValueError(f"invalid projection alpha = {a} for "
                             f"lambda = {lm}: need |alpha| <= lambda")
    cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
    if cg == 0.0:
        return 0.0
    return _cgc4_c_reduced(j1, j2, j, lam1, lam2, lam) * cg


def ninej4(a, b, c, d, e, f, g, h, k):
    """4D 9j recoupling coefficient: the squared halved-argument 3D 9j symbol."""
    return wigner9j(a, b, c, d, e, f, g, h, k) ** 2


def ninej4_closed(k, l, lp, j):
    """Closed form of the 4D 9j pattern [k k 0; l-k j-l+k j; l l' j]."""
    if k < 0 or not 0 <= k <= l or j - l + k < 0:
        raise ValueError("invalid pattern arguments")
    if (j + l + lp) % 2 != 0 or lp < 0:
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


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


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
    A query that does not match the requested pattern is rejected.
    """
    if case not in _CLOSED_CASES:
        raise ValueError(f"unknown closed-form case {case!r}; expected one "
                         f"of {', '.join(_CLOSED_CASES)}")
    if case == "stretched":
        _require(j == j1 + j2, "'stretched' needs j = j1 + j2")
        cg_par = cgc3(2 * lam1, 0, 2 * lam2, 0, 2 * lam, 0)
        cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
        if cg_par == 0.0 or cg == 0.0:
            return 0.0
        log_ratio = (log_factorial(j1) + log_factorial(j2)
                     - log_factorial(j1 + j2))
        log_root = 0.5 * (log_factorial(j1 + j2 + lam + 1)
                          + log_factorial(j1 + j2 - lam)
                          + math.log(2.0 * lam1 + 1.0)
                          + math.log(2.0 * lam2 + 1.0)
                          - log_factorial(j1 + lam1 + 1)
                          - log_factorial(j1 - lam1)
                          - log_factorial(j2 + lam2 + 1)
                          - log_factorial(j2 - lam2)
                          - math.log(2.0 * lam + 1.0))
        return cg_par * cg * math.exp(log_ratio + log_root)

    if case == "stretched_j1_zero_lambda":
        _require(j == j1 + j2 and lam1 == 0 and alf1 == 0,
                 "'stretched_j1_zero_lambda' needs j = j1 + j2, lam1 = alf1 = 0")
        if lam != lam2 or alf != alf2:
            return 0.0
        log_val = (log_factorial(j2) - log_factorial(j1 + j2)
                   + 0.5 * (log_factorial(j1 + j2 + lam + 1)
                            + log_factorial(j1 + j2 - lam)
                            - math.log(j1 + 1.0)
                            - log_factorial(j2 + lam + 1)
                            - log_factorial(j2 - lam)))
        return math.exp(log_val)

    if case == "diff":
        _require(j == j2 - j1, "'diff' needs j = j2 - j1")
        cg_par = cgc3(2 * lam, 0, 2 * lam1, 0, 2 * lam2, 0)
        cg = cgc3(2 * lam1, 2 * alf1, 2 * lam2, 2 * alf2, 2 * lam, 2 * alf)
        if cg_par == 0.0 or cg == 0.0:
            return 0.0
        log_ratio = (log_factorial(j1) + log_factorial(j2 - j1 + 1)
                     - log_factorial(j2 + 1))
        log_root = 0.5 * (log_factorial(j2 + lam2 + 1)
                          + log_factorial(j2 - lam2)
                          + math.log(2.0 * lam1 + 1.0)
                          - log_factorial(j1 + lam1 + 1)
                          - log_factorial(j1 - lam1)
                          - log_factorial(j2 - j1 + lam + 1)
                          - log_factorial(j2 - j1 - lam))
        return cg_par * cg * math.exp(log_ratio + log_root)

    if case == "six_j_reduction":
        _require(lam1 == 0 and alf1 == 0,
                 "'six_j_reduction' needs lam1 = alf1 = 0")
        if lam != lam2 or alf != alf2 or not rank_triangle_ok(j1, j2, j):
            return 0.0
        phase = (-1.0) ** (lam + (j1 + j2 + j) // 2)
        return (phase * (j + 1.0) / math.sqrt(j1 + 1.0)
                * wigner6j(2 * lam, j, j, j1, j2, j2))

    # case == "spin1", the last of _CLOSED_CASES.
    _require(j1 == 1 and lam1 == 0 and alf1 == 0 and abs(j - j2) == 1,
             "'spin1' needs j1 = 1, lam1 = alf1 = 0, j = j2 -+ 1")
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
    the Racah sums, so they equal cgc4_h / cgc4_c up to rounding.
    """
    if family not in ("h", "c"):
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    if not rank_triangle_ok(j1, j2, j):
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
    tmu1, tmu2 = np.meshgrid(np.arange(-j1, j1 + 1, 2),
                             np.arange(-j2, j2 + 1, 2), indexing="ij")
    tmu1, tmu2 = tmu1.ravel(), tmu2.ravel()
    col = _cgc3_array(j1, tmu1, j2, tmu2, j, tmu1 + tmu2)
    nz = col != 0.0
    tmu1, tmu2, col = tmu1[nz], tmu2[nz], col[nz]
    # Row p of the outer product couples mu; column q couples nu.
    p = np.repeat(np.arange(len(col)), len(col))
    q = np.tile(np.arange(len(col)), len(col))
    return (h_flat_index(j1, tmu1[p], tmu1[q]),
            h_flat_index(j2, tmu2[p], tmu2[q]),
            h_flat_index(j, tmu1[p] + tmu2[p], tmu1[q] + tmu2[q]),
            col[p] * col[q])


def _c_plan(j1, j2, j):
    """Every (lam1, lam2, lam) block's reduced factor in one 9j call, then
    the 3D CGC of all (lam1, alf1; lam2, alf2 | lam, alf) one lam at a time."""
    lam1, lam2, lam = np.meshgrid(np.arange(j1 + 1), np.arange(j2 + 1),
                                  np.arange(j + 1), indexing="ij")
    block = (np.abs(lam1 - lam2) <= lam) & (lam <= lam1 + lam2) \
        & ((lam1 + lam2 + lam) % 2 == 0)
    lam1, lam2, lam = lam1[block], lam2[block], lam[block]
    reduced = ((j + 1.0) * np.sqrt((2.0 * lam1 + 1.0) * (2.0 * lam2 + 1.0))
               * _wigner9j_array(j1, j2, j, j1, j2, j,
                                 2 * lam1, 2 * lam2, 2 * lam))
    alf1 = np.arange(-j1, j1 + 1)
    parts = []
    for lam_out in range(j + 1):
        b = np.flatnonzero(lam == lam_out)
        alf = np.arange(-lam_out, lam_out + 1)
        # Axes (block, alf, alf1); a live slot has |alf1| <= lam1 and
        # |alf - alf1| <= lam2.
        live = ((np.abs(alf1) <= lam1[b, None, None])
                & (np.abs(alf[:, None] - alf1) <= lam2[b, None, None]))
        bi, ai, a1i = np.nonzero(live)
        blk, a, a1 = b[bi], alf[ai], alf1[a1i]
        l1, l2 = lam1[blk], lam2[blk]
        cg = _cgc3_array(2 * l1, 2 * a1, 2 * l2, 2 * (a - a1),
                         2 * lam_out, 2 * a)
        parts.append((c_flat_index(l1, a1), c_flat_index(l2, a - a1),
                      c_flat_index(lam_out, a), reduced[blk] * cg))
    return tuple(np.concatenate(x) for x in zip(*parts))


def bipolar_values(family, j1, j2, j, comps1, comps2):
    """All outer components of {X_{j1} (x) X_{j2}}_j from component arrays.

    comps1/comps2 may carry trailing axes (e.g. one column per evaluation
    point); the output has shape ((j+1)**2, *trailing).
    """
    comps1 = np.asarray(comps1)
    comps2 = np.asarray(comps2)
    trailing = comps1.shape[1:]
    if not rank_triangle_ok(j1, j2, j):
        return np.zeros(((j + 1) ** 2,) + trailing, dtype=complex)
    i1, i2, iout, coeff = bipolar_plan(family, j1, j2, j)
    out = np.zeros(((j + 1) ** 2,) + trailing, dtype=complex)
    if len(coeff):
        c = coeff.reshape((-1,) + (1,) * len(trailing))
        np.add.at(out, iout, c * comps1[i1] * comps2[i2])
    return out


def bipolar(family, j1, j2, j, a, b):
    """Bipolar harmonic component array {X_{j1}(a-hat) (x) X_{j2}(b-hat)}_j."""
    if family == "h":
        comps1, comps2 = h_components(j1, a), h_components(j2, b)
    elif family == "c":
        comps1, comps2 = c_components(j1, a), c_components(j2, b)
    else:
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    return bipolar_values(family, j1, j2, j, comps1, comps2)


def linearize_product(family, j1, idx1, j2, idx2, v):
    """Terms of the product expansion X_{j1,idx1} X_{j2,idx2} at v-hat.

    idx pairs are (2mu, 2nu) for the H family and (lam, alpha) for the C
    family.  Returns a list of (j, idx, coefficient, harmonic_value); the
    sum of coefficient * harmonic_value reproduces the pointwise product.
    """
    if family not in ("h", "c"):
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    terms = []
    for j in range(abs(j1 - j2), j1 + j2 + 1, 2):
        comps = (h_components if family == "h" else c_components)(j, v)
        if family == "h":
            tmu = idx1[0] + idx2[0]
            tnu = idx1[1] + idx2[1]
            if abs(tmu) > j or abs(tnu) > j:
                continue
            c = cgc4_h(j1, idx1[0], idx1[1], j2, idx2[0], idx2[1],
                       j, tmu, tnu)
            if c != 0.0:
                terms.append((j, (tmu, tnu), c,
                              complex(comps[h_flat_index(j, tmu, tnu)])))
        else:
            alf = idx1[1] + idx2[1]
            for lam in range(abs(alf), j + 1):
                c = cgc4_c(j1, idx1[0], idx1[1], j2, idx2[0], idx2[1],
                           j, lam, alf)
                if c != 0.0:
                    terms.append((j, (lam, alf), c,
                                  complex(comps[c_flat_index(lam, alf)])))
    return terms
