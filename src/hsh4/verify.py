"""Independent numerical oracles and the orthogonality suite.

The quadrature oracles deliberately avoid the analytic evaluation paths of
the sibling modules: harmonics are rebuilt from scipy's Gegenbauer and
spherical-harmonic routines, and expansion coefficients are recovered by
projection integrals rather than hypergeometric series.  Agreement between
the two routes is the package's primary self-check.

A C harmonic is a radial factor of theta0 (one broadcast eval_gegenbauer
call over (j, lam)) times an angular factor (one sph_harm_y call over
(lam, alpha)); on the product grids the Gram separates into a theta0 Gram
of the radial factors times a (theta, phi) Gram of the angular ones.  The
projection pins x1 to a meridian and sums x2 over the grid's (theta0,
theta) factors refined twofold and fourfold; the two values must agree.
"""

import math

import numpy as np
from scipy.special import (eval_chebyu, eval_gegenbauer, eval_legendre,
                           gammaln, sph_harm_y)

from .coupling import bipolar_plan
from .harmonics import c_flat_index, h_to_c_matrix
from .multipole import _check_tol, _integer, check_entry

__all__ = [
    "QuadratureGrid", "build_grid", "gram_matrix", "orthogonality_report",
    "project_multipole",
]

_S3_VOLUME = 2.0 * math.pi ** 2


class QuadratureGrid:
    """Product quadrature grid over S^3 in hyperangles (theta0, theta, phi).

    The three factors integrate the measure sin^2(theta0) dtheta0
    sin(theta) dtheta dphi: Gauss-Chebyshev (second kind) in cos(theta0),
    Gauss-Legendre in cos(theta), uniform trapezoid in phi.
    """

    def __init__(self, theta0, w0, theta, w1, phi, w2, exact_degree):
        self.theta0 = theta0
        self.w0 = w0
        self.theta = theta
        self.w1 = w1
        self.phi = phi
        self.w2 = w2
        self.exact_degree = exact_degree
        self.shape = (len(theta0), len(theta), len(phi))

    @property
    def size(self):
        return len(self.theta0) * len(self.theta) * len(self.phi)

    @property
    def weights(self):
        """Flat array of node weights (outer product order)."""
        return np.einsum("i,j,k->ijk", self.w0, self.w1, self.w2).ravel()

    def vectors(self):
        """Flat (N, 4) array of unit vectors (x, y, z, z0)."""
        t0, t, p = np.meshgrid(self.theta0, self.theta, self.phi,
                               indexing="ij")
        s0 = np.sin(t0)
        return np.column_stack([
            (s0 * np.sin(t) * np.cos(p)).ravel(),
            (s0 * np.sin(t) * np.sin(p)).ravel(),
            (s0 * np.cos(t)).ravel(),
            np.cos(t0).ravel(),
        ])

    def integrate(self, values):
        """Integrate flat node values against the grid weights."""
        return np.sum(self.weights * np.asarray(values))


def _chebyshev2(n):
    """Gauss-Chebyshev (2nd kind) theta0 nodes and weights, exact to 2n - 1."""
    k = np.arange(1, n + 1)
    w0 = np.pi / (n + 1) * np.sin(k * np.pi / (n + 1)) ** 2
    return np.arccos(np.cos(k * np.pi / (n + 1))), w0


def build_grid(n0, n1, n2):
    """Product grid with n0 x n1 x n2 nodes; total weight is exactly 2 pi^2."""
    if min(n0, n1, n2) < 1:
        raise ValueError("node counts must be positive")
    theta0, w0 = _chebyshev2(n0)
    x1, w1 = np.polynomial.legendre.leggauss(n1)
    theta = np.arccos(x1)
    phi = 2.0 * np.pi * np.arange(n2) / n2
    w2 = np.full(n2, 2.0 * np.pi / n2)
    exact_degree = min(2 * n0 - 1, 2 * n1 - 1, n2 - 1)
    return QuadratureGrid(theta0, w0, theta, w1, phi, w2, exact_degree)


def _radial(j, lam, theta0):
    """(-i)^lam sqrt((2 lam+1)/(j+1)) chi^{j/2}_lam(2 theta0), lam <= j.

    Broadcast over integer arrays j and lam and the array theta0.  The norm
    of chi, 2^lam lam! sqrt((j+1) (j-lam)!/(j+lam+1)!), rides in one gammaln
    exponent with the prefactor: (2 lam)!! alone overflows from lam ~ 151.
    """
    log_norm = (lam * math.log(2.0) + gammaln(lam + 1.0) + 0.5 * (
        np.log(2.0 * lam + 1.0) + gammaln(j - lam + 1.0)
        - gammaln(j + lam + 2.0)))
    # (-i)^lam is read off lam mod 4, so it is exact.
    return (np.array([1.0, -1j, -1.0, 1j])[lam % 4] * np.exp(log_norm)
            * np.sin(theta0) ** lam
            * eval_gegenbauer(j - lam, lam + 1.0, np.cos(theta0)))


def _angular(lam_max, theta, phi):
    """Column lam and rows sqrt(4 pi/(2 lam+1)) Y_{lam alpha}(theta, phi).

    Row lam^2 + lam + alpha holds (lam, alpha), lam <= lam_max.
    """
    k = np.arange((lam_max + 1) ** 2)[:, None]
    lam = np.sqrt(k).astype(np.intp)
    return lam, (np.sqrt(4.0 * np.pi / (2 * lam + 1))
                 * sph_harm_y(lam, k - lam * (lam + 1), theta, phi))


def c_harmonics_at_vectors(j, vecs):
    """C-family values at an (N, 4) array of nonzero, finite 4-vectors."""
    vecs = np.asarray(vecs, dtype=float)
    if not (np.isfinite(vecs).all() and np.any(vecs, axis=-1).all()):
        raise ValueError("zero or non-finite vector has no direction")
    x, y, z, z0 = np.moveaxis(vecs, -1, 0)
    rho_xy = np.hypot(x, y)
    theta0 = np.arctan2(np.hypot(rho_xy, z), z0)
    lam, ang = _angular(j, np.arctan2(rho_xy, z).ravel(),
                        np.arctan2(y, x).ravel())
    radial = _radial(j, np.arange(j + 1)[:, None], theta0.ravel())
    return (radial[lam[:, 0]] * ang).reshape((-1,) + theta0.shape)


def _h_blockdiag_transform(G, j_max):
    """Conjugate a C-family Gram into the H family: T^T G T, T = diag(T_j)."""
    T = np.zeros(G.shape)
    row = 0
    for j in range(j_max + 1):
        d = (j + 1) ** 2
        T[row:row + d, row:row + d] = h_to_c_matrix(j)
        row += d
    return T.T @ G @ T


def gram_matrix(j_max, grid):
    """Pairwise overlap integrals of all C harmonics with j <= j_max.

    On the product grid, C_{j lam alpha} = R_{j lam}(theta0) A_{lam alpha}
    (theta, phi) separates the sum exactly: G = Rg[(j, lam), (j', lam')]
    Ag[(lam, alpha), (lam', alpha')], with Rg the theta0 sum of w0 R conj(R)
    and Ag the (theta, phi) sum of w1 w2 A conj(A).
    """
    ranks = np.arange(j_max + 1)
    j = np.repeat(ranks, (ranks + 1) ** 2)
    # Rank j's rows start after sum_{r<j} (r+1)^2 = j (j+1) (2j+1)/6 others.
    k = np.arange(len(j)) - j * (j + 1) * (2 * j + 1) // 6
    t, p = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    lam, A = _angular(j_max, t.ravel(), p.ravel())
    R = _radial(j[:, None], lam[k], grid.theta0)
    Ag = (A * np.outer(grid.w1, grid.w2).ravel()) @ A.conj().T
    return ((R * grid.w0) @ R.conj().T) * Ag[np.ix_(k, k)]


def orthogonality_report(j_max, grid, tol=1e-10):
    """Overlap matrices of both families against 2 pi^2/(j+1) deltas.

    Returns (checks, grams): a list of JSON-ready check records and the raw
    Gram matrices per family.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    _check_tol(tol)
    sizes = [(j + 1) ** 2 for j in range(j_max + 1)]
    diag_expected = np.concatenate(
        [np.full(d, _S3_VOLUME / (j + 1)) for j, d in enumerate(sizes)])
    G = gram_matrix(j_max, grid)
    grams = {"c": G, "h": _h_blockdiag_transform(G, j_max)}
    checks = []
    for family, G in grams.items():
        diag = np.real(np.diag(G))
        off = G - np.diag(np.diag(G))
        checks.append(check_entry(
            f"orthogonality-diagonal-{family}",
            {"j_max": j_max, "grid": list(grid.shape)},
            0.0, float(np.max(np.abs(diag - diag_expected))), tol))
        checks.append(check_entry(
            f"orthogonality-offdiagonal-{family}",
            {"j_max": j_max, "grid": list(grid.shape)},
            0.0, float(np.max(np.abs(off))), tol))
    return checks, grams


def _kernel_component(n, j, r2sq, z0):
    """r^n C_{j,0,0}(r-hat) from squared lengths and fourth components.

    For lam = 0 the harmonic is the Chebyshev polynomial of the second
    kind, C_{j,0,0} = U_j(cos theta0)/(j+1)^(1/2), taken from scipy's
    eval_chebyu at integer order: kernel arrays take no transcendental
    beyond one root and one power, and no recurrence of the analytic route.
    """
    return (r2sq ** (0.5 * n) * eval_chebyu(j, z0 / np.sqrt(r2sq))
            / math.sqrt(j + 1.0))


# The benchmark's oracle workload clears this dict by name before each op;
# the projection keeps no state, so it stays empty.
_PROJ_CACHE = {}


def _project_one(n, j, r1, r2, l, lp, x2):
    # x1 runs over meridian points p = (0, 0, sin theta0, cos theta0), the
    # poles of their 2-spheres, where only the alpha = 0 harmonics are
    # nonzero; with the (0, 0) output, alpha2 = 0 and lam2 = lam1 as well.
    i1, _, iout, coeff = bipolar_plan("c", l, lp, j)
    lam = np.sqrt(i1).astype(np.intp)
    sel = (iout == c_flat_index(0, 0)) & (i1 == c_flat_index(lam, 0))
    if not sel.any():
        return 0.0
    # Integrated exactly over x2, the meridian integrand is a polynomial of
    # degree <= l + lp + j in cos theta0, so this rule is exact for it.
    theta0, w0 = _chebyshev2((l + lp + j) // 2 + 1)
    s0, c0 = np.sin(theta0)[:, None, None], np.cos(theta0)[:, None, None]
    # Against p, x2 enters only through z = sin t0 cos t and z0 = cos t0, so
    # its azimuth drops out and x2 runs over the (t0, t) nodes of the rule.
    t0, ct = x2.theta0[:, None], np.cos(x2.theta)
    z, z0 = np.sin(t0) * ct, np.cos(t0)
    # b[i, k, m]: (0, 0) component of {C_l(p_i) (x) C_lp(x2_km)}_j, from the
    # alpha = 0 rows alone: C_{lam 0}(theta, phi) = P_lam(cos theta), and
    # theta = 0 at p_i.
    lam = lam[sel, None]
    b = np.einsum("li,lk,lm->ikm", coeff[sel, None] * _radial(l, lam, theta0),
                  _radial(lp, lam, x2.theta0), eval_legendre(lam, ct))
    f = _kernel_component(n, j, r1 * r1 + r2 * r2 + 2.0 * r1 * r2
                          * (s0 * z + c0 * z0), r1 * c0 + r2 * z0)
    # Node i stands for its whole (theta, phi) orbit and each x2 node for
    # its phi circle: constant factors that cancel in the ratio.
    wb = w0[:, None, None] * np.outer(x2.w0, x2.w1) * b.conj()
    return float(np.real(np.sum(wb * f) / np.sum(wb * b)))


def project_multipole(n, j, r1, r2, l, lp, grid=None, seeds=(7, 19),
                      agree_tol=1e-8):
    """Recover B^{(n j)}_{l lp} by quadrature, independent of b_coeff.

    The kernel r^n C_j(r-hat), r = r1 x1 + r2 x2, is projected onto the
    conjugated (j, 0, 0) component of the bipolar harmonic
    {C_l(x1) (x) C_lp(x2)}_j and normalized by that component's numerically
    integrated squared norm.  Both are invariant under the rotations that
    fix e4, applied to x1 and x2 at once, so x1 is pinned to one meridian
    point per node of an exact Gauss-Chebyshev rule in theta0, weighted by
    its orbit.  Against that point both read x2 only through its theta0 and
    theta, so x2 runs over the 2-D (theta0, theta) factors of grid, refined
    twofold: build_grid(2 n0, 2 n1, 1).  The phi count n2 is not read.

    The same rule at 4 n0 x 4 n1 gives the returned value.  Both values must
    be finite and agree to agree_tol / 10 (relative to max(1, |B|)), or a
    RuntimeError flags the grid as too coarse.

    seeds is not read; it is kept only for the benchmark's oracle workload,
    which passes it, until that benchmark changes.

    Negative or non-integer ranks raise ValueError; a pair outside the
    triangle rule gives exactly 0.0.
    """
    if not all(math.isfinite(x) for x in (n, r1, r2)):
        raise ValueError(f"n, r1 and r2 must be finite, got "
                         f"{n!r}, {r1!r}, {r2!r}")
    j, l, lp = (_integer(f"rank {name}", v)
                for name, v in (("j", j), ("l", l), ("lp", lp)))
    if min(j, l, lp) < 0:
        raise ValueError(f"ranks j, l, lp must be nonnegative, got "
                         f"{j}, {l}, {lp}")
    if r1 >= r2:
        raise ValueError("projection requires r1 < r2")
    if grid is None:
        grid = build_grid(18, 18, 37)
    n0, n1, _ = grid.shape
    coarse, fine = (_project_one(n, j, r1, r2, l, lp,
                                 build_grid(k * n0, k * n1, 1))
                    for k in (2, 4))
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise RuntimeError(f"projection rules gave non-finite values "
                           f"{coarse}, {fine}")
    miss = abs(fine - coarse)
    # Written so that a NaN agree_tol fails the gate too.
    if not 10.0 * miss <= agree_tol * max(1.0, abs(fine)):
        raise RuntimeError(
            f"nested projection rules disagree by {miss:.3e}; "
            f"grid too coarse")
    return fine
