"""Independent numerical oracles and the named verification suites.

The quadrature oracles deliberately avoid the analytic evaluation paths of
the sibling modules: harmonics are rebuilt from scipy's Gegenbauer and
spherical-harmonic routines, and expansion coefficients are recovered by
projection integrals rather than hypergeometric series.  Agreement between
the two routes is the package's primary self-check.

The suites behind ``hsh4 verify`` live here as well.  The orthogonality
suite integrates the scipy route; the coupling and expansion suites instead
cross-check analytic closed forms against each other (CGC orthogonality and
appendix cases, multipole tables against the translated kernel itself).
"""

import math

import numpy as np
from scipy.special import eval_gegenbauer, sph_harm_y

from .coupling import bipolar_plan, cgc4_c, cgc4_c_closed
from .harmonics import c_components, c_flat_index, h_to_c_matrix
from .multipole import ExpansionSpec, eval_expansion, expand_translated

__all__ = [
    "QuadratureGrid", "build_grid", "gram_matrix", "orthogonality_report",
    "project_multipole", "check_entry", "expansion_checks", "coupling_checks",
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


def _chi(j, lam, theta0):
    """Generalised character chi^{j/2}_lam(2 theta0) via scipy Gegenbauer."""
    # ln (2 lam)!! = lam ln 2 + ln lam! rides in the exponent with the
    # factorial ratio; the double factorial alone overflows from lam ~ 151.
    norm = math.sqrt(j + 1.0) * math.exp(
        lam * math.log(2.0) + math.lgamma(lam + 1)
        + 0.5 * (math.lgamma(j - lam + 1) - math.lgamma(j + lam + 2)))
    return (norm * np.sin(theta0) ** lam
            * eval_gegenbauer(j - lam, lam + 1, np.cos(theta0)))


def _c_radial(j, lam, theta0):
    """(-i)^lam sqrt((2 lam+1)/(j+1)) chi^{j/2}_lam(2 theta0), scipy route."""
    return ((-1j) ** lam * math.sqrt((2 * lam + 1.0) / (j + 1.0))
            * _chi(j, lam, theta0))


def _c_angular(lam, alpha, theta, phi):
    """sqrt(4 pi/(2 lam+1)) Y_{lam alpha}(theta, phi), scipy route."""
    return (math.sqrt(4.0 * np.pi / (2 * lam + 1))
            * sph_harm_y(lam, alpha, theta, phi))


def c_harmonics_at(j, theta0, theta, phi):
    """All C_{j,lam,alpha} values at given angle arrays: shape ((j+1)^2, N)."""
    theta0 = np.asarray(theta0, dtype=float)
    out = np.empty(((j + 1) ** 2,) + theta0.shape, dtype=complex)
    for lam in range(j + 1):
        radial = _c_radial(j, lam, theta0)
        for alpha in range(-lam, lam + 1):
            out[c_flat_index(lam, alpha)] = (
                radial * _c_angular(lam, alpha, theta, phi))
    return out


def c_harmonics_at_vectors(j, vecs):
    """C-family values at an (N, 4) array of 4-vectors (any nonzero length)."""
    vecs = np.asarray(vecs, dtype=float)
    r = np.linalg.norm(vecs, axis=-1)
    z0 = np.clip(vecs[..., 3] / r, -1.0, 1.0)
    theta0 = np.arccos(z0)
    rho = np.linalg.norm(vecs[..., :3], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ct = np.where(rho > 0, vecs[..., 2] / np.where(rho > 0, rho, 1.0), 1.0)
    theta = np.arccos(np.clip(ct, -1.0, 1.0))
    phi = np.arctan2(vecs[..., 1], vecs[..., 0])
    return c_harmonics_at(j, theta0, theta, phi)


def _zonal_harmonics(j, lam_max, theta0, theta):
    """Rows C_{j,lam,0}, lam <= lam_max: alpha = 0 rows of c_harmonics_at."""
    return np.array([_c_radial(j, lam, theta0) * _c_angular(lam, 0, theta, 0.0)
                     for lam in range(lam_max + 1)])


def _h_blockdiag_transform(G, j_max):
    """Conjugate a C-family Gram into the H family: T^T G T, T = diag(T_j)."""
    T = np.zeros(G.shape)
    row = 0
    for j in range(j_max + 1):
        d = (j + 1) ** 2
        T[row:row + d, row:row + d] = h_to_c_matrix(j)
        row += d
    return T.T @ G @ T


def gram_matrix(family, j_max, grid):
    """Pairwise overlap integrals of all harmonics with j <= j_max.

    The Gram accumulates one theta0 slice at a time so the full value
    matrix is never materialised; the H-family result is the blockwise
    orthogonal transform of the C-family one.
    """
    if family not in ("h", "c"):
        raise ValueError(f"family must be 'h' or 'c', got {family!r}")
    n0, n1, n2 = grid.shape
    dim = sum((j + 1) ** 2 for j in range(j_max + 1))
    t, p = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    ang = np.empty(((j_max + 1) ** 2, n1 * n2), dtype=complex)
    for lam in range(j_max + 1):
        for alpha in range(-lam, lam + 1):
            ang[c_flat_index(lam, alpha)] = (
                _c_angular(lam, alpha, t, p).ravel())
    wang = np.einsum("j,k->jk", grid.w1, grid.w2).ravel()
    radial = np.empty((j_max + 1, j_max + 1, n0), dtype=complex)
    for j in range(j_max + 1):
        for lam in range(j + 1):
            radial[j, lam] = _c_radial(j, lam, grid.theta0)
    G = np.zeros((dim, dim), dtype=complex)
    V = np.empty((dim, n1 * n2), dtype=complex)
    for i in range(n0):
        row = 0
        for j in range(j_max + 1):
            for lam in range(j + 1):
                lo, hi = c_flat_index(lam, -lam), c_flat_index(lam, lam)
                V[row + lo:row + hi + 1] = radial[j, lam, i] * ang[lo:hi + 1]
            row += (j + 1) ** 2
        G += grid.w0[i] * ((V * wang) @ V.conj().T)
    if family == "h":
        return _h_blockdiag_transform(G, j_max)
    return G


def check_entry(check, params, expected, observed, tol):
    """One serializable verification record."""
    abs_err = abs(expected - observed)
    rel_err = abs_err / abs(expected) if expected else abs_err
    return {
        "check": check,
        "params": params,
        "expected": expected,
        "observed": observed,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "pass": abs_err <= tol,
    }


def orthogonality_report(j_max, grid, tol=1e-10):
    """Overlap matrices of both families against 2 pi^2/(j+1) deltas.

    Returns (checks, grams): a list of JSON-ready check records and the raw
    Gram matrices per family.
    """
    sizes = [(j + 1) ** 2 for j in range(j_max + 1)]
    diag_expected = np.concatenate(
        [np.full(d, _S3_VOLUME / (j + 1)) for j, d in enumerate(sizes)])
    G = gram_matrix("c", j_max, grid)
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


def _random_so4(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _kernel_component(n, j, r2sq, z0):
    """r^n C_{j,0,0}(r-hat) from squared lengths and fourth components.

    For lam = 0 the harmonic is the Chebyshev polynomial of the second
    kind: C_{j,0,0} = U_j(cos theta0)/(j+1)^(1/2), evaluated by recurrence,
    so kernel arrays take no transcendental beyond one root and one power.
    """
    r = np.sqrt(r2sq)
    c = z0 / r
    u_prev, u = np.ones_like(c), 2.0 * c
    if j == 0:
        char = u_prev
    else:
        for _ in range(j - 1):
            u_prev, u = u, 2.0 * c * u - u_prev
        char = u
    return r2sq ** (0.5 * n) * char / math.sqrt(j + 1.0)


# The benchmark's oracle workload clears this dict by name before each op;
# the projection keeps no state, so it stays empty.
_PROJ_CACHE = {}


def _project_one(n, j, r1, r2, l, lp, grid, seed):
    # x1 runs over meridian points p = (0, 0, sin theta0, cos theta0), the
    # poles of their 2-spheres, where only the alpha = 0 harmonics are
    # nonzero; with the (0, 0) output, alpha2 = 0 and lam2 = lam1 as well.
    i1, i2, iout, coeff = bipolar_plan("c", l, lp, j)
    lam1, lam2 = (np.sqrt(i).astype(np.intp) for i in (i1, i2))
    sel = (iout == c_flat_index(0, 0)) & (i1 == c_flat_index(lam1, 0))
    if not sel.any():
        return 0.0
    # Integrated exactly over x2, the meridian integrand is a polynomial of
    # degree <= l + lp + j in cos theta0, so this rule is exact for it.
    theta0, w0 = _chebyshev2((l + lp + j) // 2 + 1)
    s0, c0 = np.sin(theta0)[:, None], np.cos(theta0)[:, None]
    fine = build_grid(*(2 * m for m in grid.shape))
    z, z0 = _random_so4(seed)[2:] @ fine.vectors().T
    t0 = np.arccos(np.clip(z0, -1.0, 1.0))
    t = np.arccos(np.clip(z / np.sin(t0), -1.0, 1.0))
    # b[i, k]: (0, 0) component of {C_l(p_i) (x) C_lp(x2_k)}_j.
    lam_max = min(l, lp)
    b = ((coeff[sel, None]
          * _zonal_harmonics(l, lam_max, theta0, 0.0)[lam1[sel]]).T
         @ _zonal_harmonics(lp, lam_max, t0, t)[lam2[sel]])
    f = _kernel_component(n, j, r1 * r1 + r2 * r2 + 2.0 * r1 * r2
                          * (s0 * z + c0 * z0), r1 * c0 + r2 * z0)
    # Node i stands for its whole (theta, phi) orbit, a constant factor
    # that cancels in the ratio.
    wb = np.outer(w0, fine.weights) * b.conj()
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
    its orbit.  x2 runs over grid refined twofold, randomly rotated in
    SO(4): its error enters at first order, where the full double
    quadrature on grid had a product of two grids' errors, and the doubled
    degree restores that accuracy at a cost linear in the grid size.

    The seeds must agree to agree_tol / 10 (relative to max(1, |B|)) or a
    RuntimeError flags the grid as too coarse: for independent normal seed
    errors the mean misses by more than the spread in 30% of cases, and by
    more than ten spreads in 3%.
    """
    if r1 >= r2:
        raise ValueError("projection requires r1 < r2")
    if grid is None:
        grid = build_grid(18, 18, 37)
    vals = [_project_one(n, j, r1, r2, l, lp, grid, s) for s in seeds]
    spread = max(vals) - min(vals)
    scale = max(1.0, max(abs(v) for v in vals))
    if 10.0 * spread > agree_tol * scale:
        raise RuntimeError(
            f"projection seeds disagree by {spread:.3e}; grid too coarse")
    return float(np.mean(vals))


def expansion_checks(tol, seed):
    """Seeded residuals of four multipole tables against r^n C_j(r-hat)."""
    checks = []
    rng = np.random.default_rng(seed)
    for (n, j) in ((1, 1), (2, 0), (3, 1), (-2, 0)):
        spec = ExpansionSpec(n, j, 0.5, 1.0,
                             l_max=30 if n > 0 else 32)
        table = expand_translated(spec)
        worst = 0.0
        for _ in range(5):
            h1 = rng.normal(size=4)
            h1 /= np.linalg.norm(h1)
            h2 = rng.normal(size=4)
            h2 /= np.linalg.norm(h2)
            r = 0.5 * h1 + 1.0 * h2
            lhs = np.linalg.norm(r) ** n * c_components(j, r)
            rhs = eval_expansion(table, j, h1, h2)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))
                                     / np.max(np.abs(lhs))))
        checks.append(check_entry(
            "expansion-residual", {"n": n, "j": j, "r1": 0.5, "r2": 1.0},
            0.0, worst, max(tol, 1e-8)))
    return checks


def coupling_checks(tol, seed):
    """C-type CGC orthogonality on seeded columns and the stretched closed form."""
    checks = []
    rng = np.random.default_rng(seed)
    # CGC contraction orthogonality on random columns.
    worst = 0.0
    for _ in range(20):
        j1, j2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        js = list(range(abs(j1 - j2), j1 + j2 + 1, 2))
        j = int(rng.choice(js))
        jq = int(rng.choice(js))
        for lam, alf in ((j, 0), (0, 0)) if j == jq else ((j, 0),):
            lamq = min(jq, lam)
            acc = 0.0
            for lam1 in range(j1 + 1):
                for alf1 in range(-lam1, lam1 + 1):
                    for lam2 in range(j2 + 1):
                        alf2 = alf - alf1
                        if abs(alf2) > lam2:
                            continue
                        acc += (cgc4_c(j1, lam1, alf1, j2, lam2, alf2,
                                       j, lam, alf)
                                * cgc4_c(j1, lam1, alf1, j2, lam2, alf2,
                                         jq, lamq, alf))
            expect = 1.0 if (j == jq and lam == lamq) else 0.0
            worst = max(worst, abs(acc - expect))
    checks.append(check_entry(
        "cgc-orthogonality", {"j_max": 3}, 0.0, worst, max(tol, 1e-12)))
    # Closed-form spot checks.
    worst = 0.0
    count = 0
    for j1 in range(0, 4):
        for j2 in range(0, 4):
            j = j1 + j2
            for lam in range(j + 1):
                for lam1 in range(j1 + 1):
                    for lam2 in range(j2 + 1):
                        if lam1 + lam2 > lam:
                            continue
                        val = cgc4_c(j1, lam1, lam1, j2, lam2, lam2,
                                     j, lam, lam1 + lam2)
                        ref = cgc4_c_closed("stretched", j1, lam1, lam1,
                                            j2, lam2, lam2, j, lam,
                                            lam1 + lam2)
                        worst = max(worst, abs(val - ref))
                        count += 1
    checks.append(check_entry(
        "cgc-closed-form-stretched", {"queries": count}, 0.0, worst,
        max(tol, 1e-12)))
    return checks
