"""Four-dimensional geometry and hyperspherical harmonics.

Coordinates on R^4, hyperspherical components of a 4-vector, the
parabolic-type (H) and spherical-type (C) harmonic families, the orthogonal
basis change between them, scalar products and unit-normalised harmonics.
The C family is evaluated directly; the H family is read from it through
the basis change.

A 4-vector is any length-4 sequence (x, y, z, z0).  Harmonic component
arrays are indexed row-major: H_j over ((2 mu + j)/2, (2 nu + j)/2) and
C_j over the flat index lam^2 + lam + alpha.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import _cg_entries, _legendre_rows
from .special import _c_label, _finite, _floats, _rank, validate_jm

__all__ = [
    "HyperAngles",
    "to_hyperangles",
    "from_hyperangles",
    "hyp_components",
    "hsh_h",
    "hsh_c",
    "hsh_y",
    "h_components",
    "c_components",
    "c_table",
    "c_from_h",
    "h_from_c",
    "scalar_product_h",
    "scalar_product_c",
    "c_flat_index",
    "h_flat_index",
    "h_to_c_matrix",
    "cos4",
]


@dataclass(frozen=True)
class HyperAngles:
    """Finite hyperspherical coordinates (r, theta0, theta, phi) of a 4-vector."""

    r: float
    theta0: float
    theta: float
    phi: float

    def __post_init__(self):
        _finite(r=self.r, theta0=self.theta0, theta=self.theta, phi=self.phi)


def _points(points, nonzero=False, name="points"):
    """points as an (N, 4) float array; ValueError naming it for any other
    shape, for components that are no finite float and, with nonzero, for
    a zero vector."""
    v = _floats(name, points)
    if v.ndim != 2 or v.shape[1] != 4:
        raise ValueError(f"{name} must hold (N, 4) 4-vectors, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} is not finite, so has no direction")
    if nonzero and not v.any(axis=1).all():
        raise ValueError(f"{name} holds a zero vector: no direction")
    return v


def _point(v, nonzero=False, name="v"):
    v = _floats(name, v)
    if v.shape != (4,):
        raise ValueError(f"{name} must be a 4-vector, got shape {v.shape}")
    return _points(v[None], nonzero, name)[0]


def _hyperangles(points, nonzero=False):
    """Arrays (r, theta0, theta, phi) of an (N, 4) array of 4-vectors.

    Each vector is divided by its largest |component| before any square is
    taken, so the angles of every finite vector are right; only r itself can
    overflow.  Non-finite components raise ValueError; a zero vector has
    all-zero angles, or raises with nonzero.
    """
    v = _points(points, nonzero)
    scale = np.max(np.abs(v), axis=1)
    x, y, z, z0 = (v / np.where(scale > 0.0, scale, 1.0)[:, None]).T
    rho_xy = np.hypot(x, y)
    rho = np.hypot(rho_xy, z)
    with np.errstate(over="ignore"):  # an r past float max is inf
        r = scale * np.hypot(rho, z0)
    return (r, np.arctan2(rho, z0),
            np.arctan2(rho_xy, z), np.arctan2(y, x) % (2.0 * np.pi))


def to_hyperangles(v):
    """Hyperspherical coordinates of the 4-vector v = (x, y, z, z0).

    theta0 = arccos(z0/r), theta = atan2(hypot(x, y), z), phi = atan2(y, x)
    mapped to [0, 2 pi).  The zero vector maps to all-zero angles; a
    non-finite component, or a length past float max, raises ValueError.
    """
    return HyperAngles(*(float(a[0]) for a in _hyperangles(_point(v)[None])))


def from_hyperangles(h):
    """Cartesian components (x, y, z, z0) from hyperspherical coordinates."""
    s0 = math.sin(h.theta0)
    return np.array([
        h.r * s0 * math.sin(h.theta) * math.cos(h.phi),
        h.r * s0 * math.sin(h.theta) * math.sin(h.phi),
        h.r * s0 * math.cos(h.theta),
        h.r * math.cos(h.theta0),
    ])


def hyp_components(v):
    """Hyperspherical components r_{mu nu} of v as a 2x2 complex array.

    Rows/columns are ordered mu, nu = -1/2, +1/2.  The components satisfy
    r*_{mu nu} = (-1)^(mu-nu) r_{-mu,-nu} and reproduce r^2 under the
    invariant bilinear form.  v must be a finite 4-vector (ValueError
    otherwise).
    """
    x, y, z, z0 = _point(v)
    s = 1.0 / math.sqrt(2.0)
    return np.array([
        [s * (z0 + 1j * z), -1j * s * (x + 1j * y)],
        [-1j * s * (x - 1j * y), s * (z0 - 1j * z)],
    ])


def hsh_h(j, tmu, tnu, v):
    """Parabolic-type harmonic H_{j, mu, nu}(v-hat) = U^{j/2}_{mu nu}(2 theta0, theta, phi).

    U^{j/2} is the SU(2) rotation matrix of angle 2 theta0 about the axis
    (theta, phi); one entry of h_components.
    """
    index = h_flat_index(j, tmu, tnu)  # checks the labels first
    return complex(h_components(j, v)[index])


def hsh_c(j, lam, alpha, v):
    """Spherical-type harmonic C_{j, lam, alpha}(v-hat).

    C_{j,lam,alf} = (-i)^lam sqrt((2 lam+1)/(j+1)) chi^{j/2}_lam(2 theta0)
    C_{lam alf}(theta, phi); one entry of c_components.
    """
    j, lam, alpha = _c_label(j, lam, alpha)
    return complex(c_components(j, v)[_c_index(lam, alpha)])


def hsh_y(j, lam, alpha, v):
    """Unit-normalised harmonic Y = ((-1)^(j+lam)/pi) sqrt((j+1)/2) C_{j,lam,alpha}."""
    c = hsh_c(j, lam, alpha, v)
    return (-1.0) ** (j + lam) / math.pi * math.sqrt((j + 1.0) / 2.0) * c


def _h_index(j, tmu, tnu):
    return ((tmu + j) // 2) * (j + 1) + (tnu + j) // 2


def _c_index(lam, alpha):
    return lam * lam + lam + alpha


def h_flat_index(j, tmu, tnu):
    """Row-major position of (mu, nu) in a rank-j H-component array."""
    j, tmu = validate_jm(j, tmu)
    return _h_index(j, tmu, validate_jm(j, tnu)[1])


def c_flat_index(lam, alpha):
    """Position of (lam, alpha) in a flat C-component array: lam^2 + lam + alpha."""
    return _c_index(*_c_label(lam, lam, alpha)[1:])


_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


@lru_cache(maxsize=256)
def _c_labels(j):
    """Arrays over the flat C indices lam^2 + lam + alpha up to rank j: lam,
    alpha, the sign (-1)^alpha where alpha < 0 (1 elsewhere), the norm
    i^lam sqrt(2 lam + 1) and the flat index of (lam, -alpha).  Pure
    functions of j, held read-only."""
    lam = np.repeat(np.arange(j + 1), 2 * np.arange(j + 1) + 1)
    alpha = np.arange((j + 1) ** 2) - lam * lam - lam
    out = (lam, alpha, np.where((alpha < 0) & (alpha % 2 == 1), -1.0, 1.0),
           _I_POWERS[lam % 4] * np.sqrt(2.0 * lam + 1.0),
           lam * lam + lam - alpha)
    for arr in out:
        arr.setflags(write=False)
    return out


def _c_factors(top, points):
    """The two factors of every C_{j,lam,alpha}, j <= top, at (N, 4) points.

    C_{j,lam,alf} = g[j, lam] y[lam^2 + lam + alf], where g holds the
    Gegenbauer rows (-1)^lam chi^{j/2}_lam(2 theta0)/sqrt(j+1) and y the
    modified spherical harmonics times i^lam sqrt(2 lam + 1).  Both come
    from _legendre_rows, once per point batch.
    """
    r, theta0, theta, phi = _hyperangles(points, nonzero=True)
    orders = range(top + 1)
    g = _legendre_rows(top, orders, np.cos(theta0), np.sin(theta0),
                       shift=0.5)
    p = _legendre_rows(top, orders, np.cos(theta), np.sin(theta))
    lam, alpha, sign, norm = _c_labels(top)[:4]
    # C_{lam, -alf} = (-1)^alf conj(C_{lam alf}) for the real Legendre rows.
    y = ((sign * norm)[:, None] * p[lam, np.abs(alpha)]
         * np.exp(1j * alpha[:, None] * phi))
    return g, y, lam


def c_table(top, points):
    """Every C-harmonic of rank j <= top at an (N, 4) batch of points.

    Returns a list whose entry j is the ((j+1)^2, N) complex array of
    C_{j,lam,alpha}, rows flat over lam^2 + lam + alpha.  The hyperangles
    and the two recurrences of _legendre_rows run once for the whole batch
    and every rank.
    """
    top = _rank("rank top", top)
    g, y, lam = _c_factors(top, points)
    return [g[j, lam[:(j + 1) ** 2]] * y[:(j + 1) ** 2]
            for j in range(top + 1)]


def _c_rank(j, points):
    """Rank j of c_table alone, at O(j^2) cost per point."""
    g, y, lam = _c_factors(j, points)
    return g[j, lam] * y


def c_components(j, v):
    """All (j+1)^2 C-harmonic values at v-hat, flat over lam^2 + lam + alpha."""
    return _c_rank(_rank("rank j", j), _point(v)[None])[:, 0]


def h_components(j, v):
    """All (j+1)^2 H-harmonic values at v-hat, flat row-major over (mu, nu).

    Read from c_components through the basis change: H = T^T C.
    """
    return h_from_c(j, c_components(j, v))


@lru_cache(maxsize=64)
def _h_to_c_entries(j):
    """The nonzeros of T = h_to_c_matrix(j) as flat (rows, cols, coeff).

    Row (lam, alf) of T meets column (mu, nu) where (j/2, mu) couples with
    (lam, alf) to (j/2, nu): at most j + 1 columns per row and j + 1 rows
    per column.  The CG coefficients of all triples (j/2, lam, j/2), lam =
    0..j, come from one _cg_entries call.  Held read-only.
    """
    lam, tmu, talf, cg = _cg_entries(j, 2 * np.arange(j + 1), j)
    out = (_c_index(lam, talf // 2), _h_index(j, tmu, tmu + talf),
           cg * np.sqrt((2.0 * lam + 1.0) / (j + 1.0)))
    for arr in out:
        arr.setflags(write=False)
    return out


def _component_array(j, values, name):
    """values as an array, whose leading length must be (j+1)^2."""
    values = np.asarray(values)
    if values.ndim == 0 or values.shape[0] != (j + 1) ** 2:
        raise ValueError(f"{name} of rank {j} must have leading length "
                         f"{(j + 1) ** 2}, got shape {values.shape}")
    return values


def _scatter(j, out_index, in_index, coeff, values, name):
    """out[out_index] += coeff values[in_index], over any trailing axes of
    values: C = T H with (rows, cols), H = T^T C with (cols, rows)."""
    values = _component_array(j, values, name)
    out = np.zeros(values.shape, dtype=np.result_type(values, coeff))
    c = coeff.reshape((-1,) + (1,) * (values.ndim - 1))
    np.add.at(out, out_index, c * values[in_index])
    return out


def h_to_c_matrix(j):
    """Orthogonal map T with C = T H over the flat component orderings.

    C_{j,lam,alf} = sqrt((2 lam+1)/(j+1))
                    sum_{mu nu} C^{(j/2) nu}_{(j/2) mu, lam alf} H_{j, mu, nu},
    with alf = nu - mu fixed by the CGC selection rule: (j/2, mu) couples
    with (lam, alf) to (j/2, nu).  The package defines H from C by this map,
    H = T^T C.  Returned dense, built from the entries c_from_h and h_from_c
    read.
    """
    j = _rank("rank j", j)
    rows, cols, coeff = _h_to_c_entries(j)
    t = np.zeros(((j + 1) ** 2, (j + 1) ** 2))
    t[rows, cols] = coeff
    return t


def c_from_h(j, h_values):
    """C-component array from the H-component array of the same direction.

    h_values may carry trailing axes; its leading length must be (j+1)^2.
    """
    j = _rank("rank j", j)
    rows, cols, coeff = _h_to_c_entries(j)
    return _scatter(j, rows, cols, coeff, h_values, "h_values")


def h_from_c(j, c_values):
    """H-component array from the C-component array (inverse of c_from_h)."""
    j = _rank("rank j", j)
    rows, cols, coeff = _h_to_c_entries(j)
    return _scatter(j, cols, rows, coeff, c_values, "c_values")


def scalar_product_h(j, a, b):
    """(H_j(a-hat) . H_j(b-hat)) = sum (-1)^(mu-nu) H_{j mu nu}(a) H_{j,-mu,-nu}(b)."""
    j = _rank("rank j", j)
    ab = np.stack([_point(a, name="a"), _point(b, name="b")])
    ha, hb = h_from_c(j, _c_rank(j, ab)).T
    # (-mu, -nu) sits at the reversed flat index.
    row, col = np.divmod(np.arange((j + 1) ** 2), j + 1)
    sign = 1.0 - 2.0 * ((row + col) % 2)
    return float(np.sum(sign * ha * hb[::-1]).real)


def scalar_product_c(j, a, b):
    """(C_j(a-hat) . C_j(b-hat)) = sum (-1)^(lam+alf) C_{j lam alf}(a) C_{j lam -alf}(b).

    Equals the Gegenbauer polynomial C^1_j(cos gamma) of the 4D angle
    between a and b.
    """
    j = _rank("rank j", j)
    ab = np.stack([_point(a, name="a"), _point(b, name="b")])
    ca, cb = _c_rank(j, ab).T
    lam, alpha, _, _, flip = _c_labels(j)
    sign = 1.0 - 2.0 * ((lam + alpha) % 2)
    return float(np.sum(sign * ca * cb[flip]).real)


def cos4(a, b):
    """Cosine of the 4D angle between two nonzero finite 4-vectors.

    Each vector is divided by its largest |component| first, so no product
    overflows.
    """
    a, b = _point(a, True, "a"), _point(b, True, "b")
    a, b = a / np.max(np.abs(a)), b / np.max(np.abs(b))
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
