"""Three-dimensional angular-momentum kernel.

Clebsch-Gordan coefficients, 6j and 9j symbols as Racah sums (scalar, and
in array form for whole bipolar plans), generalised characters of the
rotation group and modified spherical harmonics.  Each Racah sum takes its
first term from log factorials and every next term from the exact integer
ratio of consecutive terms, so a coefficient costs one exp.

All angular momenta and projections are passed as doubled integers (2j,
2m), so half-integer values stay exact.  Phases follow Condon-Shortley.
"""

import math
from functools import lru_cache

import numpy as np

from .special import _c_label, _finite, _rank, validate_jm

__all__ = [
    "validate_jm",
    "cgc3",
    "wigner6j",
    "wigner9j",
    "gen_character",
    "mod_sph_harm",
]


def _triangle_ok(ta, tb, tc):
    """|a - b| <= c <= a + b and a + b + c even; elementwise on arrays."""
    return (abs(ta - tb) <= tc) & (tc <= ta + tb) & ((ta + tb + tc) % 2 == 0)


# The helpers of the Racah sums take ints or numpy arrays alike (lf maps a
# list of factorial arguments to their ln(n!)), so a scalar symbol and its
# array form add the same terms in the same order and differ only where
# libm's exp may differ from numpy's by an ulp.  A term ratio is one
# division of integers, which floats hold exactly for doubled arguments
# up to ~10^4.

@lru_cache(maxsize=None)
def _logfac_table(bits):
    """ln(n!) for 0 <= n < 2^bits, read-only, as a tuple and as an array:
    running sums of logs up to n = 256, lgamma past it."""
    table = [0.0, 0.0]
    for n in range(2, 1 << bits):
        table.append(table[-1] + math.log(n) if n <= 256
                     else math.lgamma(n + 1.0))
    array = np.array(table)
    array.setflags(write=False)
    return tuple(table), array


_LOGFAC = _logfac_table(9)[0]  # the scalar symbols' fast path, n < 512


def _log_factorials(ns):
    """lf of the scalar symbols: one unchecked table lookup per n >= 0."""
    try:
        return [_LOGFAC[n] for n in ns]
    except IndexError:
        table = _logfac_table(max(ns).bit_length())[0]
        return [table[n] for n in ns]


def _cg_terms(tj1, tm1, tj2, tm2, tj):
    """(a, b, c, d, e) of Racah's CG sum, whose term k is
    (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!), with k from
    max(0, -d, -e) to min(a, b, c), where no argument is negative."""
    return ((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2,
            (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2)


def _cg_ratio(k, a, b, c, d, e):
    """Term k + 1 over term k of the CG sum."""
    return -(a - k) * (b - k) * (c - k) / ((k + 1) * (d + k + 1) * (e + k + 1))


def _cg_log_delta(lf, tj1, tj2, tj):
    """ln Delta(j1 j2 j) = ln(a! (j1-j2+j)! (j2-j1+j)! / (j1+j2+j+1)!), a =
    j1 + j2 - j: the part of the prefactor that the triple fixes."""
    f = lf([(tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2,
            (tj2 - tj1 + tj) // 2, (tj1 + tj2 + tj) // 2 + 1])
    return f[0] + f[1] + f[2] - f[3]


def _cg_log_first(lf, delta, k, a, b, c, d, e):
    """ln of term k times the prefactor over sqrt(2j + 1): delta, then the
    (j +- m)! of j1, j2 and j, which are (a+d)!, b!, c!, (a+e)!, (c+d)! and
    (b+e)!."""
    f = lf([a + d, b, c, a + e, c + d, b + e,
            k, a - k, b - k, c - k, d + k, e + k])
    return (0.5 * (delta + f[0] + f[1] + f[2] + f[3] + f[4] + f[5])
            - (f[6] + f[7] + f[8] + f[9] + f[10] + f[11]))


def cgc3(tj1, tm1, tj2, tm2, tj, tm):
    """3D Clebsch-Gordan coefficient C^{j m}_{j1 m1, j2 m2}.

    Racah's single sum, stepped by the ratio of consecutive terms.  Exactly
    0 when m != m1 + m2 or the triangle rule fails; a pair outside
    validate_jm raises ValueError.
    """
    tj1, tm1 = validate_jm(tj1, tm1, "1")
    tj2, tm2 = validate_jm(tj2, tm2, "2")
    tj, tm = validate_jm(tj, tm)
    a, b, c, d, e = _cg_terms(tj1, tm1, tj2, tm2, tj)
    k_min, k_max = max(0, -d, -e), min(a, b, c)
    # With m = m1 + m2, the sum is empty exactly when the triangle rule fails.
    if tm1 + tm2 != tm or k_min > k_max:
        return 0.0
    term = total = (-1.0) ** k_min  # an exact cancellation gives +0.0
    for k in range(k_min, k_max):
        term *= _cg_ratio(k, a, b, c, d, e)
        total += term
    log0 = _cg_log_first(_log_factorials,
                         _cg_log_delta(_log_factorials, tj1, tj2, tj),
                         k_min, a, b, c, d, e)
    return math.sqrt(tj + 1.0) * math.exp(log0) * total


def wigner6j(ta, tb, tc, td, te, tf):
    """6j symbol {a b c; d e f}, doubled-integer arguments.

    Exactly 0 when a triad fails the triangle rule; a negative or
    non-integer argument raises ValueError.
    """
    return _wigner6j(*(_rank(f"2{x}", v) for x, v in
                       zip("abcdef", (ta, tb, tc, td, te, tf))))


def _6j_terms(ta, tb, tc, td, te, tf):
    """The triads, lows and highs of Racah's 6j sum, whose term t is
    (-1)^t (t+1)! / (prod_i (t - low_i)! prod_i (high_i - t)!), low_i the
    triad sums, with t from max(lows) to min(highs)."""
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    return (triads, [(x + y + z) // 2 for x, y, z in triads],
            [(ta + tb + td + te) // 2, (ta + tc + td + tf) // 2,
             (tb + tc + te + tf) // 2])


def _6j_ratio(t, l1, l2, l3, l4, h1, h2, h3):
    """Term t + 1 over term t of the 6j sum, lows l and highs h."""
    return (-(t + 2) * (h1 - t) * (h2 - t) * (h3 - t)
            / ((t + 1 - l1) * (t + 1 - l2) * (t + 1 - l3) * (t + 1 - l4)))


def _6j_log_first(lf, t, triads, lows, highs):
    """ln of term t times the four Delta(x y z) = (s-z)! (s-y)! (s-x)! /
    (s+1)!, s = (x+y+z)/2 the triad's low."""
    f = lf([t + 1] + [t - s for s in lows] + [h - t for h in highs] + [
        n for (x, y, z), s in zip(triads, lows)
        for n in (s - z, s - y, s - x, s + 1)])
    return (f[0] - (f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7])
            + 0.5 * (f[8] + f[9] + f[10] - f[11] + f[12] + f[13] + f[14]
                     - f[15] + f[16] + f[17] + f[18] - f[19] + f[20] + f[21]
                     + f[22] - f[23]))


def _wigner6j(ta, tb, tc, td, te, tf):
    """wigner6j of arguments that passed its check."""
    triads, lows, highs = _6j_terms(ta, tb, tc, td, te, tf)
    if not all(_triangle_ok(*t) for t in triads):
        return 0.0
    t_min = max(lows)
    term = total = (-1.0) ** t_min
    for t in range(t_min, min(highs)):
        term *= _6j_ratio(t, *lows, *highs)
        total += term
    log0 = _6j_log_first(_log_factorials, t_min, triads, lows, highs)
    return math.exp(log0) * total


def wigner9j(ta, tb, tc, td, te, tf, tg, th, tk):
    """9j symbol, computed as a single sum over products of three 6j symbols.

    Doubled-integer arguments; exactly 0 when a row or column fails the
    triangle rule, ValueError for a negative or non-integer argument.
    """
    ta, tb, tc, td, te, tf, tg, th, tk = (
        _rank(f"2{x}", v) for x, v in
        zip("abcdefghk", (ta, tb, tc, td, te, tf, tg, th, tk)))
    rows = ((ta, tb, tc), (td, te, tf), (tg, th, tk))
    cols = ((ta, td, tg), (tb, te, th), (tc, tf, tk))
    if not all(_triangle_ok(*t) for t in rows + cols):
        return 0.0
    tx_min = max(abs(ta - tk), abs(tb - tf), abs(td - th))
    tx_max = min(ta + tk, tb + tf, td + th)
    total = 0.0
    for tx in range(tx_min, tx_max + 1, 2):
        total += ((-1.0) ** tx * (tx + 1)
                  * _wigner6j(ta, td, tg, th, tk, tx)
                  * _wigner6j(tb, te, th, td, tx, tf)
                  * _wigner6j(tc, tf, tk, tx, ta, tb))
    return total


# Array forms of the three Racah sums.  They take broadcastable numpy
# arrays of doubled arguments and give 0 wherever a selection rule fails.
# The CG and 6j forms run an unmasked core (_cg_core, _6j_core) on valid
# argument sets, which reads its first terms' log factorials from the
# scalar symbols' table and steps each sum through its own range; the 9j
# runs _6j_core on its live slots.  The scalar symbols stay as the
# single-coefficient route and as the arrays' test reference.  _cg_entries
# enumerates the nonzero CG of a batch of triples for both bipolar plans
# and the H-C basis change of harmonics, on _cg_core alone: every argument
# set it enumerates is valid.

_CG_RUN = 1 << 14  # entries per _cg_core call of _cg_entries


def _logfac_reader(top):
    """lf of the array forms for arguments 0 <= n <= top: one gather each."""
    table = _logfac_table(max(9, int(top).bit_length()))[1]
    return lambda ns: [table[n] for n in ns]


def _int_arrays(*args):
    return np.broadcast_arrays(*(np.asarray(x, dtype=np.intp) for x in args))


def _jm_mask(tj, tm):
    return (np.abs(tm) <= tj) & ((tj - tm) % 2 == 0)


def _span(low, high, mask):
    """Length of the padded summation axis: the longest range low..high."""
    return int(np.max(np.where(mask, high - low + 1, 0), initial=0))


def _sign(n):
    return np.where(n % 2, -1.0, 1.0)


def _ratio_sum(ratio, terms, k_min, k_max):
    """The scalar symbols' ratio loop, elementwise over the sums whose
    integer parameters are the arrays terms.  Step i runs only where k_min
    + i < k_max: elsewhere the ratio has a zero factor, and the step would
    add an exact zero."""
    shape, k_min = k_min.shape, k_min.ravel()
    terms = [x.ravel() for x in terms]
    steps = k_max.ravel() - k_min
    term = _sign(k_min)
    total = term.copy()
    for i in range(int(steps.max(initial=0))):
        at = np.flatnonzero(steps > i)
        term[at] *= ratio(k_min[at] + i, *(x[at] for x in terms))
        total[at] += term[at]
    return total.reshape(shape)


def _cg_core(lf, delta, tj, a, b, c, d, e):
    """cgc3 of valid argument sets from their 2j, Racah parameters a..e
    (_cg_terms) and delta (_cg_log_delta), as int arrays (no mask)."""
    k_min = np.maximum(0, np.maximum(-d, -e))
    total = _ratio_sum(_cg_ratio, (a, b, c, d, e), k_min,
                       np.minimum(a, np.minimum(b, c)))
    log0 = _cg_log_first(lf, delta, k_min, a, b, c, d, e)
    return np.sqrt(tj + 1.0) * np.exp(log0) * total


def _cgc3_array(tj1, tm1, tj2, tm2, tj, tm):
    """cgc3 over broadcast arrays of doubled arguments: _cg_core, with
    C^{0 0}_{0 0, 0 0} standing in for each invalid argument set."""
    tj1, tm1, tj2, tm2, tj, tm = _int_arrays(tj1, tm1, tj2, tm2, tj, tm)
    ok = (_triangle_ok(tj1, tj2, tj) & (tm1 + tm2 == tm)
          & _jm_mask(tj1, tm1) & _jm_mask(tj2, tm2) & _jm_mask(tj, tm))
    tj1, tm1, tj2, tm2, tj = (np.where(ok, x, 0)
                              for x in (tj1, tm1, tj2, tm2, tj))
    lf = _logfac_reader(np.max(tj1 + tj2 + tj, initial=0) // 2 + 1)
    value = _cg_core(lf, _cg_log_delta(lf, tj1, tj2, tj), tj,
                     *_cg_terms(tj1, tm1, tj2, tm2, tj))
    return np.where(ok, value, 0.0)


def _cg_entries(tj1, tj2, tj):
    """Every nonzero C^{j m}_{j1 m1, j2 m2} of a batch of doubled triples.

    tj1, tj2 and tj broadcast to the batch; a triple that fails the
    triangle rule has none.  Returns flat arrays (t, tm1, tm2, value), t the
    triple's position in the flattened batch, ordered by t, then m, then m1.
    Only the triangle's triples are enumerated, and in each row (triple, m)
    only the m1 with |m - m1| <= j2, so every slot is a valid argument set.
    _cg_core sums runs of _CG_RUN slots, which bounds its temporaries.  All
    runs read one ln n! table, sized for the largest argument, j1 + j2 + j
    + 1, and the Delta of each triple, taken once.
    """
    tj1, tj2, tj = (x.ravel() for x in _int_arrays(tj1, tj2, tj))
    keep = np.flatnonzero(_triangle_ok(tj1, tj2, tj))
    tj1, tj2, tj = tj1[keep], tj2[keep], tj[keep]
    lf = _logfac_reader(np.max(tj1 + tj2 + tj, initial=0) // 2 + 1)
    delta = _cg_log_delta(lf, tj1, tj2, tj)
    # Row r of triple rt holds 2m = tm, and its slot i holds 2m1 = lo + 2i.
    rt = np.repeat(np.arange(len(tj)), tj + 1)
    tm = 2 * (np.arange(len(rt)) - (np.cumsum(tj + 1) - tj - 1)[rt]) - tj[rt]
    lo = np.maximum(-tj1[rt], tm - tj2[rt])
    width = (np.minimum(tj1[rt], tm + tj2[rt]) - lo) // 2 + 1
    r = np.repeat(np.arange(len(rt)), width)
    i = np.arange(len(r)) - (np.cumsum(width) - width)[r]
    t = rt[r]
    tm1 = lo[r] + 2 * i
    tm2 = tm[r] - tm1
    # Racah's parameters of each row's slot 0; along the row b and c fall
    # by i, and d and e rise by i.
    a, b, c, d, e = _cg_terms(tj1[rt], lo, tj2[rt], tm - lo, tj[rt])
    args = (delta[t], tj[t], a[r], b[r] - i, c[r] - i, d[r] + i, e[r] + i)
    value = np.empty(len(t))
    for k in range(0, len(t), _CG_RUN):
        value[k:k + _CG_RUN] = _cg_core(lf, *(x[k:k + _CG_RUN] for x in args))
    nz = value != 0.0
    return keep[t[nz]], tm1[nz], tm2[nz], value[nz]


def _6j_core(ta, tb, tc, td, te, tf):
    """wigner6j over int arrays whose triads all hold (no mask)."""
    triads, lows, highs = _6j_terms(ta, tb, tc, td, te, tf)
    t_min = np.maximum.reduce(lows)
    total = _ratio_sum(_6j_ratio, lows + highs, t_min,
                       np.minimum.reduce(highs))
    lf = _logfac_reader(np.max(np.maximum.reduce(highs), initial=0) + 1)
    return np.exp(_6j_log_first(lf, t_min, triads, lows, highs)) * total


def _wigner6j_array(ta, tb, tc, td, te, tf):
    """wigner6j over broadcast arrays of doubled arguments: _6j_core, with
    {0 0 0; 0 0 0} standing in for each argument set whose triads fail."""
    args = _int_arrays(ta, tb, tc, td, te, tf)
    ok = np.logical_and.reduce([_triangle_ok(*t)
                                for t in _6j_terms(*args)[0]])
    return np.where(ok, _6j_core(*(np.where(ok, x, 0) for x in args)), 0.0)


def _wigner9j_array(ta, tb, tc, td, te, tf, tg, th, tk):
    """wigner9j over broadcast arrays of doubled arguments."""
    ta, tb, tc, td, te, tf, tg, th, tk = _int_arrays(ta, tb, tc, td, te, tf,
                                                     tg, th, tk)
    rows = ((ta, tb, tc), (td, te, tf), (tg, th, tk))
    cols = ((ta, td, tg), (tb, te, th), (tc, tf, tk))
    ok = np.logical_and.reduce([_triangle_ok(*t) for t in rows + cols])
    tx_min = np.maximum.reduce([np.abs(ta - tk), np.abs(tb - tf),
                                np.abs(td - th)])
    tx_max = np.minimum.reduce([ta + tk, tb + tf, td + th])
    n_x = _span(tx_min // 2, tx_max // 2, ok)
    # Slot i holds 2x = tx_min + 2i.  Where the rows and columns hold, every
    # triad of the three 6j factors holds up to tx_max, so those slots alone
    # are live, and the three factors of all of them come from one call.
    tx = tx_min + 2 * np.arange(n_x).reshape((-1,) + (1,) * ok.ndim)
    live = ok & (tx <= tx_max)
    w1, w2, w3 = _6j_core(*(
        np.stack([np.broadcast_to(f, tx.shape)[live] for f in factors])
        for factors in zip((ta, td, tg, th, tk, tx), (tb, te, th, td, tx, tf),
                           (tc, tf, tk, tx, ta, tb))))
    tx, slots = tx[live], np.zeros(live.shape)
    slots[live] = _sign(tx) * (tx + 1) * w1 * w2 * w3
    return slots.sum(axis=0)


@lru_cache(maxsize=256)
def _legendre_coeffs(top, orders, shift):
    """Orders, sectoral seed factors and recurrence coefficients of
    _legendre_rows: pure functions of (top, orders, shift), held read-only."""
    m = np.arange(orders.start, orders.stop)
    k = np.arange(1, orders.stop) + shift
    sectoral = np.concatenate(([1.0], np.cumprod(-np.sqrt((2 * k - 1)
                                                          / (2 * k)))))
    n = np.arange(top + 1)[:, None] + shift
    mm = m + shift
    live = n > mm
    den = np.where(live, (n - mm) * (n + mm), 1.0)
    a = np.where(live, (2 * n - 1) / np.sqrt(den), 0.0)[..., None]
    b = np.sqrt(np.maximum(n - mm - 1, 0.0) * (n + mm - 1) / den)[..., None]
    out = (m, sectoral[m, None], a, b)
    for arr in out:
        arr.setflags(write=False)
    return out


def _legendre_rows(top, orders, x, s, shift=0.0):
    """Normalised associated Legendre functions of degree 0..top.

    rows[n, k] = sqrt((n-m)!/(n+m)!) P_n^m(x), Condon-Shortley, for the
    order m = orders[k] (a range of nonnegative integers) and x = cos, s =
    sin of one angle (1-D arrays); rows below the diagonal n < m are 0.
    Shape (top + 1, len(orders), len(x)).

    Each column starts from its sectoral seed
    s^m prod_{k<=m} (-sqrt((2k-1)/(2k))) and runs upward in degree by

      p_n = (2n-1) x p_{n-1} / sqrt((n-m)(n+m))
            - sqrt((n-m-1)(n+m-1)/((n-m)(n+m))) p_{n-2},

    the degree recurrence with the norm folded into its coefficients, which
    are all O(1): nothing overflows at any degree (Holmes & Featherstone, J.
    Geodesy 76 (2002) 279).  With shift = 1/2, n and m stand for n + 1/2 and
    m + 1/2 in the seed and the coefficients, and row j, order lam is the
    Gegenbauer factor of the generalised characters,

      (-1)^lam 2^lam lam! sqrt((j-lam)!/(j+lam+1)!) s^lam C^{lam+1}_{j-lam}(x),

    whose recurrence in j is the Gegenbauer one in j - lam, normalised.
    """
    m, seed, a, b = _legendre_coeffs(top, orders, shift)
    rows = np.zeros((top + 1, len(m), len(x)))
    rows[m, np.arange(len(m))] = seed * s ** m[:, None]
    for deg in range(orders.start + 1, top + 1):
        hi = min(deg - orders.start, len(m))  # orders below deg are live
        rows[deg, :hi] = (a[deg, :hi] * x * rows[deg - 1, :hi]
                          - b[deg, :hi] * rows[deg - 2, :hi])
    return rows


def _flat_points(*arrays):
    """The arrays broadcast together and flattened, and their common shape."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return [a.ravel() for a in arrays], arrays[0].shape


def gen_character(tl, lam, omega):
    """Generalised character chi^l_lambda(omega) of the rotation group.

    chi^l_lam(w) = (2 lam)!! sqrt(2l+1) sqrt((2l-lam)!/(2l+lam+1)!)
                   sin(w/2)^lam C^{lam+1}_{2l-lam}(cos(w/2)),
    with tl = 2l doubled.  Accepts numpy arrays for omega.  The factor after
    sqrt(2l+1) is a half-integer Legendre row of _legendre_rows.
    """
    tl, lam = _rank("2l", tl), _rank("lambda", lam)
    if lam > tl:
        raise ValueError(f"need lambda <= 2l, got lambda = {lam}, 2l = {tl}")
    _finite(omega=omega)
    (omega,), shape = _flat_points(omega)
    rows = _legendre_rows(tl, range(lam, lam + 1), np.cos(0.5 * omega),
                          np.sin(0.5 * omega), shift=0.5)
    value = ((-1.0) ** lam * math.sqrt(tl + 1.0) * rows[tl, 0]).reshape(shape)
    return float(value) if value.ndim == 0 else value


def mod_sph_harm(lam, alpha, theta, phi):
    """Modified spherical harmonic C_{lam alpha} = sqrt(4 pi/(2 lam+1)) Y_{lam alpha}.

    Condon-Shortley convention; C_00 = 1, C_10 = cos(theta).  Accepts numpy
    arrays for theta and phi.
    """
    _, lam, alpha = _c_label(lam, lam, alpha)
    _finite(theta=theta, phi=phi)
    a = abs(alpha)
    (theta, phi), shape = _flat_points(theta, phi)
    rows = _legendre_rows(lam, range(a, a + 1), np.cos(theta),
                          np.abs(np.sin(theta)))
    value = (rows[lam, 0] * np.exp(1j * a * phi)).reshape(shape)
    if alpha < 0:
        value = (-1.0) ** a * np.conj(value)
    return complex(value) if value.ndim == 0 else value
