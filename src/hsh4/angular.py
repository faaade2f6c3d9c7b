"""Three-dimensional angular-momentum kernel.

Clebsch-Gordan coefficients, 6j and 9j symbols in Racah log-factorial
arithmetic (scalar, and in array form for whole bipolar plans), axis-angle
rotation matrix elements, generalised characters of the rotation group and
modified spherical harmonics.

All angular momenta and projections are passed as doubled integers (2j,
2m), so half-integer values stay exact.  Phases follow Condon-Shortley.
"""

import math

import numpy as np

from .special import _LOGFAC, gegenbauer, log_factorial

__all__ = [
    "validate_jm",
    "cgc3",
    "wigner6j",
    "wigner9j",
    "gen_character",
    "mod_sph_harm",
    "rotation_u",
]


def validate_jm(tj, tm):
    """Check a doubled (2j, 2m) pair: |m| <= j and matching parity."""
    if tj < 0:
        raise ValueError(f"negative angular momentum 2j = {tj}")
    if abs(tm) > tj or (tj - tm) % 2 != 0:
        raise ValueError(f"invalid projection 2m = {tm} for 2j = {tj}")


def _triangle_ok(ta, tb, tc):
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _log_triangle(ta, tb, tc):
    """ln Delta(a b c) of the Racah triangle coefficient."""
    return 0.5 * (log_factorial((ta + tb - tc) // 2)
                  + log_factorial((ta - tb + tc) // 2)
                  + log_factorial((-ta + tb + tc) // 2)
                  - log_factorial((ta + tb + tc) // 2 + 1))


def cgc3(tj1, tm1, tj2, tm2, tj, tm):
    """3D Clebsch-Gordan coefficient C^{j m}_{j1 m1, j2 m2}.

    Racah's single-sum formula evaluated with log factorials.  Returns 0
    when m != m1 + m2 or the triangle rule fails.
    """
    for pair in ((tj1, tm1), (tj2, tm2), (tj, tm)):
        validate_jm(*pair)
    if tm1 + tm2 != tm or not _triangle_ok(tj1, tj2, tj):
        return 0.0

    log_pre = (_log_triangle(tj1, tj2, tj)
               + 0.5 * (math.log(tj + 1.0)
                        + log_factorial((tj1 + tm1) // 2)
                        + log_factorial((tj1 - tm1) // 2)
                        + log_factorial((tj2 + tm2) // 2)
                        + log_factorial((tj2 - tm2) // 2)
                        + log_factorial((tj + tm) // 2)
                        + log_factorial((tj - tm) // 2)))

    # Summation bounds keep every factorial argument nonnegative.
    k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_den = (log_factorial(k)
                   + log_factorial((tj1 + tj2 - tj) // 2 - k)
                   + log_factorial((tj1 - tm1) // 2 - k)
                   + log_factorial((tj2 + tm2) // 2 - k)
                   + log_factorial((tj - tj2 + tm1) // 2 + k)
                   + log_factorial((tj - tj1 - tm2) // 2 + k))
        total += (-1.0) ** k * math.exp(log_pre - log_den)
    return total


def wigner6j(ta, tb, tc, td, te, tf):
    """6j symbol {a b c; d e f}, doubled-integer arguments.

    Invalid triads give 0.
    """
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    if not all(_triangle_ok(*t) for t in triads):
        return 0.0
    log_delta = sum(_log_triangle(*t) for t in triads)

    t_min = max((ta + tb + tc) // 2, (ta + te + tf) // 2,
                (td + tb + tf) // 2, (td + te + tc) // 2)
    t_max = min((ta + tb + td + te) // 2, (ta + tc + td + tf) // 2,
                (tb + tc + te + tf) // 2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_term = (log_factorial(t + 1)
                    - log_factorial(t - (ta + tb + tc) // 2)
                    - log_factorial(t - (ta + te + tf) // 2)
                    - log_factorial(t - (td + tb + tf) // 2)
                    - log_factorial(t - (td + te + tc) // 2)
                    - log_factorial((ta + tb + td + te) // 2 - t)
                    - log_factorial((ta + tc + td + tf) // 2 - t)
                    - log_factorial((tb + tc + te + tf) // 2 - t))
        total += (-1.0) ** t * math.exp(log_delta + log_term)
    return total


def wigner9j(ta, tb, tc, td, te, tf, tg, th, tk):
    """9j symbol, computed as a single sum over products of three 6j symbols."""
    rows = ((ta, tb, tc), (td, te, tf), (tg, th, tk))
    cols = ((ta, td, tg), (tb, te, th), (tc, tf, tk))
    if not all(_triangle_ok(*t) for t in rows + cols):
        return 0.0
    tx_min = max(abs(ta - tk), abs(tb - tf), abs(td - th))
    tx_max = min(ta + tk, tb + tf, td + th)
    total = 0.0
    for tx in range(tx_min, tx_max + 1, 2):
        total += ((-1.0) ** tx * (tx + 1)
                  * wigner6j(ta, td, tg, th, tk, tx)
                  * wigner6j(tb, te, th, td, tx, tf)
                  * wigner6j(tc, tf, tk, tx, ta, tb))
    return total


# Array forms of the three Racah sums.  They take broadcastable numpy
# arrays of doubled arguments and give 0 wherever a selection rule fails.
# The summation axis (k, t or x) is padded to its longest range, and the
# slots past an element's own range are masked.  Terms are added in
# ascending order, as in the scalar loops above; those stay as the
# single-coefficient route and as the reference the array forms are tested
# against.

_LOGFAC_ARRAY = np.array(_LOGFAC)


def _logfac_at(n, mask):
    """ln(n!) where mask holds (broadcast against n), 0 elsewhere.

    A masked slot is read at n = 0, so a negative argument never reaches
    the table as a wrapped index.  Past special's table the values come
    from log_factorial itself.
    """
    n = np.where(mask, n, 0)
    table = _LOGFAC_ARRAY
    top = int(n.max(initial=0))
    if top >= len(table):
        table = np.concatenate(
            (table, [log_factorial(k) for k in range(len(table), top + 1)]))
    return table[n]


def _int_arrays(*args):
    return np.broadcast_arrays(*(np.asarray(x, dtype=np.intp) for x in args))


def _triangle_mask(ta, tb, tc):
    return ((np.abs(ta - tb) <= tc) & (tc <= ta + tb)
            & ((ta + tb + tc) % 2 == 0))


def _triangle_args(ta, tb, tc):
    """Factorial arguments of Delta(a b c); the last one is a denominator."""
    return [(ta + tb - tc) // 2, (ta - tb + tc) // 2, (-ta + tb + tc) // 2,
            (ta + tb + tc) // 2 + 1]


def _log_triangle_rows(lf):
    """ln Delta from the four rows _triangle_args gave to _logfac_at."""
    return 0.5 * (lf[0] + lf[1] + lf[2] - lf[3])


def _jm_mask(tj, tm):
    return (np.abs(tm) <= tj) & ((tj - tm) % 2 == 0)


def _span(low, high, mask):
    """Length of the padded summation axis: the longest range low..high."""
    return int(np.max(np.where(mask, high - low + 1, 0), initial=0))


def _sign(n):
    return np.where(n % 2, -1.0, 1.0)


def _cgc3_array(tj1, tm1, tj2, tm2, tj, tm):
    """cgc3 over broadcast arrays of doubled arguments."""
    tj1, tm1, tj2, tm2, tj, tm = _int_arrays(tj1, tm1, tj2, tm2, tj, tm)
    ok = (_triangle_mask(tj1, tj2, tj) & (tm1 + tm2 == tm)
          & _jm_mask(tj1, tm1) & _jm_mask(tj2, tm2) & _jm_mask(tj, tm))
    lf = _logfac_at(np.stack(_triangle_args(tj1, tj2, tj)
                             + [(tj1 + tm1) // 2, (tj1 - tm1) // 2,
                                (tj2 + tm2) // 2, (tj2 - tm2) // 2,
                                (tj + tm) // 2, (tj - tm) // 2]), ok)
    # A sum over axis 0 of a C-ordered stack adds its rows in order (numpy
    # sums pairwise only along the fast axis), so every log sum below is
    # added in the scalar functions' order.
    log_pre = (_log_triangle_rows(lf)
               + 0.5 * np.concatenate([np.log(tj + 1.0)[None], lf[4:]])
               .sum(axis=0))
    # Row r of the k-th term's denominator is lf(base[r] + step[r] k).
    base = np.stack([np.zeros_like(tj), (tj1 + tj2 - tj) // 2,
                     (tj1 - tm1) // 2, (tj2 + tm2) // 2,
                     (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2])
    step = np.array([1, -1, -1, -1, 1, 1]).reshape((-1,) + (1,) * ok.ndim)
    k_min = np.maximum.reduce([base[0], -base[4], -base[5]])
    k_max = np.minimum.reduce([base[1], base[2], base[3]])
    total = np.zeros(ok.shape)
    for i in range(_span(k_min, k_max, ok)):
        k = k_min + i
        live = ok & (k <= k_max)
        log_den = _logfac_at(base + step * k, live).sum(axis=0)
        total += np.where(live, _sign(k) * np.exp(log_pre - log_den), 0.0)
    return total


def _wigner6j_array(ta, tb, tc, td, te, tf):
    """wigner6j over broadcast arrays of doubled arguments."""
    ta, tb, tc, td, te, tf = _int_arrays(ta, tb, tc, td, te, tf)
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    ok = np.logical_and.reduce([_triangle_mask(*t) for t in triads])
    lf = _logfac_at(np.stack([n for t in triads for n in _triangle_args(*t)]),
                    ok)
    log_delta = sum(_log_triangle_rows(lf[i:i + 4]) for i in range(0, 16, 4))
    lows = np.stack([(x + y + z) // 2 for x, y, z in triads])
    highs = np.stack([(ta + tb + td + te) // 2, (ta + tc + td + tf) // 2,
                      (tb + tc + te + tf) // 2])
    t_min, t_max = lows.max(axis=0), highs.min(axis=0)
    signs = np.array([1.0] + [-1.0] * 7).reshape((-1,) + (1,) * ok.ndim)
    total = np.zeros(ok.shape)
    for i in range(_span(t_min, t_max, ok)):
        t = t_min + i
        live = ok & (t <= t_max)
        lf = _logfac_at(np.concatenate([(t + 1)[None], t - lows, highs - t]),
                        live)
        log_term = (lf * signs).sum(axis=0)
        total += np.where(live, _sign(t) * np.exp(log_delta + log_term), 0.0)
    return total


def _wigner9j_array(ta, tb, tc, td, te, tf, tg, th, tk):
    """wigner9j over broadcast arrays of doubled arguments."""
    ta, tb, tc, td, te, tf, tg, th, tk = _int_arrays(ta, tb, tc, td, te, tf,
                                                     tg, th, tk)
    rows = ((ta, tb, tc), (td, te, tf), (tg, th, tk))
    cols = ((ta, td, tg), (tb, te, th), (tc, tf, tk))
    ok = np.logical_and.reduce([_triangle_mask(*t) for t in rows + cols])
    tx_min = np.maximum.reduce([np.abs(ta - tk), np.abs(tb - tf),
                                np.abs(td - th)])
    tx_max = np.minimum.reduce([ta + tk, tb + tf, td + th])
    n_x = _span(tx_min // 2, tx_max // 2, ok)
    # Slot i holds 2x = tx_min + 2i.  A slot past tx_max breaks a triad of
    # a 6j factor, which then vanishes.
    tx = tx_min + 2 * np.arange(n_x).reshape((-1,) + (1,) * ok.ndim)
    # The three 6j factors of every slot, stacked on a leading axis of
    # length 3, in one call.
    w1, w2, w3 = _wigner6j_array(*(
        np.stack([np.broadcast_to(f, tx.shape) for f in factors])
        for factors in zip((ta, td, tg, th, tk, tx), (tb, te, th, td, tx, tf),
                           (tc, tf, tk, tx, ta, tb))))
    total = np.zeros(ok.shape)
    for i in range(n_x):
        total += np.where(ok, _sign(tx[i]) * (tx[i] + 1)
                          * w1[i] * w2[i] * w3[i], 0.0)
    return total


def gen_character(tl, lam, omega):
    """Generalised character chi^l_lambda(omega) of the rotation group.

    chi^l_lam(w) = (2 lam)!! sqrt(2l+1) sqrt((2l-lam)!/(2l+lam+1)!)
                   sin(w/2)^lam C^{lam+1}_{2l-lam}(cos(w/2)),
    with tl = 2l doubled.  Accepts numpy arrays for omega.
    """
    if not 0 <= lam <= tl:
        raise ValueError(f"gen_character: need 0 <= lambda <= 2l, got "
                         f"lambda = {lam}, 2l = {tl}")
    half = 0.5 * np.asarray(omega, dtype=float)
    # ln (2 lam)!! = lam ln 2 + ln lam! rides in the exponent with the
    # factorial ratio; the double factorial alone overflows from lam ~ 151.
    pre = math.exp(lam * math.log(2.0) + log_factorial(lam)
                   + 0.5 * (log_factorial(tl - lam)
                            - log_factorial(tl + lam + 1)))
    value = (math.sqrt(tl + 1.0) * pre
             * np.sin(half) ** lam * gegenbauer(lam + 1, tl - lam, np.cos(half)))
    if np.isscalar(omega) or np.asarray(omega).ndim == 0:
        return float(value)
    return value


def _normed_assoc_legendre(lam, alpha, x):
    """sqrt((lam-alpha)!/(lam+alpha)!) P_lam^alpha(x), Condon-Shortley, alpha >= 0.

    The seed sqrt((2a)!)^-1 (-1)^a (2a-1)!! (1 - x^2)^(a/2) carries
    ln (2a-1)!! = ln (2a)! - a ln 2 - ln a! in one exponent with the norm
    (the double factorial alone overflows from a ~ 151); the upward
    recurrence in degree is linear, so the normalised seeds start it.
    """
    seed = (-1.0) ** alpha * math.exp(
        log_factorial(2 * alpha) - alpha * math.log(2.0) - log_factorial(alpha)
        + 0.5 * (log_factorial(lam - alpha) - log_factorial(lam + alpha)))
    paa = seed * (1.0 - x * x) ** (alpha / 2.0)
    if lam == alpha:
        return paa
    prev = paa
    cur = (2.0 * alpha + 1.0) * x * paa
    for deg in range(alpha + 2, lam + 1):
        prev, cur = cur, ((2.0 * deg - 1.0) * x * cur
                          - (deg + alpha - 1.0) * prev) / (deg - alpha)
    return cur


def mod_sph_harm(lam, alpha, theta, phi):
    """Modified spherical harmonic C_{lam alpha} = sqrt(4 pi/(2 lam+1)) Y_{lam alpha}.

    Condon-Shortley convention; C_00 = 1, C_10 = cos(theta).  Accepts numpy
    arrays for theta and phi.
    """
    if abs(alpha) > lam:
        raise ValueError(f"mod_sph_harm: |alpha| <= lambda required, got "
                         f"alpha = {alpha}, lambda = {lam}")
    a = abs(alpha)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    value = (_normed_assoc_legendre(lam, a, np.cos(theta))
             * np.exp(1j * a * phi))
    if alpha < 0:
        value = (-1.0) ** a * np.conj(value)
    if value.ndim == 0:
        return complex(value)
    return value


def rotation_u(tl, tmu, tnu, omega, theta, phi):
    """Axis-angle rotation matrix element U^l_{mu nu}(omega, theta, phi).

    Expanded over generalised characters,

      U^l_{mu nu} = sum_lam (-i)^lam (2 lam+1)/(2l+1) C^{l nu}_{l mu, lam alf}
                    chi^l_lam(omega) C_{lam alf}(theta, phi),

    with alf = nu - mu.  For l = 1/2 this is the familiar
    cos(w/2) I - i sin(w/2) (n . sigma) with axis n(theta, phi), and the
    rank-1 elements reproduce the hyperspherical components of a 4-vector.
    """
    validate_jm(tl, tmu)
    validate_jm(tl, tnu)
    talpha = tnu - tmu
    alpha = talpha // 2
    total = 0.0 + 0.0j
    for lam in range(abs(alpha), tl + 1):
        coef = cgc3(tl, tmu, 2 * lam, talpha, tl, tnu)
        if coef == 0.0:
            continue
        total += ((-1j) ** lam * (2.0 * lam + 1.0) / (tl + 1.0) * coef
                  * gen_character(tl, lam, omega)
                  * mod_sph_harm(lam, alpha, theta, phi))
    return total
