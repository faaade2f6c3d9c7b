"""Multipole expansions on the 4-sphere.

The central object is the coefficient B^{(n j)}_{l l'} of the expansion

    r^n C_j(r-hat) = sum_{l l'} B^{(n j)}_{l l'} {C_l(r1-hat) x C_{l'}(r2-hat)}_j,

with r = r1 + r2, valid for r1 < r2 (and as a finite polynomial identity
when n - j is an even nonnegative integer).  Companion helpers cover the
plane-wave radial coefficients, powers of 4D scalar products and the
action of Laplacian powers on solid harmonics.
"""

import csv
import io
import json
import math

import numpy as np

from .coupling import bipolar_values
from .harmonics import c_components
from .special import (DEFAULT_SERIES, SeriesControl, hyp0f1, hyp2f1,
                      log_factorial, pochhammer)

__all__ = [
    "ExpansionSpec", "CoeffTable", "admissible_pair", "plane_wave_radial",
    "scalar_power_coeff", "laplacian_power", "b_coeff", "expand_translated",
    "expand_radial_function", "eval_expansion",
]


def _terminates(n, j):
    """True when n - j is an even nonnegative integer (finite expansion)."""
    d = n - j
    k = round(d / 2.0)
    return k >= 0 and abs(d - 2 * k) < 1e-12


class ExpansionSpec:
    """Parameters of one translated-harmonic expansion r^n C_j."""

    def __init__(self, n, j, r1, r2, l_max=30, ctl=DEFAULT_SERIES):
        j = int(j)
        if j < 0:
            raise ValueError("rank j must be nonnegative")
        if r1 < 0 or r2 <= 0:
            raise ValueError("need r1 >= 0 and r2 > 0")
        if int(l_max) < j:
            raise ValueError("l_max must be at least j")
        if not isinstance(ctl, SeriesControl):
            raise TypeError("ctl must be a SeriesControl")
        if _terminates(n, j):
            # Snapped, so that b_coeff's exact zeros end the table where
            # `terminated` says it ends.
            n = round(n)
        elif r1 >= r2:
            raise ValueError(
                "expansion does not converge for r1 >= r2; swap r1 and r2")
        self.n = float(n)
        self.j = j
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.l_max = int(l_max)
        self.ctl = ctl

    @property
    def terminated(self):
        return _terminates(self.n, self.j)

    def __repr__(self):
        return (f"ExpansionSpec(n={self.n}, j={self.j}, r1={self.r1}, "
                f"r2={self.r2}, l_max={self.l_max})")


def admissible_pair(j, l, lp):
    """Whether (l, l') can carry weight in a rank-j expansion.

    Requires j + l + l' even and the triangle |l - l'| <= j <= l + l'.
    """
    return ((j + l + lp) % 2 == 0 and abs(l - lp) <= j <= l + lp
            and l >= 0 and lp >= 0)


def plane_wave_radial(l, a, r, ctl=DEFAULT_SERIES):
    """Coefficient of C^1_l(a-hat . r-hat) in the expansion of e^{a.r}.

    Equals (a^l r^l / (2^l l!)) 0F1(l+2; a^2 r^2 / 4).
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    x = a * r
    if x == 0.0:
        return float(l == 0)
    # (x/2)^l / l! in one exponent: 2^l l! alone overflows from l = 171.
    lead = math.exp(l * math.log(abs(x) / 2.0) - log_factorial(l))
    if x < 0.0 and l % 2:
        lead = -lead
    return lead * hyp0f1(l + 2, 0.25 * x * x, ctl)


def scalar_power_coeff(n, l):
    """Coefficient of (ar)^n C_l(a-hat).C_l(r-hat) in (a.r)^n.

    Nonzero only for l = n, n-2, ..., down to 0 or 1; the value is
    n! 2(l+1) / ((n-l)!! (n+l+2)!!).
    """
    if n < 0 or l < 0 or l > n or (n - l) % 2:
        return 0.0
    # (2m)!! = 2^m m! turns the value into 2 (l+1) C(n+1, (n-l)/2) /
    # ((n+1) 2^(n+1)): one correctly rounded division of exact integers,
    # where n! alone overflows a float from n = 171.
    return (2 * (l + 1) * math.comb(n + 1, (n - l) // 2)
            / ((n + 1) * 2 ** (n + 1)))


def laplacian_power(n, j, k):
    """Scalar factor in Delta^k r^n C_j = factor * r^{n-2k} C_j (4D Laplacian).

    factor = 2^{2k} ((-2-j-n)/2)_k ((j-n)/2)_k.
    """
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    return (4.0 ** k * pochhammer((-2.0 - j - n) / 2.0, k)
            * pochhammer((j - n) / 2.0, k))


def b_coeff(spec, l, lp):
    """Multipole coefficient B^{(n j)}_{l lp} of spec's expansion.

    Inadmissible (l, lp) pairs give exactly 0.
    """
    n, j = spec.n, spec.j
    if not admissible_pair(j, l, lp):
        return 0.0
    ka = (j + l - lp) // 2
    kb = (l + lp - j) // 2
    # (a0)_ka (b0)_kb / l! with l = ka + kb, as one running product of
    # ratios: the Pochhammer symbols and l! overflow apart from l ~ 158.
    # A Pochhammer factor that crosses zero keeps the product exactly 0.
    a0, b0 = (-2.0 - j - n) / 2.0, (j - n) / 2.0
    ratio = 1.0
    for i in range(ka):
        ratio *= (a0 + i) / (i + 1)
    for i in range(kb):
        ratio *= (b0 + i) / (ka + i + 1)
    if ratio == 0.0:
        return 0.0
    a = (-2.0 + l - lp - n) / 2.0
    b = (l + lp - n) / 2.0
    z = (spec.r1 / spec.r2) ** 2
    hyp = hyp2f1(a, b, l + 2, z, spec.ctl)
    if spec.r1 == 0.0:
        lead = spec.r2 ** n if l == 0 else 0.0
    else:
        lead = spec.r2 ** n * (-spec.r1 / spec.r2) ** l
    return lead * (lp + 1.0) / (j + 1.0) * ratio * hyp


class CoeffTable:
    """A finite table of expansion coefficients: (l, lp) -> value."""

    def __init__(self, entries, terminated, spec=None, j=None):
        self.entries = dict(entries)
        self.terminated = bool(terminated)
        self.spec = spec
        self.j = spec.j if spec is not None else j

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, key):
        return self.entries.get(key, 0.0)

    def items(self):
        return sorted(self.entries.items())

    def to_csv(self):
        """Serialize as CSV with header ``l,lp,value`` (17 significant digits)."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["l", "lp", "value"])
        for (l, lp), val in self.items():
            w.writerow([l, lp, "%.17g" % val])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text, terminated=False, j=None):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["l", "lp", "value"]:
            raise ValueError("expected CSV header 'l,lp,value'")
        entries = {(int(l), int(lp)): float(v) for l, lp, v in rows[1:]}
        return cls(entries, terminated, j=j)

    def to_json(self):
        meta = None
        if self.spec is not None:
            meta = {"n": self.spec.n, "j": self.spec.j, "r1": self.spec.r1,
                    "r2": self.spec.r2, "l_max": self.spec.l_max}
        payload = {
            "spec": meta,
            "j": self.j,
            "terminated": self.terminated,
            "entries": [
                {"l": l, "lp": lp, "value": float("%.17g" % v)}
                for (l, lp), v in self.items()
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        spec = None
        if payload.get("spec") is not None:
            spec = ExpansionSpec(**payload["spec"])
        entries = {(e["l"], e["lp"]): e["value"] for e in payload["entries"]}
        return cls(entries, payload["terminated"], spec=spec,
                   j=payload.get("j"))


def _pair_range(j, l):
    """Admissible lp values for given (j, l)."""
    return range(abs(j - l), j + l + 1, 2)


def expand_translated(spec):
    """All coefficients B^{(n j)}_{l lp} with l <= spec.l_max."""
    entries = {}
    for l in range(spec.l_max + 1):
        for lp in _pair_range(spec.j, l):
            val = b_coeff(spec, l, lp)
            if val != 0.0:
                entries[(l, lp)] = val
    return CoeffTable(entries, spec.terminated, spec=spec)


def expand_radial_function(taylor, j, r1, r2, l_max=30, ctl=DEFAULT_SERIES):
    """Expansion of f(|r1 + r2|) C_j, with f given by Taylor coefficients.

    ``taylor[n]`` multiplies r^n; the table accumulates
    C^{(j)}_{l lp} = sum_n taylor[n] B^{(n j)}_{l lp}.
    """
    entries = {}
    terminated = True
    for n, fn in enumerate(taylor):
        if fn == 0.0:
            continue
        spec = ExpansionSpec(n, j, r1, r2, l_max=max(l_max, j), ctl=ctl)
        terminated = terminated and spec.terminated
        for key, val in expand_translated(spec).entries.items():
            entries[key] = entries.get(key, 0.0) + fn * val
    return CoeffTable(entries, terminated, j=j)


def eval_expansion(table, j, r1hat, r2hat):
    """Sum the bipolar series at two unit directions.

    Returns the complex array over the outer (lam, alpha) components of
    sum_{l lp} B_{l lp} {C_l(r1-hat) x C_{lp}(r2-hat)}_{j, lam, alpha}.
    A table that records its rank must be evaluated at that rank.
    """
    if table.j is not None and table.j != j:
        raise ValueError(f"table holds rank j = {table.j}, not j = {j}")
    out = np.zeros((j + 1) ** 2, dtype=complex)
    cache1, cache2 = {}, {}
    for (l, lp), val in table.entries.items():
        if l not in cache1:
            cache1[l] = c_components(l, r1hat)
        if lp not in cache2:
            cache2[lp] = c_components(lp, r2hat)
        out += val * bipolar_values("c", l, lp, j, cache1[l], cache2[lp])
    return out
