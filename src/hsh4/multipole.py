"""Multipole expansions on the 4-sphere.

The central object is the coefficient B^{(n j)}_{l l'} of the expansion

    r^n C_j(r-hat) = sum_{l l'} B^{(n j)}_{l l'} {C_l(r1-hat) x C_{l'}(r2-hat)}_j,

with r = r1 + r2, valid for r1 < r2 (and as a finite polynomial identity
when n - j is an even nonnegative integer).  Companion helpers cover the
plane-wave radial coefficients, powers of 4D scalar products and the
action of Laplacian powers on solid harmonics.

The ``hsh4 verify`` coupling and expansion suites live here as well: they
cross-check analytic closed forms against each other and load no scipy.
"""

import csv
import io
import json
import math

import numpy as np

from .angular import _triangle_ok
from .coupling import bipolar_values, cgc4_c, cgc4_c_closed
from .harmonics import c_components, c_table
from .special import (DEFAULT_SERIES, SeriesControl, _finite, _floats,
                      _hyp2f1_array, _rank, _tol, hyp0f1, hyp2f1,
                      log_factorial)

__all__ = [
    "ExpansionSpec", "CoeffTable", "admissible_pair", "plane_wave_radial",
    "scalar_power_coeff", "laplacian_power", "b_coeff", "expand_translated",
    "expand_radial_function", "eval_expansion", "check_entry",
    "expansion_checks", "coupling_checks",
]


def _terminates(n, j):
    """True when n - j is an even nonnegative integer (finite expansion)."""
    d = n - j
    k = round(d / 2.0)
    return k >= 0 and abs(d - 2 * k) < 1e-12


class ExpansionSpec:
    """Parameters of one translated-harmonic expansion r^n C_j."""

    def __init__(self, n, j, r1, r2, l_max=30, ctl=DEFAULT_SERIES):
        _finite(n=n, r1=r1, r2=r2)
        j = _rank("rank j", j)
        l_max = _rank("l_max", l_max, j)
        if r1 < 0 or r2 <= 0:
            raise ValueError("need r1 >= 0 and r2 > 0")
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
        self.l_max = l_max
        self.ctl = ctl

    @property
    def terminated(self):
        return _terminates(self.n, self.j)

    def __repr__(self):
        return (f"ExpansionSpec(n={self.n}, j={self.j}, r1={self.r1}, "
                f"r2={self.r2}, l_max={self.l_max})")


def admissible_pair(j, l, lp):
    """Whether (l, l') can carry weight in a rank-j expansion.

    Requires j + l + l' even and the triangle |l - l'| <= j <= l + l'.  The
    ranks must be nonnegative integers (ValueError otherwise).
    """
    return _triangle_ok(_rank("l", l), _rank("lp", lp), _rank("rank j", j))


def plane_wave_radial(l, a, r, ctl=DEFAULT_SERIES):
    """Coefficient of C^1_l(a-hat . r-hat) in the expansion of e^{a.r}.

    Equals (a^l r^l / (2^l l!)) 0F1(l+2; a^2 r^2 / 4).  A value past the
    float range raises ValueError.
    """
    l = _rank("l", l)
    _finite(a=a, r=r)
    x = a * r
    if x == 0.0:
        return float(l == 0)
    # (x/2)^l / l! in one exponent: 2^l l! alone overflows from l = 171.
    try:
        lead = math.exp(l * math.log(abs(x) / 2.0) - log_factorial(l))
        value = lead * hyp0f1(l + 2, 0.25 * x * x, ctl)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"plane_wave_radial: the l = {l} coefficient at "
                         f"a r = {x} exceeds the float range")
    return -value if x < 0.0 and l % 2 else value


def scalar_power_coeff(n, l):
    """Coefficient of (ar)^n C_l(a-hat).C_l(r-hat) in (a.r)^n.

    Nonzero only for l = n, n-2, ..., down to 0 or 1; the value is
    n! 2(l+1) / ((n-l)!! (n+l+2)!!), and exactly 0 for l > n or n - l odd.
    n and l must be nonnegative integers (ValueError otherwise).
    """
    n, l = _rank("n", n), _rank("l", l)
    if l > n or (n - l) % 2:
        return 0.0
    # (2m)!! = 2^m m! turns the value into 2 (l+1) C(n+1, (n-l)/2) /
    # ((n+1) 2^(n+1)): one correctly rounded division of exact integers,
    # where n! alone overflows a float from n = 171.
    return (2 * (l + 1) * math.comb(n + 1, (n - l) // 2)
            / ((n + 1) * 2 ** (n + 1)))


def laplacian_power(n, j, k):
    """Scalar factor in Delta^k r^n C_j = factor * r^{n-2k} C_j (4D Laplacian).

    factor = 2^{2k} ((-2-j-n)/2)_k ((j-n)/2)_k, exactly 0 when a Pochhammer
    factor crosses zero.  A value beyond float range raises ValueError.
    """
    _finite(n=n)
    j, k = _rank("rank j", j), _rank("k", k)
    # One running product of 2 (a + i) factors, renormalised by frexp after
    # each, so no partial product overflows; a zero factor stays exact.
    mant, exp = 1.0, 0
    for i in range(k):
        for x in ((-2.0 - j - n) / 2.0 + i, (j - n) / 2.0 + i):
            mant, e = math.frexp(2.0 * mant * x)
            exp += e
    try:
        return math.ldexp(mant, exp)
    except OverflowError:
        raise ValueError(f"laplacian_power({n}, {j}, k = {k}) exceeds the "
                         f"float range") from None


# b_coeff and expand_translated share the helpers below, so one
# coefficient and a whole table add the same factors in the same order.
# B_{l lp} = lead(l) (lp+1)/(j+1) (a0)_ka (b0)_kb / l! 2F1(a0 + ka, b0 + kb;
# l + 2; (r1/r2)^2), with ka = (j + l - lp)/2, kb = l - ka, a0 = (-2-j-n)/2
# and b0 = (j-n)/2.  The Pochhammer ratio is one running product of the
# steps _a_step over i < ka, then _b_step over i < kb: the Pochhammer
# symbols and l! overflow apart from l ~ 158, and a factor that crosses
# zero keeps the product exactly 0.

def _pochhammer_bases(n, j):
    return (-2.0 - j - n) / 2.0, (j - n) / 2.0


def _a_step(a0, i):
    return (a0 + i) / (i + 1)


def _b_step(b0, ka, i):
    return (b0 + i) / (ka + i + 1)


def _hyp_args(n, l, lp):
    """(a, b) of the 2F1 of B_{l lp}; its c is l + 2."""
    return (-2.0 + l - lp - n) / 2.0, (l + lp - n) / 2.0


def _lead(spec, l):
    """r2^n (-r1/r2)^l by Python's float power, inf where it overflows."""
    try:
        if spec.r1 == 0.0:
            return spec.r2 ** spec.n if l == 0 else 0.0
        return spec.r2 ** spec.n * (-spec.r1 / spec.r2) ** l
    except OverflowError:
        return math.inf


def _b_value(lead, lp, j, ratio, hyp):
    return lead * (lp + 1.0) / (j + 1.0) * ratio * hyp


def b_coeff(spec, l, lp):
    """Multipole coefficient B^{(n j)}_{l lp} of spec's expansion.

    Inadmissible (l, lp) pairs give exactly 0, and so do the pairs past the
    end of a terminating expansion, where a Pochhammer factor crosses zero.
    l and lp must be nonnegative integers, and a value past the float range
    raises ValueError.  The single-coefficient route; expand_translated
    builds a whole table in one array pass, bit for bit the same.
    """
    n, j = spec.n, spec.j
    l, lp = _rank("l", l), _rank("lp", lp)
    if not _triangle_ok(l, lp, j):
        return 0.0
    ka = (j + l - lp) // 2
    kb = (l + lp - j) // 2
    a0, b0 = _pochhammer_bases(n, j)
    ratio = 1.0
    for i in range(ka):
        ratio *= _a_step(a0, i)
    for i in range(kb):
        ratio *= _b_step(b0, ka, i)
    if ratio == 0.0:
        return 0.0
    a, b = _hyp_args(n, l, lp)
    hyp = hyp2f1(a, b, l + 2, (spec.r1 / spec.r2) ** 2, spec.ctl)
    value = _b_value(_lead(spec, l), lp, j, ratio, hyp)
    if not math.isfinite(value):
        raise ValueError(f"b_coeff: B^({n} {j})_({l} {lp}) at r1 = "
                         f"{spec.r1}, r2 = {spec.r2} exceeds the float range")
    return value


class CoeffTable:
    """A finite table of expansion coefficients: (l, lp) -> value."""

    def __init__(self, entries, terminated, spec=None, j=None):
        self.entries = {(_rank("l", l), _rank("lp", lp)): v
                        for (l, lp), v in dict(entries).items()}
        _finite(entries=np.array(list(self.entries.values())))
        self.terminated = bool(terminated)
        self.spec = spec
        self.j = spec.j if spec is not None else (
            None if j is None else _rank("rank j", j))

    @classmethod
    def _of_spec(cls, entries, spec):
        """spec's table from entries already keyed by int pairs and holding
        finite floats, which __init__ would check one by one again."""
        table = cls.__new__(cls)
        table.entries, table.terminated = entries, spec.terminated
        table.spec, table.j = spec, spec.j
        return table

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
        entries = {}
        for i, row in enumerate(rows[1:], start=2):
            if len(row) != 3:
                raise ValueError(f"CSV row {i} holds {len(row)} values, "
                                 f"not the three of 'l,lp,value'")
            values = []
            for column, text, parse in zip(rows[0], row, (int, int, float)):
                try:
                    values.append(parse(text))
                except ValueError:
                    raise ValueError(f"CSV row {i}, column {column}: cannot "
                                     f"read {text!r} as {parse.__name__}"
                                     ) from None
            entries[values[0], values[1]] = values[2]
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
        """Read what to_json writes; any other payload raises ValueError,
        which names the key or the entry at fault."""
        payload = _json_object(json.loads(text), "payload",
                               ("entries", "terminated"), ("spec", "j"))
        spec = payload.get("spec")
        if spec is not None:
            spec = ExpansionSpec(**_json_object(
                spec, "spec", ("n", "j", "r1", "r2"), ("l_max",)))
        rows, terminated = payload["entries"], payload["terminated"]
        if not isinstance(rows, list):
            raise ValueError(f"CoeffTable JSON 'entries' must be a list, "
                             f"got {rows!r}")
        if not isinstance(terminated, bool):
            raise ValueError(f"CoeffTable JSON 'terminated' must be true or "
                             f"false, got {terminated!r}")
        entries = {}
        for i, e in enumerate(rows):
            e = _json_object(e, f"entry {i}", ("l", "lp", "value"))
            value = e["value"]
            if type(value) not in (int, float):
                raise ValueError(f"CoeffTable JSON entry {i}: 'value' must "
                                 f"be a number, got {value!r}")
            entries[e["l"], e["lp"]] = value
        return cls(entries, terminated, spec=spec, j=payload.get("j"))


def _json_object(value, where, required, optional=()):
    """value, if it is a JSON object with every required key and no keys
    but those and the optional ones; ValueError naming where otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"CoeffTable JSON {where} must be an object, got "
                         f"{value!r}")
    for key in required:
        if key not in value:
            raise ValueError(f"CoeffTable JSON {where} lacks the key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ValueError(f"CoeffTable JSON {where} holds the unknown key "
                             f"{key!r}")
    return value


def expand_translated(spec):
    """All coefficients B^{(n j)}_{l lp} with l <= spec.l_max, nonzero ones
    keyed l-major with lp ascending: b_coeff's values in one array pass.

    Raises what b_coeff raises at the first (l, lp) in that order where it
    raises.
    """
    n, j, l_max = spec.n, spec.j, spec.l_max
    # Row l holds lp = |j - l|, ..., j + l in steps of 2: ka = (j + l - lp)
    # / 2 = min(j, l), ..., 0 and kb = l - ka.
    l, col = np.nonzero(j - np.arange(j + 1) <= np.arange(l_max + 1)[:, None])
    ka = j - col
    kb = l - ka
    lp = j + l - 2 * ka
    # The Pochhammer ratio of every (ka, kb) from one running product per
    # ka, which accumulate takes in b_coeff's order: the a-steps down
    # column 0, then the b-steps along row ka.
    a0, b0 = _pochhammer_bases(n, j)
    steps = np.empty((j + 1, l_max + 1))
    steps[0, 0] = 1.0
    steps[1:, 0] = _a_step(a0, np.arange(j))
    np.multiply.accumulate(steps[:, 0], out=steps[:, 0])
    steps[:, 1:] = _b_step(b0, np.arange(j + 1)[:, None], np.arange(l_max))
    ratio = np.multiply.accumulate(steps, axis=1)[ka, kb]
    live = ratio != 0.0
    l, lp, ratio = l[live], lp[live], ratio[live]
    a, b = _hyp_args(n, l, lp)
    hyp, fail = _hyp2f1_array(a, b, l + 2, (spec.r1 / spec.r2) ** 2, spec.ctl)
    leads = np.array([_lead(spec, x) for x in range(l_max + 1)])
    with np.errstate(all="ignore"):
        value = _b_value(leads[l], lp, j, ratio, hyp)
    fail |= ~np.isfinite(value)
    if fail.any():
        # b_coeff raises the very error of the scalar route here.
        i = int(fail.argmax())
        b_coeff(spec, int(l[i]), int(lp[i]))
    keep = value != 0.0
    entries = dict(zip(zip(l[keep].tolist(), lp[keep].tolist()),
                       value[keep].tolist()))
    return CoeffTable._of_spec(entries, spec)


def expand_radial_function(taylor, j, r1, r2, l_max=30, ctl=DEFAULT_SERIES):
    """Expansion of f(|r1 + r2|) C_j, with f given by Taylor coefficients.

    ``taylor[n]`` multiplies r^n; the table accumulates
    C^{(j)}_{l lp} = sum_n taylor[n] B^{(n j)}_{l lp}.
    """
    j, l_max, taylor = _rank("rank j", j), _rank("l_max", l_max), list(taylor)
    _finite(r1=r1, r2=r2, **{f"taylor[{n}]": f for n, f in enumerate(taylor)})
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
    r1hat and r2hat are two 4-vectors, or two (N, 4) batches of the same
    shape, which give one column per pair: shape ((j+1)^2, N).  A table
    that records its rank must be evaluated at that rank.
    """
    j = _rank("rank j", j)
    if table.j is not None and table.j != j:
        raise ValueError(f"table holds rank j = {table.j}, not j = {j}")
    r1, r2 = _floats("r1hat", r1hat), _floats("r2hat", r2hat)
    if r1.shape != r2.shape or r1.ndim not in (1, 2) or r1.shape[-1] != 4:
        raise ValueError(f"r1hat and r2hat must be 4-vectors or (N, 4) "
                         f"batches of one shape, got shapes {r1.shape} and "
                         f"{r2.shape}")
    n = len(r1) if r1.ndim == 2 else 1
    top = max((max(key) for key in table.entries), default=0)
    comps = c_table(top, np.concatenate([r1.reshape(-1, 4),
                                         r2.reshape(-1, 4)]))
    out = np.zeros(((j + 1) ** 2, n), dtype=complex)
    for (l, lp), val in table.entries.items():
        out += val * bipolar_values("c", l, lp, j, comps[l][:, :n],
                                    comps[lp][:, n:])
    return out if r1.ndim == 2 else out[:, 0]


def check_entry(check, params, expected, observed, tol):
    """One serializable verification record, judged against tol."""
    _tol("tol", tol)
    abs_err = abs(expected - observed)
    rel_err = abs_err / abs(expected) if expected else abs_err
    return {
        "check": check,
        "params": params,
        "expected": expected,
        "observed": observed,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tol": tol,
        "pass": abs_err <= tol,
    }


def expansion_checks(tol, seed):
    """Seeded residuals of four multipole tables against r^n C_j(r-hat).

    Each record is judged against max(tol, 1e-8), the truncation floor of
    the l_max = 30 and 32 tables, and says so in its "tol".
    """
    _tol("tol", tol)
    checks = []
    rng = np.random.default_rng(_rank("seed", seed))
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
    """C-type CGC orthogonality on seeded columns and the stretched closed form.

    Each record is judged against max(tol, 1e-12), the rounding floor of the
    Racah sums, and says so in its "tol".
    """
    _tol("tol", tol)
    checks = []
    rng = np.random.default_rng(_rank("seed", seed))
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
