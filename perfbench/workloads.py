"""The four benchmark workloads and their per-op correctness checkers.

Each workload builds its inputs from the seed alone and hands the library
only those inputs.  The interface the worker drives is:

  setup()          everything that must happen before the first op
  ops(stream)      endless generator of op inputs for one seeded stream;
                   warmup_ops from the WARMUP stream run untimed first
                   (first CLI processes and first quadratures run slow)
  prepare(op)      harness work before an op, outside its timing
  run(op)          the op itself: one call (or one process) into hsh4
  check(op, out)   (ok, err): compare out with an independent reference
  after(op)        harness work after an op, inside a traced op only

Op mixes are dealt in seeded "decks" that hold every kind of op in fixed
proportion, so a run's mix, and with it the latency percentiles, does not
drift with the seed.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

import hsh4
import hsh4.cli
from hsh4 import coupling, harmonics, multipole, verify

WARMUP, TIMED, TRACED = 3, 1, 2


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _unit4(rng):
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


class Workload:
    name = None
    warmup_ops = 0
    trace_ops = 0

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        pass

    def prepare(self, op):
        pass

    def after(self, op):
        pass

    def defect_probes(self):
        """(attempted, failed) for documented known defects; none by default."""
        return 0, 0


# --------------------------------------------------------------------------
# expand_eval: evaluate warm translated-kernel expansions at direction pairs.

class ExpandEval(Workload):
    name = "expand_eval"
    warmup_ops = 3
    trace_ops = 6
    KERNELS = ((-2, 0), (-3, 1), (-1, 2))
    L_MAX = 20

    def setup(self):
        rng = _rng(self.seed, 0)
        self.kernels = []
        for n, j in self.KERNELS:
            ratio = float(rng.uniform(0.2, 0.4))
            table = multipole.expand_translated(
                multipole.ExpansionSpec(n, j, ratio, 1.0, l_max=self.L_MAX))
            for l, lp in table.entries:
                coupling.bipolar_plan("c", l, lp, j)
            self.kernels.append((n, j, ratio, table))

    def ops(self, stream):
        rng = _rng(self.seed, stream)
        while True:
            for k in rng.permutation(len(self.kernels)):
                yield int(k), _unit4(rng), _unit4(rng)

    def run(self, op):
        k, a, b = op
        _, j, _, table = self.kernels[k]
        return multipole.eval_expansion(table, j, a, b)

    def check(self, op, out):
        """Against r^n C_j(r-hat) by the scipy route, within the truncation
        tail (l_max + 1)^2 (r1/r2)^(l_max + 1) of the l <= l_max series."""
        k, a, b = op
        n, j, ratio, _ = self.kernels[k]
        r = ratio * a + b
        ref = (np.linalg.norm(r) ** n
               * verify.c_harmonics_at_vectors(j, r[None, :])[:, 0])
        err = float(np.max(np.abs(np.asarray(out) - ref)) / np.max(np.abs(ref)))
        tail = (self.L_MAX + 1) ** 2 * ratio ** (self.L_MAX + 1)
        return err <= tail + 1e-12, err


# --------------------------------------------------------------------------
# coeff_tables: cold bipolar plans and B tables.

def _pochhammer_is_zero(a, k):
    """(a)_k == 0 exactly: a is a nonpositive integer that the product reaches."""
    return a.denominator == 1 and -k < a <= 0


def b_coeff_mp(n, j, r1, r2, l, lp):
    """B^{(n j)}_{l lp} from the hypergeometric formula in 40-digit mpmath."""
    import mpmath  # imported on first check, so it stays out of setup_s
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        ka, kb = (j + l - lp) // 2, (l + lp - j) // 2
        poch = mpmath.rf((-2 - j - n) / 2, ka) * mpmath.rf((j - n) / 2, kb)
        hyp = mpmath.hyp2f1((-2 + l - lp - n) / 2, (l + lp - n) / 2, l + 2,
                            (mpmath.mpf(r1) / r2) ** 2)
        return (mpmath.power(r2, n) * (-mpmath.mpf(r1) / r2) ** l * (lp + 1)
                / (mpmath.factorial(l) * (j + 1)) * poch * hyp)


def expected_table_keys(n, j, l_max):
    """Every admissible (l, lp), l <= l_max, whose Pochhammer factor is nonzero."""
    n = Fraction(n)
    keys = set()
    for l in range(l_max + 1):
        for lp in range(abs(l - j), l + j + 1, 2):
            ka, kb = (j + l - lp) // 2, (l + lp - j) // 2
            if not (_pochhammer_is_zero((-2 - j - n) / 2, ka)
                    or _pochhammer_is_zero((j - n) / 2, kb)):
                keys.add((l, lp))
    return keys


PLAN_BOUND = 1e-10   # |sum of coeff^2 - 1| per outer component
TABLE_BOUND = 1e-9   # relative error of a sampled table entry
TABLE_SAMPLES = 6    # seeded entries per table checked against mpmath


def check_plan(j, plan):
    """Unitarity: sum of coeff^2 is 1 for every outer component."""
    _, _, iout, coeff = plan
    norms = np.bincount(iout, weights=coeff * coeff, minlength=(j + 1) ** 2)
    err = float(np.max(np.abs(norms - 1.0)))
    return err <= PLAN_BOUND, err


def check_table(n, j, r1, r2, l_max, table, sample_seed):
    """All expected entries present and finite; a seeded sample matches mpmath."""
    keys = expected_table_keys(n, j, l_max)
    values = table.entries
    if set(values) != keys or not all(map(math.isfinite, values.values())):
        return False, math.inf
    rng = np.random.default_rng(sample_seed)
    ordered = sorted(keys)
    picks = {ordered[-1]}
    picks.update(ordered[i] for i in rng.choice(len(ordered),
                                                min(TABLE_SAMPLES,
                                                    len(ordered)),
                                                replace=False))
    err = 0.0
    for l, lp in picks:
        ref = b_coeff_mp(n, j, r1, r2, l, lp)
        err = max(err, float(abs((values[(l, lp)] - ref) / ref)))
    return err <= TABLE_BOUND, err


class CoeffTables(Workload):
    """One deck: a plan for every (family, j <= 4, l stratum), and one table
    in each of 25 l_max bands.  Plan cost grows steeply with l and j, so a
    deck holds every (j, stratum) pairing rather than a seeded subset."""

    name = "coeff_tables"
    warmup_ops = 20
    trace_ops = 75  # one deck
    TABLE_NS = (-1.0, -2.0, -3.0, -4.0, -0.5, 1.5, 2.5)
    # l_max stays below 132, where b_coeff starts to lose digits to
    # subnormal intermediates at r1/r2 = 0.2; the higher tables are the
    # DEFECT_PROBES below.
    TABLE_LMAX = 120
    DEFECT_PROBES = ((-2.0, 0, 0.5, 160), (-3.0, 1, 0.5, 170),
                     (-2.0, 0, 0.5, 200))

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        l_top = 12 if smoke else 24
        edges = np.linspace(2, l_top, 6).round().astype(int)
        self.l_strata = [(int(lo) + (i > 0), int(hi))
                         for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        self.l_top = l_top
        self.table_lmax = 12 if smoke else self.TABLE_LMAX
        # _cgc4_c_reduced holds the 9j values behind cgc4_c.
        self.caches = (coupling.bipolar_plan, coupling.cgc4_c, coupling.cgc4_h,
                       coupling._cgc4_c_reduced)

    def _plan_op(self, rng, family, j, stratum):
        l = int(rng.integers(stratum[0], stratum[1] + 1))
        lps = [lp for lp in range(abs(l - j), min(l + j, self.l_top) + 1, 2)
               if j <= l + lp]
        return ("plan", family, l, int(rng.choice(lps)), j)

    def _table_op(self, rng, band):
        j = int(rng.integers(0, 5))
        lo = max(j, band[0])
        l_max = int(rng.integers(lo, max(lo, band[1]) + 1))
        n = float(rng.choice(self.TABLE_NS))
        ratio = float(rng.uniform(0.2, 0.5))
        return ("table", n, j, ratio, l_max, int(rng.integers(2 ** 31)))

    def ops(self, stream):
        rng = _rng(self.seed, stream)
        bands = np.linspace(0, self.table_lmax, 26).round().astype(int)
        while True:
            deck = [self._plan_op(rng, family, j, stratum)
                    for family in ("c", "h") for j in range(5)
                    for stratum in self.l_strata]
            deck += [self._table_op(rng, (int(lo), int(hi)))
                     for lo, hi in zip(bands, bands[1:])]
            for i in rng.permutation(len(deck)):
                yield deck[i]

    def prepare(self, op):
        # Cold caches: each op builds its plan, CGC and 9j values from scratch.
        for cached in self.caches:
            cached.cache_clear()

    def run(self, op):
        if op[0] == "plan":
            _, family, l, lp, j = op
            return coupling.bipolar_plan(family, l, lp, j)
        _, n, j, ratio, l_max, _ = op
        return multipole.expand_translated(
            multipole.ExpansionSpec(n, j, ratio, 1.0, l_max=l_max))

    def check(self, op, out):
        if op[0] == "plan":
            return check_plan(op[4], out)
        _, n, j, ratio, l_max, sample_seed = op
        return check_table(n, j, ratio, 1.0, l_max, out, sample_seed)

    def defect_probes(self):
        """Tables above TABLE_LMAX, checked like any table op."""
        failed = 0
        for n, j, ratio, l_max in self.DEFECT_PROBES:
            op = ("table", n, j, ratio, l_max, l_max)
            try:
                ok, _ = self.check(op, self.run(op))
            except (OverflowError, ValueError, ZeroDivisionError):
                ok = False
            failed += not ok
        return len(self.DEFECT_PROBES), failed


# --------------------------------------------------------------------------
# oracle: project_multipole on distinct kernels, so its moment cache is cold.

class Oracle(Workload):
    """r1/r2 stays in [0.2, 0.4]: towards 0.5 the 12x12x25 grid's two
    rotation seeds disagree by more than project_multipole's 1e-8."""

    name = "oracle"
    warmup_ops = 2
    trace_ops = 6
    NS = (1, -1, 2, -2, 3, -3)
    SEEDS = (7, 19)  # project_multipole's default rotation seeds
    BOUND = 1e-8

    def setup(self):
        self.grid = verify.build_grid(*((10, 10, 21) if self.smoke
                                        else (12, 12, 25)))

    def prepare(self, op):
        # Every kernel is new, so cached moments would only grow peak_rss_mb.
        verify._PROJ_CACHE.clear()

    def ops(self, stream):
        rng = _rng(self.seed, stream)
        while True:
            for i in rng.permutation(len(self.NS)):
                n, j = self.NS[i], int(rng.integers(0, 2))
                ratio = float(rng.uniform(0.2, 0.4))
                pairs = sorted(k for k in expected_table_keys(n, j, 2)
                               if k[1] <= 2)
                l, lp = pairs[rng.integers(len(pairs))]
                yield n, j, ratio, l, lp

    def run(self, op):
        n, j, ratio, l, lp = op
        return verify.project_multipole(n, j, ratio, 1.0, l, lp,
                                        grid=self.grid, seeds=self.SEEDS)

    def check(self, op, out):
        n, j, ratio, l, lp = op
        b = multipole.b_coeff(multipole.ExpansionSpec(n, j, ratio, 1.0,
                                                      l_max=2), l, lp)
        err = abs(out - b) / max(1.0, abs(b))
        return err <= self.BOUND, err

    def kernel_evals(self):
        """Kernel evaluations in one project_multipole call: seeds x N^2."""
        return len(self.SEEDS) * self.grid.size ** 2


# --------------------------------------------------------------------------
# cli: one `python -m hsh4.cli` process per op.

def _fmt(x):
    return "%.17g" % x


def _parse_assignment(text):
    """Value after ' = ' on the first output line."""
    return text.splitlines()[0].split(" = ", 1)[1]


class Cli(Workload):
    """One deck holds each verb once; an op is (verb, argv, reference),
    where reference() gives the in-process library value."""

    name = "cli"
    warmup_ops = 5
    trace_ops = 9
    VERBS = ("eval-c", "eval-h", "cgc-c", "cgc-h", "ninej", "expand-csv",
             "expand-json", "verify-coupling", "verify-orthogonality")
    TIMEOUT_S = 120

    def setup(self):
        self.ortho = (2, (8, 8, 17)) if self.smoke else (4, (24, 24, 49))
        self.import_trace = False
        self._verify_refs = {}

    def _op(self, verb, rng):
        if verb.startswith("eval"):
            text = ",".join(_fmt(x) for x in rng.normal(size=4))
            point = np.array([float(x) for x in text.split(",")])
            j = int(rng.integers(0, 9))
            if verb == "eval-c":
                lam = int(rng.integers(0, j + 1))
                alf = int(rng.integers(-lam, lam + 1))
                return (["eval", "--family", "c", "--j", str(j), "--lambda",
                         str(lam), "--alpha", str(alf), "--point=" + text],
                        lambda: harmonics.hsh_c(j, lam, alf, point))
            tmu, tnu = (int(x) for x in rng.integers(0, j + 1, size=2) * 2 - j)
            return (["eval", "--family", "h", "--j", str(j), "--mu", str(tmu),
                     "--nu", str(tnu), "--doubled", "--point=" + text],
                    lambda: harmonics.hsh_h(j, tmu, tnu, point))
        if verb == "cgc-c":
            while True:  # projections drawn until they couple
                j1, j2 = (int(x) for x in rng.integers(0, 5, size=2))
                j = int(rng.choice(range(abs(j1 - j2), j1 + j2 + 1, 2)))
                lam1, lam2, lam = (int(rng.integers(0, x + 1))
                                   for x in (j1, j2, j))
                alf1 = int(rng.integers(-lam1, lam1 + 1))
                alf = int(rng.integers(-lam, lam + 1))
                if abs(alf - alf1) <= lam2:
                    break
            q = (j1, lam1, alf1, j2, lam2, alf - alf1, j, lam, alf)
            return (["cgc", "--family", "c", "--q=" + ",".join(map(str, q))],
                    lambda: coupling.cgc4_c(*q))
        if verb == "cgc-h":
            while True:
                j1, j2 = (int(x) for x in rng.integers(0, 5, size=2))
                j = int(rng.choice(range(abs(j1 - j2), j1 + j2 + 1, 2)))
                t1 = rng.integers(0, j1 + 1, size=2) * 2 - j1
                t2 = rng.integers(0, j2 + 1, size=2) * 2 - j2
                if np.all(np.abs(t1 + t2) <= j):
                    break
            q = tuple(int(x) for x in (j1, *t1, j2, *t2, j, *(t1 + t2)))
            return (["cgc", "--family", "h", "--doubled",
                     "--q=" + ",".join(map(str, q))],
                    lambda: coupling.cgc4_h(*q))
        if verb == "ninej":
            def third(a, b):
                return int(rng.choice(range(abs(a - b), a + b + 1, 2)))
            a, b, d, e = (int(x) for x in rng.integers(0, 5, size=4))
            c, f, g, h = third(a, b), third(d, e), third(a, d), third(b, e)
            q = (a, b, c, d, e, f, g, h, third(c, f))
            return (["ninej", "--q=" + ",".join(map(str, q))],
                    lambda: coupling.ninej4(*q))
        if verb.startswith("expand"):
            n = float(rng.choice((-1.0, -2.0, -3.0, -0.5, 1.5)))
            j = int(rng.integers(0, 4))
            r1 = float(_fmt(rng.uniform(0.2, 0.5)))
            l_max = int(rng.integers(j, 31))
            argv = ["expand", "--n=" + _fmt(n), "--j", str(j),
                    "--r1", _fmt(r1), "--r2", "1.0", "--lmax", str(l_max)]
            if verb == "expand-json":
                argv += ["--output", "json"]
            return argv, lambda: multipole.expand_translated(
                multipole.ExpansionSpec(n, j, r1, 1.0, l_max=l_max)).entries
        if verb == "verify-coupling":
            argv = ["verify", "coupling", "--seed", str(int(rng.integers(1000)))]
            return argv, lambda: self._verify_ref(argv)
        jmax, grid = self.ortho
        argv = ["verify", "orthogonality", "--jmax", str(jmax), "--grid",
                ",".join(map(str, grid))]
        return argv, lambda: self._verify_ref(argv)

    def _verify_ref(self, argv):
        """Records of a verify suite, computed once per argv."""
        key = tuple(argv)
        if key not in self._verify_refs:
            if argv[1] == "orthogonality":
                jmax, grid = self.ortho
                self._verify_refs[key] = verify.orthogonality_report(
                    jmax, verify.build_grid(*grid),
                    tol=hsh4.cli.default_tol())[0]
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    hsh4.cli.main(list(argv))
                self._verify_refs[key] = json.loads(buf.getvalue())
        return self._verify_refs[key]

    def ops(self, stream):
        rng = _rng(self.seed, stream)
        while True:
            for i in rng.permutation(len(self.VERBS)):
                verb = self.VERBS[i]
                yield (verb, *self._op(verb, rng))

    def run(self, op):
        flags = ["-X", "importtime"] if self.import_trace else []
        return subprocess.run([sys.executable, *flags, "-m", "hsh4.cli",
                               *op[1]], capture_output=True, text=True,
                              timeout=self.TIMEOUT_S, check=False)

    def after(self, op):
        """Traced run only: main(argv) in process, so its layers get spans."""
        with contextlib.redirect_stdout(io.StringIO()):
            hsh4.cli.main(list(op[1]))

    @staticmethod
    def hsh4_import_s(stderr):
        """Cumulative `import hsh4` time from -X importtime output."""
        for line in stderr.splitlines():
            if line.rstrip().endswith("| hsh4"):
                return int(line.split("|")[1]) * 1e-6
        return None

    @staticmethod
    def parse(verb, stdout):
        if verb.startswith("eval"):
            return complex(_parse_assignment(stdout))
        if verb in ("cgc-c", "cgc-h", "ninej"):
            return float(_parse_assignment(stdout))
        if verb == "expand-csv":
            rows = list(csv.reader(io.StringIO(stdout)))
            if rows[0] != ["l", "lp", "value"]:
                raise ValueError("missing CSV header")
            return {(int(l), int(lp)): float(v) for l, lp, v in rows[1:]}
        if verb == "expand-json":
            return {(e["l"], e["lp"]): e["value"]
                    for e in json.loads(stdout)["entries"]}
        return json.loads(stdout)

    def check(self, op, out):
        """Exit 0 and output equal to the library value (verify: all pass)."""
        verb, _, reference = op
        if out.returncode != 0:
            return False, math.inf
        got, ref = self.parse(verb, out.stdout), reference()
        if verb.startswith("verify"):
            if [(c["check"], c["pass"]) for c in got] != [
                    (c["check"], True) for c in ref]:
                return False, math.inf
            err = max(abs(a["observed"] - b["observed"])
                      for a, b in zip(got, ref))
            return err <= 1e-12, err
        if isinstance(ref, dict):
            if set(got) != set(ref):
                return False, math.inf
            err = max((abs(got[k] - ref[k]) for k in ref), default=0.0)
        else:
            err = abs(got - ref)
        return err == 0.0, err


WORKLOADS = {w.name: w for w in (ExpandEval, CoeffTables, Oracle, Cli)}
