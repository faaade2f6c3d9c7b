"""One input contract for every public name.

Every name in the ``__all__`` of special, angular, harmonics, coupling,
multipole and verify gets two hypothesis strategies over its arguments:

- a valid one, whose result must be finite (the exact zeros the docstrings
  name, such as a triangle failure of valid labels, are finite too);
- an invalid one, which spoils one argument at a time (a negative or
  non-integer rank, a non-finite real, a bad tolerance or 4-vector, or a
  label outside its domain), and the call must raise ValueError or
  ConvergenceError instead of returning.

The CLI forms of the same bad inputs print "error: ..." and exit 2.
"""

import contextlib
import inspect
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hsh4
from hsh4 import angular, coupling, harmonics, multipole, special, verify
from hsh4.cli import main
from hsh4.special import ConvergenceError

MODULES = (special, angular, harmonics, coupling, multipole, verify)
# Not functions of input: a default value and an exception type.
NOT_CALLED = {"DEFAULT_SERIES", "ConvergenceError"}

FAST = settings(derandomize=True, database=None, max_examples=3,
                deadline=None, suppress_health_check=list(HealthCheck))
# Whole suites and table builds: one valid example is enough.
SLOW = {"expansion_checks", "coupling_checks", "eval_expansion",
        "project_multipole", "bipolar", "CoeffTable"}

NAN, INF = math.nan, math.inf
RANK = st.integers(0, 3)
BAD_RANK = st.sampled_from([-1, -2, 1.5, 0.5, NAN, INF])
BAD_INT = st.sampled_from([0.5, -1.5, NAN, INF])
BAD_REAL = st.sampled_from([NAN, INF, -INF])
BAD_TOL = st.sampled_from([0.0, -1.0, NAN, INF])
BAD_VEC = st.sampled_from([[NAN, 0.0, 0.0, 1.0], [0.0, INF, 0.0, 1.0],
                           [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
BAD_POINTS = BAD_VEC.map(lambda v: [[0.1, 0.2, 0.3, 0.4], v])
BAD = {"r": BAD_RANK, "i": BAD_INT, "f": BAD_REAL, "t": BAD_TOL,
       "v": BAD_VEC, "w": BAD_VEC.filter(any), "p": BAD_POINTS}

VEC = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda v: max(map(abs, v)) > 0.1).map(np.array)
POINTS = st.lists(VEC, min_size=1, max_size=3).map(np.array)
GRID = verify.build_grid(6, 6, 13)


@st.composite
def jm(draw, top=3):
    """A doubled (2j, 2m) pair."""
    tj = draw(st.integers(0, top))
    return tj, 2 * draw(st.integers(0, tj)) - tj


@st.composite
def c_label(draw, j=None):
    """A C label (j, lam, alpha)."""
    j = draw(RANK) if j is None else j
    lam = draw(st.integers(0, j))
    return j, lam, draw(st.integers(-lam, lam))


@st.composite
def h_label(draw, j=None):
    """An H label (j, 2mu, 2nu)."""
    j = draw(RANK) if j is None else j
    return (j, *(2 * draw(st.integers(0, j)) - j for _ in range(2)))


@st.composite
def closed_query(draw):
    """(case, j1, lam1, alf1, j2, lam2, alf2, j, lam, alf) in the pattern
    of its case."""
    case = draw(st.sampled_from(coupling._CLOSED_CASES))
    j1 = 1 if case == "spin1" else draw(RANK)
    j2 = draw(st.integers(j1 if case == "diff" else 0, 3))
    zero1 = case in ("stretched_j1_zero_lambda", "six_j_reduction", "spin1")
    lab1 = (j1, 0, 0) if zero1 else draw(c_label(j1))
    j = {"six_j_reduction": draw(st.sampled_from(range(abs(j1 - j2),
                                                       j1 + j2 + 1, 2))),
         "diff": j2 - j1, "spin1": j2 + (draw(st.sampled_from([-1, 1])) if j2 else 1)}.get(
             case, j1 + j2)
    return (case, *lab1, *draw(c_label(j2)), *draw(c_label(j)))


def comps(j, trailing=2):
    return st.just(np.arange((j + 1) ** 2 * trailing, dtype=complex)
                   .reshape((j + 1) ** 2, trailing) / 7.0)


def spec(n=st.sampled_from([-3.0, -2.0, -1.5, 1.0, 2.0]), j=RANK):
    return st.builds(multipole.ExpansionSpec, n, j,
                     st.floats(0.1, 0.45), st.just(1.0), l_max=st.just(5))


# name -> (valid args, argument kinds for spoiling, extra invalid args,
#          call).  Kinds: r rank, i integer label, f finite real, t tol,
# v direction (a nonzero 4-vector), w any 4-vector, p (N, 4) directions, and
# "-" for an argument left alone.
CASES = {}


def case(name, valid, kinds, extra=None, call=None):
    CASES[name] = (valid, kinds, extra, call)


case("SeriesControl", st.tuples(st.floats(1e-15, 1e-3), st.integers(1, 99)),
     "tr", st.sampled_from([(1e-14, 0)]))
case("log_factorial", st.tuples(st.integers(0, 400)), "r")
case("pochhammer", st.tuples(st.floats(-5.0, 5.0), st.integers(0, 9)), "fr")
case("hyp2f1", st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                         st.floats(0.5, 4.0), st.floats(-0.9, 0.9)),
     "ffff", st.sampled_from([(0.5, 0.5, -1, 0.3), (-3, 1, -1, 0.3),
                              (0.5, 0.5, 1.5, 1.5)]))
case("hyp0f1", st.tuples(st.floats(0.5, 4.0), st.floats(-10.0, 10.0)), "ff",
     st.sampled_from([(-2, 0.5)]))

case("validate_jm", jm(), "ri", st.sampled_from([(2, 4), (2, 1), (1, 0)]))
case("cgc3", st.tuples(jm(), jm(), jm()).map(lambda t: sum(t, ())),
     "ririri", st.sampled_from([(1, 0, 1, 1, 2, 1), (2, 4, 2, 0, 2, 4)]))
case("wigner6j", st.tuples(*[st.integers(0, 4)] * 6), "r" * 6)
case("wigner9j", st.tuples(*[st.integers(0, 4)] * 9), "r" * 9)
case("gen_character", st.tuples(RANK, st.just(0), st.floats(0.0, 6.0)),
     "rif", st.sampled_from([(2, 3, 1.0), (2, -1, 1.0)]))
case("mod_sph_harm", c_label().map(lambda t: (t[1], t[2], 0.7, 2.0)), "riff",
     st.sampled_from([(1, 2, 0.7, 2.0), (1, -2, 0.7, 2.0)]))

case("HyperAngles", st.tuples(*[st.floats(0.0, 3.0)] * 4), "ffff")
case("to_hyperangles", st.tuples(VEC), "w",
     st.sampled_from([([NAN, 0.0, 0.0, 1.0],)]))
case("from_hyperangles", st.tuples(*[st.floats(0.0, 3.0)] * 4), "ffff",
     call=lambda *a: harmonics.from_hyperangles(harmonics.HyperAngles(*a)))
case("hyp_components", st.tuples(VEC), "w",
     st.sampled_from([([INF, 0.0, 0.0, 1.0],)]))
case("hsh_h", st.tuples(h_label(), VEC).map(lambda t: (*t[0], t[1])), "riiv",
     st.sampled_from([(1, 0, 1, [0, 0, 0, 1.0]), (1, 3, 1, [0, 0, 0, 1.0])]))
case("hsh_c", st.tuples(c_label(), VEC).map(lambda t: (*t[0], t[1])), "riiv",
     st.sampled_from([(1, 2, 0, [0, 0, 0, 1.0]), (2, 1, 2, [0, 0, 0, 1.0])]))
case("hsh_y", st.tuples(c_label(), VEC).map(lambda t: (*t[0], t[1])), "riiv",
     st.sampled_from([(1, 2, 0, [0, 0, 0, 1.0])]))
for _name in ("h_components", "c_components"):
    case(_name, st.tuples(RANK, VEC), "rv")
case("c_table", st.tuples(RANK, POINTS), "rp")
for _name in ("c_from_h", "h_from_c"):
    case(_name, RANK.flatmap(lambda j: st.tuples(st.just(j), comps(j))), "r-",
         st.sampled_from([(1, np.zeros(3))]))
for _name in ("scalar_product_h", "scalar_product_c"):
    case(_name, st.tuples(RANK, VEC, VEC), "rvv")
case("c_flat_index", c_label().map(lambda t: t[1:]), "ri",
     st.sampled_from([(1, 2), (0, -1)]))
case("h_flat_index", h_label(), "rii", st.sampled_from([(1, 0, 1)]))
case("h_to_c_matrix", st.tuples(RANK), "r")
case("cos4", st.tuples(VEC, VEC), "vv")

case("rank_triangle_ok", st.tuples(RANK, RANK, RANK), "rrr")
case("cgc4_h", st.tuples(h_label(), h_label(), h_label())
     .map(lambda t: sum(t, ())), "rii" * 3,
     st.sampled_from([(1, 1, 1, 1, 1, 1, 1, 0, 0), (0, 2, 0, 0, 0, 0, 0, 0, 0)]))
case("cgc4_c", st.tuples(c_label(), c_label(), c_label())
     .map(lambda t: sum(t, ())), "rii" * 3,
     st.sampled_from([(1, 2, 0, 1, 0, 0, 2, 0, 0), (1, 0, 0, 1, 0, 0, 2, 0, 5),
                      (1, 1, 0, 1, 0, 0, 0, 1, 0)]))
case("cgc4_c_closed", closed_query(), "-" + "rii" * 3,
     st.sampled_from([("stretched", 1, 2, 0, 1, 0, 0, 2, 0, 0),
                      ("stretched", 1, 0, 0, 1, 0, 0, 0, 0, 0),
                      ("bogus", 1, 0, 0, 1, 0, 0, 2, 0, 0)]))
case("ninej4", st.tuples(*[st.integers(0, 3)] * 9), "r" * 9)
case("ninej4_closed", st.tuples(st.integers(0, 2), st.integers(0, 2),
                                RANK, RANK)
     .map(lambda t: (t[0], t[0] + t[1], t[2], t[1] + t[3])), "rrrr",
     st.sampled_from([(2, 1, 1, 1), (0, 3, 1, 1)]))
FAMILY = st.sampled_from(["c", "h"])
case("bipolar_plan", st.tuples(FAMILY, RANK, RANK, RANK), "-rrr",
     st.sampled_from([("x", 1, 1, 0)]))
case("bipolar", st.tuples(FAMILY, RANK, RANK, RANK, VEC, VEC), "-rrrvv",
     st.sampled_from([("x", 1, 1, 0, [0, 0, 0, 1.0], [0, 0, 0, 1.0])]))
case("bipolar_values", st.tuples(FAMILY, RANK, RANK, RANK).flatmap(
    lambda t: st.tuples(*map(st.just, t), comps(t[1]), comps(t[2]))),
     "-rrr--", st.sampled_from([("x", 1, 1, 0, np.ones(4), np.ones(4))]))
case("linearize_product", st.tuples(FAMILY, c_label(), c_label(), VEC).map(
    lambda t: (t[0], t[1][0], t[1][1:], t[2][0], t[2][1:], t[3])
    if t[0] == "c" else (t[0], t[1][0], (-t[1][0], t[1][0]), t[2][0],
                         (t[2][0], t[2][0]), t[3])), "-r-r-v",
     st.sampled_from([("c", 1, (2, 0), 1, (0, 0), [0, 0, 0, 1.0]),
                      ("h", 0, (5, 5), 0, (0, 0), [0, 0, 0, 1.0]),
                      ("x", 1, (1, 0), 1, (1, 0), [0, 0, 0, 1.0])]))

case("ExpansionSpec", st.tuples(st.floats(-3.0, 3.0), RANK,
                                st.floats(0.0, 0.45), st.floats(1.0, 2.0)),
     "frff", st.sampled_from([(-2.0, 0, -0.5, 1.0), (-2.0, 0, 1.5, 1.0)]))
case("CoeffTable", st.tuples(st.dictionaries(st.tuples(RANK, RANK),
                                             st.floats(-9.0, 9.0)),
                             st.booleans()), "--",
     st.sampled_from([({(2.5, 2.5): 1.0}, False), ({(-1, 1): 1.0}, False),
                      ({(1, 1): NAN}, False)]))
case("admissible_pair", st.tuples(RANK, RANK, RANK), "rrr")
case("plane_wave_radial", st.tuples(RANK, st.floats(-3.0, 3.0),
                                    st.floats(0.0, 2.0)), "rff")
case("scalar_power_coeff", st.tuples(st.integers(0, 9), RANK), "rr")
case("laplacian_power", st.tuples(st.floats(-4.0, 4.0), RANK,
                                  st.integers(0, 5)), "frr",
     st.sampled_from([(0.5, 0, 600)]))
case("b_coeff", st.tuples(spec(), RANK, RANK), "-rr",
     st.sampled_from([(multipole.ExpansionSpec(-2, 1, 0.5, 1.0), 2.5, 2.5)]))
case("expand_translated", st.tuples(st.floats(-3.0, 3.0), RANK,
                                    st.floats(0.1, 0.45)), "frf",
     call=lambda n, j, r1: multipole.expand_translated(
         multipole.ExpansionSpec(n, j, r1, 1.0, l_max=6)))
case("expand_radial_function", st.tuples(
    st.lists(st.floats(-2.0, 2.0), max_size=3), RANK, st.floats(0.1, 0.45),
    st.just(1.0)), "-rff", st.sampled_from([([NAN], 0, 0.4, 1.0)]))
case("eval_expansion", st.tuples(spec(), VEC, VEC).map(
    lambda t: (multipole.expand_translated(t[0]), t[0].j, t[1], t[2])),
     "-rvv", st.sampled_from([(multipole.CoeffTable({(1, 1): 1.0}, False, j=1),
                               0, [0, 0, 0, 1.0], [0, 0, 1.0, 0])]))
case("check_entry", st.tuples(st.just("c"), st.just({}), st.floats(-1, 1),
                              st.floats(-1, 1), st.floats(1e-12, 1.0)),
     "----t")
case("expansion_checks", st.tuples(st.floats(1e-12, 1e-6),
                                   st.integers(0, 3)), "tr")
case("coupling_checks", st.tuples(st.floats(1e-12, 1e-6),
                                  st.integers(0, 3)), "tr")

case("QuadratureGrid", st.just((GRID.theta0, GRID.w0, GRID.theta, GRID.w1,
                                GRID.phi, GRID.w2, GRID.exact_degree)),
     "-------", st.sampled_from([(np.array([NAN]), GRID.w0, GRID.theta,
                                  GRID.w1, GRID.phi, GRID.w2, 3)]))
case("build_grid", st.tuples(*[st.integers(1, 6)] * 3), "rrr",
     st.sampled_from([(0, 4, 4)]))
case("gram_matrix", st.tuples(RANK, st.just(GRID)), "r-")
case("orthogonality_report", st.tuples(RANK, st.just(GRID),
                                       st.floats(1e-12, 1e-3)), "r-t")
case("project_multipole", st.tuples(
    st.sampled_from([-2, -1, 1, 2]), st.integers(0, 1), st.floats(0.2, 0.4),
    st.just(1.0), st.integers(0, 2), st.integers(0, 2)), "frffrr",
     st.sampled_from([(1, 1, 1.0, 0.5, 0, 1)]))
case("c_harmonics_at_vectors", st.tuples(RANK, POINTS), "rp")


def _public(module):
    return [name for name in module.__all__ if name not in NOT_CALLED]


def _function(name):
    return next(getattr(m, name) for m in MODULES if name in m.__all__)


def _call(name, args):
    call = CASES[name][3] or _function(name)
    return call(*args)


def _is_finite(value):
    """Finite all the way down: numbers, arrays, containers and records."""
    if isinstance(value, (bool, int, float, complex, np.ndarray,
                          np.generic)):
        return bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(_is_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_is_finite, value))
    if isinstance(value, str) or value is None:
        return True
    return _is_finite(list(vars(value).values()))


def _invalid(name):
    valid, kinds, extra, _ = CASES[name]
    spoiled = [
        st.tuples(valid, BAD[kind]).map(
            lambda t, i=i: t[0][:i] + (t[1],) + t[0][i + 1:])
        for i, kind in enumerate(kinds) if kind in BAD]
    return st.one_of(spoiled + ([extra] if extra is not None else []))


NAMES = sorted(name for m in MODULES for name in _public(m))


def test_every_public_name_has_a_case():
    assert sorted(CASES) == NAMES


def test_every_public_callable_is_in_an_all():
    listed = {name for m in MODULES for name in m.__all__}
    public = {name for name, obj in vars(hsh4).items()
              if callable(obj) and not name.startswith("_")
              and not inspect.ismodule(obj)}
    assert public <= listed, sorted(public - listed)


@pytest.mark.parametrize("name", NAMES)
def test_valid_input_is_finite_and_invalid_input_raises(name):
    @settings(FAST, max_examples=1 if name in SLOW else 3)
    @given(CASES[name][0])
    def valid(args):
        assert _is_finite(_call(name, args))

    @FAST
    @given(_invalid(name))
    def invalid(args):
        with pytest.raises((ValueError, ConvergenceError)):
            _call(name, args)

    valid()
    invalid()


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a non-integer flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fmt(*values):
    return ",".join(map(str, values))


BAD_C_Q = st.one_of(
    st.sampled_from([(1, 2, 0, 1, 0, 0, 2, 0, 0), (1, -1, 0, 1, 0, 0, 2, 0, 0),
                     (1, 0, 0, 1, 0, 0, 2, 0, 5), (-1, 0, 0, 1, 0, 0, 1, 0, 0)]),
    # A rank or a lambda (not an alpha, which may be negative) spoiled.
    st.tuples(c_label(), c_label(), c_label(),
              st.sampled_from([0, 1, 3, 4, 6, 7]), BAD_RANK)
    .map(lambda t: sum(t[:3], ())[:t[3]] + (t[4],) + sum(t[:3], ())[t[3] + 1:]))
BAD_ARGV = st.one_of(
    BAD_C_Q.map(lambda q: ["cgc", "--family", "c", "--q", _fmt(*q)]),
    st.sampled_from([(1, 0, 1, 1, 0, 0, 2, 0, 0), (-1, 1, 1, 1, 1, 1, 0, 0, 0)])
    .map(lambda q: ["cgc", "--family", "h", "--doubled", "--q", _fmt(*q)]),
    st.tuples(*[st.integers(0, 3)] * 8, BAD_RANK).map(
        lambda q: ["ninej", "--q", _fmt(*q)]),
    st.sampled_from([(1, 2, 0), (2, 1, 2), (-1, 0, 0), (2.5, 0, 0)]).map(
        lambda t: ["eval", "--family", "c", "--j", str(t[0]), "--lambda",
                   str(t[1]), "--alpha", str(t[2]), "--point", "0,0,0,1"]),
    BAD_VEC.map(lambda v: ["eval", "--family", "c", "--j", "1", "--lambda",
                           "0", "--alpha", "0", "--point", _fmt(*v)]),
    st.tuples(BAD_REAL, st.sampled_from(["n", "r1", "r2"])).map(
        lambda t: ["expand", "--n", "-2", "--j", "0", "--r1", "0.5",
                   "--r2", "1", f"--{t[1]}={t[0]}"]),
    BAD_RANK.map(lambda j: ["expand", "--n", "-2", "--j", str(j), "--r1",
                            "0.5", "--r2", "1"]),
    BAD_TOL.map(lambda tol: ["verify", "coupling", f"--tol={tol}"]),
    BAD_RANK.map(lambda j: ["verify", "orthogonality", "--jmax", str(j),
                            "--grid", "6,6,13"]),
    st.sampled_from(["0,6,13", "6,6", "2.5,6,13"]).map(
        lambda g: ["verify", "orthogonality", "--jmax", "1", "--grid", g]),
    st.sampled_from(["-1"]).map(lambda s: ["verify", "coupling", "--seed", s]))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(BAD_ARGV)
def test_cli_rejects_invalid_input_with_exit_two(argv):
    code, out, err = _cli(argv)
    assert code == 2, (argv, out, err)
    assert out == "" and "error:" in err and "Traceback" not in err


V = np.array([0.1, 0.2, 0.9, 0.4])
SPEC = multipole.ExpansionSpec(-2, 1, 0.5, 1.0, l_max=4)
# Inputs that once returned 0.0, inf, nan or an empty array, or raised a
# bare TypeError, with the argument each error must name.
PROBES = [
    (lambda: coupling.cgc4_c(1, 2, 0, 1, 0, 0, 2, 0, 0), "lambda1"),
    (lambda: coupling.cgc4_c(1, -1, 0, 1, 0, 0, 2, 0, 0), "lambda1"),
    (lambda: coupling.ninej4(-1, 1, 0, 1, 1, 2, 0, 2, 2), "2a"),
    (lambda: angular.wigner6j(-2, 2, 0, 2, 2, 2), "2a"),
    (lambda: angular.wigner9j(-2, 2, 0, 2, 2, 2, 0, 2, 2), "2a"),
    (lambda: coupling.cgc4_h(-1, 1, 1, 1, 1, 1, 0, 0, 0), "2j1"),
    (lambda: multipole.b_coeff(SPEC, 2.5, 2.5), "l"),
    (lambda: multipole.scalar_power_coeff(-1, 0), "n"),
    (lambda: coupling.bipolar_values("c", -1, 1, 0, np.zeros(1), np.ones(4)),
     "j1"),
    (lambda: verify.gram_matrix(-1, GRID), "j_max"),
    (lambda: verify.c_harmonics_at_vectors(-1, V[None]), "rank j"),
    (lambda: verify.build_grid(2.5, 4, 4), "n0"),
    (lambda: special.SeriesControl(max_terms=2.5), "max_terms"),
    (lambda: harmonics.hsh_c(2.5, 0, 0, V), "j"),
    (lambda: harmonics.c_table(2.5, V[None]), "rank top"),
    (lambda: harmonics.h_components(2.5, V), "rank j"),
    (lambda: special.pochhammer(1.0, 2.5), "k"),
    (lambda: verify.orthogonality_report(2.5, GRID), "j_max"),
    (lambda: multipole.eval_expansion(
        multipole.CoeffTable({(2.5, 2.5): 1.0}, False), 0, V, V), "l"),
    (lambda: special.hyp2f1(0.5, 0.5, 2, NAN), "z"),
    (lambda: multipole.plane_wave_radial(2, NAN, 1), "a"),
    (lambda: special.hyp0f1(2, INF), "z"),
    (lambda: angular.gen_character(2, 0, NAN), "omega"),
    (lambda: angular.gen_character(2, 3, 1.0), "2l"),
    (lambda: angular.gen_character(-1, 0, 1.0), "2l"),
    (lambda: angular.mod_sph_harm(-1, 0, 1.0, 0.0), "lambda"),
    (lambda: angular.mod_sph_harm(2, 1, NAN, 0), "theta"),
    (lambda: harmonics.from_hyperangles(harmonics.HyperAngles(NAN, 0, 0, 0)),
     "r"),
    (lambda: multipole.expand_radial_function([NAN], 0, 0.4, 1), "taylor[0]"),
    # An int past the float range is finite but no float; explicit ids keep
    # the generated ones of the probes above unchanged.
    pytest.param(lambda: multipole.ExpansionSpec(10**400, 0, 0.5, 1.0), "n",
                 id="huge-int-n"),
    pytest.param(lambda: multipole.plane_wave_radial(1, 10**400, 1.0), "a",
                 id="huge-int-a"),
    pytest.param(lambda: special.hyp0f1(10**400, 1.0), "c", id="huge-int-c"),
    pytest.param(lambda: special.hyp2f1(1, 1, 2, 10**400), "z",
                 id="huge-int-z"),
    pytest.param(lambda: harmonics.hsh_c(2, 0, 0, [10**400, 0, 0, 1]), "v",
                 id="huge-int-v"),
    pytest.param(lambda: verify.c_harmonics_at_vectors(
        1, np.array([[10**400, 0, 0, 1]], dtype=object)), "vecs",
                 id="huge-int-vecs"),
    pytest.param(lambda: multipole.CoeffTable({(0, 0): 10**400}, False),
                 "entries", id="huge-int-entries"),
    pytest.param(lambda: angular.mod_sph_harm(
        2, 0, np.array([10**400], dtype=object), 0.0), "theta",
                 id="huge-int-theta"),
    pytest.param(lambda: harmonics.cos4(V, [0, 0, 10**400, 1]), "b",
                 id="huge-int-b"),
    pytest.param(lambda: multipole.eval_expansion(
        multipole.CoeffTable({(0, 0): 1.0}, False), 0, [10**400, 0, 0, 1],
        V), "r1hat", id="huge-int-r1hat"),
    # A component array must hold (j+1)^2 components of its rank.
    pytest.param(lambda: coupling.bipolar_values(
        "c", 2, 2, 0, np.zeros(3), np.zeros(9)), "comps1",
                 id="short-comps1"),
    pytest.param(lambda: coupling.bipolar_values(
        "c", 1, 1, 0, np.ones(4), np.ones(9)), "comps2", id="long-comps2"),
    pytest.param(lambda: harmonics.cos4([1, 0, 0, 0], [NAN, 0, 0, 1]), "b",
                 id="nan-b"),
    pytest.param(lambda: multipole.CoeffTable({(0, 0): 1j, (1, 1): 10**400},
                                              False), "entries",
                 id="complex-huge-int-entries"),
    # A result past the float range, which once raised a bare
    # OverflowError or came back as a silent inf; the error names the
    # quantity.
    pytest.param(lambda: multipole.b_coeff(multipole.ExpansionSpec(
        2, 0, 1e199, 1e200, l_max=2), 0, 0), "b_coeff:",
                 id="overflow-b-coeff-r2"),
    pytest.param(lambda: multipole.b_coeff(multipole.ExpansionSpec(
        -400, 0, 1e-3, 1e-2, l_max=2), 0, 0), "b_coeff:",
                 id="overflow-b-coeff-n"),
    pytest.param(lambda: multipole.plane_wave_radial(400, 1e3, 1e3),
                 "plane_wave_radial:", id="overflow-plane-wave-lead"),
    pytest.param(lambda: multipole.plane_wave_radial(0, 800.0, 1.0),
                 "hyp0f1:", id="overflow-plane-wave-0f1"),
    pytest.param(lambda: special.hyp0f1(2, 160000.0), "hyp0f1:",
                 id="overflow-hyp0f1"),
    pytest.param(lambda: special.pochhammer(1e200, 3), "pochhammer:",
                 id="overflow-pochhammer"),
    # The true value, 0.1^2000.5, is the float 0; the partial sums overflow.
    pytest.param(lambda: special.hyp2f1(-2000.5, 1, 1, 0.9), "hyp2f1:",
                 id="overflow-hyp2f1"),
    # Serialised tables: the missing key, or the row and column.
    pytest.param(lambda: multipole.CoeffTable.from_json('{"entries": []}'),
                 "'terminated'", id="json-no-terminated"),
    pytest.param(lambda: multipole.CoeffTable.from_json(
        '{"terminated": false, "entries": [{"l": 1, "value": 1.0}]}'),
                 "'lp'", id="json-entry-no-lp"),
    pytest.param(lambda: multipole.CoeffTable.from_json(
        '{"spec": {"n": 1}, "terminated": false, "entries": []}'), "'j'",
                 id="json-spec-missing-keys"),
    pytest.param(lambda: multipole.CoeffTable.from_json(
        '{"spec": {"n": 1, "j": 1, "r1": 0.5, "r2": 1, "m": 2}, '
        '"terminated": false, "entries": []}'), "'m'",
                 id="json-spec-unknown-key"),
    pytest.param(lambda: multipole.CoeffTable.from_json('[]'), "payload",
                 id="json-not-an-object"),
    pytest.param(lambda: multipole.CoeffTable.from_json(
        '{"terminated": false, "entries": [3]}'), "entry 0",
                 id="json-entry-not-an-object"),
    pytest.param(lambda: multipole.CoeffTable.from_json(
        '{"terminated": false, "entries": [{"l": 0, "lp": 0, '
        '"value": "x"}]}'), "'value'", id="json-entry-value-not-a-number"),
    pytest.param(lambda: multipole.CoeffTable.from_csv("l,lp,value\n1,1\n"),
                 "row 2", id="csv-short-row"),
    pytest.param(lambda: multipole.CoeffTable.from_csv(
        "l,lp,value\nx,0,1\n"), "column l:", id="csv-bad-int"),
    pytest.param(lambda: multipole.CoeffTable.from_csv("a,b,c\n"), "header",
                 id="csv-header"),
    # Branches no other test reaches.
    pytest.param(lambda: multipole.ExpansionSpec(-2, 0, -0.5, 1.0), "r1",
                 id="negative-r1"),
    pytest.param(lambda: multipole.ExpansionSpec(-2, 0, 0.5, 0.0), "r2",
                 id="zero-r2"),
    pytest.param(lambda: special.hyp2f1(0.5, 0.5, -1, 0.3), "c",
                 id="hyp2f1-pole"),
    pytest.param(lambda: special.hyp0f1(-2, 0.5), "c", id="hyp0f1-pole"),
    pytest.param(lambda: coupling.cgc4_c_closed(
        "stretched", 1, 0, 0, 1, 0, 0, 0, 0, 0), "'stretched'",
                 id="closed-stretched-pattern"),
    pytest.param(lambda: coupling.cgc4_c_closed(
        "diff", 1, 0, 0, 2, 0, 0, 3, 0, 0), "'diff'",
                 id="closed-diff-pattern"),
    pytest.param(lambda: coupling.linearize_product(
        "x", 1, (1, 0), 1, (1, 0), V), "family", id="linearize-family"),
]


@pytest.mark.parametrize("probe,name", PROBES)
def test_probe_raises_naming_its_argument(probe, name):
    with pytest.raises((ValueError, ConvergenceError)) as exc:
        probe()
    assert f"{name} " in str(exc.value) + " "


EXACT_ZEROS = [
    lambda: coupling.cgc4_c(1, 1, 0, 1, 0, 0, 1, 0, 0),  # parity
    lambda: coupling.cgc4_h(1, 1, 1, 1, 1, 1, 2, 0, 0),  # mu1 + mu2 != mu
    lambda: angular.cgc3(2, 2, 2, 0, 6, 2),  # triangle
    lambda: multipole.b_coeff(SPEC, 0, 3),  # inadmissible (l, lp)
    # past the end of a terminating expansion
    lambda: multipole.b_coeff(multipole.ExpansionSpec(2, 0, 0.5, 1.0), 2, 2),
    lambda: multipole.scalar_power_coeff(2, 1),  # parity
    lambda: multipole.laplacian_power(-2, 0, 600),  # (0)_k
    lambda: coupling.ninej4(2, 2, 0, 2, 2, 0, 2, 2, 1),  # parity of a row
]


@pytest.mark.parametrize("zero", EXACT_ZEROS)
def test_defined_zeros_stay_exact(zero):
    assert zero() == 0.0


def test_empty_plan_outside_the_triangle():
    assert [len(x) for x in coupling.bipolar_plan("c", 1, 1, 3)] == [0] * 4
