"""Tests for the command-line interface."""

import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
import yaml

import hsh4
from hsh4.cli import main
from hsh4.harmonics import hsh_h
from hsh4.multipole import CoeffTable, eval_expansion


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_c_harmonic_at_pole(capsys):
    code, out, _ = _run(capsys, "eval", "--family", "c", "--j", "1",
                        "--lambda", "0", "--alpha", "0",
                        "--point", "0,0,0,1")
    assert code == 0
    assert "1.4142135623730" in out


def test_eval_h_doubled(capsys):
    code, out, _ = _run(capsys, "eval", "--family", "h", "--j", "1",
                        "--mu", "1", "--nu", "1", "--point", "0,0,0,1",
                        "--doubled", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    # H_{1,1/2,1/2} at the pole is (z0 + iz)/sqrt(2) * sqrt(2) = 1
    assert payload["re"] == pytest.approx(1 / math.sqrt(2) * math.sqrt(2))


def test_eval_h_doubles_plain_projections(capsys):
    # Without --doubled, --mu 1 --nu -1 are mu = 1, nu = -1: 2mu = 2, 2nu = -2.
    code, out, _ = _run(capsys, "eval", "--family", "h", "--j", "2",
                        "--mu", "1", "--nu", "-1",
                        "--point", "0.1,0.2,0.9,0.4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["harmonic"] == "H[j=2,2mu=2,2nu=-2]"
    ref = hsh_h(2, 2, -2, np.array([0.1, 0.2, 0.9, 0.4]))
    assert complex(payload["re"], payload["im"]) == ref


def test_cgc_with_closed_form(capsys):
    code, out, _ = _run(capsys, "cgc", "--family", "c",
                        "--q", "1,0,0,1,0,0,2,0,0")
    assert code == 0
    assert "0.86602540378443" in out
    assert "closed[" in out
    assert "diff" in out


def test_cgc_closed_form_past_the_first_case(capsys):
    # j = j2 - j1 fails the first two cases' patterns and matches 'diff'.
    code, out, _ = _run(capsys, "cgc", "--family", "c", "--output", "json",
                        "--q", "1,0,0,2,1,0,1,1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"]["case"] == "diff"
    assert abs(payload["closed_form"]["difference"]) <= 1e-15


def test_cgc_h_family(capsys):
    code, out, _ = _run(capsys, "cgc", "--family", "h", "--doubled",
                        "--q", "1,1,1,1,-1,-1,0,0,0", "--output", "json")
    assert code == 0
    val = json.loads(out)["value"]
    assert val == pytest.approx(0.5)  # (1/sqrt 2)^2


def test_cgc_h_doubles_projections_not_ranks(capsys):
    plain = _run(capsys, "cgc", "--family", "h", "--output", "json",
                 "--q", "2,1,1,2,-1,-1,4,0,0")
    doubled = _run(capsys, "cgc", "--family", "h", "--output", "json",
                   "--doubled", "--q", "2,2,2,2,-2,-2,4,0,0")
    assert plain == doubled
    payload = json.loads(plain[1])
    assert payload["q"] == [2, 2, 2, 2, -2, -2, 4, 0, 0]
    # <1 1; 1 -1 | 2 0>^2
    assert payload["value"] == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "c", "--j", "2", "--lambda", "0", "--alpha", "0",
     "--point", "0,0,0,1"),
    ("cgc", "--family", "c", "--q", "2,0,0,2,0,0,4,0,0"),
])
def test_doubled_with_family_c_exit_two(capsys, argv):
    code, out, err = _run(capsys, *argv, "--doubled")
    assert code == 2
    assert out == "" and "--doubled" in err and "Traceback" not in err


def test_ninej(capsys):
    code, out, _ = _run(capsys, "ninej", "--q", "2,2,0,2,2,0,2,2,0",
                        "--output", "json")
    assert code == 0
    val = json.loads(out)["value"]
    assert val == pytest.approx(1.0 / 27.0, rel=1e-12)


def test_expand_csv_rows(capsys):
    code, out, _ = _run(capsys, "expand", "--n", "1", "--j", "1",
                        "--r1", "0.5", "--r2", "1", "--lmax", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,lp,value"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,0,0.5"


def test_expand_csv_roundtrip_matches_eval(capsys):
    code, out, _ = _run(capsys, "expand", "--n", "-2", "--j", "0",
                        "--r1", "0.5", "--r2", "1", "--lmax", "25")
    assert code == 0
    table = CoeffTable.from_csv(out, j=0)
    rng = np.random.default_rng(31)
    h1 = rng.normal(size=4)
    h1 /= np.linalg.norm(h1)
    h2 = rng.normal(size=4)
    h2 /= np.linalg.norm(h2)
    from hsh4.multipole import ExpansionSpec, expand_translated
    ref = expand_translated(ExpansionSpec(-2.0, 0, 0.5, 1.0, l_max=25))
    a = eval_expansion(table, 0, h1, h2)
    b = eval_expansion(ref, 0, h1, h2)
    assert abs(a[0] - b[0]) < 1e-15


def test_expand_divergence_guard(capsys):
    code, _, err = _run(capsys, "expand", "--n", "-2", "--j", "0",
                        "--r1", "2", "--r2", "1")
    assert code == 2
    assert "swap" in err


def test_deterministic_output(capsys):
    args = ("expand", "--n", "-3", "--j", "1", "--r1", "0.3", "--r2", "1",
            "--lmax", "15")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_verify_coupling_exit_zero(capsys):
    code, out, _ = _run(capsys, "verify", "coupling")
    assert code == 0
    checks = json.loads(out)
    assert all(c["pass"] for c in checks)


def test_verify_orthogonality_small_grid(capsys):
    code, out, _ = _run(capsys, "verify", "orthogonality",
                        "--jmax", "3", "--grid", "12,12,25")
    assert code == 0
    assert all(c["pass"] for c in json.loads(out))


def test_verify_expansion(capsys):
    code, out, _ = _run(capsys, "verify", "expansion")
    assert code == 0


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HSH4_TOL", "1e-30")
    code, out, _ = _run(capsys, "verify", "orthogonality",
                        "--jmax", "1", "--grid", "8,8,17")
    assert code == 1  # nothing is exact to 1e-30


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "q", "--j", "1", "--point", "0,0,0,1"])
    assert exc.value.code == 2


def test_eval_c_without_labels_exit_two(capsys):
    code, _, err = _run(capsys, "eval", "--family", "c", "--j", "2",
                        "--point", "0,0,0,1")
    assert code == 2
    assert "--lambda" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,needle", [
    (("eval", "--family", "h", "--j", "2", "--nu", "0", "--point",
      "0,0,0,1"), "--mu"),
    (("cgc", "--family", "c", "--q", "1,0,0,1,0,0,2,0"), "nine"),
    (("ninej", "--q", "1,1,2,1,1,2,2,2"), "nine"),
    # B = r2^2 is past the float range.
    (("expand", "--n", "2", "--j", "0", "--r1", "1e199", "--r2", "1e200",
      "--lmax", "2"), "float range"),
])
def test_missing_or_overflowing_input_exit_two(capsys, argv, needle):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "error:" in err and needle in err
    assert "Traceback" not in err


def test_nonconvergent_series_exit_two(capsys):
    code, _, err = _run(capsys, "expand", "--n", "-6", "--j", "0",
                        "--r1", "0.9999", "--r2", "1", "--lmax", "0")
    assert code == 2
    assert "converge" in err


def _readme_cli_lines():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines()
            if line.startswith("hsh4 ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(capsys, line):
    code, _, err = _run(capsys, *shlex.split(line)[1:])
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("expand", "--n", "-2", "--j", "0", "--r1", "nan", "--r2", "1"),
    ("expand", "--n", "-2", "--j", "0", "--r1", "0.5", "--r2", "inf"),
    ("eval", "--family", "c", "--j", "2", "--lambda", "1", "--alpha", "0",
     "--point", "nan,0,0,1"),
])
def test_non_finite_input_exit_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == "" and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("suite,tol", [("expansion", "-1"),
                                       ("orthogonality", "-1"),
                                       ("coupling", "nan"),
                                       ("coupling", "inf"),
                                       ("coupling", "0")])
def test_bad_tol_exit_two(capsys, suite, tol):
    code, out, err = _run(capsys, "verify", suite, f"--tol={tol}",
                          "--jmax", "1", "--grid", "8,8,17")
    assert code == 2
    assert out == "" and "tol" in err


# The coupling suite floors its tolerance at 1e-12, so -1 used to pass;
# abc used to exit with float()'s message, which names no variable.
@pytest.mark.parametrize("tol", ["-1", "abc"])
def test_bad_tol_env_exit_two(capsys, monkeypatch, tol):
    monkeypatch.setenv("HSH4_TOL", tol)
    code, out, err = _run(capsys, "verify", "coupling")
    assert code == 2
    assert out == "" and "HSH4_TOL" in err


def test_bad_point_exit_two(capsys):
    code, _, err = _run(capsys, "eval", "--family", "c", "--j", "1",
                        "--lambda", "0", "--alpha", "0", "--point", "1,2")
    assert code == 2
    assert "point" in err


def test_verify_grid_needs_three_counts(capsys):
    code, out, err = _run(capsys, "verify", "orthogonality", "--grid", "4,4")
    assert code == 2
    assert out == "" and "--grid" in err and "n0,n1,n2" in err


def test_cgc_c_projection_outside_lambda_exit_two(capsys):
    code, out, err = _run(capsys, "cgc", "--family", "c", "--q",
                          "1,0,0,1,0,0,2,0,5")
    assert code == 2
    assert out == "" and "alpha = 5 for lambda = 0" in err
    assert "2m" not in err and "Traceback" not in err


_ANALYTIC_ROUTE = """
import contextlib, io, json, sys
import hsh4
from hsh4 import angular, cli, coupling, harmonics, multipole, special
codes = []
for argv in (["eval", "--family", "c", "--j", "2", "--lambda", "1",
              "--alpha", "-1", "--point", "0.1,0.2,0.9,0.4"],
             ["cgc", "--family", "c", "--q", "1,0,0,1,0,0,2,0,0"],
             ["ninej", "--q", "1,1,2,1,1,2,2,2,0"],
             ["expand", "--n", "-2", "--j", "0", "--r1", "0.5", "--r2", "1"],
             ["verify", "coupling"], ["verify", "expansion"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
analytic = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify", "orthogonality", "--jmax", "1",
                           "--grid", "8,8,17"]))
print(json.dumps({"codes": codes, "analytic": analytic,
                  "oracle": "scipy.special" in sys.modules}))
"""


def test_analytic_route_loads_no_scipy():
    # scipy belongs to the oracle alone; an analytic module that started
    # using it would make hsh4.verify no longer an independent check.  The
    # coupling and expansion suites check analytic code against itself and
    # need no scipy either; only the orthogonality suite loads it.
    src = str(pathlib.Path(hsh4.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _ANALYTIC_ROUTE],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 7
    assert result["analytic"] == []
    assert result["oracle"]


def test_oracle_loads_no_scipy_linalg():
    # The oracle takes its Gauss-Legendre nodes from numpy, not from
    # scipy.special.roots_legendre, which imports scipy.linalg: import time
    # that every process running the oracle would pay.
    src = str(pathlib.Path(hsh4.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from hsh4.verify import project_multipole\n"
            "project_multipole(-2, 0, 0.3, 1.0, 1, 1)\n"
            "print('scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["False"]


def test_ci_console_script_step_replays():
    # The "Console script" step of the CI workflow, run as one bash script
    # with the hsh4 console script mapped to `python -m hsh4.cli`.
    root = pathlib.Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github/workflows/tests.yml")
                              .read_text())
    steps = [step for job in workflow["jobs"].values()
             for step in job["steps"] if step.get("name") == "Console script"]
    assert len(steps) == 1
    script = 'hsh4() { "$HSH4_PYTHON" -m hsh4.cli "$@"; }\n' + steps[0]["run"]
    proc = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", script], capture_output=True,
        text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(root / "src"),
             "HSH4_PYTHON": sys.executable})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("error: ") == 4  # the four exit-2 lines
