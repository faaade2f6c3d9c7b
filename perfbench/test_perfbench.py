"""Self-tests of the benchmark: each checker counts a perturbed result as a
failure, and the smoke mode prints every metric name with its unit.

  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import workloads as W
from hsh4 import coupling, multipole

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("family", ["c", "h"])
def test_plan_checker_counts_dropped_term(family):
    plan = coupling.bipolar_plan(family, 3, 3, 2)
    assert W.check_plan(2, plan)[0]
    dropped = tuple(a[1:] for a in plan)
    assert not W.check_plan(2, dropped)[0]


def _table(l_max=6):
    spec = multipole.ExpansionSpec(-2.0, 1, 0.3, 1.0, l_max=l_max)
    return multipole.expand_translated(spec)


def test_table_checker_passes_library_table():
    assert W.check_table(-2.0, 1, 0.3, 1.0, 6, _table(), sample_seed=1)[0]


@pytest.mark.parametrize("perturb", ["scale", "drop", "inf"])
def test_table_checker_counts_perturbed_entry(perturb):
    table = _table()
    key = max(table.entries)  # the highest entry is always sampled
    if perturb == "scale":
        table.entries[key] *= 1.0 + 1e-6
    elif perturb == "drop":
        del table.entries[key]
    else:
        table.entries[key] = float("inf")
    assert not W.check_table(-2.0, 1, 0.3, 1.0, 6, table, sample_seed=1)[0]


def test_expected_keys_follow_pochhammer_zeros():
    # n = -2, j = 0: (0)_ka vanishes unless ka = 0, so only lp = l survive.
    assert W.expected_table_keys(-2.0, 0, 4) == {(l, l) for l in range(5)}
    assert set(_table().entries) == W.expected_table_keys(-2.0, 1, 6)


def test_expand_eval_checker_counts_perturbed_value():
    wl = W.ExpandEval(0)
    wl.L_MAX = 8
    wl.setup()
    op = next(wl.ops(W.TIMED))
    out = wl.run(op)
    assert wl.check(op, out)[0]
    assert not wl.check(op, out * (1.0 + 1e-3))[0]


def test_oracle_checker_counts_perturbed_value():
    wl = W.Oracle(0)
    op = (-2, 0, 0.3, 1, 1)
    b = multipole.b_coeff(multipole.ExpansionSpec(-2, 0, 0.3, 1.0, l_max=2),
                          1, 1)
    assert wl.check(op, b)[0]
    assert not wl.check(op, b * (1.0 + 1e-6))[0]


def test_cli_checker_counts_wrong_output_and_exit_code():
    wl = W.Cli(0, smoke=True)
    wl.setup()
    ops = wl.ops(W.TIMED)
    seen = set()
    while len(seen) < len(W.Cli.VERBS):
        op = next(ops)
        if op[0] in seen:
            continue
        seen.add(op[0])
        good = wl.run(op)
        assert wl.check(op, good) == (True, 0.0), op[1]
        bad_exit = SimpleNamespace(returncode=2, stdout=good.stdout)
        assert not wl.check(op, bad_exit)[0]
        if op[0].startswith("verify"):
            records = json.loads(good.stdout)
            records[0]["observed"] += 1e-9
            wrong = json.dumps(records)
        elif op[0] == "expand-csv":
            lines = good.stdout.splitlines()
            lines.pop()
            wrong = "\n".join(lines) + "\n"
        elif op[0] == "expand-json":
            payload = json.loads(good.stdout)
            payload["entries"][0]["value"] *= 1.0 + 1e-15
            wrong = json.dumps(payload)
        else:
            value = wl.parse(op[0], good.stdout) + 1e-12
            wrong = f"x = {value!r}\n".replace("(", "").replace(")", "")
        bad = SimpleNamespace(returncode=0, stdout=wrong)
        assert not wl.check(op, bad)[0], op[1]


def test_smoke_prints_every_metric_with_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cli", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
