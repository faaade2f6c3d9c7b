"""hsh4 benchmark: four workloads, end-to-end metrics and a traced run.

  python3 perfbench/run.py --workload expand_eval --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload, one table
  python3 perfbench/run.py --smoke                     # tiny sizes, asserts names

Each measurement runs in fresh worker processes (worker.py) with BLAS
threads pinned to nproc.  The last stdout line of a single-workload run is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See perfbench/README.md for what each name means.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("expand_eval", "coeff_tables", "oracle", "cli")
SETUP_REPEATS = 3
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "special.hyp2f1.calls": "count",
    "special.hyp2f1.self_s": "s",
    "angular.cgc3.calls": "count",
    "angular.cgc3.self_s": "s",
    "angular.wigner9j.calls": "count",
    "angular.wigner9j.self_s": "s",
    "angular.gen_character.self_s": "s",
    "angular.mod_sph_harm.self_s": "s",
    "harmonics.hsh_c.calls": "count",
    "harmonics.c_components.calls": "count",
    "harmonics.c_components.self_s": "s",
    "coupling.bipolar_plan.calls": "count",
    "coupling.bipolar_plan.self_s": "s",
    "coupling.plan_terms": "count",
    "coupling.bipolar_plan.hit_ratio": "ratio",
    "coupling.cgc4_c.hit_ratio": "ratio",
    "coupling.bipolar_values.self_s": "s",
    "multipole.b_coeff.calls": "count",
    "multipole.expand_translated.self_s": "s",
    "multipole.eval_expansion.self_s": "s",
    "verify.project_multipole.self_s": "s",
    "verify.kernel_evals": "count",
    "verify.c_harmonics_at_vectors.self_s": "s",
    "verify.gram_matrix.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.process_s": "s",
    "check.max_err": "1",
    "check.failed": "count",
    "check.defect_probes_failed": "count",
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(deadline, workload, seed, seconds, trace, smoke, setup_only=False):
    """Run worker.py once in its own process group; return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    cmd += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    with subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          env=worker_env(), start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI child
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited "
                           f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def rate(phase):
    """Completed ops per second of the phase, harness time excluded."""
    return sum(phase["ok"]) / phase["phase_s"] if phase["lat"] else 0.0


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run of one workload; returns the result and notes."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:  # extra fresh processes, so setup_s is a median
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn(deadline, workload, seed, seconds, 0, smoke,
                                setup_only=True)["setup_s"])
    rep = spawn(deadline, workload, seed, seconds, trace, smoke)
    setups.append(rep["setup_s"])
    timed = rep["timed"]
    phases = [timed] + ([rep["traced"]] if trace else [])
    attempted = sum(len(p["ok"]) for p in phases)
    failed = sum(not ok for p in phases for ok in p["ok"])
    lat = sorted(t for t, ok in zip(timed["lat"], timed["ok"]) if ok) or [0.0]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] \
        if len(lat) > 1 else lat[0]
    values = {"setup_s": statistics.median(setups),
              "ops_per_s": rate(timed),
              "op_ms_p50": statistics.median(lat) * 1e3,
              "op_ms_p90": p90 * 1e3,
              "peak_rss_mb": rep["peak_rss_kb"] / 1024.0}
    units = END_TO_END
    if trace:
        errs = [e for p in phases for e in p["err"] if e is not None]
        values = {name: 0.0 for name in PER_LAYER}
        values.update({k: v for k, v in rep["layers"].items()
                       if k in PER_LAYER})
        values.update({
            "check.max_err": max(errs, default=0.0),
            "check.failed": failed,
            "check.defect_probes_failed": rep["probes"][1],
            "trace.ops": len(rep["traced"]["lat"]),
            "trace.ops_per_s": rate(rep["traced"]),
            "trace.overhead_ops_per_s": rate(timed) - rate(rep["traced"]),
        })
        units = PER_LAYER
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    notes = [f"workload {workload}  seed {seed}  seconds {seconds}  "
             f"trace {trace}",
             "env " + json.dumps(rep["env"]),
             f"timed ops {len(timed['ok'])}, failed_frac "
             f"{failed / attempted if attempted else 0.0} (1)",
             "setup_s runs " + ", ".join(f"{s:.4f}" for s in setups)]
    notes += [f"error: {e}" for p in phases for e in p["errors"]]
    if rep["probes"][0]:
        notes.append(f"known-defect probes: {rep['probes'][1]} of "
                     f"{rep['probes'][0]} fail (see README.md)")
    if trace and workload == "oracle":
        notes.append("verify.kernel_evals is computed: seeds x grid size^2 "
                     "per project_multipole call")
    return result, notes


def report(workload, seed, seconds, trace, smoke=False):
    result, notes = measure(workload, seed, seconds, trace, smoke)
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return result


def smoke():
    """Every workload at tiny size, traced and not; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = report(workload, 0, 1.0, trace, smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: names/units "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: failed ops")
            if not all(math.isfinite(m["value"])
                       for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: non-finite value")
    for line in problems:
        print("smoke problem:", line)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; assert every metric name and unit")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hsh4" / "__init__.py").is_file():
        print(f"error: no hsh4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload != "all":
        report(args.workload, args.seed, args.seconds, args.trace)
        return 0
    rows = []
    for workload in WORKLOADS:
        result = report(workload, args.seed, args.seconds, args.trace)
        rows.append((workload, result))
    if not args.trace:
        print(f"\n{'workload':14s}" + "".join(
            f"{k + ' [' + u + ']':>20s}" for k, u in
            {**END_TO_END, "failed_frac": "1"}.items()))
        for workload, r in rows:
            vals = [m["value"] for m in r["metrics"].values()]
            vals.append(r["failed"] / r["attempted"])
            print(f"{workload:14s}" + "".join(f"{v:20.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
