"""One workload process: set up, run the timed (and traced) phases, report.

Started by run.py, which sets PYTHONPATH and the BLAS thread pins.  Prints
one JSON object with raw measurements on its last stdout line.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
            "seed": seed}


def run_phase(wl, stream, seconds=None, count=None, tracer=None, caches=None):
    """Closed loop of ops; only wl.run(op) is inside an op's latency.

    rec["phase_s"] is the phase's wall time less the harness time spent in
    prepare, after, cache bookkeeping and the checker.
    """
    rec = {"lat": [], "ok": [], "err": [], "errors": [], "import_s": [],
           "cache": {name: [0, 0] for name in caches or ()}}
    harness = 0.0
    start = time.perf_counter()
    for i, op in enumerate(wl.ops(stream)):
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        h = time.perf_counter()
        wl.prepare(op)
        harness += time.perf_counter() - h
        if tracer:
            before = {k: c.cache_info() for k, c in caches.items()}
            tracer.begin(i)
        t = time.perf_counter()
        try:
            out, exc = wl.run(op), None
        except Exception as e:  # a raising op is a failed op, not a crash
            out, exc = None, e
        h = time.perf_counter()
        rec["lat"].append(h - t)
        if tracer:
            if exc is None:
                wl.after(op)
            tracer.finish()
            for k, c in caches.items():
                info = c.cache_info()
                rec["cache"][k][0] += info.hits - before[k].hits
                rec["cache"][k][1] += info.misses - before[k].misses
            if hasattr(wl, "import_trace") and exc is None:
                rec["import_s"].append(wl.hsh4_import_s(out.stderr))
        ok, err = False, math.inf
        if exc is None:
            try:
                ok, err = wl.check(op, out)
            except Exception as e:  # a result the checker cannot read fails
                exc = e
        if exc is not None and len(rec["errors"]) < 5:
            rec["errors"].append(f"{type(exc).__name__}: {exc}")
        rec["ok"].append(bool(ok))
        rec["err"].append(float(err) if math.isfinite(err) else None)
        harness += time.perf_counter() - h
    rec["phase_s"] = time.perf_counter() - start - harness
    return rec


def layer_values(wl, tracer, traced):
    """Raw per-layer values over the traced set-up and traced ops."""
    values = {}
    summary = tracer.summary()
    for name, (calls, self_s) in summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["coupling.plan_terms"] = tracer.plan_terms
    for name, (hits, misses) in traced["cache"].items():
        values[f"coupling.{name}.hit_ratio"] = hits / max(1, hits + misses)
    if hasattr(wl, "kernel_evals"):
        values["verify.kernel_evals"] = (
            summary.get("verify.project_multipole", (0, 0))[0]
            * wl.kernel_evals())
    imports = [s for s in traced["import_s"] if s is not None]
    if imports:
        values["cli.import_s"] = statistics.mean(imports)
        values["cli.process_s"] = statistics.mean(traced["lat"])
    return values


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    import hsh4
    src = (ROOT / "src").resolve()
    if src not in Path(hsh4.__file__).resolve().parents:
        sys.exit(f"hsh4 imported from {hsh4.__file__}, not from {src}")
    import tracing
    from workloads import TIMED, TRACED, WARMUP, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    caches = {"bipolar_plan": hsh4.coupling.bipolar_plan,
              "cgc4_c": hsh4.coupling.cgc4_c}
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        before = {k: c.cache_info() for k, c in caches.items()}
        tracer.install()
        tracer.begin(-1)
    wl.setup()
    out = {"setup_s": time.monotonic() - args.t0}
    if tracer:
        tracer.finish()
        tracer.uninstall()
        setup_cache = {k: [c.cache_info().hits - before[k].hits,
                           c.cache_info().misses - before[k].misses]
                       for k, c in caches.items()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    for op in itertools.islice(wl.ops(WARMUP), wl.warmup_ops):
        wl.prepare(op)
        wl.run(op)
    out["timed"] = run_phase(wl, TIMED, seconds=args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else \
        resource.RUSAGE_SELF
    out["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer:
        if hasattr(wl, "import_trace"):
            wl.import_trace = True
        tracer.install()
        traced = run_phase(wl, TRACED, count=wl.trace_ops, tracer=tracer,
                           caches=caches)
        tracer.uninstall()
        for k, (hits, misses) in setup_cache.items():
            traced["cache"][k][0] += hits
            traced["cache"][k][1] += misses
        out["traced"] = traced
        out["layers"] = layer_values(wl, tracer, traced)
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        tracer.save(ROOT / ".perfbench" / f"spans-{args.workload}.npz")
    out["probes"] = wl.defect_probes()
    out["env"] = environment(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
