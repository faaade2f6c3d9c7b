"""Command-line interface.

Verbs:
  eval    evaluate a single harmonic at a 4D point
  cgc     O(4) Clebsch-Gordan coefficient (with closed-form cross-check)
  ninej   4D 9j recoupling coefficient
  expand  multipole coefficient table B^{(n j)}_{l lp}
  verify  run a named verification suite

H-family projections mu, nu are plain integers that the CLI doubles; with
--doubled they are doubled integers taken as given, so half-integer ones
stay exact (``--j 1 --mu 1 --nu -1 --doubled`` is mu = 1/2, nu = -1/2).
Ranks and C-family labels are never doubled: --doubled with --family c is
a usage error.  Exit status: 0 on success/all checks passed, 1 on failed
verification, 2 on usage errors and on computations that cannot be carried
out (such as a series that does not converge).
"""

import argparse
import json
import os
import sys

import numpy as np

from .coupling import _CLOSED_CASES, cgc4_c, cgc4_c_closed, cgc4_h, ninej4
from .harmonics import hsh_c, hsh_h
from .multipole import (ExpansionSpec, coupling_checks, expand_translated,
                        expansion_checks)
from .special import _tol

_DOUBLED_C = "--doubled applies to the H projections only, not --family c"


def _fmt(x):
    if isinstance(x, complex):
        return "%.17g%+.17gj" % (x.real, x.imag)
    return "%.17g" % x


def default_tol():
    """Default verification tolerance; HSH4_TOL overrides."""
    text = os.environ.get("HSH4_TOL", "1e-10")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"HSH4_TOL must be a number, got {text!r}") from None


def _parse_point(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--point needs four components x,y,z,z0")
    return np.array(parts)


def _cmd_eval(args):
    point = _parse_point(args.point)
    if args.family == "c":
        if args.doubled:
            raise ValueError(_DOUBLED_C)
        if args.lam is None or args.alpha is None:
            raise ValueError("family c needs --lambda and --alpha")
        j, lam, alf = args.j, args.lam, args.alpha
        val = hsh_c(j, lam, alf, point)
        label = f"C[j={j},lam={lam},alpha={alf}]"
    else:
        if args.mu is None or args.nu is None:
            raise ValueError("family h needs --mu and --nu")
        j, tmu, tnu = args.j, args.mu, args.nu
        if not args.doubled:
            tmu, tnu = 2 * tmu, 2 * tnu
        val = hsh_h(j, tmu, tnu, point)
        label = f"H[j={j},2mu={tmu},2nu={tnu}]"
    if args.output == "json":
        print(json.dumps({"harmonic": label, "point": list(point),
                          "re": val.real, "im": val.imag}))
    else:
        print(f"{label} = {_fmt(val)}")
    return 0


def _cmd_cgc(args):
    q = [int(t) for t in args.q.split(",")]
    if len(q) != 9:
        raise ValueError("--q needs nine comma-separated integers")
    closed = None
    if args.family == "c":
        if args.doubled:
            raise ValueError(_DOUBLED_C)
        val = cgc4_c(*q)
        for case in _CLOSED_CASES:
            try:
                closed = (case, cgc4_c_closed(case, *q))
                break
            except ValueError:
                continue
    else:
        if not args.doubled:
            # Ranks j1, j2, j (every third value) stay as given.
            q = [t if i % 3 == 0 else 2 * t for i, t in enumerate(q)]
        val = cgc4_h(*q)
    payload = {"family": args.family, "q": q, "value": val}
    if closed is not None:
        payload["closed_form"] = {"case": closed[0], "value": closed[1],
                                  "difference": val - closed[1]}
    if args.output == "json":
        print(json.dumps(payload))
    else:
        print(f"cgc = {_fmt(val)}")
        if closed is not None:
            print(f"closed[{closed[0]}] = {_fmt(closed[1])}  "
                  f"diff = {_fmt(val - closed[1])}")
    return 0


def _cmd_ninej(args):
    q = [int(t) for t in args.q.split(",")]
    if len(q) != 9:
        raise ValueError("--q needs nine comma-separated integer ranks")
    val = ninej4(*q)
    if args.output == "json":
        print(json.dumps({"q": q, "value": val}))
    else:
        print(f"ninej4 = {_fmt(val)}")
    return 0


def _cmd_expand(args):
    spec = ExpansionSpec(args.n, args.j, args.r1, args.r2, l_max=args.lmax)
    table = expand_translated(spec)
    if args.output == "json":
        print(table.to_json())
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _cmd_verify(args):
    tol = args.tol if args.tol is not None else default_tol()
    _tol("tolerance (--tol or HSH4_TOL)", tol)
    if args.suite == "orthogonality":
        # Only this suite loads the scipy oracle; nothing else imports it.
        from . import verify as verify_mod
        shape = [int(t) for t in args.grid.split(",")]
        if len(shape) != 3:
            raise ValueError("--grid needs three comma-separated node "
                             "counts n0,n1,n2")
        grid = verify_mod.build_grid(*shape)
        checks, _ = verify_mod.orthogonality_report(args.jmax, grid, tol=tol)
    elif args.suite == "expansion":
        checks = expansion_checks(tol, args.seed)
    else:
        checks = coupling_checks(tol, args.seed)
    print(json.dumps(checks, indent=2))
    return 0 if all(c["pass"] for c in checks) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="hsh4",
        description="4D hyperspherical harmonics, O(4) coupling and "
                    "multipole expansions.",
        epilog="With --doubled, the H projections are given as doubled "
               "integers (2mu, 2nu), which keeps half-integer projections "
               "exact; ranks and C labels are never doubled.")
    sub = p.add_subparsers(dest="verb", required=True)

    pe = sub.add_parser("eval", help="evaluate one harmonic at a point")
    pe.add_argument("--family", choices=("c", "h"), required=True)
    pe.add_argument("--j", type=int, required=True)
    pe.add_argument("--lambda", dest="lam", type=int, default=None)
    pe.add_argument("--alpha", type=int, default=None)
    pe.add_argument("--mu", type=int, default=None)
    pe.add_argument("--nu", type=int, default=None)
    pe.add_argument("--point", required=True, help="x,y,z,z0")
    pe.add_argument("--doubled", action="store_true")
    pe.add_argument("--output", choices=("text", "json"), default="text")
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("cgc", help="O(4) Clebsch-Gordan coefficient")
    pc.add_argument("--family", choices=("c", "h"), required=True)
    pc.add_argument("--q", required=True,
                    help="c: j1,lam1,alf1,j2,lam2,alf2,j,lam,alf; "
                         "h: j1,mu1,nu1,j2,mu2,nu2,j,mu,nu")
    pc.add_argument("--doubled", action="store_true")
    pc.add_argument("--output", choices=("text", "json"), default="text")
    pc.set_defaults(func=_cmd_cgc)

    pn = sub.add_parser("ninej", help="4D 9j coefficient")
    pn.add_argument("--q", required=True, help="a,b,c,d,e,f,g,h,k")
    pn.add_argument("--output", choices=("text", "json"), default="text")
    pn.set_defaults(func=_cmd_ninej)

    px = sub.add_parser("expand", help="multipole coefficient table")
    px.add_argument("--n", type=float, required=True)
    px.add_argument("--j", type=int, required=True)
    px.add_argument("--r1", type=float, required=True)
    px.add_argument("--r2", type=float, required=True)
    px.add_argument("--lmax", type=int, default=30)
    px.add_argument("--output", choices=("csv", "json"), default="csv")
    px.set_defaults(func=_cmd_expand)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite",
                    choices=("orthogonality", "expansion", "coupling"))
    pv.add_argument("--jmax", type=int, default=4)
    pv.add_argument("--grid", default="24,24,49", help="n0,n1,n2")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=None,
                    help="override tolerance (default HSH4_TOL or 1e-10)")
    pv.set_defaults(func=_cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
