"""The built-in quadrature oracle: orthogonality and coefficient recovery.

A product Gauss-Chebyshev x Gauss-Legendre x uniform grid integrates
polynomials on S^3 exactly up to a known degree; the same machinery
recovers multipole coefficients with no reference to the series formulas.
"""

import numpy as np

from hsh4 import ExpansionSpec, b_coeff
from hsh4.verify import build_grid, orthogonality_report, project_multipole

# A modest grid already integrates low ranks exactly; the total weight is
# the volume of S^3, 2 pi^2.
grid = build_grid(16, 16, 33)
print("grid nodes:", grid.weights.size,
      "| total weight - 2 pi^2 =",
      float(grid.weights.sum() - 2 * np.pi ** 2))
print("exact through polynomial degree:", grid.exact_degree)

# Orthogonality report: diagonal overlaps 2 pi^2/(j+1), off-diagonals 0.
checks, _ = orthogonality_report(3, grid, tol=1e-10)
worst = max(c["abs_err"] for c in checks)
print("\northogonality j <= 3:",
      "all pass" if all(c["pass"] for c in checks) else "FAIL",
      f"(worst deviation {worst:.2e})")
print("sample check record:", checks[0])

# Coefficient recovery: project the kernel r^n C_j(r-hat) onto a bipolar
# harmonic by quadrature (the first point pinned to one meridian, the second
# on the grid's (theta0, theta) factors refined twofold and fourfold, which
# must agree) and compare with the closed-form table.
n, j, r1, r2 = 2.0, 0, 0.5, 1.0
spec = ExpansionSpec(n, j, r1, r2)
proj_grid = build_grid(12, 12, 25)
print(f"\nrecovering B^({n:g},{j}) at r1={r1}, r2={r2}:")
for (l, lp) in ((0, 0), (1, 1)):
    got = project_multipole(n, j, r1, r2, l, lp, grid=proj_grid)
    ref = b_coeff(spec, l, lp)
    print(f"  ({l},{lp}): quadrature {got:+.12f}  closed form {ref:+.12f}")
