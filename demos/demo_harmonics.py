"""Tour of the two hyperspherical harmonic families on S^3.

Evaluates both the parabolic-type H harmonics (labelled by half-integer
projections mu, nu, carried as doubled integers) and the spherical-type C
harmonics (labelled by lambda, alpha), and shows the orthogonal change of
basis between them, through which the H harmonics are read from the C
harmonics.
"""

import numpy as np

from hsh4 import (c_components, cos4, h_components, h_to_c_matrix, hsh_c,
                  hsh_h, scalar_product_c, to_hyperangles)

rng = np.random.default_rng(0)
v = rng.normal(size=4)
v /= np.linalg.norm(v)

print("point on S^3:", np.round(v, 4))
ang = to_hyperangles(v)
print("hyperangles (theta0, theta, phi):",
      (round(ang.theta0, 4), round(ang.theta, 4), round(ang.phi, 4)))

# A single C harmonic: rank j = 2, (lambda, alpha) = (1, -1).
print("\nC_{2,1,-1} =", hsh_c(2, 1, -1, v))

# The matching H harmonic of rank 2 with doubled projections (2mu, 2nu).
print("H_{2,(2mu=2),(2nu=0)} =", hsh_h(2, 2, 0, v))

# All (j+1)^2 components of rank 3 at once, in flat index order.
c3 = c_components(3, v)
h3 = h_components(3, v)
print("\nrank-3 C components, |.|^2 sums to (j+1):",
      float(np.vdot(c3, c3).real))

# The families are related by a real orthogonal matrix per rank; H = T^T C.
T = h_to_c_matrix(3)
print("transform is orthogonal:",
      np.allclose(T @ T.T, np.eye(16)))
# Rank j of H is the SU(2) rotation matrix U^{j/2}, so it is unitary.
U3 = h3.reshape(4, 4)
print("rank-3 H matrix is unitary:",
      np.allclose(U3 @ U3.conj().T, np.eye(4)))

# Addition theorem: the rank-j scalar product of two points is the
# Chebyshev kernel sin((j+1) gamma)/sin(gamma) of their 4D angle.
w = rng.normal(size=4)
w /= np.linalg.norm(w)
gamma = np.arccos(cos4(v, w))
for j in (1, 2, 5):
    lhs = scalar_product_c(j, v, w)
    rhs = np.sin((j + 1) * gamma) / np.sin(gamma)
    print(f"addition theorem j={j}: {lhs:+.12f} vs {rhs:+.12f}")
