"""Walk through the spectral side: chi_n, coefficient vectors, eigenfunctions.

The differential operator restricted to the normalized-Legendre basis is a
pair of tridiagonal blocks (one per parity).  A ProlateContext owns a band
limit and hands out converged eigen-data on demand.
"""

import numpy as np

from prolate import ProlateContext, build_matrix, chi, gauss_legendre, mode, psi_value

c = 25.0
ctx = ProlateContext(c)

print(f"band limit c = {c}")
print(f"2c/pi = {2 * c / np.pi:.3f}  (the count of near-unit eigenvalues)\n")

print("the matrix blocks are tridiagonal; the even block starts:")
diag, offdiag = build_matrix(c, parity=0, dim=4)
print("  diag   :", np.array2string(diag, precision=3))
print("  offdiag:", np.array2string(offdiag, precision=3), "\n")

print(" n   chi_n        chi_n vs c^2")
for n in range(0, 26, 5):
    x = chi(ctx, n)
    side = "<" if x < c * c else ">"
    print(f"{n:2d}   {x:12.4f}  {side} {c*c:.0f}")

print("\nchi grows past c^2 right around n = 2c/pi =", f"{2*c/np.pi:.2f}")

m4 = mode(ctx, 4)
print(f"\nmode n=4: parity {m4.parity}, {m4.dim} coefficients, "
      f"psi(0) = {m4.psi_at_zero:.6f}")

xs = np.linspace(-1, 1, 9)
print("psi_4 on a coarse grid:")
print(" ", np.array2string(psi_value(m4, xs), precision=4))

sign_changes = int(np.sum(np.diff(np.sign(psi_value(m4, np.linspace(-1, 1, 2001)))) != 0))
print(f"sign changes on (-1,1): {sign_changes}  (equals the index n)")

rule = gauss_legendre(60)
m5 = mode(ctx, 5)
dot = rule.integrate(lambda t: psi_value(m4, t) * psi_value(m5, t))
nrm = rule.integrate(lambda t: psi_value(m4, t) ** 2)
print(f"\n<psi_4, psi_5> = {dot:+.2e}   ||psi_4||^2 = {nrm:.12f}")
