"""
Special functions with certified error bounds
=============================================

The evaluators return a value together with a worst-case error bound, so a
demo can compare against closed forms and check that the bound was honest.
"""

import math

import numpy as np

from thetamoments import digamma_vector, gamma_fn, hurwitz_zeta, hurwitz_zeta_vector

# Hurwitz zeta at integer arguments has classical closed forms.
cases = [
    (2.0, 1.0, math.pi**2 / 6, "zeta(2)"),
    (2.0, 0.5, math.pi**2 / 2, "zeta(2, 1/2)"),
    (4.0, 1.0, math.pi**4 / 90, "zeta(4)"),
]
print("Hurwitz zeta against closed forms:")
for s, a, target, label in cases:
    z = hurwitz_zeta(s, a)
    print(
        f"  {label:<12} value {z.value.real:+.15f}  dev {abs(z.value - target):.1e}"
        f"  bound {z.abs_error:.1e}"
    )

# The vector interface shares one Euler-Maclaurin truncation (N, M) across many
# abscissas and reports one error bound for all of them.
a = np.arange(1, 8) / 7.0
vals, err = hurwitz_zeta_vector(0.5 + 1j, a)
print(f"\nzeta(1/2 + i, a/7) for a = 1..7: shared error bound {err:.1e}")
for ai, v in zip(range(1, 8), vals):
    print(f"  a = {ai}/7: {v:.12f}")

# Digamma anchors: psi(1) = -gamma and psi(1/2) = -gamma - 2 log 2.
gamma_e = 0.5772156649015328606065121
psi, err = digamma_vector(np.array([1.0, 0.5]))
print(f"\npsi(1)   = {psi[0]:+.15f}  dev {abs(psi[0] + gamma_e):.1e}  bound {err[0]:.1e}")
print(f"psi(1/2) = {psi[1]:+.15f}  dev {abs(psi[1] + gamma_e + 2 * math.log(2)):.1e}"
      f"  bound {err[1]:.1e}")

# Gamma on a vertical line decays like exp(-pi |t| / 2): this decay is what
# makes the vertical-line integral representation of theta values converge.
print("\n|Gamma(1/4 + it)| along the line Re s = 1/4:")
for t in (0.0, 2.0, 4.0, 8.0):
    gm = gamma_fn(0.25 + 1j * t)
    print(f"  t = {t:4.1f}: |Gamma| = {abs(gm.value):.6e}")
refl = abs(gamma_fn(0.5 + 1j).value) ** 2
print(f"\n|Gamma(1/2 + i)|^2 = {refl:.15f}  (pi / cosh pi = {math.pi / math.cosh(math.pi):.15f})")
