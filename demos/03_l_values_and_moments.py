"""
L-values on the critical line and central moments
=================================================

Evaluate L(s, chi) for whole character families at once, then average powers
of |L(1/2, chi)| over primitive characters and compare with the expected
(log q)^{k^2} growth.
"""

import math

import numpy as np

from thetamoments import build_group, central_moment, l_value, l_values_all_chars

# Two classical anchors first: the alternating zeta-like series mod 4.
g4 = build_group(4)
chi4 = g4.char(1)
print(f"L(1, chi mod 4) = {l_value(4, chi4, 1.0).value.real:.15f}   pi/4 = {math.pi / 4:.15f}")
print(f"L(1/2, chi mod 4) = {l_value(4, chi4, 0.5).value.real:.15f}")

# Whole-family evaluation mod 13 at the central point: one shared weight
# vector a^{-s} + q^{-s} zeta(s, 1 + a/q) plus one group transform, instead of
# phi(q) separate sums.
q = 13
g = build_group(q)
vals, err = l_values_all_chars(q, 0.5, group=g)
print(f"\n|L(1/2, chi)| for the {g.phi} characters mod {q} (error bound {err:.1e}):")
print("  " + "  ".join(f"{abs(v):.6f}" for v in vals))

# The trivial character value is tied to zeta with the local factor removed;
# nontrivial values scatter around 1 in magnitude.
print(f"  magnitudes: min {np.min(np.abs(vals[1:])):.4f}, max {np.max(np.abs(vals[1:])):.4f}")

# Central moments over the primitive family.  The normalization divides by
# q (log q)^{k^2}, which is the conjectured order of the sum, so the printed
# ratios should drift only slowly with q.
print("\nsecond and fourth central moments over primitive characters:")
print(f"{'q':>6} {'k':>3} {'family':>7} {'sum':>14} {'ratio':>10}")
for q in (101, 211, 499, 1009, 2003, 3001):
    for k in (1, 2):
        rep = central_moment(q, k)
        print(
            f"{q:>6} {k:>3} {rep.family_size:>7} {rep.raw:>14.4f} {rep.ratio:>10.4f}"
        )
