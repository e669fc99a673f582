"""
Shifted moments, decorrelation, and large-value counts
======================================================

Two stories about |L(1/2 + it, chi)| across a family: products over shifted
points decorrelate as the shifts separate, and the number of characters with
unusually large log |L| dies off much faster than the family grows.  Under
GRH, Soundararajan's majorant bounds every log |L| from above.
"""

import math

import numpy as np

from thetamoments import (
    build_group,
    cutoff_exponent,
    l_values_all_chars,
    large_value_bound,
    large_value_counts,
    log_l_majorants,
    shifted_moment,
    variance_parameter,
)

# Decorrelation: the two-point moment sum |L(1/2) L(1/2 + i delta)| over the
# primitive family mod 1009, against the product upper bound.
q = 1009
lq = math.log(q)
print(f"two-shift moments mod {q} (family: primitive characters):")
print(f"{'separation':>12} {'raw sum':>12} {'vs bound':>10}")
for delta in sorted((0.0, 1 / lq, 0.1, 0.5, 1.0, 5.0)):
    rep = shifted_moment(q, (0.0, delta))
    print(f"{delta:>12.4f} {rep.raw:>12.2f} {rep.ratio:>10.4f}")
print("the raw sum decays as the points separate; the bound absorbs the decay")

# Large values: how many characters mod 211 have log|L(1/2)| + log|L(1/2)|
# above V?  (Two zero shifts double the single-point log.)  The exceedance
# counts fall to zero well before the theoretical envelope does.
q = 211
hist = large_value_counts(q, (0.0, 0.0), np.linspace(0.5, 4.0, 8))
w = variance_parameter((0.0, 0.0), q)
print(f"\nexceedance counts mod {q} over {hist.family_size} nonquadratic characters")
print(f"(variance parameter W = {w:.2f}):")
print(f"{'V':>6} {'count':>6}")
for v, c in zip(hist.v_grid, hist.counts):
    print(f"{float(v):>6.2f} {int(c):>6}")

# The theoretical envelope only makes sense above its admissible floor
# V >= 4 sqrt(log log q); by then the observed counts are already zero.
floor = 4 * math.sqrt(math.log(math.log(q)))
print(f"\nenvelope for V above the floor {floor:.2f}:")
print(f"{'V':>6} {'envelope':>12} {'regime':>7}")
for v in np.linspace(floor, 4 * w, 6):
    env = large_value_bound(q, float(v), w, 1)
    print(f"{float(v):>6.2f} {env.value:>12.4f} {env.regime:>7}")
print(
    "(the third-regime constant 801k keeps that branch nearly vacuous at desk\n"
    " scale -- the sharp information lives in regime I near the floor)"
)

# The exponent that drives the envelope is piecewise in V: flat at log(W)/2
# up to V = W, a 1/V taper until V = W log W / 4k, then the constant 2k.
print("\ncutoff exponent profile at W = 100, k = 1 (knots at 100.00 and 115.13):")
for v in (50.0, 100.0, 110.0, 115.13, 150.0, 300.0):
    print(f"  V = {v:>7.2f}: A = {cutoff_exponent(v, 100.0, 1):.4f}")

# Under GRH, log|L(1/2, chi)| is at most a short sum over the prime powers
# n <= x plus a conductor term.  The certified slack is the majorant's lower
# end (value - err) minus log|L|'s upper end log(|L| + err).
q = 1009
maj, maj_err = log_l_majorants(q, t=0.0, x=1000.0)
vals, err = l_values_all_chars(q, 0.5)
prim = build_group(q).primitive_mask
slack = maj[prim] - maj_err - np.log(np.abs(vals[prim]) + err)
print(f"\nGRH majorant at x = 1000 over the {int(prim.sum())} primitive characters mod {q}:")
print(f"  smallest certified slack {slack.min():.3f} (majorant err {maj_err:.1e})")
