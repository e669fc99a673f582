"""
A random multiplicative model for theta values
==============================================

Replace chi(p) by independent uniform points on the unit circle, extend
completely multiplicatively, and form the same weighted sum as the theta
series.  The model's second moment is exactly the sum of squared weights,
which gives the Monte-Carlo machinery a closed-form target to hit.
"""

import numpy as np

from thetamoments import model_moment, model_theta, sample

# One sample: a completely multiplicative function with |f(n)| = 1.
s = sample(30, seed=7)
print("one Steinhaus sample on n <= 30:")
print(f"  f(2) = {s.value(2):.6f}")
print(f"  f(3) = {s.value(3):.6f}")
print(f"  f(6) = {s.value(6):.6f}  (= f(2) f(3): {s.value(2) * s.value(3):.6f})")
print(f"  f(4) = {s.value(4):.6f}  (= f(2)^2:   {s.value(2) ** 2:.6f})")

# The model theta value at q = 101 uses the same Gaussian weights as the
# true series; truncation is chosen exactly as for the real thing, so the
# sample must cover enough integers.
big = sample(400, seed=7)
th = model_theta(101, big)
print(f"\nmodel theta value at q = 101, seed 7: {th:.6f}")

# Monte-Carlo second moment versus the exact weight sum.
est = model_moment(101, 1, 10_000, seed=1)
print(f"\nq = 101, k = 1, {est.samples} samples, seed {est.seed}:")
print(f"  estimate          {est.estimate:.6f}")
print(f"  exact target      {est.sum_w2:.6f}")
print(f"  standard error    {est.std_error:.6f}")
print(f"  median of means   {est.median_of_means:.6f}")
print(f"  normalized ratio  {est.ratio:.6f}")

# Replay determinism: same seed, same numbers.
replay = model_moment(101, 1, 10_000, seed=1)
same = replay.estimate == est.estimate and replay.std_error == est.std_error
print(f"\nbit-identical under replay: {same}")

# Raw moments grow rapidly with k (the model shares the lognormal-flavored
# tail of the true family); the reference normalization grows faster still
# at a single fixed q, so the normalized column shrinks.
print()
for k in (1, 2, 3):
    e = model_moment(101, k, 4000, seed=3)
    print(
        f"k = {k}: raw estimate {e.estimate:>9.4f} (+/- {e.std_error:.4f}), "
        f"normalized {e.ratio:.4f}"
    )
