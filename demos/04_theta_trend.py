"""
Theta values and the k = 1 moment trend over primes
===================================================

Evaluate theta(1, chi) for whole families via the group transform, then track
the normalized second moment over a range of prime moduli.  The even-family
ratio fluctuates gently around a constant; the odd family is essentially
rigid because orthogonality collapses its k = 1 sum to a diagonal Gaussian
sum.
"""

import math

import numpy as np

from thetamoments import build_group, sieve, theta_all_chars, theta_moment, truncation_length

# How many series terms does a value need?  The tail bound is Gaussian in
# n^2 x / q, so the cutoff grows like sqrt(q log(1/eps)).
print("series length for eps = 1e-12 at x = 1:")
for q in (5, 101, 1009, 100003):
    n = truncation_length(q, 1.0, 0, 1e-12)
    print(f"  q = {q:>6}: {n:>4} terms   (sqrt scale: {n / math.sqrt(q):.2f} sqrt(q))")

# One family at a glance: theta values mod 29 split by parity.
q = 29
g = build_group(q)
vals, err = theta_all_chars(q, 1.0, group=g)
even = np.abs(vals[g.family_mask("even")])
odd = np.abs(vals[g.family_mask("odd")])
print(f"\nmod {q}: {len(even)} even primitive, {len(odd)} odd primitive characters (bound {err:.1e})")
print(f"  |theta| even: mean {even.mean():.4f}, spread {even.std():.4f}")
print(f"  |theta| odd:  mean {odd.mean():.4f}, spread {odd.std():.4f}")

# The trend: S_2(q) normalized by phi(q) q^{1/2} (even) and phi(q) q^{3/2}
# (odd), sampled at every 25th prime between 1009 and 10007.
primes = [int(p) for p in sieve(10007).primes_in(1009, 10007)][::25]
print(f"\nnormalized second moments at {len(primes)} primes:")
print(f"{'q':>6} {'even ratio':>12} {'odd ratio':>12}")
even_r, odd_r = [], []
for p in primes:
    re = theta_moment(p, 1, "even").ratio
    ro = theta_moment(p, 1, "odd").ratio
    even_r.append(re)
    odd_r.append(ro)
    print(f"{p:>6} {re:>12.6f} {ro:>12.8f}")
even_r, odd_r = np.array(even_r), np.array(odd_r)
print(f"\neven: mean {even_r.mean():.5f}, CV {even_r.std(ddof=1) / even_r.mean():.3f}")
print(f"odd:  mean {odd_r.mean():.8f}, CV {odd_r.std(ddof=1) / odd_r.mean():.1e}")
print("(the odd ratio is pinned at sqrt(pi) / (8 (2 pi)^{3/2}) + exponentially small terms)")
