"""Steinhaus random multiplicative model for theta values.

A sample assigns each prime p <= N an independent angle uniform on [0, 2 pi)
and extends completely multiplicatively: f(p^j m) = f(p)^j f(m), |f(n)| = 1.
model_theta replaces chi by f in the theta series, keeping the weights
w_n = n^eta e^{-pi n^2 / q} and the theta module's truncation rule, so the
model second moment is exactly sum w_n^2 (Steinhaus orthonormality) and
higher moments probe the conjectured q^{k/2} (log q)^{(k-1)^2} growth without
any character arithmetic.

Randomness is numpy's default PCG64 generator; a sample is fully determined
by (N, seed), and Monte-Carlo runs derive per-sample seeds as seed + index.
model_moment draws a block of SAMPLE_BLOCK samples at a time: one generator
per sample fills one row of a (block x primes) angle array, the additive
angle table arg f(m) = sum_p v_p(m) angle_p is built for the whole block with
one strided update per prime power, and the weighted sums are row reductions.
Each row is bit-identical to sample(N, seed + index), which is the one-row
case of the same helper, so working memory is O(block N) for any sample
count and an estimate replays bit for bit.  k >= 2 powers are heavy-tailed,
so the estimate record carries a median-of-means value alongside the plain
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numtheory import sieve
from .summation import chunked_sum
from .theta import _series_terms, truncation_length

__all__ = [
    "SteinhausSample",
    "ModelMomentEstimate",
    "sample",
    "model_theta",
    "model_moment",
]

SAMPLE_BLOCK = 4096  # samples drawn and reduced together in model_moment


@dataclass(frozen=True)
class SteinhausSample:
    """Unit-modulus completely multiplicative f on 1..N, from one seed."""

    n: int
    seed: int
    primes: np.ndarray
    prime_values: np.ndarray
    values: np.ndarray  # values[m] = f(m) for m = 1..N; values[0] = 0

    def value(self, m: int) -> complex:
        if not 1 <= m <= self.n:
            raise DomainError(f"n = {m} outside sample support 1..{self.n}")
        return complex(self.values[m])


def sample(n: int, seed: int) -> SteinhausSample:
    """Draw one Steinhaus sample on 1..N, deterministic in (N, seed)."""
    if n < 2:
        raise DomainError("sample support must be >= 2")
    primes = sieve(n).primes_in(2, n)
    angles, values = _draw(n, primes, [seed])
    return SteinhausSample(n=n, seed=seed, primes=primes,
                           prime_values=np.exp(1j * angles[0]), values=values[0])


def _draw(n: int, primes: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
    """(angles, values) for one sample per seed: row r of values is f(0..N)
    drawn from default_rng(seeds[r]), with values[:, 0] = 0."""
    angles = np.array([np.random.default_rng(s).uniform(0.0, 2 * math.pi, size=len(primes))
                       for s in seeds])
    # additive angle table: arg f(m) = sum_p v_p(m) angle_p
    acc = np.zeros((len(angles), n + 1))
    for p, a in zip(primes, angles.T):
        pj = int(p)
        while pj <= n:
            acc[:, pj::pj] += a[:, None]
            pj *= int(p)
    values = np.exp(1j * acc)
    values[:, 0] = 0.0
    return angles, values


def model_theta(q: int, s: SteinhausSample, eta: int = 0, eps: float = 1e-12) -> complex:
    """sum_n f(n) n^eta e^{-pi n^2 / q}, truncated per the theta rule."""
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    n = truncation_length(q, 1.0, eta, eps)
    if s.n < n:
        raise DomainError(f"sample support {s.n} below truncation length {n}")
    w = _series_terms(q, 1.0, eta, n)[1]
    return complex(chunked_sum(s.values[1:n + 1] * w))


@dataclass(frozen=True)
class ModelMomentEstimate:
    """Monte-Carlo estimate of E |sum f(n) w_n|^{2k} with its normalization."""

    q: int
    k: int
    eta: int
    samples: int
    seed: int
    estimate: float        # plain mean of |model_theta|^{2k}
    std_error: float
    median_of_means: float
    normalization: float   # q^{k/2} (log q)^{(k-1)^2}
    ratio: float
    weights: np.ndarray

    @property
    def sum_w2(self) -> float:
        """Exact E of the second moment; the k = 1 target."""
        return float(np.sum(self.weights ** 2))


def _model_thetas(w: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """sum_n f(n) w_n for the samples f = sample(max(N, 2), seed + i),
    i < samples, N = len(w); drawn SAMPLE_BLOCK samples at a time."""
    n = len(w)
    support = max(n, 2)
    primes = sieve(support).primes_in(2, support)
    out = np.empty(samples, dtype=complex)
    for i0 in range(0, samples, SAMPLE_BLOCK):
        i1 = min(i0 + SAMPLE_BLOCK, samples)
        _, values = _draw(support, primes, range(seed + i0, seed + i1))
        out[i0:i1] = chunked_sum(values[:, 1:n + 1] * w)
    return out


def model_moment(q: int, k: int, samples: int, seed: int, eps: float = 1e-12,
                 eta: int = 0) -> ModelMomentEstimate:
    """Estimate E |model_theta|^{2k} from `samples` independent samples."""
    if q < 3:
        raise DomainError("model_moment requires q >= 3")
    if k < 1:
        raise DomainError("k must be >= 1")
    if samples < 100:
        raise DomainError("at least 100 samples required")
    n = truncation_length(q, 1.0, eta, eps)
    w = _series_terms(q, 1.0, eta, n)[1]
    # scalar abs and pow: numpy's vector abs and power differ in the last bit
    powers = np.array([abs(z) ** (2 * k)
                       for z in _model_thetas(w, samples, seed).tolist()])
    mean = float(chunked_sum(powers)) / samples
    std = float(np.sqrt(chunked_sum((powers - mean) ** 2) / (samples - 1)))
    se = std / math.sqrt(samples)
    buckets = max(4, min(20, samples // 25))
    mom = float(np.median([float(np.mean(b)) for b in np.array_split(powers, buckets)]))
    norm = q ** (k / 2) * math.log(q) ** ((k - 1) ** 2)
    return ModelMomentEstimate(
        q=q, k=k, eta=eta, samples=samples, seed=seed, estimate=mean,
        std_error=se, median_of_means=mom, normalization=norm,
        ratio=mean / norm, weights=w)
