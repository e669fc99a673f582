"""Steinhaus random multiplicative model for theta values.

A sample assigns each prime p <= N an independent angle uniform on [0, 2 pi)
and extends completely multiplicatively: f(p^j m) = f(p)^j f(m), |f(n)| = 1.
model_theta replaces chi by f in theta's truncated series (theta_series:
weights w_n = n^eta e^{-pi n^2 / q}, n <= N), so the model second moment is
exactly sum w_n^2 (Steinhaus orthonormality) and higher moments probe the
conjectured q^{(2 eta + 1) k/2} (log q)^{(k-1)^2} growth, divided by theta's
normalization with 1 for phi(q), without any character arithmetic.

A sample is fully determined by (N, seed), and Monte-Carlo runs derive
per-sample seeds as seed + index.  Seeds are non-negative integers.  The
prime angles of the sample with seed s are the stream of
numpy.random.default_rng(s).uniform(0, 2 pi, size), bit for bit, but no
generator object is built: _uniform_angles runs numpy's SeedSequence and
PCG64 (XSL-RR output, next_double) in uint64 lanes, one lane per sample, and
a test pins it against the installed numpy.  model_moment draws a block of
SAMPLE_BLOCK samples at a time: the kernel fills a (block x primes) angle
array, only the pi(N) prime values take a cos and a sin, and complete
multiplicativity fills each composite with one product per sample,
f(m) = f(p) f(m / p) for the smallest prime factor p of m; the weighted sums
are row reductions.  Each row is bit-identical to sample(N, seed + index),
which is the one-row case of the same helper, so working memory is
O(block N) for any sample count and an estimate replays bit for bit.  k >= 2
powers are heavy-tailed, so the estimate record carries a median-of-means
value, the middle of the sorted bucket means, alongside the plain mean.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .characters import THETA_FAMILIES
from .errors import DomainError
from .numtheory import sieve
from .summation import chunked_sum
from .theta import theta_normalization, theta_series

__all__ = [
    "SteinhausSample",
    "ModelMomentEstimate",
    "sample",
    "model_theta",
    "model_moment",
]

MIN_SAMPLES = 100  # fewest samples model_moment takes
SAMPLE_BLOCK = 4096  # samples drawn and reduced together in model_moment

_U32, _U64 = np.uint32, np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_PCG_MULT_HI = _U64(2549297995355413924)  # PCG64's 128-bit LCG multiplier
_PCG_MULT_LO = _U64(4865540595714422341)


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


def _check_seed(seed) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0; got {seed}")
    return seed


def sample(n: int, seed: int) -> SteinhausSample:
    """Draw one Steinhaus sample on 1..N, deterministic in (N, seed)."""
    if n < 2:
        raise DomainError("sample support must be >= 2")
    primes = sieve(n).primes_in(2, n)
    values = _draw(n, primes, [_check_seed(seed)])[0]
    return SteinhausSample(n=n, seed=seed, primes=primes,
                           prime_values=values[primes], values=values)


def _draw(n: int, primes: np.ndarray, seeds) -> np.ndarray:
    """values with row r = f(0..N) of the sample drawn from the stream of
    default_rng(seeds[r]), values[:, 0] = 0: f(p) = cos + i sin of p's angle
    (bit for bit exp(1j angle)), and each composite m, in increasing order,
    f(m) = f(p) f(m / p) for its smallest prime factor p."""
    angles = _uniform_angles(seeds, len(primes))
    # table[m] = f(m) over the samples: each product reads and writes whole
    # rows, which numpy multiplies alike at any sample count (columns of one
    # array would take its scalar loop and differ from a one-row draw)
    table = np.empty((n + 1, len(angles)), dtype=complex)
    table[:2] = [[0.0], [1.0]]
    prime_values = np.empty(angles.T.shape, dtype=complex)
    np.cos(angles.T, out=prime_values.real)
    np.sin(angles.T, out=prime_values.imag)
    table[primes] = prime_values
    del angles, prime_values
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes[primes <= math.isqrt(n)][::-1].tolist():  # the smallest is written last
        spf[p * p::p] = p
    composites = np.flatnonzero(spf)
    for m, p in zip(composites.tolist(), spf[composites].tolist()):
        np.multiply(table[p], table[m // p], out=table[m])
    return np.ascontiguousarray(table.T)  # C order: a block row sums as one sample does


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's uint32 hash step: (hashed value, next hash constant)."""
    nxt = const * mult & 0xFFFFFFFF
    value = (value ^ _U32(const)) * _U32(nxt)
    return value ^ (value >> _U32(16)), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _U32(0xCA01F9DD) - y * _U32(0x4973F715)
    return r ^ (r >> _U32(16))


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al).astype(_U64), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2^128 on (hi, lo) uint64 lanes; the high
    word of lo * multiplier_lo comes from 32-bit limbs."""
    a0, a1 = lo & _LOW32, lo >> _U64(32)
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _U64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    mulhi = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return _add128(mulhi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO, lo * _PCG_MULT_LO,
                   inc_hi, inc_lo)


def _uniform_angles(seeds, size: int) -> np.ndarray:
    """(len(seeds), size) angles; row r is, bit for bit,
    default_rng(seeds[r]).uniform(0, 2 pi, size) for non-negative int seeds."""
    # SeedSequence: little-endian uint32 words, zero words pad the 4-word pool
    width = max(4, -(-max(s.bit_length() for s in seeds) // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds),
                          dtype="<u4").reshape(-1, width).astype(_U32)
    const = 0x43B0D7E5
    pool = []
    for i in range(4):
        v, const = _hash(words[:, i], const, 0x931E8875)
        pool.append(v)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                v, const = _hash(pool[i_src], const, 0x931E8875)
                pool[i_dst] = _mix(pool[i_dst], v)
    for i_src in range(4, width):
        has_word = words[:, i_src:].any(axis=1)  # rows whose seed reaches word i_src
        for i_dst in range(4):
            v, const = _hash(words[:, i_src], const, 0x931E8875)
            pool[i_dst] = np.where(has_word, _mix(pool[i_dst], v), pool[i_dst])
    const = 0x8B51F9DD
    state = []
    for i in range(8):  # generate_state(4, uint64): 8 uint32 words, low first
        v, const = _hash(pool[i % 4], const, 0x58F38DED)
        state.append(v.astype(_U64))
    s0, s1, s2, s3 = (state[2 * j] | state[2 * j + 1] << _U64(32) for j in range(4))
    # pcg64_set_seed: state 0, inc = (initseq << 1) | 1, step, add initstate, step
    inc_hi, inc_lo = s2 << _U64(1) | s3 >> _U64(63), s3 << _U64(1) | _U64(1)
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, s0, s1), inc_hi, inc_lo)
    out = np.empty((len(words), size))
    for j in range(size):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U64(58)  # XSL-RR output
        x = x >> rot | x << (_U64(64) - rot & _U64(63))
        out[:, j] = (x >> _U64(11)) * (1.0 / 9007199254740992.0) * (2 * math.pi)
    return out


def model_theta(q: int, s: SteinhausSample, eta: int = 0, eps: float = 1e-12) -> complex:
    """sum_{n <= N} f(n) n^eta e^{-pi n^2 / q}: theta_value's series, f for chi."""
    w = theta_series(q, 1.0, eta, eps)[1]
    if s.n < w.size:
        raise DomainError(f"sample support {s.n} below truncation length {w.size}")
    return complex(chunked_sum(s.values[1:w.size + 1] * w))


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
    normalization: float   # q^{(2 eta + 1) k / 2} (log q)^{(k-1)^2}
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
        values = _draw(support, primes, range(seed + i0, seed + i1))
        out[i0:i1] = chunked_sum(values[:, 1:n + 1] * w)
    return out


def _median(xs: list[float]) -> float:
    """np.median(xs), bit for bit, without the numpy.ma import that
    np.median's first call costs a fresh process."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def model_moment(q: int, k: int, samples: int, seed: int, eps: float = 1e-12,
                 eta: int = 0) -> ModelMomentEstimate:
    """Estimate E |model_theta|^{2k} from `samples` independent samples;
    theta_normalization checks q, k and the parity that eta names."""
    if samples < MIN_SAMPLES:
        raise DomainError(f"at least {MIN_SAMPLES} samples required")
    seed = _check_seed(seed)  # seed + i only grows
    norm = theta_normalization(q, k, THETA_FAMILIES[eta] if eta in (0, 1) else eta, 1)
    w = theta_series(q, 1.0, eta, eps)[1]
    # scalar abs and pow: numpy's vector abs and power differ in the last bit
    powers = np.array([abs(z) ** (2 * k)
                       for z in _model_thetas(w, samples, seed).tolist()])
    mean = float(chunked_sum(powers)) / samples
    std = float(np.sqrt(chunked_sum((powers - mean) ** 2) / (samples - 1)))
    se = std / math.sqrt(samples)
    buckets = max(4, min(20, samples // 25))
    mom = _median([float(np.mean(b)) for b in np.array_split(powers, buckets)])
    return ModelMomentEstimate(
        q=q, k=k, eta=eta, samples=samples, seed=seed, estimate=mean,
        std_error=se, median_of_means=mom, normalization=norm,
        ratio=mean / norm, weights=w)
