"""Elementary number theory: sieve, factorization, unit-group structure.

Everything here is desk-scale (moduli up to ~10^6, sieves up to ~10^7) and
exact integer arithmetic; no probabilistic primality, no big-number tricks.

The unit group (Z/qZ)* is described by `GroupStructure`: an explicit list of
generators with their orders (one cyclic component per odd prime power, the
usual <-1> x <3> pair for 2^k with k >= 3), with the discrete-log table
n -> exponent tuple built lazily.  Character evaluation and the fast
all-character transforms in later modules are pure index arithmetic on top.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "PrimeTable",
    "Factorization",
    "GroupStructure",
    "sieve",
    "factorize",
    "euler_phi",
    "primitive_root",
    "group_structure",
]


# ---------------------------------------------------------------------------
# sieve and factorization


@dataclass(frozen=True)
class PrimeTable:
    """The primes up to `limit`."""

    limit: int
    primes: np.ndarray  # ascending, dtype int64

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo <= p <= hi (inclusive both ends)."""
        if hi > self.limit:
            raise DomainError(f"range end {hi} exceeds table limit {self.limit}")
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to `limit` (inclusive)."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    is_prime[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[p]:
            is_prime[p * p::2 * p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(is_prime).astype(np.int64))


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with factors ascending in p."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def phi(self) -> int:
        return math.prod((p - 1) * p ** (e - 1) for p, e in self.factors)


def factorize(n: int) -> Factorization:
    """Trial division by 2 and the odd numbers; fine for the moduli this
    library targets.  Whatever is left once p^2 exceeds it is 1 or a prime."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    m, fac = n, []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            fac.append((p, e))
    if m > 1:
        fac.append((m, 1))
    return Factorization(n=n, factors=tuple(fac))


def euler_phi(n: int) -> int:
    return factorize(n).phi()


# ---------------------------------------------------------------------------
# unit group structure


def primitive_root(q: int, fac: Factorization | None = None) -> int:
    """Smallest primitive root mod q; DomainError if (Z/qZ)* is not cyclic.
    `fac`, the factorization of q if known, is not computed again."""
    if q in (1, 2):
        return 1
    fac = fac or factorize(q)
    odd = [(p, e) for p, e in fac.factors if p != 2]
    two = next((e for p, e in fac.factors if p == 2), 0)
    cyclic = (len(odd) == 1 and two <= 1) or (len(odd) == 0 and two == 2)
    if not cyclic:
        raise DomainError(f"(Z/{q}Z)* is not cyclic; use group_structure({q})")
    phi = fac.phi()
    phi_primes = [p for p, _ in factorize(phi).factors]
    for g in range(2, q):
        if math.gcd(g, q) == 1 and all(pow(g, phi // ell, q) != 1 for ell in phi_primes):
            return g
    raise AssertionError("no primitive root found for cyclic modulus")  # unreachable


@dataclass(frozen=True)
class GroupStructure:
    """(Z/qZ)* as a product of explicit cyclic components.

    components: ((g_1, d_1), ..., (g_r, d_r)) with <g_l> of order d_l and the
      map (m_1, ..., m_r) -> prod g_l^{m_l} a bijection onto the units.
    n_of_index: flat array of unit representatives; entry at the C-order flat
      position of (m_1, ..., m_r) is prod g_l^{m_l} mod q.
    minus_one: the exponent tuple of -1 (d_l / 2, but 0 on the <3> of 2^e).
    exponent: lcm of the d_l (every character value is an exponent-th root of 1).
    factorization: the factorization of q the components were built from.
    index_of_n: length-q inverse lookup (-1 at non-units), built lazily.
    """

    q: int
    components: tuple[tuple[int, int], ...]
    n_of_index: np.ndarray = field(repr=False)
    minus_one: tuple[int, ...]
    exponent: int
    factorization: Factorization = field(repr=False)

    @property
    def phi(self) -> int:
        return int(self.n_of_index.size)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.components)

    @functools.cached_property
    def index_of_n(self) -> np.ndarray:
        out = np.full(max(self.q, 1), -1, dtype=np.int64)
        out[self.n_of_index] = np.arange(self.phi)
        return out

    def exponents_of(self, n: int) -> tuple[int, ...]:
        """Exponent tuple of the unit n; DomainError for non-units."""
        i = int(self.index_of_n[n % self.q])
        if i < 0:
            raise DomainError(f"{n} is not a unit mod {self.q}")
        return tuple(int(x) for x in np.unravel_index(i, self.dims))


def _crt_lift(g: int, pk: int, q: int) -> int:
    """Lift g to G mod q with G = g (mod pk), G = 1 (mod q//pk)."""
    m = q // pk
    # G = g * m * (m^-1 mod pk) + 1 * pk * (pk^-1 mod m), standard CRT
    # (pk^-1 mod 1 is 0, so m = 1 gives g mod q)
    return (g * m * pow(m, -1, pk) + pk * pow(pk, -1, m)) % q


_MOD_BLOCK = 1 << 15  # int64 entries per block of _outer_mod's remainder


def _powers(g: int, d: int, q: int) -> np.ndarray:
    """g^m mod q for m < d as (g^b)^i g^j with b = ceil(sqrt d): two integer
    ladders of about sqrt d steps, then one outer multiply-mod."""
    b = math.isqrt(d - 1) + 1
    hi, lo = (np.fromiter(itertools.accumulate(range(n - 1), lambda x, _: x * s % q, initial=1),
                          np.int64, n) for s, n in ((pow(g, b, q), -(-d // b)), (g, b)))
    return _outer_mod(hi, lo, q)[:d]


def _outer_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a_i b_j mod q, flattened in C order, in one buffer: x - q (x // q) in
    place over blocks of about _MOD_BLOCK entries (floor division runs about
    twice as fast as int64 np.remainder), one block-sized temporary."""
    out = np.multiply.outer(a, b)
    rows = max(1, _MOD_BLOCK // len(b))
    for r in range(0, len(a), rows):
        x = out[r:r + rows]
        quot = x // q
        quot *= q
        x -= quot
    return out.reshape(-1)


def group_structure(q: int) -> GroupStructure:
    """Generator/order decomposition of (Z/qZ)* with the units in generator order."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    comps: list[tuple[int, int]] = []
    fac = factorize(q)
    if q > 1:
        for p, e in fac.factors:
            pk = p ** e
            if p == 2:
                if e == 2:
                    comps.append((_crt_lift(3, 4, q), 2))
                elif e >= 3:
                    comps.append((_crt_lift(pk - 1, pk, q), 2))
                    comps.append((_crt_lift(3, pk, q), pk // 4))
                # e == 1 contributes nothing (phi = 1)
            else:
                g = primitive_root(pk, Factorization(pk, ((p, e),)))
                comps.append((_crt_lift(g, pk, q), pk - pk // p))
    # -1 is g^{d/2} on every component but <3>, the second one when 8 | q
    minus_one = [d // 2 for _, d in comps]
    if q % 8 == 0:
        minus_one[1] = 0
    # enumerate n(m) with the last component fastest (C order)
    tables = [_powers(g, d, q) for g, d in comps] or [np.array([1 % q], dtype=np.int64)]
    n_flat = functools.reduce(lambda a, b: _outer_mod(a, b, q), tables)
    return GroupStructure(
        q=q,
        components=tuple(comps),
        n_of_index=n_flat,
        minus_one=tuple(minus_one),
        exponent=math.lcm(*(d for _, d in comps)),
        factorization=fac,
    )
