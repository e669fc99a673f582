"""Elementary number theory: sieve, factorization, unit-group structure.

Everything here is desk-scale (moduli up to ~10^6, sieves up to ~10^7) and
exact integer arithmetic; no probabilistic primality, no big-number tricks.

The unit group (Z/qZ)* is described by `GroupStructure`: an explicit list of
generators with their orders (one cyclic component per odd prime power, the
usual <-1> x <3> pair for 2^k with k >= 3) together with the full discrete-log
table n -> exponent tuple.  Character evaluation and the fast all-character
transforms in later modules are pure index arithmetic on top of this.
"""

from __future__ import annotations

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
    """Primes up to `limit` plus a smallest-prime-factor table.

    `spf[n]` is the smallest prime factor of n (spf[0] = spf[1] = 0).
    """

    limit: int
    primes: np.ndarray  # ascending, dtype int64
    spf: np.ndarray     # length limit+1, dtype int64

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo <= p <= hi (inclusive both ends)."""
        if hi > self.limit:
            raise DomainError(f"range end {hi} exceeds table limit {self.limit}")
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]


def sieve(limit: int) -> PrimeTable:
    """Smallest-prime-factor sieve up to `limit` (inclusive)."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[2::2] = 2
    for p in range(3, int(limit ** 0.5) + 1, 2):
        if spf[p] == 0:
            spf[p * p::2 * p] = np.where(spf[p * p::2 * p] == 0, p, spf[p * p::2 * p])
    odd = np.arange(3, limit + 1, 2)
    unset = odd[spf[3::2] == 0]
    spf[unset] = unset  # remaining odds are prime
    primes = np.flatnonzero(spf == np.arange(limit + 1))
    primes = primes[primes >= 2]
    return PrimeTable(limit=limit, primes=primes.astype(np.int64), spf=spf)


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with factors ascending in p."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= (p - 1) * p ** (e - 1)
        return out


def factorize(n: int) -> Factorization:
    """Trial-division factorization; fine for the moduli this library targets."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    m, fac = n, []
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            fac.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):  # 6k +- 1 wheel
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                fac.append((p, e))
        d += 6
    if m > 1:
        fac.append((m, 1))
    fac.sort()
    return Factorization(n=n, factors=tuple(fac))


def euler_phi(n: int) -> int:
    return factorize(n).phi()


# ---------------------------------------------------------------------------
# unit group structure


def _order_is_phi(g: int, q: int, phi: int, phi_primes: list[int]) -> bool:
    return all(pow(g, phi // ell, q) != 1 for ell in phi_primes)


def primitive_root(q: int) -> int:
    """Smallest primitive root mod q; DomainError if (Z/qZ)* is not cyclic."""
    if q in (1, 2):
        return 1
    fac = factorize(q).factors
    odd = [(p, e) for p, e in fac if p != 2]
    two = next((e for p, e in fac if p == 2), 0)
    cyclic = (len(odd) == 1 and two <= 1) or (len(odd) == 0 and two == 2)
    if not cyclic:
        raise DomainError(f"(Z/{q}Z)* is not cyclic; use group_structure({q})")
    phi = euler_phi(q)
    phi_primes = [p for p, _ in factorize(phi).factors]
    for g in range(2, q):
        if math.gcd(g, q) == 1 and _order_is_phi(g, q, phi, phi_primes):
            return g
    raise AssertionError("no primitive root found for cyclic modulus")  # unreachable


@dataclass(frozen=True)
class GroupStructure:
    """(Z/qZ)* as a product of explicit cyclic components.

    components: ((g_1, d_1), ..., (g_r, d_r)) with <g_l> of order d_l and the
      map (m_1, ..., m_r) -> prod g_l^{m_l} a bijection onto the units.
    n_of_index: flat array of unit representatives; entry at the C-order flat
      position of (m_1, ..., m_r) is prod g_l^{m_l} mod q.
    index_of_n: length-q inverse lookup (-1 at non-units).
    exponent: lcm of the d_l (every character value is an exponent-th root of 1).
    """

    q: int
    components: tuple[tuple[int, int], ...]
    n_of_index: np.ndarray = field(repr=False)
    index_of_n: np.ndarray = field(repr=False)
    exponent: int

    @property
    def phi(self) -> int:
        return int(self.n_of_index.size)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.components)

    def exponents_of(self, n: int) -> tuple[int, ...]:
        """Exponent tuple of the unit n; DomainError for non-units."""
        i = int(self.index_of_n[n % self.q]) if self.q > 1 else 0
        if self.q > 1 and i < 0:
            raise DomainError(f"{n} is not a unit mod {self.q}")
        if not self.components:
            return ()
        return tuple(int(x) for x in np.unravel_index(i, self.dims))

    def units(self) -> np.ndarray:
        """Units mod q in ascending order."""
        return np.sort(self.n_of_index)


def _crt_lift(g: int, pk: int, q: int) -> int:
    """Lift g to G mod q with G = g (mod pk), G = 1 (mod q//pk)."""
    m = q // pk
    # G = g * m * (m^-1 mod pk) + 1 * pk * (pk^-1 mod m), standard CRT
    if m == 1:
        return g % q
    inv_m = pow(m, -1, pk)
    inv_pk = pow(pk, -1, m)
    return (g * m * inv_m + pk * inv_pk) % q


def group_structure(q: int) -> GroupStructure:
    """Generator/order decomposition of (Z/qZ)* with full index tables."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    comps: list[tuple[int, int]] = []
    if q > 1:
        for p, e in factorize(q).factors:
            pk = p ** e
            if p == 2:
                if e == 2:
                    comps.append((_crt_lift(3, 4, q), 2))
                elif e >= 3:
                    comps.append((_crt_lift(pk - 1, pk, q), 2))
                    comps.append((_crt_lift(3, pk, q), pk // 4))
                # e == 1 contributes nothing (phi = 1)
            else:
                comps.append((_crt_lift(primitive_root(pk), pk, q), (p - 1) * p ** (e - 1)))
    # enumerate n(m) with the last component fastest (C order)
    n_flat = np.array([1 % q], dtype=np.int64)
    for g, d in comps:
        # doubling fill: g^{m+k} = g^m g^k, so each pass doubles the table
        pows = np.empty(d, dtype=np.int64)
        pows[0] = 1
        m = 1
        while m < d:
            k = min(m, d - m)
            pows[m:m + k] = pows[:k] * pow(g, m, q) % q
            m += k
        n_flat = (n_flat[:, None] * pows[None, :] % q).reshape(-1)
    index_of_n = np.full(max(q, 1), -1, dtype=np.int64)
    index_of_n[n_flat] = np.arange(n_flat.size)
    exponent = 1
    for _, d in comps:
        exponent = math.lcm(exponent, d)
    return GroupStructure(
        q=q,
        components=tuple(comps),
        n_of_index=n_flat,
        index_of_n=index_of_n,
        exponent=exponent,
    )
