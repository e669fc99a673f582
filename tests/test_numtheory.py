"""Sieve, factorization, and unit-group structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetamoments.errors import DomainError
from thetamoments.numtheory import (
    Factorization,
    euler_phi,
    factorize,
    group_structure,
    primitive_root,
    sieve,
)


def trial_primes(limit):
    """Independent oracle: primes by pure trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def test_sieve_small_against_trial_division():
    t = sieve(1000)
    assert t.primes.tolist() == trial_primes(1000)


def test_prime_counts():
    t = sieve(10 ** 6)
    assert np.searchsorted(t.primes, 100, side="right") == 25
    assert len(t.primes) == 78498  # pi(10^6)


def test_sieve_table_retains_only_the_primes():
    # the sieve's working array is dropped once the primes are read off
    t = sieve(10 ** 6)
    held = sum(v.nbytes for v in vars(t).values() if isinstance(v, np.ndarray))
    assert held < 10 ** 6


def test_primes_in_range():
    t = sieve(200)
    assert t.primes_in(100, 120).tolist() == [101, 103, 107, 109, 113]
    with pytest.raises(DomainError):
        t.primes_in(1, 500)


def test_factorize_known():
    assert factorize(1) == Factorization(1, ())
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(10007).factors == ((10007, 1),)  # prime
    assert factorize(100003).factors == ((100003, 1),)
    with pytest.raises(DomainError):
        factorize(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.factors:
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))  # p prime
        assert e >= 1
        prod *= p ** e
    assert prod == n
    assert list(fac.factors) == sorted(fac.factors)


def test_euler_phi_against_gcd_count():
    for n in range(1, 200):
        direct = sum(1 for a in range(n) if math.gcd(a, n) == 1)
        assert euler_phi(n) == direct


def multiplicative_order(g, q):
    k, x = 1, g % q
    while x != 1:
        x = x * g % q
        k += 1
    return k


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 11, 13, 25, 27, 49, 6, 10, 18, 22, 50])
def test_primitive_root_is_smallest_generator(q):
    g = primitive_root(q)
    phi = euler_phi(q)
    assert multiplicative_order(g, q) == phi
    for h in range(2, g):
        if math.gcd(h, q) == 1:
            assert multiplicative_order(h, q) < phi


def test_primitive_root_known_values():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(1) == 1 and primitive_root(2) == 1


@pytest.mark.parametrize("q", [8, 16, 12, 15, 24, 20])
def test_primitive_root_rejects_noncyclic(q):
    with pytest.raises(DomainError):
        primitive_root(q)


@pytest.mark.parametrize("q", list(range(1, 61)) + [97, 100, 128, 360])
def test_group_structure_enumerates_units(q):
    g = group_structure(q)
    units = sorted(a for a in range(q) if math.gcd(a, q) == 1) if q > 1 else [0]
    assert sorted(g.n_of_index.tolist()) == units
    assert g.phi == euler_phi(q)
    prod = 1
    for gen, d in g.components:
        assert multiplicative_order(gen, q) == d
        prod *= d
    assert prod == g.phi


@pytest.mark.parametrize("q", [5, 8, 16, 12, 45, 360])
def test_group_structure_exponent_tuples_reconstruct(q):
    g = group_structure(q)
    for n in np.sort(g.n_of_index):
        m = g.exponents_of(int(n))
        val = 1
        for (gen, _), mi in zip(g.components, m):
            val = val * pow(gen, int(mi), q) % q
        assert val == n % q


def test_group_structure_powers_of_two():
    assert group_structure(8).dims == (2, 2)
    g16 = group_structure(16)
    assert g16.dims == (2, 4)
    assert g16.components[0][0] == 15  # the -1 generator
    assert group_structure(4).dims == (2,)
    assert group_structure(2).dims == ()
    assert group_structure(1).phi == 1


def _loop_tables(q, components):
    """n_of_index / index_of_n by one multiplication per power, component by component."""
    n_flat = [1 % q]
    for g, d in components:
        pows, x = [], 1
        for _ in range(d):
            pows.append(x)
            x = x * g % q
        n_flat = [n * p % q for n in n_flat for p in pows]
    index_of_n = [-1] * max(q, 1)
    for i, n in enumerate(n_flat):
        index_of_n[n] = i
    return n_flat, index_of_n


@pytest.mark.parametrize("qs", [range(1, 2000), [2 ** 12, 3 ** 7, 5040, 30030, 100003]],
                         ids=["q<2000", "large"])
def test_group_tables_match_loop_reference(qs):
    for q in qs:
        g = group_structure(q)
        n_flat, index_of_n = _loop_tables(q, g.components)
        assert g.n_of_index.tolist() == n_flat, q
        assert g.index_of_n.tolist() == index_of_n, q
        assert g.minus_one == g.exponents_of(-1), q


def test_group_structure_builds_no_length_q_table():
    """Beyond the unit table it returns, group_structure(100003) allocates less
    than one length-q int64 table: the discrete-log table is built lazily."""
    q = 100003
    group_structure(1009)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        g = group_structure(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - g.n_of_index.nbytes < 8 * q
    assert "index_of_n" not in vars(g)


def test_group_structure_rejects_zero():
    with pytest.raises(DomainError):
        group_structure(0)


def test_exponents_of_rejects_nonunit():
    g = group_structure(12)
    with pytest.raises(DomainError):
        g.exponents_of(4)
