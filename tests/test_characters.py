"""Character group: multiplicativity, parity, conductors, Gauss sums, transform."""

import math
import tracemalloc

import numpy as np
import pytest

from thetamoments.characters import FAMILIES, build_group, gauss_sum
from thetamoments.errors import DomainError
from thetamoments.numtheory import euler_phi, factorize


def divisors(n):
    """Positive divisors of n, ascending, by trial division."""
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    fac = factorize(n).factors
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def primitive_count(q):
    """phi*(q) = sum_{d|q} mu(d) phi(q/d), the number of primitive characters."""
    return sum(mobius(d) * euler_phi(q // d) for d in divisors(q))


def conductor_oracle(chi):
    """Straightforward conductor: least f | q with chi constant on classes mod f."""
    q = chi.q
    units = [a for a in range(max(q, 1)) if math.gcd(a, q) == 1] or [0]
    for f in divisors(q):
        ok = True
        for m in units:
            for n in units:
                if (m - n) % f == 0 and abs(chi.value(m) - chi.value(n)) > 1e-9:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    return q


@pytest.mark.parametrize("q", list(range(1, 40)) + [45, 64, 100])
def test_group_size(q):
    assert len(build_group(q)) == euler_phi(q)


@pytest.mark.parametrize("q", [5, 8, 12, 16, 45])
def test_multiplicative_exact(q):
    g = build_group(q)
    e = g.structure.exponent
    units = [int(n) for n in g.structure.units()]
    for chi in g:
        for m in units[:8]:
            for n in units:
                tm, tn, tmn = (chi.root_exponent(m), chi.root_exponent(n),
                               chi.root_exponent(m * n % q if q > 1 else 0))
                assert tmn == (tm + tn) % e  # chi(mn) = chi(m) chi(n), exactly


def test_trivial_character_is_index_zero():
    for q in [1, 2, 5, 12, 16]:
        g = build_group(q)
        chi0 = g.char(0)
        assert chi0.is_trivial
        tab = chi0.value_table()
        for n in range(q):
            expected = 1.0 if (q == 1 or math.gcd(n, q) == 1) else 0.0
            assert tab[n] == expected
        assert chi0.conductor == 1


def test_value_at_one_and_nonunits():
    g = build_group(12)
    for chi in g:
        assert chi.value(1) == 1
        assert chi.value(4) == 0 and chi.value(6) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 13, 29, 8, 12, 40])
def test_parity_matches_value_at_minus_one(q):
    g = build_group(q)
    for chi in g:
        v = chi.value(q - 1)
        assert abs(v - (1 if chi.is_even else -1)) < 1e-12
    if q > 2:
        assert int(np.sum(g.parity_bits == 0)) == euler_phi(q) // 2  # half even


@pytest.mark.parametrize("q", [1, 2, 4, 5, 8, 12, 16, 24, 27, 32, 36, 45, 48])
def test_conductors_against_oracle(q):
    g = build_group(q)
    for chi in g:
        assert chi.conductor == conductor_oracle(chi), (q, chi.exponents)


@pytest.mark.parametrize("q", list(range(1, 1200)))
def test_primitive_count_formula(q):
    g = build_group(q)
    assert int(np.sum(g.primitive_mask)) == primitive_count(q)


def test_conductors_linear_memory():
    g = build_group(30030)  # phi = 5760: a phi x phi table would be 250 MB
    tracemalloc.start()
    try:
        conductors = g.conductors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # chi mod q with conductor f <-> primitive chi mod f, for each f | q
    for f in divisors(30030):
        assert int(np.sum(conductors == f)) == primitive_count(f), f


@pytest.mark.parametrize("q", [5, 12, 40, 5040])
def test_family_masks(q):
    g = build_group(q)
    prim, quad, par = g.primitive_mask, g.quadratic_or_trivial_mask, g.parity_bits
    expected = {
        "even": prim & (par == 0),
        "odd": prim & (par == 1),
        "star": prim,
        "nonquadratic": ~quad,
        "star-nonquadratic": prim & ~quad,
    }
    assert set(expected) == set(FAMILIES)
    for name, mask in expected.items():
        got = g.family_mask(name)
        assert got.dtype == bool and np.array_equal(got, mask), (q, name)
    with pytest.raises(DomainError, match="star-nonquadratic"):
        g.family_mask("primitive")


def test_q5_even_primitive_census():
    # mod 5: trivial, quadratic (even), and two quartic (odd) characters
    g = build_group(5)
    even_prim = [c for c in g if c.is_even and c.is_primitive]
    assert len(even_prim) == 1
    assert even_prim[0].order == 2
    odd = [c for c in g if not c.is_even]
    assert len(odd) == 2 and all(c.order == 4 for c in odd)


@pytest.mark.parametrize("q", [5, 16, 45])
def test_orders_by_repeated_multiplication(q):
    g = build_group(q)
    for chi in g:
        k, acc = 1, list(chi.exponents)
        dims = [d for _, d in g.structure.components]
        while any(a % d for a, d in zip(acc, dims)):
            acc = [a + b for a, b in zip(acc, chi.exponents)]
            k += 1
        assert chi.order == k


def test_quadratic_mask():
    g = build_group(8)
    # mod 8 every character is real: chi^2 = chi0 for all four
    assert bool(np.all(g.quadratic_or_trivial_mask))
    g = build_group(5)
    assert g.quadratic_or_trivial_mask.tolist() == [c.order <= 2 for c in g]


def test_conjugate_character():
    for q in [5, 12, 29]:
        g = build_group(q)
        for i in range(len(g)):
            j = g.conjugate_index(i)
            assert np.allclose(g.value_table(j), np.conj(g.value_table(i)), atol=1e-14)
        chi = g.char(min(1, len(g) - 1))
        assert chi.conjugate().conjugate() == chi


@pytest.mark.parametrize("q", [1, 2, 8, 45, 5040])
def test_conjugation_permutation(q):
    g = build_group(q)
    neg = [g.char_from_exponents(tuple(-e for e in chi.exponents)).index for chi in g]
    assert g.conjugation.tolist() == neg
    assert [g.conjugate_index(i) for i in range(len(g))] == neg


def test_char_from_exponents_roundtrip():
    g = build_group(45)
    for chi in g:
        assert g.char_from_exponents(chi.exponents) == chi
    assert g.char_from_exponents(tuple(-e for e in g.char(3).exponents)) == g.char(3).conjugate()


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_sum_odd_character_mod_4():
    g = build_group(4)
    chi = next(c for c in g if not c.is_even)
    tau = gauss_sum(chi)
    assert abs(tau.value - 2j) < 1e-14  # i - (-i)


@pytest.mark.parametrize("q", [5, 7, 8, 12, 13, 29])
def test_gauss_sum_modulus_primitive(q):
    g = build_group(q)
    for chi in g:
        if chi.is_primitive:
            tau = gauss_sum(chi)
            assert abs(abs(tau.value) - math.sqrt(q)) < 1e-11, (q, chi.exponents)


def test_gauss_sum_trivial_character_is_mobius():
    for q in [5, 7, 6, 10, 12]:
        g = build_group(q)
        tau = gauss_sum(g.char(0))
        assert abs(tau.value - mobius(q)) < 1e-11


# ---------------------------------------------------------------------------
# batch transform


@pytest.mark.parametrize("q", [3, 7, 12, 16, 45, 97])
def test_transform_matches_naive(q):
    g = build_group(q)
    rng = np.random.default_rng(q)
    w = rng.normal(size=q)
    fast = g.transform(w)
    assert fast.shape == (len(g),)
    for i in range(len(g)):
        naive = np.dot(g.value_table(i), w)
        assert abs(fast[i] - naive) < 1e-11, (q, i)


def test_transform_complex_weights():
    q = 13
    g = build_group(q)
    rng = np.random.default_rng(1)
    w = rng.normal(size=q) + 1j * rng.normal(size=q)
    fast = g.transform(w)
    for i in [0, 3, 7]:
        assert abs(fast[i] - np.dot(g.value_table(i), w)) < 1e-12


def test_transform_rejects_bad_shape():
    g = build_group(7)
    with pytest.raises(DomainError):
        g.transform(np.ones(6))


def test_orthogonality_small():
    # sum_chi chi(m) conj(chi(n)) = phi(q) [m = n] for a couple of moduli
    for q in [7, 12]:
        g = build_group(q)
        m = np.stack([g.value_table(i) for i in range(len(g))])
        units = g.structure.units()
        mu = m[:, units]
        gram = mu.T @ np.conj(mu)
        assert np.allclose(gram, len(g) * np.eye(len(units)), atol=1e-10)


def test_char_index_bounds():
    g = build_group(5)
    with pytest.raises(DomainError):
        g.char(4)
    with pytest.raises(DomainError):
        g.char(-1)
    with pytest.raises(DomainError):
        build_group(0)
