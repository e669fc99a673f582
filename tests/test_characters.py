"""Character group: multiplicativity, parity, conductors, Gauss sums, transform."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import thetamoments
from thetamoments import numtheory, theta
from thetamoments.characters import (FAMILIES, SPLIT_FLOOR, CharacterGroup, build_group,
                                     gauss_sum)
from thetamoments.errors import DomainError
from thetamoments.lfunc import l_value, log_l_majorant
from thetamoments.numtheory import euler_phi, factorize
from thetamoments.specfun import TWO_PI
from thetamoments.summation import rounding_bound
from thetamoments.theta import mellin_checks, theta_moment, theta_value


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
    units = [int(n) for n in np.sort(g.structure.n_of_index)]
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


@pytest.mark.parametrize("q", [1, 2, 4, 5, 8, 12, 16, 24, 27, 32, 36, 45, 48, 54, 72, 360])
def test_conductors_against_oracle(q):
    g = build_group(q)
    for chi in g:
        assert chi.conductor == conductor_oracle(chi), (q, chi.exponents)


@pytest.mark.parametrize("q", list(range(1, 2000)))
def test_primitive_count_formula(q):
    """The closed-form primitive mask is the conductor test conductors == q."""
    g = build_group(q)
    assert int(np.sum(g.primitive_mask)) == primitive_count(q)
    assert np.array_equal(g.primitive_mask, g.conductors == q)


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
    # each table alone, on a fresh group, peaks at <= 40 B per character
    for q in (30030, 100003):
        for name in ("parity_bits", "orders", "conductors", "primitive_mask",
                     "quadratic_or_trivial_mask"):
            g = build_group(q)
            tracemalloc.start()
            try:
                getattr(g, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 40 * g.phi, (q, name, peak / g.phi)


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
    rows = np.random.default_rng(q).standard_normal((3, len(g))) * (1 + 1j)
    assert np.array_equal(g.conjugate(rows), rows[:, neg])


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


def _direct_gauss_sum(g, index):
    """tau(chi) = sum_u chi(u) e(u / q) summed directly in clongdouble.  With
    chi(u) = e(t / e) for chi's root exponent t at u (from its exponents on
    the generators), each term is e((t q + u e) / (e q)), its phase reduced
    exactly in integers before one longdouble angle is formed."""
    q, e, dims = g.q, g.structure.exponent, g.structure.dims
    t = np.zeros(g.phi, dtype=np.int64)
    for m, d, j in zip(np.unravel_index(np.arange(g.phi), dims) if dims else (),
                       dims, g.char(index).exponents):
        t += m * j * (e // d)
    num = (t % e * q + g.structure.n_of_index * e) % (e * q)
    angle = TWO_PI * (num.astype(np.longdouble) / (e * q))
    return complex(np.sum(np.cos(angle)) + 1j * np.sum(np.sin(angle)))


@pytest.mark.parametrize("q", [1, 2, 4, 5, 8, 12, 13, 29, 101, 1009, 5040, 10007, 40028, 100003])
def test_gauss_sums_within_their_bound_of_a_direct_sum(q):
    """gauss_sum(chi) is entry chi.index of the group's one transform, bit for
    bit, with its bound; |tau - direct| <= err for every character up to
    q = 5040, and for the first, middle and last one above it.  Each weight
    e(u / q), its phase rounded once to float64, is within the (pi + sqrt 2)
    eps that err's model charges of the longdouble e(u / q)."""
    g = build_group(q)
    values, err = g.gauss_sums
    phase = TWO_PI * g.structure.n_of_index.astype(np.longdouble) / q
    deviation = np.abs(np.exp(1j * phase.astype(float)) - np.exp(1j * phase))
    assert deviation.max(initial=0.0) <= (math.pi + math.sqrt(2)) * np.finfo(float).eps
    picks = range(g.phi) if q <= 5040 else (0, g.phi // 2, g.phi - 1)
    for i in picks:
        tau = gauss_sum(g.char(i))
        assert tau.value == complex(values[i]) and tau.abs_error == err
        assert abs(tau.value - _direct_gauss_sum(g, i)) <= err, (q, i)


def test_gauss_sum_runs_no_per_character_sum(monkeypatch):
    """gauss_sum reads its entry of the cached gauss_sums: no value table and
    no dot product per character."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-character sum")

    g = build_group(29)
    monkeypatch.setattr(CharacterGroup, "value_table", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    assert [gauss_sum(chi).value for chi in g] == g.gauss_sums[0].tolist()


@pytest.mark.parametrize("q", [1009, 10007, 40028, 100003])
def test_gauss_sums_identities_within_err(q):
    """|tau(chi)| = sqrt q for every primitive chi, tau(chi_0) = mu(q), and
    tau(conj chi) = chi(-1) conj tau(chi) for every chi, within the bound
    (twice it for the pair)."""
    g = build_group(q)
    values, err = g.gauss_sums
    assert np.abs(np.abs(values[g.primitive_mask]) - math.sqrt(q)).max() <= err
    assert abs(values[0] - mobius(q)) <= err
    sign = 1 - 2 * g.parity_bits
    assert np.abs(values[g.conjugation] - sign * np.conj(values)).max() <= 2 * err


@pytest.mark.parametrize("q", [1, 2, 12, 36, 60, 180])
def test_imprimitive_gauss_sum_from_its_inducing_character(q):
    """tau(chi) = mu(q / f) chi*(q / f) tau(chi*) for chi mod q induced by
    chi* mod f, its conductor (Montgomery-Vaughan, Thm 9.10); chi* is found
    by its values on the units mod q, and the two sides agree within the
    two reported errors."""
    g = build_group(q)
    units = g.structure.n_of_index
    for chi in g:
        f = chi.conductor
        h = build_group(f)
        star = [psi for psi in h if psi.conductor == f
                and np.allclose(h.value_table(psi.index)[units % f], chi.value_table()[units])]
        assert len(star) == 1, (q, chi.exponents)
        tau, tau_star = gauss_sum(chi), gauss_sum(star[0])
        expected = mobius(q // f) * star[0].value(q // f) * tau_star.value
        assert abs(tau.value - expected) <= tau.abs_error + tau_star.abs_error, (q, chi.exponents)


def test_gauss_sums_fresh_process_time_and_memory_linear_in_phi():
    """All 100002 Gauss sums mod 100003 take under 0.5 s in a fresh process,
    group built; the cached transform's traced peak stays within 80 bytes
    per unit at both q = 10007 and q = 100003."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(thetamoments.__file__))}
    done = subprocess.run([sys.executable, "-c", _GAUSS_TIMING_CHILD], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(done.stdout.split()[-1]) < 0.5, done.stdout
    for q in (10007, 100003):
        g = build_group(q)
        tracemalloc.start()
        try:
            g.gauss_sums
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * g.phi, (q, peak)


_GAUSS_TIMING_CHILD = """
import time
from thetamoments.characters import build_group
t0 = time.perf_counter()
build_group(100003).gauss_sums
print(time.perf_counter() - t0)
"""


@pytest.mark.parametrize("call", [lambda chi: theta_value(7, chi, 1.0),
                                  lambda chi: mellin_checks(7, [chi]),
                                  lambda chi: l_value(7, chi, 0.5),
                                  lambda chi: log_l_majorant(7, chi)])
def test_character_of_another_modulus_is_refused_by_one_message(call):
    with pytest.raises(DomainError, match="^character modulus 11 does not match q = 7$"):
        call(build_group(11).char(1))


# ---------------------------------------------------------------------------
# batch transform


@pytest.mark.parametrize("q", [3, 7, 12, 16, 45, 97])
def test_transform_matches_naive(q):
    g = build_group(q)
    rng = np.random.default_rng(q)
    w = rng.normal(size=q)[g.structure.n_of_index]
    fast = g.transform(w)
    assert fast.shape == (len(g),)
    for i in range(len(g)):
        naive = np.dot(g.value_table(i)[g.structure.n_of_index], w)
        assert abs(fast[i] - naive) < 1e-11, (q, i)


# cyclic orders d >= SPLIT_FLOOR, not prime powers, whose largest prime p has
# p^2 > d (a length pocketfft may run by Bluestein) run on (d / p, p):
# 10006 = 2 * 5003, 100002 = 42 * 2381 and 40028 = 4 * 10007's 10006
GOOD_THOMAS = {10007: (2, 5003), 100003: (42, 2381), 4 * 10007: (2, 2, 5003)}


@pytest.mark.parametrize("q", [29, 47, 53, 59, 1009, 1019, 10007, 100003, 4 * 10007,
                               5040, 30030, 2 * 3 ** 7])
def test_prime_power_split_transform_against_direct_sums(q):
    """A cyclic component of order d >= SPLIT_FLOOR that is not a prime power
    and whose largest prime p exceeds sqrt(d) runs on the Good-Thomas grid
    (d / p, p); smooth orders (1008, 1458, 5040's and 30030's components) and
    short ones (28, 46, 52, 58, 1018) keep the exponent grid with no index
    maps.  Sampled characters, in index order, match their direct sums
    sum_i chi(u_i) w[i] over the units u = n_of_index."""
    g = build_group(q)
    perm, dims, out = g._grid
    if q in GOOD_THOMAS:
        assert dims == GOOD_THOMAS[q]
        assert perm.shape == out.shape == (g.phi,)
    else:
        assert perm is None and out is None and dims == g.structure.dims
    rng = np.random.default_rng(q)
    w = (rng.normal(size=q) + 1j * rng.normal(size=q))[g.structure.n_of_index]
    fast = g.transform(w)
    for i in {0, 1, len(g) // 3, len(g) // 2, len(g) - 1}:
        naive = np.dot(g.value_table(i)[g.structure.n_of_index], w)
        assert abs(fast[i] - naive) <= rounding_bound(len(g), float(np.sum(np.abs(w)))), (q, i)


def test_short_orders_run_unsplit():
    """q = 107: the order 106 = 2 * 53 is below SPLIT_FLOOR, where the unsplit
    length-106 FFT is faster than the (2, 53) grid and its maps."""
    assert SPLIT_FLOOR > 106
    perm, dims, out = build_group(107)._grid
    assert perm is None and out is None and dims == (106,)


def test_fold_grid():
    """The fold of a cyclic group runs its length phi / 2 on the same rule:
    50001 = 21 * 2381 at q = 100003 is split, and every fold of a prime scan
    over 1009..6007 (h <= 3003 < SPLIT_FLOOR) runs unsplit with no maps."""
    perm, dims, out = build_group(100003)._fold
    assert dims == (21, 2381) and perm.shape == out.shape == (50001,)
    assert 3003 < SPLIT_FLOOR <= 4782
    for p in numtheory.sieve(6007).primes_in(1009, 6007):
        assert build_group(int(p))._fold == (None, ((int(p) - 1) // 2,), None), p


@pytest.mark.parametrize("parity", [0, 1])
def test_split_fold_against_direct_sums(parity):
    """Both parities of real weights through the split fold at q = 100003,
    (21, 2381), at the first, middle and last entries against direct sums."""
    q = 100003
    g = build_group(q)
    units = g.structure.n_of_index
    w = np.random.default_rng(parity).random(q)[units]
    chars = np.flatnonzero(g.parity_bits == parity)
    got = g.transform(w, parity)
    bound = rounding_bound(g.phi, float(np.sum(np.abs(w))))
    for pos in (0, len(chars) // 2, len(chars) - 1):
        assert abs(got[pos] - np.dot(g.value_table(int(chars[pos]))[units], w)) <= bound, pos


@pytest.mark.parametrize("q", [8, 16, 32 * 3, 2 * 3 ** 7, 4 * 2381, 5040, 30030, 4 * 10007,
                               100003])
def test_family_masks_against_tables(q):
    """The masks built from one 1-D mask per component equal their table
    definitions: primitive is conductor q, quadratic-or-trivial is order <= 2;
    the coupled (-1, 3) pair of 2^e (e >= 3), 2 || q and rank 1 included."""
    g = build_group(q)
    assert np.array_equal(g.primitive_mask, g.conductors == q)
    assert np.array_equal(g.quadratic_or_trivial_mask, g.orders <= 2)


@pytest.mark.parametrize("q", [5040, 4 * 10007, 1009])
def test_parity_reads_the_full_transform_bit_for_bit(q):
    """Every parity request that is not folded (complex w, or a non-cyclic
    group) runs the full transform on the group's grid and selects its
    characters from the output map, so it is the full transform's parity
    entries bit for bit, on an unsplit grid (5040, 1009) and a split one
    (40028), for a batch as for one row.  Real w mod the prime 1009 is folded
    to half length in front of the same inverse FFT instead."""
    g = build_group(q)
    rng = np.random.default_rng(q)
    for kind in ("complex",) if q == 1009 else ("real", "complex"):
        w = rng.normal(size=(2, g.phi))
        if kind == "complex":
            w = w + 1j * rng.normal(size=(2, g.phi))
        full = g.transform(w)
        for eta in (0, 1):
            got = g.transform(w, eta)
            assert got.shape == (2, g.phi // 2)
            assert np.array_equal(got, full[:, g.parity_index(eta)]), (kind, eta)
            assert np.array_equal(g.transform(w[1], eta), got[1]), (kind, eta)


def test_transform_complex_weights():
    q = 13
    g = build_group(q)
    rng = np.random.default_rng(1)
    w = (rng.normal(size=q) + 1j * rng.normal(size=q))[g.structure.n_of_index]
    fast = g.transform(w)
    for i in [0, 3, 7]:
        assert abs(fast[i] - np.dot(g.value_table(i)[g.structure.n_of_index], w)) < 1e-12


def test_transform_rejects_bad_shape():
    """Weights live on the phi(q) = 6 units mod 7: a length-q vector is rejected."""
    g = build_group(7)
    assert g.transform(np.ones(6)).shape == (6,)
    with pytest.raises(DomainError, match="length phi"):
        g.transform(np.ones(7))
    with pytest.raises(DomainError):
        g.transform(np.ones(6), parity=2)


@pytest.mark.parametrize("q", [3, 4, 5, 1009, 3 ** 7, 2 * 3 ** 7, 2 * 1009, 5040])
def test_transform_parity_matches_full_selection(q):
    # real w on a cyclic group is folded (odd: twisted) to one half-length
    # inverse FFT, within the rounding bound of the full one; complex w and
    # 5040 select from the full transform
    g = build_group(q)
    rng = np.random.default_rng(q)
    units = g.structure.n_of_index
    for w in (rng.random(q)[units], (rng.normal(size=q) + 1j * rng.normal(size=q))[units]):
        full = g.transform(w)
        bound = rounding_bound(g.phi, float(np.sum(np.abs(w))))
        for eta in (0, 1):
            got = g.transform(w, eta)
            want = full[g.parity_bits == eta]
            assert got.shape == want.shape == (g.phi // 2,)
            assert np.max(np.abs(got - want)) <= bound, (eta, w.dtype)


@pytest.mark.parametrize("q", [1009, 2 * 3 ** 7, 100003])
def test_transform_odd_fold_against_direct_sums(q):
    """Odd characters through the fold, at both ends and across the middle of
    the half-length output, against direct sums; a missing or wrong twist
    e^{2 pi i m / phi} moves every one of them.  At q = 100003 the half
    length 50001 = 3 * 7 * 2381, a length pocketfft may run by Bluestein,
    runs on the Good-Thomas grid (21, 2381)."""
    g = build_group(q)
    units = g.structure.n_of_index
    w = np.random.default_rng(7).random(q)[units]
    odd = np.flatnonzero(g.parity_bits == 1)
    got = g.transform(w, 1)
    for pos in (0, 1, len(odd) // 2 - 1, len(odd) // 2 + 1, len(odd) - 1):
        assert abs(got[pos] - np.dot(g.value_table(int(odd[pos]))[units], w)) < 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64 here")
@pytest.mark.parametrize("q", [1009, 10007, 100003, 4783, 4787, 5040, 30030, 9524])
def test_transform_rounding_bound_against_longdouble(q):
    """Every entry of the full transform and of both parities stays within
    rounding_bound(phi, sum |w|) of an extended-precision reference: the inverse
    DFT of clongdouble weights over the unsplit grid, times phi.  The moduli
    cover the Bluestein factors 2381, 5003, 797 and 2393 of the Good-Thomas
    split and the mixed-radix grids of 1009, 5040, 30030 and 9524 = 4 * 2381;
    the smallest margin measured was 26x (q = 10007, full transform).  The values
    of character_sums, conjugate-paired for real w, stay within its own err."""
    g = build_group(q)
    rng = np.random.default_rng(q)
    dims = g.structure.dims
    for w in (rng.random(g.phi), rng.normal(size=g.phi) + 1j * rng.normal(size=g.phi)):
        ref = np.fft.ifftn(w.astype(np.clongdouble).reshape(dims), axes=range(len(dims)))
        ref = ref.reshape(-1) * g.phi
        assert ref.dtype == np.clongdouble
        bound = rounding_bound(g.phi, float(np.sum(np.abs(w))))
        assert np.max(np.abs(g.transform(w) - ref)) <= bound, w.dtype
        for eta in (0, 1) if w.dtype == float else ():
            got = g.transform(w, eta)
            assert np.max(np.abs(got - ref[g.parity_bits == eta])) <= bound, eta
        for parity in (None, 0, 1):
            got, err = g.character_sums(w, parity)
            want = ref if parity is None else ref[g.parity_bits == parity]
            assert isinstance(err, float) and err >= bound, (parity, w.dtype)
            assert np.max(np.abs(got - want)) <= err, (parity, w.dtype)


@pytest.mark.parametrize("q", [1009, 5040])
def test_character_sums_pair_rows_of_real_weights(q):
    """Without a parity, rows of real weights (real dtype, or complex with no
    imaginary part, alike) come back as exact conjugate pairs, with the mean's
    eps max |v| in their err; complex rows and every parity are transform's
    values bit for bit with err rounding_bound(phi, sum |w|) + eps sum |w|,
    the transform's rounding and the weights' own.  A batch gives one err per
    row and equals its rows."""
    g = build_group(q)
    rng = np.random.default_rng(q)
    real = rng.normal(size=(2, g.phi))
    w = np.concatenate([real, real + 1j * rng.normal(size=(2, g.phi))]) + 0j
    self_conj = g.conjugation == np.arange(g.phi)
    for parity in (None, 0, 1):
        values, err = g.character_sums(w, parity)
        assert values.shape == (4, g.phi if parity is None else g.phi // 2) and err.shape == (4,)
        for k, (row, wr) in enumerate(zip(values, w)):
            mass = float(np.sum(np.abs(wr)))
            bound = rounding_bound(g.phi, mass) + np.finfo(float).eps * mass
            alone, e = g.character_sums(wr, parity)
            assert np.array_equal(row, alone) and err[k] == e, (parity, k)
            if parity is None and k < 2:
                assert np.array_equal(row, g.character_sums(real[k])[0])
                assert np.array_equal(row[g.conjugation], np.conj(row))
                assert not np.any(row[self_conj].imag)
                assert err[k] == bound + np.finfo(float).eps * np.abs(row).max()
            else:
                assert np.array_equal(row, g.transform(wr, parity)) and err[k] == bound


@pytest.mark.parametrize("q", [29, 1009, 40, 5040])
def test_character_sums_real_characters_are_real_under_a_parity(q):
    """With a parity, real weights give the real characters (order <= 2) an
    imaginary part of exactly 0 (on a cyclic group chi_0 and chi_{phi/2});
    every other value is transform's bit for bit, and err is the bound that
    the same weights in complex dtype, which are not projected, get."""
    g = build_group(q)
    w = np.random.default_rng(q).normal(size=(2, g.phi))
    for parity in (0, 1):
        values, err = g.character_sums(w, parity)
        raw = g.transform(w, parity)
        real = g.quadratic_or_trivial_mask[g.parity_bits == parity]
        assert np.all(values[:, real].imag == 0.0)
        assert np.array_equal(values[:, real].real, raw[:, real].real)
        assert np.array_equal(values[:, ~real], raw[:, ~real])
        assert np.array_equal(err, g.character_sums(w + 0j, parity)[1])


def _mp(x):
    """A longdouble as an exact mpmath number."""
    num, den = x.as_integer_ratio()
    return mp.mpf(num) / den


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64 here")
@pytest.mark.parametrize("q", [1009, 1019, 5040, 4783])
def test_transform_keeps_longdouble_weights(q):
    """Real longdouble and clongdouble weights come back as clongdouble on a
    cyclic exponent grid (q = 1009, 1019), on the Good-Thomas split (q = 4783,
    (6, 797)) and on the non-cyclic grid, with or without a parity (q = 5040),
    and sampled entries match an mpmath sum within the
    longdouble rounding bound eps_ld (log2 phi + 8) sum |w|.  The weights are
    63-bit integers over 2^63, exact in longdouble and in mpmath."""
    g = build_group(q)
    units = g.structure.n_of_index
    ints = np.random.default_rng(q).integers(0, 2 ** 63, size=(2, g.phi), dtype=np.uint64)
    re, im = ints.astype(np.longdouble) / 2 ** 63
    e = g.structure.exponent
    eps_ld = float(np.finfo(np.longdouble).eps)
    with mp.workdps(40):
        roots = [mp.expjpi(mp.mpf(2 * t) / e) for t in range(e)]
        for w in (re, re + 1j * im):
            mp_w = [_mp(a.real) + 1j * _mp(a.imag) for a in w.astype(np.clongdouble)]
            bound = eps_ld * (math.log2(g.phi) + 8) * float(np.sum(np.abs(w)))
            for parity in (None, 0, 1):
                got = g.transform(w, parity)
                assert got.dtype == np.clongdouble, (w.dtype, parity)
                chars = (np.arange(g.phi) if parity is None
                         else np.flatnonzero(g.parity_bits == parity))
                for pos in (1, len(chars) // 2, len(chars) - 1):
                    chi = g.char(int(chars[pos]))
                    ref = mp.fsum(roots[chi.root_exponent(int(u))] * x for u, x in zip(units, mp_w))
                    assert abs(_mp(got[pos].real) + 1j * _mp(got[pos].imag) - ref) <= bound, \
                        (w.dtype, parity, pos)


def _exponent_matrix(g):
    """(m, jw): the phi x r matrix of unit exponent tuples m_l, and the rows
    j_l e / d_l per character, from which the tables were once computed."""
    dims = g.structure.dims
    m = np.zeros((g.phi, 0), dtype=np.int64)
    if dims:
        m = np.stack(np.unravel_index(np.arange(g.phi), dims), axis=1).astype(np.int64)
    return m, m * np.array([g.structure.exponent // d for d in dims], dtype=np.int64)


@pytest.mark.parametrize("q", [1, 2, 8, 45, 5040, 3 ** 7, 2 * 3 ** 7, 360, 2 ** 12, 30030,
                               100003])
def test_tables_match_exponent_matrix(q):
    g = build_group(q)
    m, jw = _exponent_matrix(g)
    e = g.structure.exponent
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    neg = np.array(g.structure.exponents_of(-1), dtype=np.int64)
    assert g.structure.minus_one == tuple(neg.tolist())
    assert np.array_equal(g.parity_bits, ((jw @ neg) % e != 0).astype(np.int64))
    assert np.array_equal(g.primitive_mask, g.conductors == q)
    for eta in (0, 1):
        assert np.array_equal(g.parity_bits[g.parity_index(eta)],
                              g.parity_bits[g.parity_bits == eta])
    orders = np.ones(g.phi, dtype=np.int64)
    for l, d in enumerate(g.structure.dims):
        orders = np.lcm(orders, d // np.gcd(m[:, l], d))
    assert np.array_equal(g.orders, orders)
    for i in sorted({0, g.phi // 3, g.phi // 2, g.phi - 1}):
        t = (m @ jw[i]) % e
        table = np.zeros(q, dtype=complex)
        table[g.structure.n_of_index] = roots[t]
        assert np.array_equal(g.value_table(i), table)
        chi = g.char(i)
        for n in range(min(q, 300)):
            k = g.structure.index_of_n[n]
            assert chi.root_exponent(n) == (None if k < 0 else int(t[k])), (i, n)


@pytest.mark.parametrize("q,expect", [(1009, [1009, 1008]), (5040, [5040, 6, 4, 6]),
                                      (3 ** 7, [3 ** 7, 2 * 3 ** 6])])
def test_group_tables_factorize_q_once(q, expect, monkeypatch):
    """One factorize(q) per group build, plus one of phi(p^e) per odd p^e || q
    for its primitive root; the conductors reuse the group's factorization.
    A k = 2 theta moment builds one group; k = 1 builds none and factorizes
    q alone."""
    calls = []
    real = numtheory.factorize
    record = lambda n: calls.append(n) or real(n)
    monkeypatch.setattr(numtheory, "factorize", record)
    monkeypatch.setattr(theta, "factorize", record)
    g = build_group(q)
    assert g.conductors.size == g.phi and calls == expect
    calls.clear()
    theta_moment(q, 2, "even")
    assert calls == expect
    calls.clear()
    theta_moment(q, 1, "even")
    assert calls == [q]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_theta_moment_reads_no_conductor_or_discrete_log_table(parity, monkeypatch):
    """The moment path builds neither the conductor table nor the length-q
    discrete-log table: both raise here, and the moment is still computed."""
    def refuse(self):
        raise AssertionError("table built on the moment path")

    expect = theta_moment(1009, 2, parity)
    monkeypatch.setattr(CharacterGroup, "conductors", property(refuse))
    monkeypatch.setattr(numtheory.GroupStructure, "index_of_n", property(refuse))
    assert theta_moment(1009, 2, parity) == expect


def test_orthogonality_small():
    # sum_chi chi(m) conj(chi(n)) = phi(q) [m = n] for a couple of moduli
    for q in [7, 12]:
        g = build_group(q)
        m = np.stack([g.value_table(i) for i in range(len(g))])
        units = np.sort(g.structure.n_of_index)
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


@pytest.mark.parametrize("q", [29, 5040, 3 ** 7])
def test_transform_batch_equals_rows(q):
    """A (rows, phi) batch is transformed row by row, bit for bit, for every
    parity argument and for real and complex weights."""
    g = build_group(q)
    rng = np.random.default_rng(q + 1)
    units = g.structure.n_of_index
    for w in (rng.random((5, q))[:, units],
              (rng.normal(size=(5, q)) + 1j * rng.normal(size=(5, q)))[:, units]):
        for parity in (None, 0, 1):
            got = g.transform(w, parity)
            assert got.shape == (5, g.phi if parity is None else g.phi // 2)
            for row, wr in zip(got, w):
                assert np.array_equal(row, g.transform(wr, parity)), (parity, w.dtype)
    with pytest.raises(DomainError):
        g.transform(np.ones((2, g.phi + 1)))
