"""Theta series: truncation bound, goldens, batch path, moments, Mellin check."""

import cmath
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from thetamoments import characters, cli, theta
from thetamoments.characters import build_group
from thetamoments.errors import DomainError
from thetamoments.lfunc import l_value
from thetamoments.numtheory import factorize
from thetamoments.specfun import gamma_fn
from thetamoments.summation import rounding_bound
from thetamoments.theta import (
    mellin_check,
    mellin_checks,
    theta_all_chars,
    theta_moment,
    theta_value,
    truncation_length,
)

EPS = np.finfo(float).eps


def tail_bound_oracle(q, x, eta, n):
    """Independent rewrite of the geometric-ratio tail bound."""
    r = math.pi * x / q
    return (n + 1) ** eta * math.exp(-r * (n + 1) ** 2) / (1 - math.exp(-r * (2 * n + 3)))


def brute_tail(q, x, eta, n):
    return sum(m ** eta * math.exp(-math.pi * m * m * x / q) for m in range(n + 1, n + 1000))


def quadratic_char(q):
    g = build_group(q)
    (idx,) = [i for i in range(len(g)) if g.orders[i] == 2]
    return g.char(idx)


# ---------------------------------------------------------------------------
# truncation length


def test_truncation_minimal_by_bound():
    n = truncation_length(5, 1.0, 0, 1e-15)
    assert tail_bound_oracle(5, 1.0, 0, n) <= 1e-15
    assert tail_bound_oracle(5, 1.0, 0, n - 1) > 1e-15
    # the bound really covers the eta = 0 tail
    assert brute_tail(5, 1.0, 0, n) <= tail_bound_oracle(5, 1.0, 0, n)


@pytest.mark.parametrize("q,x,eta", [(5, 1.0, 0), (29, 1.0, 1), (100003, 1.0, 0), (7, 0.1, 1)])
def test_truncation_monotone_in_eps(q, x, eta):
    lengths = [truncation_length(q, x, eta, e) for e in (1e-6, 1e-9, 1e-12, 1e-15)]
    assert lengths == sorted(lengths)


def test_truncation_doubling_is_noise():
    q, eps = 13, 1e-10
    chi = build_group(q).char(1)
    eta = 0 if chi.is_even else 1
    n = truncation_length(q, 1.0, eta, eps)
    v = theta_value(q, chi, 1.0, eps)
    table = chi.value_table()
    direct = sum(table[m % q] * m ** eta * math.exp(-math.pi * m * m / q)
                 for m in range(1, 2 * n + 1))
    assert abs(v.value - direct) < eps


def _walk_from_zero(q, x, eta, eps):
    """The first search for N: walk up from 0 until the tail bound is <= eps."""
    n = 0
    while theta._tail_bound(q, x, eta, n) > eps:
        n += 1
    return n


def test_truncation_matches_walk_from_zero():
    # eps = 3 covers a start clamped at 0 (ln(1/eps) < 0)
    for q in (3, 5, 7, 100, 1009, 100003, 999983):
        for eps in (3.0, 1e-3, 1e-8, 5e-13, 1e-15, 1e-300):
            for x in (0.01, 1.0, 37.0):
                for eta in (0, 1):
                    assert (truncation_length(q, x, eta, eps)
                            == _walk_from_zero(q, x, eta, eps)), (q, eps, x, eta)


@pytest.mark.parametrize("eta", [0, 1])
def test_truncation_matches_walk_from_zero_over_scan_primes(eta):
    """The start below the root of (n+1)^eta e^{-pi x (n+1)^2 / q} = eps leaves
    N where the walk from 0 puts it, at every prime of the scan range."""
    primes = [q for q in range(1009, 6008) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    assert len(primes) == 616
    for q in primes:
        for eps in (1e-12, 1e-10):
            for x in (1.0, 0.5):
                assert (truncation_length(q, x, eta, eps)
                        == _walk_from_zero(q, x, eta, eps)), (q, eps, x)


@pytest.mark.parametrize("q", [1009, 100003])
def test_odd_tail_bound_covers_mpmath_tail(q):
    """For eta = 1 the terms m e^{-pi m^2 x / q} shrink by less than
    e^{-pi x (2m+1)/q} per step; a ratio without (m+1)/m fell below the true
    tail (2.6943e-13 against 2.7024e-13 at q = 1009)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    n = truncation_length(q, 1.0, 1, 5e-13)
    tail = mp.nsum(lambda m: m * mp.exp(-mp.pi * m * m / q), [n + 1, mp.inf])
    bound = theta._tail_bound(q, 1.0, 1, n)
    assert float(tail) <= bound <= 5e-13
    assert bound < 1.02 * float(tail)


def test_tail_bound_infinite_while_terms_grow():
    # rho = 2 e^{-3 pi / q} > 1 at n = 0: m e^{-pi m^2 / q} still grows
    assert theta._tail_bound(100003, 1.0, 1, 0) == math.inf
    assert math.isfinite(theta._tail_bound(100003, 1.0, 0, 0))
    assert truncation_length(100003, 1.0, 1, 1e-300) == _walk_from_zero(100003, 1.0, 1, 1e-300)


def test_truncation_domain():
    with pytest.raises(DomainError):
        truncation_length(5, 0.0, 0, 1e-6)
    with pytest.raises(DomainError):
        truncation_length(5, 1.0, 0, 0.0)
    with pytest.raises(DomainError):
        truncation_length(5, 1.0, 2, 1e-6)


# ---------------------------------------------------------------------------
# single values (mpmath-frozen goldens)


def test_golden_modulus_one():
    v = theta_value(1, build_group(1).char(0), 1.0)
    assert abs(v.value - 0.04321740560665400728765806) <= v.abs_error + 1e-15
    # closed form (pi^{1/4} / Gamma(3/4) - 1) / 2
    closed = (math.pi ** 0.25 / math.gamma(0.75) - 1) / 2
    assert v.value.real == pytest.approx(closed, abs=1e-14)


def test_golden_quadratic_mod5():
    v = theta_value(5, quadratic_char(5), 1.0)
    assert abs(v.value - 0.4490281119181689402180435) <= v.abs_error + 1e-15
    assert abs(v.value.imag) <= v.abs_error  # real character, even


def test_golden_odd_mod4():
    g = build_group(4)
    v = theta_value(4, g.char(1), 1.0)
    assert abs(v.value - 0.4533838275838656101232981) <= v.abs_error + 1e-15


def test_golden_order4_mod5():
    g = build_group(5)
    (chi,) = [c for c in g if abs(c.value(2) - 1j) < 1e-12]
    assert not chi.is_even
    v = theta_value(5, chi, 1.0)
    golden = 0.5333158830656082565067214 + 0.1515038661261831255168518j
    assert abs(v.value - golden) <= v.abs_error + 1e-15


def test_theta_value_domain():
    g = build_group(5)
    with pytest.raises(DomainError):
        theta_value(7, g.char(1), 1.0)
    with pytest.raises(DomainError):
        theta_value(5, g.char(1), -1.0)


# ---------------------------------------------------------------------------
# batch path


@pytest.mark.parametrize("q", [7, 12, 45, 97])
def test_batch_matches_naive(q):
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0)
    assert err < 1e-12 * 2
    for i in range(len(g)):
        single = theta_value(q, g.char(i), 1.0)
        assert abs(vals[i] - single.value) < 1e-10


@pytest.mark.parametrize("q", [5040, 10007, 30030])
def test_batch_against_mpmath_series(q):
    """theta_all_chars at CLI sizes against a 30-digit series with exact roots
    of unity, for a handful of characters of both parities."""
    mp = pytest.importorskip("mpmath")
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0, group=g)
    e = g.structure.exponent
    terms = math.isqrt(20 * q) + 1  # n^eta e^{-pi n^2 / q} < 1e-24 beyond
    idx = (1, 2, 3, len(g) // 3, len(g) // 2, len(g) - 1)
    assert {g.char(i).parity for i in idx} == {"even", "odd"}
    with mp.workdps(30):
        for i in idx:
            chi = g.char(i)
            eta = 0 if chi.is_even else 1
            ref = mp.fsum(mp.expjpi(mp.mpf(2 * t) / e) * n ** eta * mp.exp(-mp.pi * n * n / q)
                          for n in range(1, terms) if (t := chi.root_exponent(n)) is not None)
            assert abs(vals[i] - complex(ref)) <= err


def _folded_series(q, eta, eps=1e-12):
    """The x = 1 series of parity eta, folded by residue class mod q."""
    res, e, _ = theta.theta_series(q, 1.0, eta, eps)
    return np.bincount(res, weights=e, minlength=q)


def _unit_weight_rounding(q, eta, x=1.0):
    """sum of (rho_n - eps) e_n over the unit terms n <= N: the weights' own
    rounding beyond the eps sum |w| that character_sums charges."""
    res, e, _ = theta.theta_series(q, x, eta, 1e-12)
    n = np.arange(1, e.size + 1)
    unit = np.gcd(n, q) == 1
    rho = theta._weight_rounding(q, n[unit].astype(float), x)
    return math.fsum(((rho - EPS) * e[unit]).tolist())


def test_rounding_mass_counts_only_units():
    """The transform reads only the unit residues, so only their weights are
    charged, for the transform's rounding and their own: at q = 30030 the mass
    over all residues is about 4.9x theirs."""
    q = 30030
    g = build_group(q)
    _, err = theta_all_chars(q, 1.0, group=g)
    units = g.structure.n_of_index
    masses = [(float(np.sum(w[units])), float(np.sum(w)))
              for w in (_folded_series(q, eta) for eta in (0, 1))]
    assert all(full > 4 * unit for unit, full in masses)
    eps = np.finfo(float).eps
    assert err <= 1e-12 / 2 + max(rounding_bound(g.phi, unit) + eps * unit
                                  + _unit_weight_rounding(q, eta)
                                  for eta, (unit, _) in enumerate(masses))
    assert err < max(rounding_bound(g.phi, full) for _, full in masses)


@pytest.mark.parametrize("q, x", [(1009, 1.0), (100003, 1.0), (5040, 1.0), (29, 0.05)])
@pytest.mark.parametrize("eta", [0, 1])
def test_folded_weight_charge_against_mpmath(q, x, eta):
    """The transform path's weights against an exact rebuild: W(a) = sum of
    n^eta e^{-pi n^2 x / q} over n <= N, n = a mod q, in 40-digit mpmath at
    every unit a.  Their total deviation is within what err charges for it:
    character_sums' eps sum |w| plus the rest of rho_n e_n and, at q = 29 and
    x = 0.05 where N > 2q, the bin sums'.  err is the tail, character_sums'
    bound and that charge, whose closed form is the per-term sum to 1e-9."""
    mp = pytest.importorskip("mpmath")
    g = build_group(q)
    res, e, tail = theta.theta_series(q, x, eta, 1e-12)
    assert (e.size > 2 * q) == (q == 29)
    units = g.structure.n_of_index
    w = np.bincount(res, weights=e, minlength=q)[units]
    with mp.workdps(40):
        exact = [mp.mpf(0)] * q
        for n in range(1, e.size + 1):
            exact[n % q] += mp.mpf(n) ** eta * mp.exp(-mp.pi * n * n * mp.mpf(x) / q)
        deviation = float(mp.fsum(abs(mp.mpf(float(a)) - exact[u])
                                  for a, u in zip(w.tolist(), units.tolist())))
    values, err = theta._theta_parity(q, x, eta, 1e-12, g)
    cs_err = g.character_sums(w, eta)[1]
    own = err - tail - cs_err
    assert deviation <= EPS * math.fsum(np.abs(w).tolist()) + own
    charge = _unit_weight_rounding(q, eta, x) + (-(-e.size // q) - 1) * EPS * math.fsum(w.tolist())
    assert charge <= own <= (1 + 1e-9) * charge


def test_batch_parity_split():
    for q in (5, 12, 29):
        g = build_group(q)
        bits = np.asarray(g.parity_bits)
        assert int((bits == 0).sum()) == int((bits == 1).sum()) == len(g) // 2


def test_batch_deterministic():
    a, ea = theta_all_chars(29, 1.0)
    b, eb = theta_all_chars(29, 1.0)
    assert np.array_equal(a, b) and ea == eb


def test_batch_domain():
    with pytest.raises(DomainError):
        theta_all_chars(2, 1.0)
    with pytest.raises(DomainError):
        theta_all_chars(5, 0.0)


def test_batch_rejects_a_group_of_another_modulus():
    with pytest.raises(DomainError, match="group modulus 11 does not match q = 7"):
        theta_all_chars(7, 1.0, group=build_group(11))


@pytest.mark.parametrize("q", [29, 101, 1009])
def test_real_characters_have_real_theta_values(q):
    """theta(1, chi) of the trivial and the quadratic character is exactly
    real, though the all-characters path transforms one parity at a time."""
    g = build_group(q)
    vals, _ = theta_all_chars(q, 1.0)
    assert np.flatnonzero(g.quadratic_or_trivial_mask).tolist() == [0, (q - 1) // 2]
    assert np.all(vals[g.quadratic_or_trivial_mask].imag == 0.0)


@pytest.mark.parametrize("q", [5, 7, 12, 16, 29, 45])
def test_conjugate_modulus_symmetry(q):
    """|theta(1, chi)| = |theta(1, conj chi)| for primitive chi (functional
    equation at the fixed point x = 1, root number of modulus 1)."""
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0)
    for i in np.flatnonzero(np.asarray(g.primitive_mask)):
        j = g.conjugate_index(int(i))
        assert abs(abs(vals[i]) - abs(vals[j])) < 2e-12


@pytest.mark.parametrize("q", [13, 101, 1009, 5040, 10007])
def test_theta_functional_equation_within_propagated_bound(q):
    """theta(1/x, chi) = eps(chi) x^{eta+1/2} theta(x, conj chi), with
    eps(chi) = tau(chi) / (i^eta sqrt q), for every primitive nontrivial chi
    (Davenport, ch. 9): the residual stays within the two theta errors and
    the Gauss sums' error, propagated.  No mpmath; the worst residual/bound
    ratio is 0.95 at q = 13 and 0.034 at q = 10007."""
    g = build_group(q)
    tau, err_tau = g.gauss_sums
    eta = g.parity_bits
    root = tau / (1j ** eta * math.sqrt(q))
    family = g.primitive_mask & (np.arange(g.phi) > 0)
    assert family.any()
    for x in (1.0, 1.25, 2.0):
        inv, err_inv = theta_all_chars(q, 1 / x, group=g)
        vals, err = theta_all_chars(q, x, group=g)
        conj = vals[g.conjugation]
        scale = x ** (eta + 0.5)
        residual = np.abs(inv - root * scale * conj)
        bound = err_inv + np.abs(root) * scale * err + np.abs(conj) * scale * err_tau / math.sqrt(q)
        assert np.all(residual[family] <= bound[family]), (x, np.max(residual[family] / bound[family]))


@pytest.mark.parametrize("q", [3, 5, 12, 29, 45, 50])
def test_decay_envelope_at_x50(q):
    vals, _ = theta_all_chars(q, 50.0)
    assert np.all(np.abs(vals) < 2 * math.exp(-math.pi * 50 * 0.9 / q))


# ---------------------------------------------------------------------------
# moments


def test_moment_golden_mod5():
    m = theta_moment(5, 1, "even")
    assert m.family_size == 1
    assert abs(m.raw - 0.2016262452927956514529942) < 1e-11
    assert m.normalization == pytest.approx(4 * math.sqrt(5))
    assert m.ratio == pytest.approx(m.raw / m.normalization)

    m = theta_moment(5, 1, "odd")
    assert m.family_size == 2
    assert abs(m.raw - 0.614758505162459916403409) < 1e-11
    assert m.normalization == pytest.approx(4 * 5 ** 1.5)


def test_moment_empty_family_flag():
    # mod 4: the only even character is trivial (conductor 1), so no
    # even primitive characters exist
    m = theta_moment(4, 2, "even")
    assert m.raw == 0.0 and m.family_size == 0  # family_size 0 is the empty-family flag
    assert m.ratio == 0.0


def test_moment_conjugation_invariance():
    q, k = 29, 2
    g = build_group(q)
    m = theta_moment(q, k, "odd")
    vals, _ = theta_all_chars(q, 1.0)
    mask = np.asarray(g.primitive_mask) & (np.asarray(g.parity_bits) == 1)
    conj = sum(abs(vals[g.conjugate_index(int(i))]) ** (2 * k)
               for i in np.flatnonzero(mask))
    assert m.raw == pytest.approx(conj, rel=1e-12)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_moment_transforms_one_parity(parity, monkeypatch):
    # only the summed parity is folded and transformed, with the values the
    # all-characters path gives for that family
    q, k = 5040, 2
    g = build_group(q)
    vals, _ = theta_all_chars(q, 1.0, group=g)
    mask = g.family_mask(parity)
    direct = float(theta.chunked_sum(np.sort(np.abs(vals[mask]) ** (2 * k))))
    calls = []
    transform = theta.CharacterGroup.transform
    monkeypatch.setattr(theta.CharacterGroup, "transform",
                        lambda self, w, eta=None: calls.append(eta) or transform(self, w, eta))
    m = theta_moment(q, k, parity)
    assert calls == [("even", "odd").index(parity)]
    assert m.raw == direct and m.family_size == int(np.sum(mask)) > 0


@pytest.fixture(scope="module")
def moment_tol():
    """bench/checks.py's tolerance for two computations of one moment."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_checks", bench / "checks.py")
    mod = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(bench))  # checks imports its sibling workloads
        spec.loader.exec_module(mod)
    return mod.moment_tol


@pytest.mark.parametrize("q", [1009, 6007, 100003, 25, 27, 49, 50, 54, 2187])
def test_moment_matches_full_transform_path(q, moment_tol):
    """theta_moment (one parity through the folded transform) against the
    full-length transform with the family selected afterwards."""
    g = build_group(q)
    for eta, parity in enumerate(("even", "odd")):
        family = g.transform(_folded_series(q, eta)[g.structure.n_of_index])[g.family_mask(parity)]
        for k in (1, 2, 3):
            ref = float(theta.chunked_sum(np.sort(np.abs(family) ** (2 * k))))
            m = theta_moment(q, k, parity)
            assert m.family_size == family.size
            assert abs(m.raw - ref) <= moment_tol(ref, m.family_size, k, m.eps), (parity, k)


def _propagated(values, err):
    """Bound on |sum |v|^2 - sum |v_true|^2| over values v each within err of
    v_true, plus the reference sum's own rounding (4 eps of it)."""
    a = np.abs(values)
    return math.fsum((2 * a * err + err ** 2).tolist()) + 4 * EPS * math.fsum((a ** 2).tolist())


@pytest.mark.parametrize("q", [1009, 5040, 30030, 100003, 3 ** 7, 4 * 1009])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_second_moment_identity_against_all_chars(q, parity):
    """theta_moment at k = 1 (the orthogonality identity) against sum |theta|^2
    over family_mask(parity) of theta_all_chars, within the identity's
    rounding bound plus the propagated bound of theta_all_chars' values; the
    family sizes agree, and an empty family (q = 30030 = 2 mod 4) is the exact
    0, where the Moebius sum left -2.4e-12 (even) and -8.9e-9 (odd)."""
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0, group=g)
    mask = g.family_mask(parity)
    m = theta_moment(q, 1, parity)
    raw, bound, size = theta._second_moment(q, ("even", "odd").index(parity), m.eps,
                                            factorize(q))
    assert (raw, size) == (m.raw, m.family_size) and size == int(mask.sum())
    if not size:
        assert q == 30030 and m.raw == 0.0 and bound == 0.0
        return
    ref = math.fsum((np.abs(vals[mask]) ** 2).tolist())
    assert abs(m.raw - ref) <= bound + _propagated(vals[mask], err)
    assert bound < 1e-13 * m.raw


def test_second_moment_family_size_is_the_mask_count():
    """The identity at W = delta_1 counts family_mask's members at every
    modulus 3 <= q < 400, and the moment is 0 exactly where none exist."""
    for q in range(3, 400):
        g = build_group(q)
        for eta, parity in enumerate(("even", "odd")):
            raw, _, size = theta._second_moment(q, eta, 1e-12, factorize(q))
            assert size == int(g.family_mask(parity).sum()), (q, parity)
            assert (raw == 0.0) == (size == 0), (q, parity)


def _second_moment_per_divisor(q, eta, eps, fac):
    """The identity as first written: units by gcd, one bincount per divisor
    read back at every key and its negative, and the charge summed per term,
    ((m + 4) eps + 2 rho_n) t_n with m = ceil(N / d)."""
    divisors = theta._moebius_divisors(fac)
    size = sum(mu * f * (1 + (-1) ** eta * (d <= 2)) for d, mu, f in divisors) // 2
    if not size:
        return 0.0, 0.0, 0
    res, e, _ = theta.theta_series(q, 1.0, eta, eps)
    units = np.gcd(res, q) == 1
    n_max = e.size
    n = np.flatnonzero(units) + 1.0
    res, e = res[units], e[units]
    rho2 = 2 * theta._weight_rounding(q, n)
    parts, err = [], 0.0
    for d, mu, f in divisors:
        key = res % d
        v = np.bincount(key, weights=e, minlength=d)
        near, far = v[key], v[(d - key) % d]
        t = e * (near + far)
        parts.append(mu * f * math.fsum((e * (near - far) if eta else t).tolist()))
        err += f / 2 * math.fsum((((-(-n_max // d) + 4) * EPS + rho2) * t).tolist())
    raw = math.fsum(parts) / 2
    return raw, err + EPS * abs(raw), size


SCAN_PRIMES = [p for p in range(1009, 6008) if factorize(p).factors == ((p, 1),)]


@pytest.mark.parametrize("qs", [range(3, 400), SCAN_PRIMES,
                                [5040, 30030, 100003, 3 ** 7, 4 * 1009]],
                         ids=["small", "scan-primes", "composite"])
def test_second_moment_matches_per_divisor_reference(qs):
    """The identity's moment and family size are bit for bit the per-divisor
    loop's, for both parities; its closed-form err covers the loop's per-term
    charge and exceeds it by less than 1e-9 of it."""
    for q in qs:
        fac = factorize(q)
        for eta in (0, 1):
            raw, err, size = theta._second_moment(q, eta, 1e-12, fac)
            ref_raw, ref_err, ref_size = _second_moment_per_divisor(q, eta, 1e-12, fac)
            assert (raw, size) == (ref_raw, ref_size), (q, eta)
            assert ref_err <= err <= (1 + 1e-9) * ref_err, (q, eta)


@pytest.mark.parametrize("q", [30030, 100003])
@pytest.mark.parametrize("eta", [0, 1])
def test_parity_class_identity_against_all_chars(q, eta):
    """An oracle of the transform path needing no mpmath: over every parity-eta
    character (no primitive restriction), sum |theta(1, chi)|^2 =
    phi/2 sum_a W(a) (W(a) + (-1)^eta W(-a)), W the series folded on the
    units; against theta_all_chars within its propagated bound."""
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0, group=g)
    w = _folded_series(q, eta)
    w[np.gcd(np.arange(q), q) != 1] = 0.0
    terms = w * (w + (-1) ** eta * w[-np.arange(q) % q])
    mass = w * (w + w[-np.arange(q) % q])
    exact = g.phi / 2 * math.fsum(terms.tolist())
    rounding = g.phi / 2 * 4 * EPS * math.fsum(mass.tolist())
    family = vals[g.parity_index(eta)]
    ref = math.fsum((np.abs(family) ** 2).tolist())
    assert abs(exact - ref) <= rounding + _propagated(family, err)


@pytest.mark.parametrize("q", [1009, 10007, 100003])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_fourth_moment_pair_histogram_oracle(q, parity):
    """k = 2 at prime q, which keeps the transform path: theta(chi)^2 =
    sum_r chi(r) P(r), P(r) = sum_{ab = r mod q} w_a w_b over the series' N^2
    pairs, so the parity-eta characters give S_4 = phi/2 sum_r P(r) (P(r) +
    (-1)^eta P(-r)), less the trivial character's (sum w)^4 when even.  Against
    theta_moment within the propagated bound of theta_all_chars' values."""
    eta = ("even", "odd").index(parity)
    res, w, _ = theta.theta_series(q, 1.0, eta, 1e-12)
    pairs = np.multiply.outer(res, res) % q
    p = np.bincount(pairs.reshape(-1), weights=np.multiply.outer(w, w).reshape(-1), minlength=q)
    neg = p[-np.arange(q) % q]
    trivial = 0.0 if eta else math.fsum(w.tolist()) ** 4
    exact = (q - 1) / 2 * math.fsum((p * (p + (-1) ** eta * neg)).tolist()) - trivial
    rounding = (2 * w.size + 10) * EPS * ((q - 1) / 2 * math.fsum((p * (p + neg)).tolist())
                                          + trivial)
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0, group=g)
    a = np.abs(vals[g.family_mask(parity)])
    m = theta_moment(q, 2, parity)
    propagated = math.fsum(((a + err) ** 4 - a ** 4).tolist())
    reduction = rounding_bound(a.size, m.raw) + 5 * EPS * m.raw  # theta_moment's own sum
    assert abs(m.raw - exact) <= rounding + propagated + reduction


@pytest.mark.parametrize("q", [1009, 100003])
@pytest.mark.parametrize("eta", [0, 1])
def test_second_moment_rounding_charge_against_mpmath(q, eta):
    """The identity's err against an exact rebuild: the weights n^eta
    e^{-pi n^2 / q} and the Moebius sum in 40-digit mpmath, on the same terms
    n <= N.  Each float weight is within its charged rho_n, the last ones too,
    where A = pi n^2 / q passes 28 and exp is off the most; the whole moment is
    within err."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    _, e, _ = theta.theta_series(q, 1.0, eta, 1e-12)
    n = np.arange(1, e.size + 1)
    exact_w = [mp.mpf(int(k)) ** eta * mp.exp(-mp.pi * int(k) ** 2 / q) for k in n]
    assert math.pi * n[-1] ** 2 / q > 28
    rho = theta._weight_rounding(q, n.astype(float))
    for k, r in zip(n.tolist(), rho.tolist()):
        assert abs(mp.mpf(float(e[k - 1])) - exact_w[k - 1]) <= r * exact_w[k - 1], k
    exact = mp.mpf(0)
    for d, mu, f in theta._moebius_divisors(factorize(q)):
        v = {}
        for k, x in zip(n.tolist(), exact_w):
            if math.gcd(k, q) == 1:
                v[k % d] = v.get(k % d, 0) + x
        exact += mu * f * mp.fsum(x * (x + (-1) ** eta * v.get(-c % d, 0))
                                  for c, x in v.items())
    exact /= 2
    raw, err, _ = theta._second_moment(q, eta, 1e-12, factorize(q))
    assert abs(mp.mpf(raw) - exact) <= err


@pytest.mark.parametrize("q", [1009, 5040])
def test_second_moment_builds_no_group_and_calls_no_transform(q, monkeypatch, capsys, tmp_path):
    """theta_moment at k = 1 and theta-scan --k 1 run with building a
    character group and the group transform both raising; k = 2 still takes
    that path.  The scan takes no gcd and one bincount per prime."""
    def refuse(*args, **kwargs):
        raise AssertionError("group path taken")

    monkeypatch.setattr(theta.CharacterGroup, "__init__", refuse)
    monkeypatch.setattr(theta.CharacterGroup, "transform", refuse)
    monkeypatch.setattr(characters, "build_group", refuse)
    monkeypatch.setattr(theta, "build_group", refuse)
    for parity in ("even", "odd"):
        assert theta_moment(q, 1, parity).family_size > 0
    calls = {"gcd": 0, "bincount": 0}

    def counted(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    assert cli.run(["theta-scan", "--prime-range", "1009:1100", "--k", "1", "--parity", "odd",
                    "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count(",1,odd,") == 16  # the primes in 1009:1100
    assert calls == {"gcd": 0, "bincount": 16}  # d = 1 only: d = p's bins are singletons
    with pytest.raises(AssertionError, match="group path taken"):
        theta_moment(q, 2, "even")


def test_moment_normalization_exponent():
    # (log q)^{(k-1)^2} factor appears only for k >= 2
    q = 29
    m1 = theta_moment(q, 1, "even")
    m3 = theta_moment(q, 3, "even")
    phi = 28
    assert m1.normalization == pytest.approx(phi * math.sqrt(q))
    assert m3.normalization == pytest.approx(phi * q ** 1.5 * math.log(q) ** 4)


def test_moment_normalization_at_the_float_edge_uses_phi():
    """q = 1218 = 2 3 7 29, phi = 336, k = 19 even: q - 1 in place of phi(q)
    would put the normalization past the float range, phi(q) itself keeps it
    finite, so the moment is computed; k = 20 is refused by k."""
    m = theta_moment(1218, 19, "even")
    assert m.normalization == 336 * 1218 ** 9.5 * math.log(1218) ** 324
    assert math.isfinite(m.normalization) and 1217 * m.normalization / 336 > 1.7e308
    with pytest.raises(DomainError, match="k = 20 is too large at q = 1218"):
        theta_moment(1218, 20, "even")


def test_moment_domain():
    with pytest.raises(DomainError):
        theta_moment(2, 1, "even")
    with pytest.raises(DomainError):
        theta_moment(5, 0, "even")
    with pytest.raises(DomainError):
        theta_moment(5, 1, "both")


# ---------------------------------------------------------------------------
# Mellin quadrature


def test_mellin_q5_pinned_parameters():
    g = build_group(5)
    chi = quadratic_char(5)
    r = mellin_check(5, chi, 8.0, 1 / 64)
    assert r.residual < 1e-6
    assert r.height == pytest.approx(8.0) and r.step == 1 / 64
    assert abs(r.series - theta_value(5, chi, 1.0).value) < 1e-12
    assert r.tail_bound > 0


def test_mellin_residual_decreases_with_height():
    chi = quadratic_char(5)
    r4 = mellin_check(5, chi, 4.0, 1 / 64)
    r8 = mellin_check(5, chi, 8.0, 1 / 64)
    assert r8.residual < r4.residual
    assert r8.tail_bound < r4.tail_bound


def test_mellin_taller_window_mod13():
    g = build_group(13)
    idx = [i for i in range(len(g))
           if g.parity_bits[i] == 0 and g.primitive_mask[i]]
    r = mellin_check(13, g.char(idx[0]), 10.0, 1 / 64)
    assert r.residual < 5e-7


def test_mellin_worker_invariance(cli_at_workers):
    """Repeat calls agree bit for bit, and so does the mellin-check CSV at any
    --workers."""
    chi = quadratic_char(5)
    a = mellin_check(5, chi, 4.0, 1 / 32)
    b = mellin_check(5, chi, 4.0, 1 / 32)
    assert a.quadrature == b.quadrature and a.residual == b.residual
    one, five = cli_at_workers("mellin-check", "--q", "5", "--height", "4", "--step", "0.03125")
    assert one == five
    assert f",{a.residual!r}," in one


def test_mellin_domain():
    g5 = build_group(5)
    (odd,) = [c for c in g5 if abs(c.value(2) - 1j) < 1e-12]
    with pytest.raises(DomainError):
        mellin_check(5, odd, 8.0, 1 / 64)  # odd character
    with pytest.raises(DomainError):
        mellin_check(5, g5.char(0), 8.0, 1 / 64)  # trivial
    g9 = build_group(9)
    imprimitive = [c for c in g9 if c.is_even and not c.is_primitive and not c.is_trivial]
    if imprimitive:
        with pytest.raises(DomainError):
            mellin_check(9, imprimitive[0], 8.0, 1 / 64)
    chi = quadratic_char(5)
    with pytest.raises(DomainError):
        mellin_check(5, chi, 0.0, 1 / 64)
    with pytest.raises(DomainError):
        mellin_check(5, chi, 8.0, -1.0)
    for height, step in ((math.inf, 1 / 64), (math.nan, 1 / 64), (8.0, math.inf)):
        with pytest.raises(DomainError, match="positive and finite"):
            mellin_checks(5, [chi], height, step)
    with pytest.raises(DomainError):
        mellin_check(7, chi, 8.0, 1 / 64)  # modulus mismatch


def _even_primitive(q):
    return [c for c in build_group(q) if c.is_even and c.is_primitive and not c.is_trivial]


def test_mellin_checks_match_per_character_quadrature():
    """The batched route against a quadrature built from l_value and gamma_fn."""
    q, height, step = 13, 4.0, 1 / 16
    chars = _even_primitive(q)
    results = mellin_checks(q, chars, height, step)
    assert [r.char_index for r in results] == [c.index for c in chars]
    family = theta_all_chars(q, 1.0, 1e-12, chars[0].group)[0]
    m = int(round(height / step))
    ts = [step * j for j in range(-m, m + 1)]
    pref = (q / math.pi) ** 0.25 / (2 * math.pi)
    for chi, r in zip(chars, results):
        f = [l_value(q, chi, complex(0.5, 2 * t), tol=1e-10).value
             * cmath.exp(1j * t * math.log(q / math.pi)) * gamma_fn(complex(0.25, t)).value
             for t in ts]
        quad = pref * step * (sum(f) - (f[0] + f[-1]) / 2)
        assert abs(r.quadrature - quad) < 1e-13
        assert r.series == family[chi.index]
        assert abs(r.series - theta_value(q, chi, 1.0).value) <= 2 * 1e-12
        assert r.height == height and r.step == step
    # the one-character call reads the same row of the same batched route
    assert mellin_check(q, chars[1], height, step) == results[1]


@pytest.mark.parametrize("q, picks", [(40, None), (65, (0, 2))])
def test_mellin_checks_match_per_character_quadrature_non_cyclic(q, picks):
    """The same comparison on a non-cyclic group, where the conjugation flips
    several grid components: 40 = 8 * 5 (grid 2 x 2 x 4) and 65 = 5 * 13
    (4 x 12).  At 65 only two characters are asked for, so the negative half
    is read off conjugates outside the request."""
    height, step = 2.0, 1 / 16
    chars = _even_primitive(q)
    if picks is not None:
        chars = [chars[i] for i in picks]
    group = chars[0].group
    assert len(group._dims) > 1
    assert any(group.conjugate_index(c.index) != c.index for c in chars)
    results = mellin_checks(q, chars, height, step)
    m = int(round(height / step))
    pref = (q / math.pi) ** 0.25 / (2 * math.pi)
    for chi, r in zip(chars, results):
        f = [l_value(q, chi, complex(0.5, 2 * step * j), tol=1e-10).value
             * cmath.exp(1j * step * j * math.log(q / math.pi))
             * gamma_fn(complex(0.25, step * j)).value for j in range(-m, m + 1)]
        quad = pref * step * (sum(f) - (f[0] + f[-1]) / 2)
        assert abs(r.quadrature - quad) < 1e-13


@pytest.mark.parametrize("q", [5, 13, 29, 40, 65])
def test_mellin_series_are_the_family_step(q):
    """Every series is the theta_all_chars entry bit for bit, within 2 eps of
    the direct per-character sum theta_value."""
    eps = 1e-12
    chars = _even_primitive(q)
    family = theta_all_chars(q, 1.0, eps, chars[0].group)[0]
    for chi, r in zip(chars, mellin_checks(q, chars, 2.0, 1 / 8, eps)):
        assert r.series == family[chi.index]
        assert abs(r.series - theta_value(q, chi, 1.0, eps).value) <= 2 * eps


def test_mellin_checks_read_one_family_transform(monkeypatch):
    """One mellin_checks call makes one theta_all_chars call and no
    per-character theta_value call."""
    calls = []
    family = theta.theta_all_chars
    monkeypatch.setattr(theta, "theta_all_chars",
                        lambda *a, **kw: calls.append(a) or family(*a, **kw))
    monkeypatch.setattr(theta, "theta_value",
                        lambda *a, **kw: pytest.fail("theta_value called"))
    mellin_checks(13, _even_primitive(13), 4.0, 1 / 16)
    assert len(calls) == 1


@pytest.mark.parametrize("q", [5, 13, 29])
def test_mellin_fold_is_exact(q):
    """f_chi(-t) = conj f_chibar(t) is used exactly: a real character's
    quadrature is real, and a conjugate pair's quadratures and tail bounds are
    conjugate and equal, bit for bit."""
    results = {r.char_index: r for r in mellin_checks(q, _even_primitive(q))}
    group = build_group(q)
    assert any(group.orders[i] == 2 for i in results)
    for i, r in results.items():
        bar = results[group.conjugate_index(i)]
        if group.orders[i] == 2:
            assert r.quadrature.imag == 0.0
        assert bar.quadrature == r.quadrature.conjugate()
        assert bar.tail_bound == r.tail_bound


def test_mellin_checks_evaluate_t_at_least_zero_only(monkeypatch):
    """One mellin_checks call makes one L call on the m + 1 points t >= 0, and
    its Gamma kernel has m + 1 points: the negative half is never built."""
    l_calls, gamma_calls = [], []
    l_values, gamma = theta.l_values_all_chars, theta.gamma_fn
    monkeypatch.setattr(theta, "l_values_all_chars",
                        lambda q, s, *a, **kw: l_calls.append(np.array(s)) or l_values(q, s, *a, **kw))
    monkeypatch.setattr(theta, "gamma_fn",
                        lambda s, *a, **kw: gamma_calls.append(np.array(s)) or gamma(s, *a, **kw))
    height, step = 4.0, 1 / 16
    m = int(round(height / step))
    mellin_checks(13, _even_primitive(13), height, step)
    assert [s.size for s in l_calls] == [m + 1]
    assert np.all(l_calls[0].imag >= 0) and l_calls[0].imag.max() == 2 * height
    kernel = [s for s in gamma_calls if s.imag.min() == 0.0]  # the other is the tail beyond H
    assert [s.size for s in kernel] == [m + 1]
    assert len(gamma_calls) == 2


def test_mellin_window_needs_an_interval():
    """height / step rounding to 0 leaves no interval: refused, not a one-point
    'quadrature' whose residual exceeds its tail bound."""
    chars = _even_primitive(13)
    for height, step in ((0.001, 1.0), (0.5, 1.0), (1 / 256, 1 / 64)):
        with pytest.raises(DomainError, match="height / step must round to >= 1"):
            mellin_checks(13, chars, height, step)
    with pytest.raises(DomainError, match="round to >= 1"):
        mellin_checks(13, [], 0.001, 1.0)
    (r,) = mellin_checks(13, chars[:1], 0.6, 1.0)  # rounds to one step
    assert r.height == 1.0 and r.residual <= r.tail_bound


def _no_l_values(*args, **kwargs):
    raise AssertionError("L evaluated for a refused window")


def test_mellin_window_height_is_bounded(monkeypatch):
    """L runs at 1/2 + 2it, so a height above MAX_SHIFT / 2 = 25 is refused
    before any L evaluation; 25 itself is accepted."""
    assert theta.MAX_SHIFT / 2 == 25
    chars = _even_primitive(13)
    with monkeypatch.context() as m:
        m.setattr(theta, "l_values_all_chars", _no_l_values)
        for height, step in ((25.5, 1.0), (1e15, 1.0), (1e300, 1e-300)):
            with pytest.raises(DomainError, match=re.escape(f"height must be <= 25; got {height}")):
                mellin_checks(13, chars, height, step)
    (r,) = mellin_checks(13, chars[:1], 25.0, 1.0)
    assert r.height == 25.0 and r.residual < 1e-10


def test_mellin_window_grid_is_bounded(monkeypatch):
    """A window is refused exactly when round(height / step) exceeds
    MAX_MELLIN_STEPS = 2^16 (128 times the default 512), before any L
    evaluation, also where height / step overflows to inf."""
    n = theta.MAX_MELLIN_STEPS
    assert n == 2 ** 16 == 128 * round(8.0 / (1 / 64))
    chars = _even_primitive(13)
    monkeypatch.setattr(theta, "l_values_all_chars", _no_l_values)
    for ratio in (n - 1, n, n + 0.5, n + 0.5001, n + 1, 1e9):
        step = 8.0 / ratio
        if round(8.0 / step) > n:
            with pytest.raises(DomainError, match=f"height / step must round to <= {n}; got 8.0"):
                mellin_checks(13, chars, 8.0, step)
        else:
            with pytest.raises(AssertionError, match="L evaluated"):
                mellin_checks(13, chars, 8.0, step)
    with pytest.raises(DomainError, match=f"height / step must round to <= {n}"):
        mellin_checks(13, chars, 8.0, 1e-320)  # 8 / 1e-320 is inf


def test_mellin_checks_rejects_mixed_sets(monkeypatch):
    """Every character is validated before any L evaluation."""
    def no_l_values(*args, **kwargs):
        raise AssertionError("L evaluated before validation")

    monkeypatch.setattr(theta, "l_values_all_chars", no_l_values)
    g13 = build_group(13)
    good = _even_primitive(13)
    odd = next(c for c in g13 if not c.is_even)
    other = _even_primitive(5)[0]
    for bad in (odd, g13.char(0), other):
        with pytest.raises(DomainError):
            mellin_checks(13, good + [bad], 4.0, 1 / 16)
    assert mellin_checks(13, [], 4.0, 1 / 16) == []


def test_mellin_checks_memory_stays_near_per_point_route():
    """The batched grid holds at most HZ_BLOCK Hurwitz terms at once: the
    tracemalloc peak of the 13-character check mod 29 stays within 2 MB of the
    0.77 MB the one-point-at-a-time route took (numpy 2.4)."""
    import tracemalloc

    chars = _even_primitive(29)
    assert len(chars) == 13
    mellin_checks(29, chars)
    tracemalloc.start()
    try:
        mellin_checks(29, chars)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 0.77 + 2.0, peak


def test_gamma_tail_mass_against_mpmath():
    """The trapezoid tail mass over-estimates the convex tail by under 0.2%."""
    mp = pytest.importorskip("mpmath")
    for height in (4.0, 8.0):
        exact = 2 * mp.quad(lambda t: abs(mp.gamma(mp.mpc(0.25, t))),
                            [height, height + 8, height + 30, mp.inf])
        assert 1 <= theta._gamma_tail_mass(height) / float(exact) < 1.002


def test_mellin_check_without_numpy_trapezoid(monkeypatch):
    """numpy < 2.0, which pyproject admits, has no np.trapezoid."""
    monkeypatch.delattr(np, "trapezoid", raising=False)
    r = mellin_check(5, quadratic_char(5), 2.0, 1 / 8)
    assert r.tail_bound > 0
