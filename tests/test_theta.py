"""Theta series: truncation bound, goldens, batch path, moments, Mellin check."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from thetamoments import theta
from thetamoments.characters import build_group
from thetamoments.errors import DomainError
from thetamoments.lfunc import l_value
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
    n = truncation_length(q, 1.0, eta, eps / 2)
    res, e = theta._series_terms(q, 1.0, eta, n)
    return np.bincount(res, weights=e, minlength=q)


def test_rounding_mass_counts_only_units():
    """The transform reads only the unit residues, so only their weights are
    charged: at q = 30030 the mass over all residues is about 4.9x theirs."""
    q = 30030
    g = build_group(q)
    _, err = theta_all_chars(q, 1.0, group=g)
    units = g.structure.n_of_index
    masses = [(float(np.sum(w[units])), float(np.sum(w)))
              for w in (_folded_series(q, eta) for eta in (0, 1))]
    assert all(full > 4 * unit for unit, full in masses)
    assert err <= 1e-12 / 2 + max(rounding_bound(g.phi, unit) for unit, _ in masses)
    assert err < max(rounding_bound(g.phi, full) for _, full in masses)


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


@pytest.mark.parametrize("q", [5, 7, 12, 16, 29, 45])
def test_conjugate_modulus_symmetry(q):
    """|theta(1, chi)| = |theta(1, conj chi)| for primitive chi (functional
    equation at the fixed point x = 1, root number of modulus 1)."""
    g = build_group(q)
    vals, err = theta_all_chars(q, 1.0)
    for i in np.flatnonzero(np.asarray(g.primitive_mask)):
        j = g.conjugate_index(int(i))
        assert abs(abs(vals[i]) - abs(vals[j])) < 2e-12


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


def test_moment_normalization_exponent():
    # (log q)^{(k-1)^2} factor appears only for k >= 2
    q = 29
    m1 = theta_moment(q, 1, "even")
    m3 = theta_moment(q, 3, "even")
    phi = 28
    assert m1.normalization == pytest.approx(phi * math.sqrt(q))
    assert m3.normalization == pytest.approx(phi * q ** 1.5 * math.log(q) ** 4)


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
    m = int(round(height / step))
    ts = [step * j for j in range(-m, m + 1)]
    pref = (q / math.pi) ** 0.25 / (2 * math.pi)
    for chi, r in zip(chars, results):
        f = [l_value(q, chi, complex(0.5, 2 * t), tol=1e-10).value
             * cmath.exp(1j * t * math.log(q / math.pi)) * gamma_fn(complex(0.25, t)).value
             for t in ts]
        quad = pref * step * (sum(f) - (f[0] + f[-1]) / 2)
        assert abs(r.quadrature - quad) < 1e-13
        assert r.series == theta_value(q, chi, 1.0).value
        assert r.height == height and r.step == step
    # the one-character call reads the same row of the same batched route
    assert mellin_check(q, chars[1], height, step) == results[1]


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
