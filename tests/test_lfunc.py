"""L-values and family aggregates: goldens, honesty, symmetries, majorant."""

import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from thetamoments import lfunc
from thetamoments.characters import build_group
from thetamoments.errors import DomainError, PoleError, PrecisionError
from thetamoments.lfunc import (
    LAMBDA0,
    LOG_CLAMP,
    central_moment,
    l_value,
    l_values_all_chars,
    lambda_zero,
    large_value_counts,
    log_l_majorant,
    shifted_moment,
)

mp.mp.dps = 30


def mp_chi(chi, n):
    """chi(n) as an exact root of unity in mpmath arithmetic."""
    t = chi.root_exponent(n)
    return mp.mpc(0) if t is None else mp.expjpi(mp.mpf(2 * t) / chi.group.structure.exponent)


def mp_l_values(q, chars, s):
    """Oracle: q^-s sum_a chi(a) zeta(s, a/q) in mpmath arithmetic for each
    chi in `chars`, all sharing one Hurwitz vector over the units a."""
    units = [a for a in range(1, q) if math.gcd(a, q) == 1]
    zetas = [mp.zeta(mp.mpc(s), mp.mpf(a) / q) for a in units]
    qs = mp.power(q, -mp.mpc(s))
    return [complex(qs * mp.fsum(mp_chi(chi, a) * z for a, z in zip(units, zetas)))
            for chi in chars]


def _ld(x):
    """An mpmath real as a longdouble, through its decimal string."""
    return np.longdouble(mp.nstr(x, 25))


@functools.lru_cache
def _taylor_coefficients(s, centres, terms):
    """(-1)^k (s)_k/k! zeta(s + k, c_j) as a (terms, centres) longdouble array."""
    sm = mp.mpc(s)
    coef = [[(-1) ** k * mp.rf(sm, k) / mp.factorial(k)
             * mp.zeta(sm + k, 1 + (j + mp.mpf(0.5)) / centres) for j in range(centres)]
            for k in range(terms)]
    return np.array([[_ld(c.real) + 1j * _ld(c.imag) for c in row] for row in coef])


def mp_l_values_taylor(q, chars, s, centres=32, terms=12):
    """Oracle for larger q, with the structure of mp_l_values (one weight
    vector over the units, shared by every chi in `chars`) but cheaper entries:
    zeta(s, a/q) = (a/q)^{-s} + zeta(s, 1 + a/q), the second part a Taylor sum
    about the nearest of `centres` points c_j = 1 + (j + 1/2)/J with mpmath's
    zeta(s + k, c_j).  At |d| <= 1/64 and |s| < 3 the omitted terms are below
    1e-20; the weights, character values and sums are formed in longdouble."""
    sm = mp.mpc(s)
    coef = _taylor_coefficients(s, centres, terms)
    units = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
    j = units * centres // q
    d = (2 * centres * units - (2 * j + 1) * q).astype(np.longdouble) / (2 * centres * q)
    hz = coef[-1][j]
    for row in coef[-2::-1]:
        hz = hz * d + row[j]
    ln = np.log(units.astype(np.longdouble))
    qs = _ld(mp.re(mp.power(q, -sm))) + 1j * _ld(mp.im(mp.power(q, -sm)))
    w = np.exp(-(_ld(mp.re(sm)) + 1j * _ld(mp.im(sm))) * ln) + qs * hz
    group = chars[0].group
    e, dims = group.structure.exponent, group.structure.dims
    m = np.unravel_index(group.structure.index_of_n[units], dims)
    out = []
    for chi in chars:
        t = sum(ml * jl * (e // dl) for ml, jl, dl in zip(m, chi.exponents, dims)) % e
        chi_a = np.exp(1j * (2 * _ld(mp.pi) / e) * t.astype(np.longdouble))
        out.append(complex(np.sum(chi_a * w)))
    return out


def quadratic_char(q):
    g = build_group(q)
    (idx,) = [i for i in range(len(g)) if g.orders[i] == 2]
    return g.char(idx)


# ---------------------------------------------------------------------------
# single values: frozen goldens and identities


def test_zeta_via_trivial_modulus():
    g = build_group(1)
    z = l_value(1, g.char(0), 2.0)
    assert abs(z.value - math.pi ** 2 / 6) <= z.abs_error
    z = l_value(1, g.char(0), 0.5)
    assert abs(z.value - (-1.460354508809586812889499)) <= z.abs_error + 1e-15


def test_modulus_two_euler_factor():
    g = build_group(2)
    v = l_value(2, g.char(0), 2.0)
    assert v.value == pytest.approx((1 - 0.25) * math.pi ** 2 / 6, abs=1e-13)


def test_golden_chi4():
    g = build_group(4)
    chi = g.char(1)
    assert not chi.is_trivial
    v = l_value(4, chi, 0.5)
    assert v.value == pytest.approx(0.6676914571896091766586909, abs=1e-13)
    v1 = l_value(4, chi, 1.0)
    assert v1.value == pytest.approx(math.pi / 4, abs=1e-13)
    vs = l_value(4, chi, 0.5 + 1j)
    assert vs.value == pytest.approx(
        0.7700860244736049857456768 + 0.2656590886113714038710229j, abs=1e-12)


def test_golden_quadratic_mod5():
    chi = quadratic_char(5)
    v = l_value(5, chi, 0.5)
    assert v.value == pytest.approx(0.2317509475040157558833837, abs=1e-13)
    # class-number closed form at s = 1 (digamma route)
    v1 = l_value(5, chi, 1.0)
    expect = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    assert v1.value == pytest.approx(expect, abs=1e-13)


def test_l_one_against_digamma_oracle():
    """L(1, chi) = -(1/q) sum_a chi(a) psi(a/q) at a CLI-size prime, within
    the reported error (the s = 1 branch shares the character-sum rounding
    term of every other L-value)."""
    q = 1009
    g = build_group(q)
    psi = [(a, mp.digamma(mp.mpf(a) / q)) for a in range(1, q)]
    for i in (1, 5, 504, 1007):  # 504: the quadratic character
        chi = g.char(i)
        ref = complex(-mp.fsum(mp_chi(chi, a) * p for a, p in psi) / q)
        v = l_value(q, chi, 1)
        assert abs(v.value - ref) <= v.abs_error


@pytest.mark.parametrize("q", [1009, 5040])
def test_l_one_pairs_conjugates_exactly(q):
    """L(1, conj chi) = conj L(1, chi) bit for bit, real characters giving
    real values: s = 1 reads the conjugate-paired character sums."""
    g = build_group(q)
    for i in (1, g.phi // 3, g.phi // 2, g.phi - 1):
        chi = g.char(i)
        v, w = l_value(q, chi, 1), l_value(q, chi.conjugate(), 1)
        assert v.value == w.value.conjugate() and v.abs_error == w.abs_error, i
        if chi == chi.conjugate():
            assert v.value.imag == 0, i


def test_primitivity_and_the_pole_read_no_conductor_table():
    """is_primitive reads the primitive mask and the s = 1 pole test the
    trivial index, so neither builds the conductor table."""
    g = build_group(12)
    l_value(12, g.char(1), 1)
    prims = [c.is_primitive for c in g]
    assert "conductors" not in vars(g)
    assert prims == [c.conductor == 12 for c in build_group(12)]


def test_pole_only_for_trivial():
    g = build_group(7)
    with pytest.raises(PoleError):
        l_value(7, g.char(0), 1.0)
    l_value(7, g.char(1), 1.0)  # fine
    with pytest.raises(PoleError):
        l_value(1, build_group(1).char(0), 1.0)


def test_l_value_domain_checks():
    g7 = build_group(7)
    with pytest.raises(DomainError):
        l_value(5, g7.char(1), 0.5)  # modulus mismatch
    with pytest.raises(DomainError):
        l_value(7, g7.char(1), 0.5, tol=0.0)
    with pytest.raises(DomainError):
        l_values_all_chars(2, 0.5)


def test_all_chars_rejects_a_group_of_another_modulus():
    with pytest.raises(DomainError, match="group modulus 11 does not match q = 7"):
        l_values_all_chars(7, 0.5, group=build_group(11))


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
def test_all_chars_and_aggregates_reject_a_nonpositive_tol(tol):
    """The shared L path checks tol before any Hurwitz entry is chosen."""
    with pytest.raises(DomainError, match="tol must be positive"):
        l_values_all_chars(13, 0.5, tol=tol)
    with pytest.raises(DomainError, match="tol must be positive"):
        central_moment(13, 1, tol=tol)
    with pytest.raises(DomainError, match="tol must be positive"):
        shifted_moment(13, (0.0, 3.0), tol=tol)


@pytest.mark.parametrize("q", [13, 1009, 5040, 10007, 100003])
def test_l_value_is_the_family_entry(q):
    """For s != 1 l_value reads entry chi.index of the family transform, so the
    two agree bit for bit; a refusal's best is that entry, a scalar."""
    g = build_group(q)
    for s in (0.5 + 3j, 0.5, 0.75 - 12.5j):
        vals, _ = l_values_all_chars(q, s, group=g)
        for i in sorted({1, g.phi // 3, g.phi // 2, g.phi - 1}):
            assert l_value(q, g.char(i), s).value == vals[i], (s, i)
    with pytest.raises(PrecisionError) as exc:
        l_value(q, g.char(1), 0.5 + 3j, tol=1e-18)
    with pytest.raises(PrecisionError) as family:
        l_values_all_chars(q, 0.5 + 3j, tol=1e-18, group=g)
    assert exc.value.best == lfunc.ComplexApprox(complex(family.value.best.value[1]),
                                                 family.value.best.abs_error)


@pytest.mark.parametrize("q", [1009, 10007, 5040])
def test_real_s_rows_are_exact_conjugate_pairs(q):
    """At real s every row of l_values_all_chars pairs exactly: L(s, conj chi)
    = conj L(s, chi) bit for bit and real characters take real values, in a
    batch with a complex point and alone; the paired values stay within the
    reported bound of the oracle."""
    g = build_group(q)
    vals, errs = l_values_all_chars(q, np.array([0.5, 0.5 + 3j, 2.0]), group=g)
    real = g.conjugation == np.arange(g.phi)
    for row in (vals[0], vals[2], l_values_all_chars(q, 0.5, group=g)[0]):
        assert np.array_equal(row[g.conjugation], np.conj(row))
        assert not np.any(row[real].imag)
    idx = [1, g.phi // 3]
    idx += [int(g.conjugation[i]) for i in idx]
    for i, ref in zip(idx, mp_l_values_taylor(q, [g.char(i) for i in idx], 0.5)):
        assert abs(vals[0, i] - ref) <= errs[0], (i, abs(vals[0, i] - ref), errs[0])


def test_refusal_carries_the_best_effort_value():
    """A refused L request keeps its result and the bound that missed."""
    g = build_group(13)
    chi = g.char(1)
    ok = l_value(13, chi, 0.5 + 3j)
    with pytest.raises(PrecisionError) as exc:
        l_value(13, chi, 0.5 + 3j, tol=1e-18)
    best = exc.value.best
    assert best.abs_error > 1e-18
    assert abs(best.value - ok.value) <= best.abs_error + ok.abs_error
    vals, err = l_values_all_chars(13, 0.5 + 3j, group=g)
    with pytest.raises(PrecisionError) as exc:
        l_values_all_chars(13, 0.5 + 3j, tol=1e-18, group=g)
    best = exc.value.best
    assert best.value.shape == (len(g),) and best.abs_error > 1e-18
    assert np.max(np.abs(best.value - vals)) <= best.abs_error + err


@pytest.mark.parametrize("q", [5, 7, 9, 12, 1009, 5040])
def test_honest_against_mpmath(q):
    """Implementation minus oracle stays within the reported bound: every
    character at four s-points for small q, a handful of characters at one
    critical-line point for CLI sizes."""
    g = build_group(q)
    if q < 100:
        idx, points = range(len(g)), (0.5, 0.5 + 2.7j, 1.5 - 4j, 2.0)
    else:
        idx, points = (1, len(g) // 3, len(g) // 2, len(g) - 1), (0.5 + 2.7j,)
    for s in points:
        vals, err = l_values_all_chars(q, s, group=g)
        refs = mp_l_values(q, [g.char(i) for i in idx], s)
        for i, ref in zip(idx, refs):
            assert abs(vals[i] - ref) <= err


def test_honest_at_q_10007_against_mpmath():
    """Four characters mod 10007 against the Taylor oracle, itself checked
    against the direct one mod 101.  (mpmath's zeta at all 10^4 units would
    take about 25 s.)"""
    s = 0.5 + 2.7j
    g = build_group(101)
    chars = [g.char(i) for i in (1, 50, 99)]
    for got, ref in zip(mp_l_values_taylor(101, chars, s), mp_l_values(101, chars, s)):
        assert abs(got - ref) < 1e-14
    q = 10007
    g = build_group(q)
    idx = (1, len(g) // 3, len(g) // 2, len(g) - 1)
    vals, err = l_values_all_chars(q, s, group=g)
    assert err <= 1e-10
    for i, ref in zip(idx, mp_l_values_taylor(q, [g.char(i) for i in idx], s)):
        assert abs(vals[i] - ref) <= err, (i, abs(vals[i] - ref), err)


def _principal_l(q, s):
    """L(s, chi_0) mod prime q = (1 - q^{-s}) zeta(s), in mpmath."""
    s = mp.mpc(s)
    return complex((1 - mp.power(q, -s)) * mp.zeta(s))


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="the Taylor centres need an extended longdouble to certify here")
def test_certifies_at_q_100003_and_height_35():
    q, s = 100003, 0.5 + 35j
    vals, err = l_values_all_chars(q, s)
    assert err <= 1e-10
    assert abs(vals[0] - _principal_l(q, s)) <= err


def test_bound_holds_at_q_100003_and_height_35():
    """Never skipped: at a tol float64 arithmetic certifies anywhere, the
    principal character stays within the reported bound."""
    q, s = 100003, 0.5 + 35j
    vals, err = l_values_all_chars(q, s, tol=1e-8)
    assert err <= 1e-8
    assert abs(vals[0] - _principal_l(q, s)) <= err


def test_all_chars_matches_single():
    q = 13
    g = build_group(q)
    for s in (0.5, 0.5 + 1.5j):
        vals, err = l_values_all_chars(q, s)
        for i in (0, 1, 5, 11):
            single = l_value(q, g.char(i), s)
            assert abs(vals[i] - single.value) <= err + single.abs_error


@pytest.mark.parametrize("q", [29, 5040, 3 ** 7])
def test_all_chars_batch_equals_rows(q):
    g = build_group(q)
    s = np.array([0.5 + 2j, 0.5 - 7.25j, 0.5, 0.75 + 31j, 0.5 + 49.5j])
    vals, errs = l_values_all_chars(q, s, 1e-8, group=g)
    assert vals.shape == (len(s), len(g)) and errs.shape == (len(s),)
    for z, row, err in zip(s.tolist(), vals, errs):
        one, one_err = l_values_all_chars(q, z, 1e-8, group=g)
        assert np.array_equal(row, one) and err == one_err, z
        assert type(one_err) is float


def test_all_chars_batch_refusal_names_the_point():
    q = 1009
    s = np.array([0.5 + 1j, 0.5 + 2j, 0.5 + 200j, 0.5 + 400j])
    with pytest.raises(PrecisionError) as batch:
        l_values_all_chars(q, s)
    with pytest.raises(PrecisionError) as one:
        l_values_all_chars(q, s[2])
    assert batch.value.s == s[2]
    assert str(batch.value) == str(one.value)
    assert f"at s = {s[2]:g}: requested tol 1e-10" in str(batch.value)


def test_refusal_at_q_100003_names_the_tol_and_stays_small():
    """A tol below what float64 certifies at q = 100003 is refused with the
    caller's tol, the error split and the stage that dominates, and the refused
    call allocates O(phi)."""
    g = build_group(100003)
    tracemalloc.start()
    try:
        with pytest.raises(PrecisionError, match="requested tol 1e-14") as exc:
            l_values_all_chars(100003, 0.5, tol=1e-14, group=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e = exc.value
    assert (e.q, e.tol, e.s) == (100003, 1e-14, 0.5)
    assert e.stage in ("Hurwitz part", "Dirichlet polynomial", "transform rounding")
    assert f"largest: {e.stage}" in str(e) and 0 < e.internal_tol < e.tol
    assert all(name in str(e) for name in ("Hurwitz part", "Dirichlet polynomial", "transform"))
    assert e.best.value.shape == (g.phi,) and e.best.abs_error > e.tol
    assert peak <= 8 * 2 ** 20, peak


def test_shift_columns_are_one_call(monkeypatch):
    """Every distinct |t| of a request is an s-point of one _l_rows call, and
    no aggregate reaches L through l_values_all_chars."""
    calls = []
    evaluate = lfunc._l_rows

    def recording(group, s, *args):
        calls.append(np.asarray(s).tolist())
        return evaluate(group, s, *args)

    def unused(*args, **kwargs):
        raise AssertionError("aggregate called l_values_all_chars")

    monkeypatch.setattr(lfunc, "_l_rows", recording)
    monkeypatch.setattr(lfunc, "l_values_all_chars", unused)
    shifted_moment(19, (0.1, 0.9, -0.1, 0.0))
    assert calls == [[0.5, 0.5 + 0.1j, 0.5 + 0.9j]]
    calls.clear()
    large_value_counts(19, (-2.0, 0.0, 2.0, 0.0), [0.0])
    central_moment(19, 2)
    assert calls == [[0.5, 0.5 + 2j], [0.5]]
    calls.clear()
    central_moment(19, 0)
    assert calls == [[]]  # k = 0 evaluates no L


def test_shifted_moment_memory_at_q_100003():
    """Eight shifts at q = 100003 keep |L| rows only: no (S, phi) complex
    array is formed (22.3 MiB peak when it was)."""
    tracemalloc.start()
    try:
        shifted_moment(100003, (0, 1.5, -3, 6, 10, -15, 25, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak / 2 ** 20


def test_conjugation_symmetry():
    """L(s, conj chi) = conj(L(conj s, chi)); on the line: t -> -t."""
    q, t = 13, 1.25
    g = build_group(q)
    vals_up, err = l_values_all_chars(q, 0.5 + 1j * t)
    vals_dn, err2 = l_values_all_chars(q, 0.5 - 1j * t)
    for i in range(len(g)):
        j = g.conjugate_index(i)
        assert abs(vals_dn[i] - np.conj(vals_up[j])) <= err + err2


# ---------------------------------------------------------------------------
# central moments


def test_central_moment_zeroth_is_family_size():
    # phi*(45) = sum_{d|45} mu(d) phi(45/d) = 24 - 8 - 6 + 2 = 12
    m = central_moment(45, 0)
    assert m.raw == 12.0 and m.family_size == 12
    assert m.ratio == pytest.approx(12 / (45 * 1.0))


def test_central_moment_golden_m2_mod5():
    m = central_moment(5, 1)
    assert m.family_size == 3
    assert m.raw == pytest.approx(1.314477571125334821663942, abs=1e-12)
    assert m.normalization == pytest.approx(5 * math.log(5))
    assert m.ratio == pytest.approx(m.raw / m.normalization)


def test_central_moment_direct_sum_cross_check():
    q, k = 13, 2
    g = build_group(q)
    acc = 0.0
    for i in range(1, len(g)):  # all nontrivial chars are primitive, q prime
        acc += abs(l_value(q, g.char(i), 0.5).value) ** (2 * k)
    m = central_moment(q, k)
    assert m.raw == pytest.approx(acc, rel=1e-12)
    with pytest.raises(DomainError):
        central_moment(2, 1)
    with pytest.raises(DomainError):
        central_moment(13, -1)


@pytest.mark.parametrize("q", [13, 1000, 1009, 5040])
def test_central_moment_is_the_zero_shift_moment(q):
    """M_2(q) is the shifted moment at (0, 0) bit for bit: both read the same
    conjugation-averaged t = 0 column (at q = 1000 the unaveraged column's
    sum differed in its last digit)."""
    assert central_moment(q, 1).raw == shifted_moment(q, (0, 0)).raw


# ---------------------------------------------------------------------------
# shifted moments


def test_shifted_moment_negation_bit_identical():
    for t in [(0.3, 0.7), (0.0, 0.25, -1.0, 2.0)]:
        a = shifted_moment(17, t)
        b = shifted_moment(17, tuple(-x for x in t))
        assert a.raw == b.raw  # exact, not approx
        assert a.family_size == b.family_size


def test_shifted_moment_worker_invariance(cli_at_workers):
    """Repeat calls agree bit for bit, and so does the shifted-moment CSV at
    any --workers."""
    a = shifted_moment(19, (0.1, 0.9, -0.4, 0.0))
    b = shifted_moment(19, (0.1, 0.9, -0.4, 0.0))
    assert a.raw == b.raw
    one, five = cli_at_workers("shifted-moment", "--q", "19", "--shifts", "0.1,0.9,-0.4,0.0")
    assert one == five
    assert f",{a.raw!r}," in one


def test_shifted_moment_direct_product_cross_check():
    q, t = 17, (0.2, -0.6)
    g = build_group(q)
    mask = np.asarray(g.primitive_mask, dtype=bool)
    prod = np.ones(int(mask.sum()))
    for tv in t:
        vals, _ = l_values_all_chars(q, 0.5 + 1j * tv)
        prod = prod * np.abs(vals[mask])
    m = shifted_moment(q, t)
    assert m.raw == pytest.approx(float(prod.sum()), rel=1e-12)
    assert m.family_size == 15


def test_shifted_moment_families_and_normalization():
    m = shifted_moment(17, (0.0, 0.0), family="nonquadratic")
    assert m.family_size == 14  # 16 chars minus trivial minus the quadratic
    m = shifted_moment(17, (0.0, 0.0), family="star-nonquadratic")
    assert m.family_size == 14  # prime modulus: primitive = nontrivial
    small = shifted_moment(13, (0.0, 0.0))
    assert math.isnan(small.normalization) and math.isnan(small.ratio)
    ok = shifted_moment(17, (0.0, 0.0))
    assert math.isfinite(ok.normalization) and ok.normalization > 0
    with pytest.raises(DomainError):
        shifted_moment(17, (0.0, 60.0))
    with pytest.raises(DomainError):
        shifted_moment(17, (0.0, 0.0), family="everything")


# ---------------------------------------------------------------------------
# large-value counts


def test_large_value_counts_shape_and_monotone():
    h = large_value_counts(29, (0.0, 0.0), np.linspace(-3, 3, 13))
    assert h.family_size == 26  # 28 chars minus trivial minus quadratic
    assert h.counts.shape == (13,)
    assert np.all(np.diff(h.counts) <= 0)
    assert h.counts[0] == h.family_size  # every char clears a very low bar
    assert h.counts[-1] == 0
    assert h.flagged == 0
    assert h.excluded_quadratic


def test_large_value_counts_cross_check():
    q, t = 17, (0.5, -0.5)
    g = build_group(q)
    keep = [i for i in range(1, len(g)) if g.orders[i] > 2]
    totals = []
    for i in keep:
        s = sum(math.log(abs(l_value(q, g.char(i), 0.5 + 1j * tv).value)) for tv in t)
        totals.append(s)
    grid = np.array([-2.0, -0.5, 0.0, 0.5])
    h = large_value_counts(q, t, grid)
    for v, c in zip(grid, h.counts):
        assert c == sum(1 for s in totals if s >= v - 1e-12)


@pytest.mark.parametrize("family", ["nonquadratic", "star"])
def test_large_value_counts_ties_at_grid_points(family):
    # the family's own totals as grid points: every count sits on a tie
    q, tol = 29, 1e-10
    g = build_group(q)
    vals, err = l_values_all_chars(q, 0.5, tol, group=g)
    absl = np.abs(vals)[g.family_mask(family)]
    assert np.all(absl >= err)  # no clamping at this modulus
    total = np.zeros(absl.size) + np.log(absl) + np.log(absl)
    grid = np.unique(np.concatenate([total, total + 1e-3, [total.min() - 1, total.max() + 1]]))
    h = large_value_counts(q, (0.0, 0.0), grid, tol=tol, family=family)
    old = np.sum(total[:, None] >= grid[None, :], axis=0).astype(np.int64)
    assert h.counts.dtype == np.int64 and np.array_equal(h.counts, old)


def test_large_value_grid_rejects_nan_and_keeps_infinities():
    with pytest.raises(DomainError, match="NaN"):
        large_value_counts(101, (0.0, 0.0), [np.nan, 1.0])
    h = large_value_counts(101, (0.0, 0.0), [-np.inf, np.inf])
    assert h.counts.tolist() == [h.family_size, 0]


def test_large_value_counts_star_family_keeps_quadratic():
    h = large_value_counts(29, (0.0, 0.0), [0.0], family="star")
    assert h.family_size == 27 and not h.excluded_quadratic


def test_large_value_counts_grid_validation():
    with pytest.raises(DomainError):
        large_value_counts(17, (0.0, 0.0), [1.0, 0.5])
    with pytest.raises(DomainError):
        large_value_counts(17, (0.0, 0.0), [])
    with pytest.raises(DomainError):
        large_value_counts(17, (0.0, 0.0), [[0.0, 1.0]])


def test_log_clamp_constant():
    assert LOG_CLAMP == -50.0


# ---------------------------------------------------------------------------
# GRH majorant


def test_lambda_zero_golden():
    lam = lambda_zero()
    assert lam == pytest.approx(0.5671432904097838729999687, abs=1e-14)
    assert abs(math.exp(-lam) - lam) < 1e-14
    assert LAMBDA0 == lam


def test_majorant_closed_form_one_prime():
    """x = 2.9 leaves only the p = 2, j = 1 term."""
    q, lam, x = 17, 0.7, 2.9
    chi = build_group(q).char(3)
    sig = 0.5 + lam / math.log(x)
    expect = ((chi.value(2) * 2 ** complex(-sig, 0)).real * math.log(x / 2) / math.log(x)
              + (1 + lam) / 2 * math.log(q) / math.log(x))
    assert log_l_majorant(q, chi, x=x, lam=lam) == expect
    # shifted, T defaulting to |t|
    t = 2.0
    expect = ((chi.value(2) * 2 ** complex(-sig, -t)).real * math.log(x / 2) / math.log(x)
              + (1 + lam) / 2 * (math.log(q) + math.log(t)) / math.log(x))
    assert log_l_majorant(q, chi, t=t, x=x, lam=lam) == expect


@pytest.mark.parametrize("q", [17, 19, 23])
def test_majorant_dominates_log_l(q):
    """The explicit-formula bound sits above actual log |L(1/2, chi)|."""
    g = build_group(q)
    vals, _ = l_values_all_chars(q, 0.5)
    for i in range(1, len(g)):
        maj = log_l_majorant(q, g.char(i), x=1000.0, lam=0.6)
        assert maj >= math.log(abs(vals[i]))


def test_majorant_options():
    q = 17
    chi = build_group(q).char(1)
    a = log_l_majorant(q, chi, x=10.0, lam=0.6)
    b = log_l_majorant(q, chi, x=10.0, lam=0.6, primes_only=True)
    assert a != b  # prime powers 4, 8, 9 contribute
    # explicit T overrides the |t| default
    c = log_l_majorant(q, chi, t=2.0, x=10.0, lam=0.6, T=8.0)
    d = log_l_majorant(q, chi, t=2.0, x=10.0, lam=0.6)
    assert c > d
    with pytest.raises(DomainError):
        log_l_majorant(q, chi, x=1.5, lam=0.6)
    with pytest.raises(DomainError):
        log_l_majorant(q, chi, x=10.0, lam=0.5)  # below lambda0
    with pytest.raises(DomainError):
        log_l_majorant(5, chi, x=10.0, lam=0.6)  # modulus mismatch
