"""Hurwitz zeta and log-gamma: goldens, identities, honest error bounds."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from thetamoments import specfun
from thetamoments.errors import DomainError, PoleError, PrecisionError
from thetamoments.specfun import (
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_vector,
    log_gamma,
)

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# Hurwitz zeta


def brute_hurwitz(s, a, n=10 ** 6):
    """Independent oracle: direct summation plus integral tail plus half-term.

    Error is about |s| (n+a)^(-Re s - 1) / 12, i.e. ~5e-10 at n = 10^6 for the
    points used below.
    """
    ns = np.arange(n, dtype=float) + a
    main = complex(np.sum(ns ** (-s)))
    tail = (n + a) ** (1 - s) / (s - 1) + 0.5 * (n + a) ** (-s)
    return main + tail


def test_zeta_two_known():
    z = hurwitz_zeta(2.0, 1.0)
    assert z.value == pytest.approx(math.pi ** 2 / 6, abs=1e-13)
    assert abs(z.value - math.pi ** 2 / 6) <= z.abs_error
    z = hurwitz_zeta(2.0, 0.5)
    assert z.value == pytest.approx(math.pi ** 2 / 2, abs=1e-13)


def test_golden_half_plus_6i():
    # frozen from the brute-force oracle (direct 10^6-term summation + tail);
    # cross-checked against mpmath.zeta to 30 digits
    frozen = 1.73175449903372944976695743269 - 0.0568070700325004908217708278111j
    oracle = brute_hurwitz(0.5 + 6j, 1 / 3)
    assert abs(oracle - frozen) < 2e-9
    z = hurwitz_zeta(0.5 + 6j, 1 / 3)
    assert abs(z.value - frozen) < 1e-12
    assert abs(z.value - frozen) <= z.abs_error


def test_power_of_two_relation():
    # zeta(s, 1/2) = (2^s - 1) zeta(s, 1): independent internal cross-check
    for s in [0.5 + 7j, 1.7 - 2.5j, 2.2 + 0j]:
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2 ** s - 1) * hurwitz_zeta(s, 1.0).value
        assert abs(lhs.value - rhs) < 5e-12


def test_error_bound_honest_random_points():
    # values can be as large as a^-sigma ~ 1e5 here, so ask for a loose tol
    # and check the *reported* bound still covers the true error everywhere
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        sigma = rng.uniform(0.1, 3.0)
        t = rng.uniform(-40, 40)
        a = rng.uniform(0.02, 1.0)
        s = complex(sigma, t)
        z = hurwitz_zeta(s, a, tol=1e-5)
        ref = complex(mp.zeta(mp.mpc(sigma, t), mp.mpf(a)))
        err = abs(z.value - ref)
        assert err <= z.abs_error, (s, a, err, z.abs_error)
        # sanity: bound is honest but not wildly loose (relative to the value)
        assert z.abs_error < 1e-10 * (1 + abs(ref))


@pytest.mark.parametrize("s, a", [(10.0, 0.003), (16.0, 0.01)])
def test_real_s_charges_the_whole_exponent(s, a):
    """At real s the rounding of exp(-s log(n+a)) is |s| |log(n+a)| eps per
    term as well: a charge on Im s alone left these values 2.56 and 2.42
    times their reported error from mpmath."""
    z = hurwitz_zeta(s, a, tol=math.inf)
    with mp.workdps(50):
        ref = complex(mp.zeta(s, mp.mpf(a)))
    assert abs(z.value - ref) <= z.abs_error, (abs(z.value - ref) / z.abs_error)


def test_em_block_float_model_against_a_longdouble_rebuild():
    """The float part of _em_block's bound covers the float64 block's distance
    from the same block (same N and M) in longdouble, at 4000 a-values where
    the terms share a sign: the exponent and np.sum's row-by-row order both
    count (the distance was 2.47 times a charge without them)."""
    a = (np.arange(4000) + 0.5) / 4000
    _, m, bound = specfun._em_choose(10.0, float(a.min()), 1e-12)
    nmb = [[(100, m, bound)]]
    val, err = specfun._em_block([10.0], nmb, a)
    ref, _ = specfun._em_block([np.longdouble(10)], nmb, a.astype(np.longdouble))
    assert np.all(np.abs(val - ref).astype(float) <= err - bound)


def test_vector_matches_scalar():
    s = 0.5 + 3j
    a = np.linspace(0.01, 1.0, 37)
    vals, err = hurwitz_zeta_vector(s, a)
    for i, ai in enumerate(a):
        zi = hurwitz_zeta(s, float(ai))
        assert abs(vals[i] - zi.value) <= err + zi.abs_error


def test_vector_error_bound_honest():
    s = 0.5 - 11j
    a = np.arange(1, 30, dtype=float) / 30
    vals, err = hurwitz_zeta_vector(s, a)
    for i, ai in enumerate(a):
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag), mp.mpf(float(ai))))
        assert abs(vals[i] - ref) <= err


def _mixed_points():
    """s-points with mixed sigma and sign of t, whose (N, M) differ."""
    return np.array([0.5 + 3j, 0.5 - 3j, 1.3 + 40j, 0.25 - 61.5j, 2.0 + 0j, 0.8 + 0.1j,
                     0.5 + 17j, 1.1 - 25j, 0.5 + 75j])


def _units(q):
    return np.array([n for n in range(1, q + 1) if math.gcd(n, q) == 1])


@pytest.mark.parametrize("q", [5, 29, 1009])
def test_vector_of_s_equals_scalar_calls_bit_for_bit(q):
    """hurwitz_grid_runs over a vector of s: every row of a run, the batched
    direct rows among them, equals the grid of that one point bit for bit."""
    units, s = _units(q), _mixed_points()
    tols = np.geomspace(1e-8, 1e-12, len(s)).tolist()
    assert len({specfun._em_choose(z, 1 + 1 / q, t)[:2] for z, t in zip(s.tolist(), tols)}) >= 3
    runs = list(specfun.hurwitz_grid_runs(s, q, len(units), tols))
    assert max(j - i for i, j, _ in runs) > 1
    for i, j, evaluate in runs:
        vals, errs = evaluate(units)
        assert vals.shape == errs.shape == (j - i, len(units))
        for k in range(i, j):
            ((_, _, one),) = specfun.hurwitz_grid_runs(s[k:k + 1], q, len(units), tols[k:k + 1])
            one_vals, one_errs = one(units)
            assert np.array_equal(vals[k - i], one_vals[0]), s[k]
            assert np.array_equal(errs[k - i], one_errs[0]), s[k]


def test_vector_of_s_blocks_fit_the_budget(monkeypatch):
    """Every _em_block call holds at most HZ_BLOCK term entries (points x
    min(N, EM_ROWS) x a-values, the rungs of a point sharing one term array),
    on both grid routes and the scalar vector, with points of N > EM_ROWS and
    a-arrays that take several column tiles."""
    calls = []
    evaluate = specfun._em_block

    def recording(pts, nmb, a):
        n = max(n for rungs in nmb for n, _, _ in rungs)
        calls.append((len(pts), n, len(a)))
        assert len(pts) * min(n, specfun.EM_ROWS) * len(a) <= specfun.HZ_BLOCK
        return evaluate(pts, nmb, a)

    monkeypatch.setattr(specfun, "_em_block", recording)
    for q, s in [(1009, 0.5 + 1j * np.array([-16, 3, 300, 40, 41])), (10007, np.array([0.5 + 20j]))]:
        units = _units(q)
        for _, _, grid in specfun.hurwitz_grid_runs(s, q, len(units), [1e-12] * len(s)):
            grid(units)
    assert max(p for p, _, _ in calls) > 1  # points batched in one block
    tall = [width for _, n, width in calls if n > specfun.EM_ROWS]
    assert tall and max(tall) < 1008  # |t| = 300 mod 1009: column tiles of the units
    calls.clear()
    hurwitz_zeta_vector(0.5 + 300j, np.arange(1, 1001) / 1000, 1e-8)
    assert len(calls) > 1 and sum(width for _, _, width in calls) == 1000


def _full(z, a, tol):
    """(values, error) of one untiled _em_block call over all of a, for the point z at tol."""
    vals, errs = specfun._em_block([z], [[specfun._em_choose(z, float(a.min()), tol)]], a)
    return vals[0, 0], float(errs.max())


@pytest.mark.parametrize("q", [29, 1009, 2187, 5040, 10007])
def test_scalar_vector_refuses_exactly_when_the_full_error_exceeds_tol(q):
    """The tiled scalar evaluation returns the untiled values and error bit for
    bit, and refuses exactly when that error exceeds tol, with the value at
    argmin(a) as its best effort."""
    a = _units(q) / q
    rng = np.random.default_rng(q)
    # relative offsets from each point's frontier, on both sides of it
    factors = [0.5, 1 - 1e-8, 1 - 1e-10, 1.0, 1 + 1e-10, 2.0]
    for sigma in (0.5, 0.75, 1.3):
        s = sigma + 1j * np.array([-50, -3, 0, 17, 50])
        # near each point's tolerance frontier: the error it achieves at a loose tol
        frontier = np.array([_full(z, a, 1e-6)[1] for z in s.tolist()])
        for f in [np.full(len(s), 2.0), np.ones(len(s)),
                  *rng.choice(factors, size=(4, len(s)))]:
            for z, t in zip(s.tolist(), (frontier * f).tolist()):
                full, full_err = _full(z, a, t)
                if full_err > t:
                    with pytest.raises(PrecisionError) as exc:
                        hurwitz_zeta_vector(z, a, t)
                    assert exc.value.s == z and exc.value.tol == t
                    assert exc.value.best == specfun.ComplexApprox(complex(full[0]), full_err)
                    continue
                vals, err = hurwitz_zeta_vector(z, a, t)
                assert np.array_equal(vals, full) and err == full_err, z


def test_scalar_vector_memory_stays_within_the_tile_budget():
    """10^4 a-values at s = 1/2 + 200i: the work arrays are column tiles of
    HZ_BLOCK entries, not one (rows, 10^4) array (61.7 MiB untiled)."""
    import tracemalloc

    a = np.arange(1, 10 ** 4 + 1) / 10 ** 4
    tracemalloc.start()
    try:
        hurwitz_zeta_vector(0.5 + 200j, a, 1e-8)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 4.0, peak


@pytest.mark.parametrize("s", [0.5 + 200j, 0.5 + 30j, 0.75 + 3j])
@pytest.mark.parametrize("extra", [1, 2])
def test_balanced_tiles_equal_the_untiled_block(s, extra):
    """extra column tiles' worth of a-values plus one: the tiles are balanced,
    so none is one column wide, and the values and error equal one untiled
    _em_block call bit for bit (a one-column tile moves the last bits)."""
    tol = 1e-8
    n_rows = specfun._em_choose(s, 0.5, tol)[0]
    width = specfun.HZ_BLOCK // min(n_rows, specfun.EM_ROWS)
    n = extra * width + 1
    a = np.linspace(0.5, 1.0, n)
    vals, err = hurwitz_zeta_vector(s, a, tol)
    full, full_err = _full(s, a, tol)
    assert np.array_equal(vals, full) and err == full_err


def _grid_route(monkeypatch, s, q, tol):
    """(evaluate, route) of hurwitz_grid_runs for the one point s over the units mod prime q."""
    routes = []
    for name in ("_taylor", "_direct"):
        fn = getattr(specfun, name)
        monkeypatch.setattr(specfun, name, lambda *a, _fn=fn, _name=name: routes.append(_name) or _fn(*a))
    ((i, j, evaluate),) = specfun.hurwitz_grid_runs([s], q, q - 1, [tol])
    return evaluate, routes


@pytest.mark.parametrize("t", [0.0, 35.0, 50.0, 300.0])
def test_unit_grid_entries_within_their_own_bounds(monkeypatch, t):
    """zeta(s, 1 + a/q) at q = 100003 (the Taylor route) against mpmath on 67
    sampled entries, the extremes and a cell edge among them: each deviation
    stays within that entry's own bound, and every bound under the ceiling.
    At t = 300 the centres take K = 23 rungs over N > EM_ROWS rows, and the
    float64 Horner rounding of the larger coefficients puts the bounds near
    1.7e-13."""
    q, s = 100003, complex(0.5, t)
    tol = 1e-10 * q ** 0.5 / (4 * (q - 1))  # the L path's per-entry target at tol 1e-10
    evaluate, routes = _grid_route(monkeypatch, s, q, tol)
    assert routes == ["_taylor"]
    ceiling = 2e-13 if t > 50 else 1e-13
    rng = np.random.default_rng(int(t) + 1)
    a = np.concatenate([[1, q - 1, q // specfun.TAYLOR_J], rng.integers(2, q - 1, 64)])
    vals, errs = evaluate(a)
    assert vals.shape == errs.shape == (1, len(a))
    for ai, v, e in zip(a.tolist(), vals[0], errs[0]):
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag), 1 + mp.mpf(ai) / q))
        assert abs(v - ref) <= e, (ai, abs(v - ref), e)
        assert e < ceiling


def _mp_exact(z):
    """A longdouble complex as an mpmath number, exactly: float64 head plus tail."""
    parts = []
    for x in (z.real, z.imag):
        head = float(x)
        parts.append(mp.mpf(head) + mp.mpf(float(x - head)))
    return mp.mpc(*parts)


@pytest.mark.parametrize("t", [0.0, 50.0])
def test_taylor_centre_rungs_within_their_own_bounds(monkeypatch, t):
    """The Taylor centre table zeta(s + k, c_j) at q = 100003, each rung k
    reached from one complex power per row by real multiplications: rungs 0
    and K - 1 at 8 of the J centres against mpmath, each within its own bound."""
    q, s = 100003, complex(0.5, t)
    tol = 1e-10 * q ** 0.5 / (4 * (q - 1))
    tables, fill = [], specfun._em_fill

    def recording(*args):
        tables.append((args, fill(*args)))
        return tables[-1][1]

    monkeypatch.setattr(specfun, "_em_fill", recording)
    _, routes = _grid_route(monkeypatch, s, q, tol)
    assert routes == ["_taylor"]
    (((pts, nmb, centres), (vals, errs)),) = tables
    k_terms = len(nmb[0])
    assert vals.shape == errs.shape == (1, k_terms, specfun.TAYLOR_J) and k_terms >= 6
    for k in (0, k_terms - 1):
        for j in np.linspace(0, specfun.TAYLOR_J - 1, 8).astype(int).tolist():
            c = 1 + (mp.mpf(j) + mp.mpf(0.5)) / specfun.TAYLOR_J
            assert centres[j] == np.longdouble(1) + (np.longdouble(j) + 0.5) / specfun.TAYLOR_J
            ref = mp.zeta(mp.mpc(s.real + k, t), c)
            dev = float(abs(_mp_exact(vals[0, k, j]) - ref))
            assert dev <= errs[0, k, j], (k, j, dev, errs[0, k, j])


def _taylor_tables(monkeypatch, s, q):
    """(evaluate, coef, centre part, tail) of the one Taylor point s over the
    units mod prime q at the L path's per-entry target: coef[k, j] = (-1)^k
    (s)_k/k! zeta(s + k, c_j) in (c)longdouble, rebuilt from the recorded
    centre table as _taylor builds it, and the centre part |(s)_k/k!|
    err_k(c_j) of each coefficient's charge."""
    tol = 1e-10 * q ** 0.5 / (4 * (q - 1))
    calls, fill = {}, specfun._em_fill
    monkeypatch.setattr(specfun, "_em_fill", lambda *a: calls.setdefault("fill", (a, fill(*a)))[1])
    taylor = specfun._taylor
    monkeypatch.setattr(specfun, "_taylor", lambda *a: taylor(*calls.setdefault("taylor", a)))
    ((_, _, evaluate),) = specfun.hurwitz_grid_runs([s], q, q - 1, [tol])
    (pts, _, _), (zeta, zerr) = calls["fill"]
    _, k_terms, tail, _, _ = calls["taylor"]
    ks = np.arange(k_terms)
    r = np.cumprod(np.concatenate([[1], -(pts[0] + ks[:-1].astype(np.longdouble)) / ks[1:]]))[:, None]
    return evaluate, r * zeta[0], np.abs(r).astype(float) * zerr[0], tail


def _offsets(a, q):
    """(centre j, float64 offset d) of the integers a, as the Taylor route rounds d."""
    j = a * specfun.TAYLOR_J // q
    return j, (2 * specfun.TAYLOR_J * a - (2 * j + 1) * q) / (2 * specfun.TAYLOR_J * q)


@pytest.mark.parametrize("t", [0.0, 50.0, 300.0])
def test_taylor_horner_rounding_within_its_charge(monkeypatch, t):
    """The float64 Horner sum at q = 100003, rebuilt exactly in mpmath at the
    16 units whose |d| comes nearest 1/(2J), the bin edges, where the charge
    delta^k is reached.  From the same float64 coefficients and offsets the
    deviation is the Horner rounding alone; from the (c)longdouble
    coefficients and the exact offsets it adds C_k's and d's rounding.  Both
    stay within the rounding share (2K + 5) eps sum_k |C_k| (1/(2J))^k of
    the per-centre charge, itself below each entry's returned error E_j."""
    q, s = 100003, complex(0.5, t)
    evaluate, coef, _, _ = _taylor_tables(monkeypatch, s, q)
    k_terms = len(coef)
    delta = 0.5 / specfun.TAYLOR_J
    j, d = _offsets(np.arange(1, q), q)
    edge = np.argsort(np.abs(d), kind="stable")[-16:]
    a, j, d = edge + 1, j[edge], d[edge]
    assert np.abs(d).min() > (1 - 1e-3) * delta
    vals, errs = evaluate(a)
    c64 = coef.astype(vals.dtype)
    share = ((2 * k_terms + 5) * specfun._EPS * np.abs(coef).astype(float)
             * delta ** np.arange(k_terms)[:, None]).sum(axis=0)
    for ai, jj, dd, v, e in zip(a.tolist(), j.tolist(), d.tolist(), vals[0], errs[0]):
        exact_d = mp.mpf(2 * specfun.TAYLOR_J * ai - (2 * jj + 1) * q) / (2 * specfun.TAYLOR_J * q)
        same = sum(mp.mpc(complex(c64[k, jj])) * mp.mpf(dd) ** k for k in range(k_terms))
        full = sum(_mp_exact(coef[k, jj]) * exact_d ** k for k in range(k_terms))
        for ref in (same, full):
            dev = float(abs(mp.mpc(complex(v)) - ref))
            assert dev <= share[jj] < e, (ai, dev, share[jj], e)


@pytest.mark.parametrize("q", [10007, 100003])
@pytest.mark.parametrize("t", [0.0, 20.0, 50.0])
def test_taylor_values_match_the_per_entry_horner(monkeypatch, q, t):
    """The Taylor route against a per-entry evaluator written here, the
    value Horner sum with its error Horner sum in |d|: over every unit the
    values equal it bit for bit, and no returned error is below that entry's
    own bound, so the per-centre charge drops no entry's charge, while the
    largest error stays within 1e-4 of the largest per-entry bound."""
    s = complex(0.5, t)
    evaluate, coef, centre, tail = _taylor_tables(monkeypatch, s, q)
    k_terms = len(coef)
    bound = ((centre + (2 * k_terms + 5) * specfun._EPS * np.abs(coef).astype(float))
             * (1 + 4 * k_terms * specfun._EPS))
    units = np.arange(1, q)
    vals, errs = evaluate(units)
    c64 = coef.astype(vals.dtype)
    j, d = _offsets(units, q)
    ref, ref_err = c64[-1][j], bound[-1][j]
    for k in range(k_terms - 2, -1, -1):
        ref *= d
        ref += c64[k][j]
        ref_err *= np.abs(d)
        ref_err += bound[k][j]
    assert vals.shape == errs.shape == (1, q - 1)
    assert np.array_equal(vals[0], ref)
    assert np.all(errs[0] >= ref_err + tail)
    # each centre's worst entry sits near |d| = 1/(2J)
    assert errs[0].max() <= (1 + 1e-4) * (ref_err + tail).max()


def test_unit_grid_direct_route_within_bounds(monkeypatch):
    """At small phi the grid takes direct Euler-Maclaurin at the float64
    argument 1 + a/q; the bound covers that argument's rounding too."""
    q, s = 29, 0.5 - 35j
    evaluate, routes = _grid_route(monkeypatch, s, q, 1e-12)
    assert routes == ["_direct"]
    a = np.arange(1, q)
    vals, errs = evaluate(a)
    for ai, v, e in zip(a.tolist(), vals[0], errs[0]):
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag), 1 + mp.mpf(ai) / q))
        assert abs(v - ref) <= e, (ai, abs(v - ref), e)


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(-0.5, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.5, tol=0.0)


def test_unreachable_tol_raises_with_best_effort():
    with pytest.raises(PrecisionError) as exc:
        hurwitz_zeta(2.0, 1.0, tol=1e-40)
    best = exc.value.best
    assert best is not None
    assert abs(best.value - math.pi ** 2 / 6) < 1e-12


# ---------------------------------------------------------------------------
# log Gamma


def test_gamma_known_values():
    assert cmath.exp(log_gamma(0.5).value) == pytest.approx(math.sqrt(math.pi), abs=1e-13)
    assert cmath.exp(log_gamma(1.0).value) == pytest.approx(1.0, abs=1e-13)
    assert cmath.exp(log_gamma(5.0).value) == pytest.approx(24.0, rel=1e-14)
    # frozen from mpmath.gamma(1/4)
    assert gamma_fn(0.25).value == pytest.approx(3.62560990822190831193068515587, rel=1e-13)


def test_gamma_modulus_on_critical_line():
    # |Gamma(1/2 + it)|^2 = pi / cosh(pi t)
    for t in [0.3, 1.0, 3.0, 10.0, 25.0]:
        g = gamma_fn(0.5 + 1j * t)
        assert abs(g.value) ** 2 == pytest.approx(math.pi / math.cosh(math.pi * t), rel=1e-11)


def test_recurrence():
    for s in [0.7 + 3j, 0.1 - 9j, 2.4 + 0.3j]:
        lhs = log_gamma(s + 1).value
        rhs = log_gamma(s).value + cmath.log(s)
        assert abs(lhs - rhs) < 1e-12


def test_reflection_grid():
    # Gamma(s) Gamma(1-s) sin(pi s) / pi = 1 on 0 < Re s < 1, |Im s| <= 30
    for sigma in [0.2, 0.5, 0.8]:
        for t in [0.1, 1.0, 5.0, 17.3, 30.0]:
            s = complex(sigma, t)
            total = log_gamma(s).value + log_gamma(1 - s).value
            val = cmath.exp(total) * cmath.sin(math.pi * s) / math.pi
            assert abs(val - 1) < 1e-9, (s, val)


def test_log_gamma_error_bound_honest():
    rng = np.random.default_rng(77)
    for _ in range(50):
        s = complex(rng.uniform(0.05, 12.0), rng.uniform(-35, 35))
        lg = log_gamma(s)
        ref = complex(mp.loggamma(mp.mpc(s.real, s.imag)))
        assert abs(lg.value - ref) <= lg.abs_error, s


def test_log_gamma_array_against_mpmath():
    """Re s in {0.25, 3, 12} with |Im s| <= 80: the shift branch runs for some
    entries and not others."""
    t = np.linspace(-80, 80, 33)
    s = (np.array([0.25, 3.0, 12.0])[:, None] + 1j * t).ravel()
    lg = log_gamma(s)
    assert lg.value.shape == lg.abs_error.shape == s.shape
    for z, v, err in zip(s.tolist(), lg.value.tolist(), lg.abs_error.tolist()):
        assert abs(v - complex(mp.loggamma(mp.mpc(z.real, z.imag)))) <= err, z
        one = log_gamma(z)
        assert type(one.value) is complex and type(one.abs_error) is float
        assert abs(one.value - v) <= one.abs_error
    g = gamma_fn(s[:5])
    assert g.value.shape == (5,) and type(gamma_fn(0.25).value) is complex


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(-1.0)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-0.5 + 2j)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0, -0.5 + 2j]))


def test_tol_below_the_float_floor_costs_what_the_floor_does(em_rows):
    """Every entry's float term is at least 20 eps (N >= 12 rows: depth >= 11
    + 1 + 8 times the n = 0 term, >= 1), so no tol below it certifies: (N, M)
    is chosen for 20 eps, and hurwitz_zeta(0.5, 0.5, tol=1e-300) sums the rows
    a call at the floor sums (it took N = 266,093,898 and 37 s), then refuses
    naming 1e-300."""
    floor = 20 * np.finfo(float).eps
    with pytest.raises(PrecisionError):
        hurwitz_zeta(0.5, 0.5, tol=floor)
    at_floor = list(em_rows)
    em_rows.clear()
    with pytest.raises(PrecisionError, match="requested tol 1e-300 unreachable") as e:
        hurwitz_zeta(0.5, 0.5, tol=1e-300)
    assert em_rows == at_floor and e.value.tol == 1e-300


@pytest.mark.parametrize("s", [0.5, 2.0, 0.5 + 14j, 0.9 - 40j, 3 + 50j])
def test_no_hurwitz_error_is_below_the_float_floor(s):
    """The floor is a true lower bound: at any a in (0, 1] a tol just under
    20 eps is refused, and the error reported with the refusal is at least
    the floor, so a tol under it never could certify."""
    floor = 20 * np.finfo(float).eps
    a = np.array([1e-3, 0.25, 0.5, 1.0])
    with pytest.raises(PrecisionError) as e:
        hurwitz_zeta_vector(s, a, tol=0.99 * floor)
    assert e.value.best.abs_error >= floor
    for x in a:
        with pytest.raises(PrecisionError) as e:
            hurwitz_zeta(s, float(x), tol=0.99 * floor)
        assert e.value.best.abs_error >= floor


@pytest.mark.parametrize("s", [0.5, 2.0, 0.5 + 14j, 0.9 - 40j, 3 + 50j])
def test_no_hurwitz_error_is_below_20_eps(s):
    """The floor hurwitz_zeta_vector chooses (N, M) for is 20 eps: N >= 12
    rows give depth >= 11 + 1 + 8 times the n = 0 term, >= 1.  An entry
    below it would make a certifiable tol refuse."""
    a = np.array([1e-3, 0.25, 0.5, 1.0])
    with pytest.raises(PrecisionError) as e:
        hurwitz_zeta_vector(s, a, tol=1e-300)
    assert e.value.best.abs_error >= 20 * np.finfo(float).eps
    for x in a:
        with pytest.raises(PrecisionError) as e:
            hurwitz_zeta(s, float(x), tol=1e-300)
        assert e.value.best.abs_error >= 20 * np.finfo(float).eps
