"""Hurwitz zeta and log-gamma: goldens, identities, honest error bounds."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from thetamoments.errors import DomainError, PoleError, PrecisionError
from thetamoments.specfun import (
    ComplexApprox,
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_vector,
    log_gamma,
)

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# ComplexApprox arithmetic


def test_complex_approx_propagation():
    a = ComplexApprox(3 + 4j, 1e-10)
    b = ComplexApprox(2 - 1j, 2e-10)
    assert (a + b).value == 5 + 3j
    assert (a + b).abs_error == pytest.approx(3e-10)
    assert (a - b).abs_error == pytest.approx(3e-10)
    prod = a * b
    assert prod.value == (3 + 4j) * (2 - 1j)
    # |a| * eb + |b| * ea (+ cross term)
    assert prod.abs_error >= 5 * 2e-10 + abs(2 - 1j) * 1e-10
    assert (2 * a).value == 6 + 8j
    assert a.conjugate().value == 3 - 4j
    mag, err = a.abs_value()
    assert mag == 5 and err == 1e-10


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


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(-1.0)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-0.5 + 2j)
