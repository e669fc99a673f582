"""Bound shapes: pair kernels, W, regimes, product bound, cosine sums."""

import math

import numpy as np
import pytest

from thetamoments.bounds import (
    CLOSE_THRESHOLD,
    ShiftTuple,
    as_shift_tuple,
    bound_profile,
    cos_sum_check,
    cutoff_exponent,
    large_value_bound,
    pair_factor,
    pair_log_weight,
    shifted_moment_bound,
    variance_parameter,
)
from thetamoments.errors import DomainError
from thetamoments.numtheory import euler_phi


# ---------------------------------------------------------------------------
# ShiftTuple


def test_shift_tuple_sorts_and_validates():
    t = ShiftTuple((0.7, -0.3, 0.0, 0.1))
    assert t.shifts == (-0.3, 0.0, 0.1, 0.7)
    assert t.k == 2 and len(t) == 4
    assert t[0] == -0.3 and list(t)[-1] == 0.7
    with pytest.raises(DomainError):
        ShiftTuple((0.1,))
    with pytest.raises(DomainError):
        ShiftTuple((0.1, 0.2, 0.3))
    with pytest.raises(DomainError):
        ShiftTuple((0.0, math.inf))


def test_shift_tuple_pairs_and_negated():
    t = ShiftTuple((0.0, 0.5))
    assert t.pairs() == [(0, 1, 0.5)]
    t4 = ShiftTuple((0.0, 0.1, 0.2, 0.4))
    assert len(t4.pairs()) == 6  # C(4, 2)
    assert all(d == abs(t4[i] - t4[j]) for i, j, d in t4.pairs())
    assert t4.negated().shifts == (-0.4, -0.2, -0.1, 0.0)
    assert ShiftTuple.is_close(CLOSE_THRESHOLD)
    assert not ShiftTuple.is_close(CLOSE_THRESHOLD * 1.0001)
    assert as_shift_tuple(t) is t
    assert as_shift_tuple([0.5, 0.0]).shifts == (0.0, 0.5)


# ---------------------------------------------------------------------------
# pair kernels


def test_pair_log_weight_branches():
    lq = math.log(100)
    # coincident: loglog q
    assert pair_log_weight(0.3, 0.3, 100) == pytest.approx(math.log(lq))
    # close but separated, 1/D above log q: min saturates at log q
    assert pair_log_weight(0.0, 0.005, 100) == pytest.approx(math.log(lq))
    # close with 1/D below log q needs log q > 100, i.e. astronomical q
    assert pair_log_weight(0.0, 0.01, 1e50) == pytest.approx(math.log(100.0))
    # far: logloglog q
    assert pair_log_weight(0.0, 2.0, 100) == pytest.approx(math.log(math.log(lq)))


@pytest.mark.parametrize("q", [17, 100, 3001, 1e50])
@pytest.mark.parametrize("d", [0.0, 0.003, 0.01, 0.011, 0.5, 2.0])
def test_factor_is_exp_half_weight(q, d):
    f = pair_log_weight(0.0, d, q)
    e = pair_factor(0.0, d, q)
    assert e == pytest.approx(math.exp(f / 2), rel=1e-12)


def test_kernel_q_floors():
    with pytest.raises(DomainError):
        pair_log_weight(0.0, 1.0, 16)
    pair_log_weight(0.0, 1.0, 17)
    with pytest.raises(DomainError):
        pair_factor(0.0, 1.0, 15)
    pair_factor(0.0, 1.0, 16)


# ---------------------------------------------------------------------------
# W and the cutoff exponent


def test_variance_parameter_closed_forms():
    q = 1009
    llq = math.log(math.log(q))
    # equal pair (t, t): W = 2 llq + 2 llq
    assert variance_parameter((0.3, 0.3), q) == pytest.approx(4 * llq)
    # far pair: W = 2 llq + 2 logloglog q
    expect = 2 * llq + 2 * math.log(llq)
    assert variance_parameter((0.0, 5.0), q) == pytest.approx(expect)
    # 2k = 4 with all pairs far
    t = (0.0, 1.0, 2.0, 4.0)
    expect = 4 * llq + 2 * 6 * math.log(llq)
    assert variance_parameter(t, q) == pytest.approx(expect)


def test_cutoff_exponent_branches_and_continuity():
    # middle branch is live only when log W > 4k
    w, k = 100.0, 1
    lw = math.log(w)
    assert cutoff_exponent(50.0, w, k) == pytest.approx(lw / 2)
    assert cutoff_exponent(110.0, w, k) == pytest.approx(w * lw / 220)
    assert cutoff_exponent(1e6, w, k) == 2 * k
    # continuity at both knots
    for knot in (w, w * lw / (4 * k)):
        lo = cutoff_exponent(knot * (1 - 1e-12), w, k)
        hi = cutoff_exponent(knot * (1 + 1e-12), w, k)
        assert lo == pytest.approx(hi, rel=1e-9)
    # small W: the middle range is empty, the exponent jumps to 2k past W
    assert cutoff_exponent(21.0, 20.0, 2) == 4
    with pytest.raises(DomainError):
        cutoff_exponent(-1.0, w, k)
    with pytest.raises(DomainError):
        cutoff_exponent(1.0, 2.0, k)  # W <= e


# ---------------------------------------------------------------------------
# large-value bound


def test_large_value_bound_regimes():
    # log W > 4k so the middle regime is non-empty: W log W / 4 ~ 87.6
    q, w, k = 3001, 80.0, 1
    lw = math.log(w)
    phi = euler_phi(q)

    r1 = large_value_bound(q, 10.0, w, k)
    assert r1.regime == "I"
    expect = phi * (10 / math.sqrt(w)) * math.exp(-(100 / w) * (1 - 18 / (5 * lw)) ** 2)
    assert r1.value == pytest.approx(expect)

    v = 85.0
    r2 = large_value_bound(q, v, w, k)
    assert r2.regime == "II"
    expect = phi * (v / math.sqrt(w)) * math.exp(
        -(v * v / w) * (1 - 18 * v / (5 * w * lw)) ** 2)
    assert r2.value == pytest.approx(expect)

    v = 100.0
    assert v >= w * lw / (4 * k)
    r3 = large_value_bound(q, v, w, k)
    assert r3.regime == "III"
    assert r3.value == pytest.approx(phi * math.exp(-(v / 801) * math.log(v)))


def test_large_value_bound_continuous_at_first_knot():
    q, w, k = 3001, 80.0, 1
    lo = large_value_bound(q, w * (1 - 1e-12), w, k).value
    hi = large_value_bound(q, w * (1 + 1e-12), w, k).value
    assert lo == pytest.approx(hi, rel=1e-8)


def test_large_value_bound_domain():
    with pytest.raises(DomainError):
        large_value_bound(16, 8.0, 12.0, 1)  # q floor
    with pytest.raises(DomainError):
        large_value_bound(3001, 8.0, 2.0, 1)  # W <= e
    floor = 4 * math.sqrt(math.log(math.log(3001)))
    with pytest.raises(DomainError):
        large_value_bound(3001, floor * 0.99, 12.0, 1)
    large_value_bound(3001, floor * 1.01, 12.0, 1)


# ---------------------------------------------------------------------------
# product bound, growth shape, profile


def test_shifted_moment_bound_closed_form():
    q = 103
    lq = math.log(q)
    # coincident pair: phi(q) lq^{0.6} sqrt(lq)
    expect = euler_phi(q) * lq ** 0.6 * math.sqrt(lq)
    assert shifted_moment_bound(q, (0.0, 0.0)) == pytest.approx(expect)
    # far pair with eps = 0.25
    expect = euler_phi(q) * lq ** 0.75 * math.sqrt(math.log(lq))
    assert shifted_moment_bound(q, (0.0, 3.0), eps=0.25) == pytest.approx(expect)
    with pytest.raises(DomainError):
        shifted_moment_bound(15, (0.0, 0.0))


def test_bound_profile_consistency():
    q, t = 1009, (0.0, 0.004, 1.5, -2.0)
    prof = bound_profile(q, t)
    assert prof.k == 2 and len(prof.pairs) == 6
    assert prof.w == pytest.approx(variance_parameter(t, q))
    assert prof.moment_bound == pytest.approx(shifted_moment_bound(q, t, eps=0.1))
    st = as_shift_tuple(t)
    for p in prof.pairs:
        assert p.delta == abs(st[p.i] - st[p.j])
        assert p.close == (p.delta <= CLOSE_THRESHOLD)
        assert p.factor == pytest.approx(math.exp(p.log_weight / 2))


# ---------------------------------------------------------------------------
# prime cosine sums


def test_cos_sum_mertens_margin():
    """At a = 0 the margin lhs - loglog z approaches the Mertens constant."""
    lhs, rhs, margin = cos_sum_check(10 ** 6, 0.0)
    assert rhs == pytest.approx(math.log(math.log(10 ** 6)))
    assert abs(margin - 0.2615) < 0.02


def test_cos_sum_branches():
    z = 10 ** 4
    # close a != 0: rhs = log(min(1/a, log z)); 1/a > log z here
    _, rhs, _ = cos_sum_check(z, 0.005)
    assert rhs == pytest.approx(math.log(math.log(z)))
    # far a: rhs = loglog(2 + |a|)
    _, rhs, _ = cos_sum_check(z, 40.0)
    assert rhs == pytest.approx(math.log(math.log(42.0)))
    lhs_pos, _, _ = cos_sum_check(z, 3.0)
    lhs_neg, _, _ = cos_sum_check(z, -3.0)
    assert lhs_pos == lhs_neg  # even in a
    with pytest.raises(DomainError):
        cos_sum_check(2, 0.0)


def test_cos_sum_oscillation_cancels():
    """For sizable a the oscillating sum stays well below the a = 0 sum."""
    lhs0, _, _ = cos_sum_check(10 ** 5, 0.0)
    lhs3, _, _ = cos_sum_check(10 ** 5, 3.0)
    assert lhs3 < lhs0 - 1.0
