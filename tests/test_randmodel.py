"""Steinhaus model: multiplicativity, replay, moment identities, determinism."""

import json
import math

import numpy as np
import pytest

from thetamoments.errors import DomainError
from thetamoments.randmodel import (
    SAMPLE_BLOCK,
    SteinhausSample,
    _model_thetas,
    model_moment,
    model_theta,
    sample,
)
from thetamoments.summation import chunked_sum
from thetamoments.theta import truncation_length


def test_sample_unit_modulus_and_multiplicative():
    s = sample(200, 42)
    assert np.allclose(np.abs(s.values[1:]), 1.0, atol=1e-14)
    assert s.value(1) == 1.0
    for m, n in [(2, 2), (2, 3), (3, 5), (2, 7), (6, 7)]:
        assert s.value(m * n) == pytest.approx(s.value(m) * s.value(n), abs=1e-13)
    assert s.value(8) == pytest.approx(s.value(2) ** 3, abs=1e-13)
    assert len(s.primes) == 46  # pi(200)
    assert np.allclose(np.abs(s.prime_values), 1.0)


def test_sample_replay_and_seed_sensitivity():
    a = sample(100, 7)
    b = sample(100, 7)
    c = sample(100, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_domain():
    with pytest.raises(DomainError):
        sample(1, 0)
    s = sample(10, 0)
    with pytest.raises(DomainError):
        s.value(11)
    with pytest.raises(DomainError):
        s.value(0)


def test_model_theta_degenerate_all_ones():
    """f = 1 collapses to the unit-coefficient series sum n^eta e^{-pi n^2/q}."""
    q, eta = 101, 0
    n = truncation_length(q, 1.0, eta, 1e-12)
    ones = SteinhausSample(n=n, seed=0, primes=np.array([]),
                           prime_values=np.array([]),
                           values=np.concatenate([[0.0], np.ones(n)]).astype(complex))
    got = model_theta(q, ones, eta=eta)
    direct = sum(math.exp(-math.pi * m * m / q) for m in range(1, n + 1))
    assert got == pytest.approx(direct, abs=1e-12)
    assert abs(got.imag) < 1e-14


def test_model_theta_support_check():
    q = 101
    n = truncation_length(q, 1.0, 0, 1e-12)
    small = sample(n - 1, 3)
    with pytest.raises(DomainError):
        model_theta(q, small)
    with pytest.raises(DomainError):
        model_theta(q, sample(n, 3), eta=2)


def test_second_moment_identity_monte_carlo():
    """E |model_theta|^2 = sum w_n^2 exactly; the fixed-seed run lands within
    3 standard errors and inside the [0.9, 1.1] ratio window."""
    q = 101
    est = model_moment(q, 1, 10 ** 4, seed=7)
    exact = est.sum_w2
    assert abs(est.estimate - exact) < 3 * est.std_error
    assert 0.9 < est.estimate / exact < 1.1
    assert est.estimate >= 0 and est.std_error > 0


def test_model_moment_matches_manual_samples():
    """Per-sample seeds are seed + index on the shared truncation support."""
    q, k, s0, count = 101, 1, 31, 100
    n = truncation_length(q, 1.0, 0, 1e-12)
    manual = [abs(model_theta(q, sample(n, s0 + i))) ** (2 * k) for i in range(count)]
    est = model_moment(q, k, count, seed=s0)
    assert est.estimate == pytest.approx(float(np.mean(manual)), rel=1e-13)
    assert est.samples == count and est.seed == s0


def test_model_moment_deterministic_across_workers(cli_at_workers):
    """Repeat calls agree bit for bit, and so do rand-model payloads at any
    --workers."""
    a = model_moment(101, 2, 300, seed=11)
    b = model_moment(101, 2, 300, seed=11)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error
    assert a.median_of_means == b.median_of_means
    one, five = (json.loads(out)["payload"] for out in cli_at_workers(
        "rand-model", "--q", "101", "--k", "2", "--samples", "300", "--seed", "11"))
    assert one == five
    assert (one["estimate"], one["std_error"]) == (a.estimate, a.std_error)


def test_model_moment_normalization():
    q, k = 101, 2
    est = model_moment(q, k, 100, seed=1)
    assert est.normalization == pytest.approx(q * math.log(q))
    assert est.ratio == pytest.approx(est.estimate / est.normalization)
    assert est.median_of_means > 0


def test_off_diagonal_correlations_vanish():
    """E f(m) conj(f(n)) = [m = n]: empirical off-diagonal mass is small."""
    count = 2000
    pairs = [(6, 10), (4, 9), (2, 3)]
    acc = {p: 0j for p in pairs}
    for i in range(count):
        s = sample(16, 5000 + i)
        for m, n in pairs:
            acc[(m, n)] += s.value(m) * np.conj(s.value(n))
    for p, total in acc.items():
        assert abs(total) / count < 4 / math.sqrt(count)


def test_model_moment_domain():
    with pytest.raises(DomainError):
        model_moment(2, 1, 100, seed=0)
    with pytest.raises(DomainError):
        model_moment(101, 0, 100, seed=0)
    with pytest.raises(DomainError):
        model_moment(101, 1, 99, seed=0)


def test_model_moment_across_block_boundary_matches_model_theta():
    """Blocked draws reproduce model_theta(q, sample(N, seed + i)) sample by
    sample, including the three samples of the second block."""
    q, k, seed = 101, 2, 17
    samples = SAMPLE_BLOCK + 3
    n = truncation_length(q, 1.0, 0, 1e-12)
    est = model_moment(q, k, samples, seed)
    one_by_one = [model_theta(q, sample(max(n, 2), seed + i)) for i in range(samples)]
    assert _model_thetas(est.weights, samples, seed).tolist() == one_by_one
    powers = np.array([abs(z) ** (2 * k) for z in one_by_one])
    assert est.estimate == float(chunked_sum(powers)) / samples


def test_model_moment_empty_truncation():
    """An eps so loose that the series truncates to no terms gives zero."""
    est = model_moment(3, 1, 100, 1, eps=10.0)
    assert est.weights.size == 0 and est.estimate == 0.0
