"""Steinhaus model: multiplicativity, replay, moment identities, determinism."""

import json
import math

import numpy as np
import pytest

from thetamoments import build_group, randmodel
from thetamoments.errors import DomainError
from thetamoments.numtheory import factorize, sieve
from thetamoments.randmodel import (
    SAMPLE_BLOCK,
    SteinhausSample,
    _draw,
    _median,
    _model_thetas,
    _uniform_angles,
    model_moment,
    model_theta,
    sample,
)
from thetamoments.summation import chunked_sum
from thetamoments.theta import theta_series, theta_value


def test_sample_unit_modulus_and_multiplicative():
    s = sample(200, 42)
    assert np.allclose(np.abs(s.values[1:]), 1.0, atol=1e-14)
    assert s.value(1) == 1.0
    for m, n in [(2, 2), (2, 3), (3, 5), (2, 7), (6, 7)]:
        assert s.value(m * n) == pytest.approx(s.value(m) * s.value(n), abs=1e-13)
    assert s.value(8) == pytest.approx(s.value(2) ** 3, abs=1e-13)
    assert len(s.primes) == 46  # pi(200)
    assert np.allclose(np.abs(s.prime_values), 1.0)


@pytest.mark.parametrize("n", [2, 29, 200])
def test_block_rows_equal_one_row_draws_bit_for_bit(n):
    """Row r of a block is sample(N, seeds[r]) bit for bit at any block size."""
    primes = sieve(n).primes_in(2, n)
    for count in (1, 3, 17, 64):
        seeds = range(900 + count, 900 + 2 * count)
        block = _draw(n, primes, seeds)
        assert block.flags.c_contiguous and block.shape == (count, n + 1)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, sample(n, seed).values)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 1])
def test_steinhaus_values_at_large_support(seed):
    """At N = 1000 each f(m) is within 12 Omega(m) eps of e^{i theta_m},
    theta_m the math.fsum of m's prime angles with multiplicity, and so is
    |f(m)| - 1.  Per prime factor the cos/sin rounding is below sqrt(2) eps
    and one complex product below sqrt(5) eps; the reference's rounded
    angle sum, |theta_m| < 2 pi Omega(m), is off by below 2 pi Omega(m) eps."""
    n, eps = 1000, np.finfo(float).eps
    s = sample(n, seed)
    angle = dict(zip(s.primes.tolist(), _uniform_angles([seed], len(s.primes))[0].tolist()))
    for m in range(2, n + 1):
        parts = [angle[p] for p, e in factorize(m).factors for _ in range(e)]
        theta = math.fsum(parts)
        bound = 12 * len(parts) * eps
        assert abs(s.values[m] - complex(math.cos(theta), math.sin(theta))) <= bound, m
        assert abs(abs(s.values[m]) - 1.0) <= bound, m


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


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed must be >= 0; got -1"):
        sample(100, -1)
    with pytest.raises(DomainError, match="seed must be >= 0; got -50"):
        model_moment(101, 1, 100, seed=-50)
    # only the first seed is checked: seed + i grows from there
    assert model_moment(101, 1, 100, seed=0).samples == 100


def _numpy_angles(seeds, size):
    """The reference stream: one live numpy generator per seed."""
    return np.array([np.random.default_rng(s).uniform(0.0, 2 * math.pi, size)
                     for s in seeds])


# seeds of 1 to 7 little-endian uint32 words, with word-count edges
_MIXED_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96 + 5,
                2 ** 128 - 1, 2 ** 128, 2 ** 160 + 3, 2 ** 192 + 7, 2 ** 223, 3 ** 140]


@pytest.mark.parametrize("size", [1, 10, 46])
def test_uniform_angles_match_numpy_bit_for_bit(size):
    """The vectorised SeedSequence/PCG64 kernel is default_rng's stream: on
    one block of 1- to 7-word seeds, and through sample() (46 = pi(200))."""
    assert {-(-s.bit_length() // 32) or 1 for s in _MIXED_SEEDS} == set(range(1, 8))
    assert np.array_equal(_uniform_angles(_MIXED_SEEDS, size),
                          _numpy_angles(_MIXED_SEEDS, size))
    n = {1: 2, 10: 29, 46: 200}[size]
    for seed in (0, 7, 2 ** 64 + 1):
        s = sample(n, seed)
        assert len(s.primes) == size
        assert np.array_equal(s.prime_values, np.exp(1j * _numpy_angles([seed], size)[0]))


def test_model_moment_draws_numpy_streams_across_edges(monkeypatch):
    """A run of SAMPLE_BLOCK + 3 samples from 2^32 - 2000 crosses a block edge
    and the 1- to 2-word seed edge; the kernel's rows are default_rng's, and
    the estimate equals the one drawn from live numpy generators."""
    seed, samples = 2 ** 32 - 2000, SAMPLE_BLOCK + 3
    drawn = []

    def spy(seeds, size):
        drawn.append((list(seeds), _uniform_angles(seeds, size)))
        return drawn[-1][1]

    monkeypatch.setattr(randmodel, "_uniform_angles", spy)
    est = model_moment(101, 2, samples, seed)
    assert [s for seeds, _ in drawn for s in seeds] == list(range(seed, seed + samples))
    for seeds, angles in drawn:
        assert np.array_equal(angles, _numpy_angles(seeds, angles.shape[1]))
    monkeypatch.setattr(randmodel, "_uniform_angles", _numpy_angles)
    ref = model_moment(101, 2, samples, seed)
    assert (est.estimate, est.std_error, est.median_of_means) == \
        (ref.estimate, ref.std_error, ref.median_of_means)


def test_no_generator_object_per_sample(monkeypatch):
    """sample() and model_moment build no numpy generator on any path."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy generator constructed")

    for name in ("default_rng", "PCG64", "SeedSequence", "Generator"):
        monkeypatch.setattr(np.random, name, refuse)
    assert model_moment(101, 1, 10000, 5).samples == 10000
    assert len(sample(200, 7).primes) == 46


def test_model_theta_degenerate_all_ones():
    """f = 1 collapses to the unit-coefficient series sum n^eta e^{-pi n^2/q}."""
    q, eta = 101, 0
    n = theta_series(q, 1.0, eta, 1e-12)[1].size
    ones = SteinhausSample(n=n, seed=0, primes=np.array([]),
                           prime_values=np.array([]),
                           values=np.concatenate([[0.0], np.ones(n)]).astype(complex))
    got = model_theta(q, ones, eta=eta)
    direct = sum(math.exp(-math.pi * m * m / q) for m in range(1, n + 1))
    assert got == pytest.approx(direct, abs=1e-12)
    assert abs(got.imag) < 1e-14


@pytest.mark.parametrize("q", [101, 1009])
def test_model_theta_on_a_character_is_theta_value(q):
    """A sample whose values are chi(0..N) sums theta_value's series: the same
    truncation, weights and order, so the same value bit for bit, for a
    character of each parity (29 terms against 30 at q = 101 when the model
    truncated at eps rather than theta's eps / 2)."""
    g = build_group(q)
    for parity in ("even", "odd"):
        chi = next(c for c in g if c.parity == parity and not c.is_trivial)
        eta = 0 if chi.is_even else 1
        n = theta_series(q, 1.0, eta, 1e-12)[1].size
        chi_sample = SteinhausSample(n=n, seed=0, primes=np.array([]), prime_values=np.array([]),
                                     values=chi.value_table()[np.arange(n + 1) % q])
        assert model_theta(q, chi_sample, eta=eta) == theta_value(q, chi, 1.0).value


def test_model_theta_support_check():
    q = 101
    n = theta_series(q, 1.0, 0, 1e-12)[1].size
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
    n = theta_series(q, 1.0, 0, 1e-12)[1].size
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


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(2024)
    for b in range(4, 21):
        for _ in range(50):
            means = rng.lognormal(0.0, 3.0, b).tolist()
            assert _median(means) == np.median(means)


@pytest.mark.parametrize("buckets", [4, 5, 19, 20])
def test_median_of_means_is_numpys_median_of_the_bucket_means(buckets):
    q, k, seed = 101, 2, 3
    samples = 25 * buckets
    est = model_moment(q, k, samples, seed)
    powers = np.array([abs(z) ** (2 * k) for z in _model_thetas(est.weights, samples, seed).tolist()])
    means = [float(np.mean(b)) for b in np.array_split(powers, buckets)]
    assert est.median_of_means == np.median(means)


def test_model_moment_normalization():
    q, k = 101, 2
    est = model_moment(q, k, 100, seed=1)
    assert est.normalization == pytest.approx(q * math.log(q))
    assert est.ratio == pytest.approx(est.estimate / est.normalization)
    assert est.median_of_means > 0


@pytest.mark.parametrize("q", [101, 1009])
def test_model_moment_odd_weights_normalize_like_the_odd_family(q):
    """With weights n e^{-pi n^2 / q} the second moment sum w_n^2 grows like
    q^{3/2} (about q^{3/2} / (8 sqrt(2) pi)), so eta = 1 normalizes by
    q^{3k/2} (log q)^{(k-1)^2}, theta_moment's odd normalization."""
    k = 2
    est = model_moment(q, k, 100, seed=1, eta=1)
    assert est.normalization == q ** (3 * k / 2) * math.log(q) ** ((k - 1) ** 2)
    one = model_moment(q, 1, 100, seed=1, eta=1)
    assert 0.02 < one.sum_w2 / one.normalization < 0.04


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
    for eta in (-1, 2):
        with pytest.raises(DomainError):
            model_moment(101, 1, 100, seed=0, eta=eta)


def test_model_moment_across_block_boundary_matches_model_theta():
    """Blocked draws reproduce model_theta(q, sample(N, seed + i)) sample by
    sample, including the three samples of the second block."""
    q, k, seed = 101, 2, 17
    samples = SAMPLE_BLOCK + 3
    n = theta_series(q, 1.0, 0, 1e-12)[1].size
    est = model_moment(q, k, samples, seed)
    one_by_one = [model_theta(q, sample(max(n, 2), seed + i)) for i in range(samples)]
    assert _model_thetas(est.weights, samples, seed).tolist() == one_by_one
    powers = np.array([abs(z) ** (2 * k) for z in one_by_one])
    assert est.estimate == float(chunked_sum(powers)) / samples


def test_model_moment_empty_truncation():
    """An eps so loose that the series truncates to no terms gives zero."""
    est = model_moment(3, 1, 100, 1, eps=10.0)
    assert est.weights.size == 0 and est.estimate == 0.0
