"""Acceptance gate: one test per release criterion.

Each test exercises a criterion end to end at its stated tolerance and prints
a single verdict line (run with ``pytest -s`` to see the lines for passing
criteria; failing ones surface theirs in the captured output).  Criteria 5
and 6 check the Mellin identity behind ``mellin_check`` on the contour
Re w = 1/4: criterion 5 compares the height-8 quadrature with the series once
the integrand's mass beyond |t| = 8 is accounted for by an independent
quadrature, and criterion 6 anchors the integrand's centre value
L(1/2, chi) Gamma(1/4) against mpmath.  The supplementary tests at the bottom
record why the earlier targets of those two criteria were wrong.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from thetamoments import (
    build_group,
    cos_sum_check,
    cutoff_exponent,
    euler_phi,
    gamma_fn,
    hurwitz_zeta,
    l_value,
    l_values_all_chars,
    large_value_bound,
    large_value_counts,
    log_l_majorant,
    mellin_check,
    model_moment,
    shifted_moment,
    sieve,
    theta_all_chars,
    theta_moment,
    theta_value,
    truncation_length,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{num:2d}] {label:<34s} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line, flush=True)


def _even_primitive_indices(group) -> list[int]:
    return [
        i
        for i in range(len(group))
        if group.primitive_mask[i] and group.char(i).is_even
    ]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _mellin_mass_beyond(q: int, chi, height: float) -> complex:
    """The Mellin integral of theta(1, chi) restricted to height < |t| < height + 8.

    Gauss-Legendre on two panels of width 4 per side, with Gamma(1/4 + it)
    from mpmath, so nothing here shares ``mellin_check``'s trapezoid rule or
    Gamma routine.  |Gamma(1/4 + it)| is below 1e-10 beyond |t| = 16, so the
    omitted remainder is far below any budget this is compared with.
    """
    lq = math.log(q / math.pi)
    total = 0j
    for a in (height, height + 4.0):
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            for t in (a + 2.0 + 2.0 * x, -(a + 2.0 + 2.0 * x)):
                lval = l_value(q, chi, complex(0.5, 2 * t), tol=1e-10).value
                phase = complex(math.cos(lq * t), math.sin(lq * t))
                total += 2.0 * w * lval * phase * complex(mp.gamma(mp.mpc(0.25, t)))
    return (q / math.pi) ** 0.25 / (2 * math.pi) * total


def test_criterion_01_orthogonality():
    # Sum over characters of chi(m) conj(chi(n)) equals phi(q) [m == n] for
    # unit residues m, n, for every modulus up to 200.
    t0 = time.monotonic()
    worst = 0.0
    for q in range(1, 201):
        g = build_group(q)
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        v = np.stack([g.value_table(i) for i in range(len(g))])[:, units]
        gram = v.T @ v.conj()
        worst = max(worst, float(np.max(np.abs(gram - g.phi * np.eye(len(units))))))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    _report(1, "orthogonality, q <= 200", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"worst deviation {worst:.3e} (limit 1e-9), elapsed {elapsed:.1f}s (limit 60s)"


def test_criterion_02_batch_matches_naive():
    # The batched transforms must agree with direct per-character summation:
    # theta values at x = 1 and L-values at s = 1/2 and 1/2 + 3i.
    t0 = time.monotonic()
    worst_theta = 0.0
    worst_l = 0.0
    for q in (7, 97, 101, 997):
        g = build_group(q)
        vals, _ = theta_all_chars(q, 1.0, group=g)
        for i in range(len(g)):
            eta = 0 if g.char(i).is_even else 1
            n_terms = truncation_length(q, 1.0, eta, 1e-14)
            ns = np.arange(1, n_terms + 1)
            coeffs = ns.astype(float) ** eta * np.exp(-math.pi * ns.astype(float) ** 2 / q)
            naive = complex(np.sum(g.value_table(i)[ns % q] * coeffs))
            worst_theta = max(worst_theta, abs(vals[i] - naive))
        for s in (0.5 + 0j, 0.5 + 3j):
            lvals, _ = l_values_all_chars(q, s, group=g)
            for i in range(len(g)):
                worst_l = max(worst_l, abs(lvals[i] - l_value(q, g.char(i), s).value))
    elapsed = time.monotonic() - t0
    ok = worst_theta < 1e-10 and worst_l < 1e-10 and elapsed < 120.0
    _report(
        2,
        "batch equals per-character sums",
        ok,
        f"theta dev {worst_theta:.2e}, L dev {worst_l:.2e}, {elapsed:.1f}s",
    )
    assert ok, (
        f"theta dev {worst_theta:.3e}, L dev {worst_l:.3e} (limits 1e-10), "
        f"elapsed {elapsed:.1f}s (limit 120s)"
    )


def test_criterion_03_large_modulus_performance():
    # All theta values at a six-digit prime modulus in at most ten seconds,
    # spot-checked against the direct series at twenty random characters.
    q = 100003
    t0 = time.monotonic()
    vals, _ = theta_all_chars(q, 1.0, eps=1e-12)
    elapsed = time.monotonic() - t0
    g = build_group(q)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for i in rng.choice(len(g), size=20, replace=False):
        direct = theta_value(q, g.char(int(i)), 1.0)
        worst = max(worst, abs(vals[int(i)] - direct.value))
    ok = elapsed <= 10.0 and worst < 1e-8
    _report(
        3,
        "q = 100003 batch under 10s",
        ok,
        f"{elapsed:.2f}s, spot dev {worst:.2e}",
    )
    assert ok, f"elapsed {elapsed:.2f}s (limit 10s), spot deviation {worst:.3e} (limit 1e-8)"


def test_criterion_04_conjugation_symmetry():
    # |theta(1, chi)| equals |theta(1, conj chi)| for every primitive
    # character of modulus at most 499.
    worst = 0.0
    checked = 0
    for q in range(1, 500):
        g = build_group(q)
        idx = np.nonzero(g.primitive_mask)[0]
        if len(idx) == 0:
            continue
        if q >= 3:
            vals, _ = theta_all_chars(q, 1.0, group=g)
        else:
            vals = np.array([theta_value(q, g.char(i), 1.0).value for i in range(len(g))])
        absv = np.abs(vals)
        for i in idx:
            worst = max(worst, abs(absv[int(i)] - absv[g.conjugate_index(int(i))]))
            checked += 1
    ok = worst < 1e-10
    _report(4, "conjugate-pair symmetry, q < 500", ok, f"{checked} chars, max dev {worst:.2e}")
    assert ok, f"worst | |theta(chi)| - |theta(conj chi)| | = {worst:.3e} (limit 1e-10)"


def test_criterion_05_mellin_residual():
    # Series value versus the vertical-line quadrature at height 8 with step
    # 1/64, for every even primitive character mod 5, 13, and 29.  The window
    # truncates the integral, so the residual is the integrand's own mass
    # beyond |t| = 8 (up to 4.5e-6 at q = 29), not a quadrature error: a bare
    # 1e-6 budget on the residual cannot hold at this height.  The criterion
    # therefore asks that (a) the residual stays within the reported tail
    # bound and (b) series - quadrature equals that mass, computed
    # independently, to within 1e-6.
    mellin_s = 0.0
    worst = worst_net = worst_ratio = 0.0
    misses: list[str] = []
    for q in (5, 13, 29):
        g = build_group(q)
        for i in _even_primitive_indices(g):
            t0 = time.monotonic()
            r = mellin_check(q, g.char(i), height=8.0, step=1 / 64)
            mellin_s += time.monotonic() - t0
            net = abs(r.series - r.quadrature - _mellin_mass_beyond(q, g.char(i), r.height))
            if not (r.residual <= r.tail_bound and net < 1e-6):
                misses.append(
                    f"q={q} char {i}: residual {r.residual:.3e}, tail bound "
                    f"{r.tail_bound:.3e}, net of |t| > 8 {net:.3e}"
                )
            worst = max(worst, r.residual)
            worst_net = max(worst_net, net)
            worst_ratio = max(worst_ratio, r.residual / r.tail_bound)
    ok = not misses and mellin_s < 60.0
    _report(
        5,
        "integral identity at height 8",
        ok,
        f"worst residual {worst:.2e}, net of |t| > 8 {worst_net:.2e}, "
        f"residual/tail bound {worst_ratio:.3f}, {mellin_s:.1f}s",
    )
    assert ok, (
        f"{'; '.join(misses) or 'all characters within budget'} (limits: residual <= "
        f"tail bound, net < 1e-6); mellin_check time {mellin_s:.1f}s (limit 60s)"
    )


def test_criterion_06_special_function_goldens():
    # Closed-form anchors, including the centre-point value of the
    # quadrature integrand.
    checks: list[tuple[bool, str]] = []

    g4 = build_group(4)
    odd = next(i for i in range(len(g4)) if not g4.char(i).is_even)
    dev = abs(l_value(4, g4.char(odd), 1.0).value - math.pi / 4)
    checks.append((dev < 1e-10, f"L(1) arctan series dev {dev:.1e}"))

    dev = abs(hurwitz_zeta(2.0, 0.5).value - math.pi**2 / 2)
    checks.append((dev < 1e-12, f"zeta(2, 1/2) dev {dev:.1e}"))

    dev = abs(abs(gamma_fn(0.5 + 1j).value) ** 2 - math.pi / math.cosh(math.pi))
    checks.append((dev < 1e-11, f"|Gamma(1/2+i)|^2 dev {dev:.1e}"))

    # Centre-point identity.  Mellin inversion e^{-y} = (1/2 pi i) Integral
    # Gamma(w) y^{-w} dw with y = pi n^2 / q on the contour Re w = 1/4 (the
    # window mellin_check integrates) puts L(1/2, chi) Gamma(1/4) at t = 0,
    # up to the constant (q/pi)^{1/4} / (2 pi).  sqrt(pi) = Gamma(1/2) would
    # belong to the contour Re w = 1/2, i.e. to L(1, chi); the earlier anchor
    # used it and so asserted Gamma(1/4) = sqrt(pi), which is off by 1.85.
    # Both factors are checked here against mpmath.
    g5 = build_group(5)
    even = next(i for i in _even_primitive_indices(g5) if not g5.char(i).is_trivial)
    chi5 = g5.char(even)
    centre = l_value(5, chi5, 0.5).value * gamma_fn(0.25).value
    oracle = complex(mp.dirichlet(0.5, [complex(v) for v in chi5.value_table()]) * mp.gamma(0.25))
    dev = abs(centre - oracle)
    checks.append((dev < 1e-10, f"centre-point L(1/2) Gamma(1/4) dev {dev:.2e}"))

    ok = all(c for c, _ in checks)
    failing = "; ".join(d for c, d in checks if not c)
    _report(6, "special-function anchors", ok, failing or "all four identities")
    assert ok, f"failing identities: {failing}"


def test_criterion_07_moment_trend():
    # Normalized second moments over all primes in [1009, 10007]: the ratio
    # sequences for both parities must be tight (CV < 0.5) with no monotone
    # drift beyond a factor of 2 between the first and last deciles.
    t0 = time.monotonic()
    primes = [int(p) for p in sieve(10007).primes_in(1009, 10007)]
    assert len(primes) >= 30, f"only {len(primes)} prime samples"
    even = np.array([theta_moment(p, 1, "even").ratio for p in primes])
    odd = np.array([theta_moment(p, 1, "odd").ratio for p in primes])
    elapsed = time.monotonic() - t0
    d = len(primes) // 10
    stats = {}
    ok = elapsed < 1800.0
    for name, r in (("even", even), ("odd", odd)):
        cv = float(r.std(ddof=1) / r.mean())
        drift = float(r[-d:].mean() / r[:d].mean())
        drift = max(drift, 1.0 / drift)
        stats[name] = (cv, drift)
        ok = ok and cv < 0.5 and drift < 2.0
    _report(
        7,
        "k = 1 trend over 1009..10007",
        ok,
        f"{len(primes)} primes, CV {stats['even'][0]:.3f}/{stats['odd'][0]:.1e}, "
        f"decile drift {stats['even'][1]:.2f}/{stats['odd'][1]:.2f}, {elapsed:.0f}s",
    )
    assert ok, f"stats {stats}, elapsed {elapsed:.0f}s (limits: CV 0.5, drift 2, 1800s)"


def test_criterion_08_shift_decorrelation():
    # The two-shift moment at q = 1009 must not grow as the shifts separate
    # (2% tolerance for noise) and must drop by more than 20% between
    # separation 0 and separation 1.
    q = 1009
    deltas = [0.0, 1 / math.log(q), 0.1, 0.5, 1.0, 5.0]
    vals = [shifted_moment(q, (0.0, d)).raw for d in deltas]
    mono = all(vals[i + 1] <= vals[i] * 1.02 for i in range(len(vals) - 1))
    ratio = vals[0] / vals[deltas.index(1.0)]
    ok = mono and ratio > 1.2
    _report(
        8,
        "decorrelation under separation",
        ok,
        f"ratio at sep 1: {ratio:.2f}, monotone within 2%: {mono}",
    )
    assert ok, f"values {vals}, ratio {ratio:.3f} (need > 1.2 and non-increasing within 2%)"


def test_criterion_09_large_value_histogram():
    # Exceedance counts are non-increasing in the threshold, with the low end
    # counting the whole family and the high end empty.
    hist = large_value_counts(211, (0.0, 0.0), np.linspace(-250.0, 60.0, 32))
    counts = np.asarray(hist.counts)
    ok = (
        bool(np.all(np.diff(counts) <= 0))
        and int(counts[0]) == hist.family_size
        and int(counts[-1]) == 0
    )
    _report(
        9,
        "exceedance histogram shape",
        ok,
        f"family {hist.family_size}, counts {int(counts[0])} -> {int(counts[-1])}",
    )
    assert ok, f"counts {counts.tolist()}, family size {hist.family_size}"


def test_criterion_10_cosine_sum_margins():
    # Prime sums of cos(a log p)/p stay within an absolute margin of 5 of the
    # logarithmic main term at z = 10^6, and the a = 0 margin has settled:
    # successive-z drift below 0.02 beyond z = 10^5.
    table = sieve(1_000_000)
    worst = 0.0
    for a in (0.0, 0.01, 0.1, 1.0, 2.0, 10.0):
        _, _, margin = cos_sum_check(1_000_000, a, table=table)
        worst = max(worst, abs(margin))
    margins = [cos_sum_check(z, 0.0, table=table)[2] for z in (100_000, 200_000, 400_000, 700_000, 1_000_000)]
    drift = max(abs(margins[i + 1] - margins[i]) for i in range(len(margins) - 1))
    ok = worst <= 5.0 and drift < 0.02
    _report(10, "cosine-sum margins at z = 1e6", ok, f"max |margin| {worst:.3f}, drift {drift:.4f}")
    assert ok, f"max margin {worst:.3f} (limit 5), a=0 drift {drift:.4f} (limit 0.02)"


def test_criterion_11_majorant_dominance():
    # With lambda = 0.6 and x = log^2 q, the explicit majorant plus 10 must
    # dominate log |L(1/2, chi)| for every character of order > 2.
    min_slack = math.inf
    checked = 0
    for q in (101, 211, 499):
        g = build_group(q)
        vals, _ = l_values_all_chars(q, 0.5, group=g)
        x = math.log(q) ** 2
        for i in range(len(g)):
            if g.orders[i] <= 2:
                continue
            slack = log_l_majorant(q, g.char(i), x=x, lam=0.6) + 10.0 - math.log(abs(vals[i]))
            min_slack = min(min_slack, slack)
            checked += 1
    ok = min_slack >= 0.0
    _report(11, "majorant + 10 dominates", ok, f"{checked} chars, min slack {min_slack:.2f}")
    assert ok, f"min slack {min_slack:.3f} (must be >= 0)"


def test_criterion_12_random_model(cli_at_workers):
    # Monte-Carlo second moment within three standard errors of the exact
    # weight sum, and bit-identical output under seed replay and, through the
    # CLI, at any worker count.
    est = model_moment(101, 1, 10_000, seed=1)
    replay = model_moment(101, 1, 10_000, seed=1)
    one, five = (json.loads(out)["payload"] for out in cli_at_workers(
        "rand-model", "--q", "101", "--k", "1", "--samples", "10000", "--seed", "1"))
    target = est.sum_w2
    dev = abs(est.estimate - target)
    ok_se = dev <= 3 * est.std_error
    ok_det = (
        est.estimate == replay.estimate == one["estimate"]
        and est.std_error == replay.std_error == one["std_error"]
        and est.median_of_means == replay.median_of_means == one["median_of_means"]
        and one == five
    )
    ok = ok_se and ok_det
    _report(
        12,
        "random-model second moment",
        ok,
        f"dev {dev:.4f} vs 3se {3 * est.std_error:.4f}, deterministic: {ok_det}",
    )
    assert ok, (
        f"estimate {est.estimate:.6f}, target {target:.6f}, 3se {3 * est.std_error:.6f}, "
        f"deterministic {ok_det}"
    )


def test_criterion_13_boundary_continuity():
    # The first two regime formulas agree at the knot V = W to 1e-12
    # relative, the dispatcher matches them there, and the piecewise exponent
    # is continuous at both of its knots.
    q, k, w = 101, 1, 80.0
    phi = euler_phi(q)
    lw = math.log(w)
    regime_one = phi * (w / math.sqrt(w)) * math.exp(-w * (1 - 18 * k / (5 * lw)) ** 2)
    regime_two = phi * (w / math.sqrt(w)) * math.exp(-(w * w / w) * (1 - 18 * k * w / (5 * w * lw)) ** 2)
    impl = large_value_bound(q, w, w, k).value
    rel_knot = abs(regime_one - regime_two) / regime_one
    rel_impl = abs(impl - regime_one) / regime_one
    w2, k2 = 100.0, 1
    lw2 = math.log(w2)
    knots = (w2, w2 * lw2 / (4 * k2))
    h = 1e-9
    jump = max(
        abs(cutoff_exponent(kn + h, w2, k2) - cutoff_exponent(kn - h, w2, k2)) for kn in knots
    )
    ok = rel_knot < 1e-12 and rel_impl < 1e-12 and jump < 1e-6
    _report(
        13,
        "regime boundaries are seamless",
        ok,
        f"knot rel dev {rel_knot:.1e}, exponent jump {jump:.1e}",
    )
    assert ok, f"regime rel dev {rel_knot:.2e}, impl rel dev {rel_impl:.2e}, jump {jump:.2e}"


# -- supplementary records of why the old targets of criteria 5 and 6 were wrong


def test_supplementary_taller_window_closes_residual():
    # Raising the quadrature height to 10 brings every residual from the
    # height-8 check under 1e-6: the height-8 failures are pure Gamma tail.
    worst = 0.0
    for q in (5, 13, 29):
        g = build_group(q)
        for i in _even_primitive_indices(g):
            r = mellin_check(q, g.char(i), height=10.0, step=1 / 64)
            worst = max(worst, r.residual)
    assert worst < 1e-6, f"worst residual at height 10: {worst:.3e}"


def test_supplementary_centre_kernel_factor():
    # The kernel that actually reproduces the series carries Gamma(1/4 + it),
    # so its centre value is Gamma(1/4), not sqrt(pi); the two differ by far
    # more than any quadrature error.
    quarter = gamma_fn(0.25).value
    assert abs(quarter - 3.6256099082219083119306852) < 1e-11
    assert abs(quarter - math.sqrt(math.pi)) > 1.8
