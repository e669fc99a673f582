"""Theta series of Dirichlet characters, their moments, and a Mellin cross-check.

theta(eta, x, chi) = sum_{n >= 1} chi(n) n^eta e^{-pi n^2 x / q}, with
eta = 0 for even characters and 1 for odd ones; theta(1, chi) means x = 1
with eta = eta_chi.  Truncation is by an explicit geometric-ratio tail bound,
so every value carries a certified absolute error; the minimal N is found by
stepping up from just below the largest root of n^eta e^{-pi n^2 x / q} = eps,
below which no n can meet the bound.

The all-characters path folds the series by residue class mod q, gathers
the units once into real weights (one vector per parity) and takes their
character sums for that parity only (CharacterGroup.character_sums, which
also bounds the rounding): one inverse FFT, of half the group order on a
cyclic group (q prime, p^e, 2 p^e), elsewhere over the group's grid with
the parity read off its output.  A moment with k >= 2 needs only its own
parity, so it folds and transforms once, and selects the primitive
characters of it.  At k = 1 orthogonality sums the family in closed form
(the second-moment identity of Louboutin-Munsch, Moebius over d | q for
composite q): O(N + d) work per divisor d, with no character group, no
transform and a rounding bound of its own (_second_moment).
Moments S_2k(q) over the even-primitive or odd-primitive family normalize
by phi(q) q^{k/2} (log q)^{(k-1)^2}, resp. phi(q) q^{3k/2} (log q)^{(k-1)^2}.

mellin_checks compares the series against the line integral

    theta(1, chi) = (q/pi)^{1/4} 1/(2 pi) Integral L(1/2 + 2it, chi)
                    (q/pi)^{it} Gamma(1/4 + it) dt        (even primitive chi)

by trapezoidal quadrature on [-T, T], T = m * step the grid end mellin_steps
checks, for several characters mod q at once, against theta_all_chars' series.
Since f_chi(-t) = conj f_chibar(t) (L(1/2 - 2it, chi) = conj L(1/2 + 2it,
chibar), Gamma(1/4 - it) = conj Gamma(1/4 + it)), only t >= 0 is evaluated
and the trapezoid sum folds to half-length weights on f_chi + conj f_chibar:
a real character's quadrature is exactly real, a conjugate pair's exactly
conjugate.  The half grid is one all-character l_values_all_chars call (its
Hurwitz vectors in blocks of s-points, one transform over the rows), read
off at the requested characters and their conjugates, and the Gamma kernel
and the Gamma tail mass are one vectorised gamma_fn call each.
Gamma(1/4 + it) decays like e^{-pi |t| / 2}, and the reported tail bound is
the numerically integrated Gamma mass beyond m * step scaled by the largest
sampled |L|: the truncation only, not the trapezoid rule's discretisation
error.  mellin_check is the one-character case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import (THETA_FAMILIES, Character, CharacterGroup, build_group,
                         check_family_modulus, check_modulus, family_group)
from .errors import DomainError
from .lfunc import MAX_SHIFT, l_values_all_chars
from .numtheory import Factorization, factorize
from .reports import MomentReport, moment_normalization, moment_report
from .specfun import ComplexApprox, gamma_fn
from .summation import chunked_sum, rounding_bound

__all__ = [
    "MellinCheckResult",
    "truncation_length",
    "theta_series",
    "theta_value",
    "theta_all_chars",
    "theta_moment",
    "theta_normalization",
    "mellin_check",
    "mellin_checks",
]

MAX_MELLIN_STEPS = 2 ** 16  # round(height / step): 128 times the default window's 512
_EPS = np.finfo(float).eps


def _tail_bound(q: int, x: float, eta: int, n: int) -> float:
    """Geometric-ratio bound on sum_{m > n} m^eta e^{-pi m^2 x / q}.

    For m > n the term ratio ((m+1)/m)^eta e^{-pi x (2m+1)/q} is at most
    rho = ((n+2)/(n+1))^eta e^{-pi x (2n+3)/q}; inf where rho >= 1, since the
    terms may still grow there."""
    r = math.pi * x / q
    first = -r * (n + 1) ** 2 + eta * math.log(n + 1)
    if first < -745:  # e^first underflows; the tail is far below any eps
        return 0.0
    log_rho = eta * math.log((n + 2) / (n + 1)) - r * (2 * n + 3)
    return math.exp(first) / -math.expm1(log_rho) if log_rho < 0 else math.inf


def truncation_length(q: int, x: float, eta: int, eps: float) -> int:
    """Minimal N whose geometric-ratio tail bound is <= eps."""
    if not x > 0:
        raise DomainError("x must be positive")
    if not eps > 0:
        raise DomainError("eps must be positive")
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    # The bound at n is at least f(n+1) = (n+1)^eta e^{-r (n+1)^2}, r = pi x / q: above eps
    # for n + 1 below the largest root of f = eps, which m -> sqrt((ln(1/eps) + eta ln m) / r)
    # approaches from below.  Start a unit under it and step up as a walk from 0 would.
    big_l, r = max(-math.log(eps), 0.0), math.pi * x / q
    m = math.sqrt(big_l / r)
    while m > 1 and (nxt := math.sqrt((big_l + eta * math.log(m)) / r)) > m:
        m = nxt
    n = max(math.ceil(m) - 2, 0)
    while _tail_bound(q, x, eta, n) > eps:
        n += 1
    return n


def theta_series(q: int, x: float, eta: int, eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(residues n mod q, terms n^eta e^{-pi n^2 x / q}, tail bound) for n <= N =
    truncation_length(q, x, eta, eps / 2): what theta values and the model sum."""
    n = truncation_length(q, x, eta, eps / 2)
    m = np.arange(1, n + 1, dtype=np.int64)
    e = np.exp(-math.pi * x / q * m.astype(float) ** 2)
    return m % q, e * m if eta else e, _tail_bound(q, x, eta, n)


def theta_value(q: int, chi: Character, x: float, eps: float = 1e-12) -> ComplexApprox:
    """Truncated theta series with certified absolute error <= eps."""
    check_modulus(q, chi)
    res, e, tail = theta_series(q, x, 0 if chi.is_even else 1, eps)
    if not e.size:
        return ComplexApprox(0j, tail)
    total = chunked_sum(chi.value_table()[res] * e)
    return ComplexApprox(total, tail + rounding_bound(e.size, float(np.sum(e))))


def _theta_parity(q: int, x: float, eta: int, eps: float,
                  group: CharacterGroup) -> tuple[np.ndarray, float]:
    """(values, err): theta(eta, x, chi) within err for the parity-eta
    characters, in index order; the series folded by residue, its units
    gathered, then transformed."""
    res, e, tail = theta_series(q, x, eta, eps)
    values, err = group.character_sums(
        np.bincount(res, weights=e, minlength=q)[group.structure.n_of_index], eta)
    return values, tail + err


def theta_all_chars(q: int, x: float, eps: float = 1e-12,
                    group: CharacterGroup | None = None) -> tuple[np.ndarray, float]:
    """theta(eta_chi, x, chi) for every character mod q in group index order.

    One residue-class weight vector per parity, one transform each.  Returns
    (values, err): err, the tail plus character_sums' rounding bound, is the
    certified bound on every value.  It can exceed eps at large q (8.36e-12 at
    q = 10007, eps = 1e-12), and nothing here raises when it does.
    """
    group = family_group(q, group)
    values = np.zeros(len(group), dtype=complex)
    err = 0.0
    for eta in (0, 1):
        values[group.parity_index(eta)], e = _theta_parity(q, x, eta, eps, group)
        err = max(err, e)
    return values, err


def _theta_eta(q: int, k: int, parity: str) -> int:
    """eta of the parity-eta family, the theta moment's arguments checked."""
    check_family_modulus(q)
    if k < 1:
        raise DomainError("k must be >= 1")
    if parity not in THETA_FAMILIES:
        raise DomainError(f"parity must be 'even' or 'odd'; got {parity!r}")
    return THETA_FAMILIES.index(parity)


def theta_normalization(q: int, k: int, parity: str, scale: int) -> float:
    """scale q^{(2 eta + 1) k / 2} (log q)^{(k-1)^2}, the parity-eta family's
    normalization: of S_2k(q) with scale = phi(q) as the caller has it (q - 1
    at a prime), of the Steinhaus model's moment with 1; DomainError naming k
    where it overflows a float (moment_normalization)."""
    eta = _theta_eta(q, k, parity)
    return moment_normalization(q, k, scale, (2 * eta + 1) * k, (k - 1) ** 2)


def _moebius_divisors(fac: Factorization) -> list[tuple[int, int, int]]:
    """(d, mu(q / d), phi(d)) for each d | q with q / d squarefree: each
    p^e || q keeps p^e in d or gives up one p."""
    out = [(1, 1, 1)]
    for p, e in fac.factors:
        ways = [(p ** j, (-1) ** (e - j), p ** j - p ** (j - 1) if j else 1) for j in (e, e - 1)]
        out = [(d * pd, mu * s, f * pf) for d, mu, f in out for pd, s, pf in ways]
    return out


def _weight_rounding(q: int, n: np.ndarray) -> np.ndarray:
    """rho_n = (1.25 A + 3) eps, A = pi n^2 / q: the relative rounding of
    theta_series' x = 1 weight n^eta e^{-A}.  The exponent (-pi / q) n^2 is
    off by at most 1.2 A eps (pi's float and two roundings), exp by at most
    2 eps and the factor n by eps / 2; the weights at n near N, where A is
    about 28-38, are off the most."""
    return (1.25 * math.pi / q * n ** 2 + 3) * _EPS


def _second_moment(q: int, eta: int, eps: float, fac: Factorization
                   ) -> tuple[float, float, int]:
    """(S, err, size): S = sum |theta(1, chi)|^2 over the size primitive
    parity-eta characters mod q, by orthogonality with no group or transform.

    With W(a) the series folded by residue on the units and V_d(c) the sum of
    W over the units a = c mod d,
        S = 1/2 sum_{d | q} mu(q/d) phi(d) sum_c V_d(c) (V_d(c) + (-1)^eta V_d(-c)),
    and size is the same sum at W = delta_1.  Each inner sum is one bincount
    of the unit terms e_n keyed by n mod d, read back at each term's key and
    its negative and summed term by term, sum_n e_n (V(k_n) +- V(-k_n)), with
    math.fsum.  err is the rounding of S against the series' exact terms.  Each
    term charges t_n = e_n (V(k_n) + V(-k_n)) >= |term|, times phi(d) / 2,
    whatever the Moebius signs cancel:
      * (m + 4) eps t_n for the arithmetic, m = ceil(N / d) the most terms one
        bin adds in order, then the sum, fsum and the phi(d) product;
      * 2 rho_n t_n for the weights' own rounding (_weight_rounding), S being
        a quadratic form in them.
    An empty family is the exact 0."""
    divisors = _moebius_divisors(fac)
    size = sum(mu * f * (1 + (-1) ** eta * (d <= 2)) for d, mu, f in divisors) // 2
    if not size:
        return 0.0, 0.0, 0
    res, e, _ = theta_series(q, 1.0, eta, eps)
    units = np.gcd(res, q) == 1
    n_max = e.size
    n = np.flatnonzero(units) + 1.0
    res, e = res[units], e[units]
    rho2 = 2 * _weight_rounding(q, n)
    parts, err = [], 0.0
    for d, mu, f in divisors:
        key = res % d
        v = np.bincount(key, weights=e, minlength=d)
        near, far = v[key], v[(d - key) % d]
        t = e * (near + far)
        parts.append(mu * f * math.fsum((e * (near - far) if eta else t).tolist()))
        err += f / 2 * math.fsum((((-(-n_max // d) + 4) * _EPS + rho2) * t).tolist())
    raw = math.fsum(parts) / 2
    return raw, err + _EPS * abs(raw), size


def theta_moment(q: int, k: int, parity: str, eps: float = 1e-12) -> MomentReport:
    """S_2k(q) = sum |theta(1, chi)|^{2k} over the even-primitive or
    odd-primitive family, with the matching normalization, checked before
    any table or transform is built.  k = 1 is the orthogonality identity
    (_second_moment), with phi(q) from factorize(q) and no character group.
    For k >= 2 only the series of that parity is folded and transformed, and
    the normalization takes phi(q) from the group's structure, so q is
    factorized once."""
    eta = _theta_eta(q, k, parity)
    if k == 1:
        fac = factorize(q)
        norm = theta_normalization(q, k, parity, fac.phi())
        raw, _, size = _second_moment(q, eta, eps, fac)
        return MomentReport(q=q, k=k, family=parity, raw=raw, normalization=norm,
                            ratio=raw / norm, eps=eps, family_size=size)
    group = build_group(q)
    norm = theta_normalization(q, k, parity, group.phi)
    values, _ = _theta_parity(q, 1.0, eta, eps, group)
    terms = np.abs(values[group.family_mask(parity)[group.parity_index(eta)]]) ** (2 * k)
    return moment_report(q, k, parity, terms, norm, eps)


@dataclass(frozen=True)
class MellinCheckResult:
    """Series-vs-quadrature comparison for one even primitive character."""

    q: int
    char_index: int
    series: complex
    quadrature: complex
    residual: float
    height: float
    step: float
    tail_bound: float


def _trapezoid_weights(n: int) -> np.ndarray:
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    return weights


def _gamma_tail_mass(height: float) -> float:
    """Numeric integral of |Gamma(1/4 + it)| over |t| > height (both tails)."""
    # e^{-pi t / 2} decay: 60 more units of t is far past underflow
    step = 1 / 16
    ts = height + step * np.arange(int(60 / step) + 1)
    g = np.abs(gamma_fn(0.25 + 1j * ts).value)
    return 2 * step * float(chunked_sum(g * _trapezoid_weights(len(g))))


def mellin_steps(height: float, step: float, names: tuple[str, str] = ("height", "step")) -> int:
    """m = round(height / step) grid intervals, or DomainError naming `names`
    (the CLI passes its flags) unless height and step are positive and finite,
    height <= MAX_SHIFT / 2 (L runs at 1/2 + 2it), 1 <= m <= MAX_MELLIN_STEPS
    and the grid end m * step <= MAX_SHIFT / 2."""
    h, s = names
    for name, v in zip(names, (height, step)):
        if not 0 < v < math.inf:
            raise DomainError(f"{name} must be positive and finite; got {v}")
    if height > MAX_SHIFT / 2:
        raise DomainError(f"{h} must be <= {MAX_SHIFT / 2:g}; got {height}")
    if height / step > MAX_MELLIN_STEPS + 0.5:  # round(height / step) > MAX_MELLIN_STEPS
        raise DomainError(
            f"{h} / {s} must round to <= {MAX_MELLIN_STEPS}; got {height} / {step}")
    if (m := round(height / step)) == 0:
        raise DomainError(f"{h} / {s} must round to >= 1; got {height} / {step}")
    if m * step > MAX_SHIFT / 2:
        raise DomainError(
            f"round({h} / {s}) * {s} must be <= {MAX_SHIFT / 2:g}; got {m} * {step}")
    return m


def mellin_checks(q: int, chars, height: float = 8.0, step: float = 1 / 64,
                  eps: float = 1e-12) -> list[MellinCheckResult]:
    """Trapezoidal quadrature of the Mellin integral vs the theta series, for
    each character in `chars`: characters mod q of the group's "even" family.

    Every character and the window (mellin_steps) are validated before
    anything is allocated.  L-values come from one l_values_all_chars call
    over t = j * step, j = 0..m, at tol 1e-10, so PrecisionError is raised
    exactly where l_value would raise it; each mirrored t < 0 value is exact,
    with its twin's error.  The series are theta_all_chars entries.
    """
    chars = list(chars)
    for chi in chars:
        check_modulus(q, chi)
    m = mellin_steps(height, step)
    if not chars:
        return []
    group, idx = chars[0].group, [chi.index for chi in chars]
    if q < 3 or not group.family_mask("even")[idx].all():  # primitive mod q >= 3: nontrivial
        raise DomainError("mellin_check needs an even primitive nontrivial character")
    ts = step * np.arange(m + 1)
    # rows = characters, columns = t >= 0; f_chi(-t) = conj f_chibar(t), read off chibar's row
    lvals = l_values_all_chars(q, 0.5 + 2j * ts, tol=1e-10, group=group)[0]
    lv, lv_bar = lvals[:, idx].T, lvals[:, group.conjugation[idx]].T
    kern = np.exp(1j * math.log(q / math.pi) * ts) * gamma_fn(0.25 + 1j * ts).value
    pref = (q / math.pi) ** 0.25 / (2 * math.pi)
    quads = pref * step * chunked_sum(
        (lv * kern + (lv_bar * kern).conj()) * _trapezoid_weights(m + 1))
    tail_mass = _gamma_tail_mass(m * step)
    peaks = np.maximum(np.abs(lv), np.abs(lv_bar)).max(axis=1)
    series = theta_all_chars(q, 1.0, eps, group)[0][idx]
    return [MellinCheckResult(q=q, char_index=chi.index, series=val, quadrature=quad,
                              residual=abs(val - quad), height=m * step, step=step,
                              tail_bound=pref * peak * tail_mass)
            for chi, val, quad, peak in zip(chars, series.tolist(), quads.tolist(),
                                            peaks.tolist())]


def mellin_check(q: int, chi: Character, height: float = 8.0, step: float = 1 / 64,
                 eps: float = 1e-12) -> MellinCheckResult:
    """Trapezoidal quadrature of the Mellin integral vs the theta series for
    one character: mellin_checks(q, [chi], ...)[0]."""
    return mellin_checks(q, [chi], height, step, eps)[0]
