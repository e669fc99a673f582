"""Theta series of Dirichlet characters, their moments, and a Mellin cross-check.

theta(eta, x, chi) = sum_{n >= 1} chi(n) n^eta e^{-pi n^2 x / q}, with
eta = 0 for even characters and 1 for odd ones; theta(1, chi) means x = 1
with eta = eta_chi.  Truncation is by an explicit geometric-ratio tail bound,
so every value carries a certified absolute error; the minimal N is found by
stepping up from just below the largest root of n^eta e^{-pi n^2 x / q} = eps,
below which no n can meet the bound.

The all-characters path folds the series by residue class mod q, then
gathers the units once into real weights (one vector per parity), and
takes their character sums for that parity only (CharacterGroup.
character_sums, which also bounds the transform's rounding): on a cyclic
group (q prime, p^e, 2 p^e) a real FFT of half the group order, elsewhere
the transform over the unsplit grid with the parity selected.
A moment needs only its own parity, so it folds and transforms once.
Moments S_2k(q) over the even-primitive or odd-primitive family normalize
by phi(q) q^{k/2} (log q)^{(k-1)^2}, resp. phi(q) q^{3k/2} (log q)^{(k-1)^2}.

mellin_checks compares the series against the line integral

    theta(1, chi) = (q/pi)^{1/4} 1/(2 pi) Integral L(1/2 + 2it, chi)
                    (q/pi)^{it} Gamma(1/4 + it) dt        (even primitive chi)

by trapezoidal quadrature on [-H, H], for several characters mod q at once:
the whole t-grid is one all-character l_values_all_chars call (its Hurwitz
vectors in blocks of s-points, one transform over the rows), from which the
requested characters are read off, and the Gamma kernel on the grid and the
Gamma tail mass are one vectorised gamma_fn call each.  Gamma(1/4 + it)
decays like e^{-pi |t| / 2}, and the reported tail bound is the numerically
integrated Gamma mass beyond H scaled by the largest sampled |L|.
mellin_check is the one-character case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import THETA_FAMILIES, Character, CharacterGroup, build_group
from .errors import DomainError
from .lfunc import l_values_all_chars
from .reports import MomentReport, moment_report
from .specfun import ComplexApprox, gamma_fn
from .summation import chunked_sum, rounding_bound

__all__ = [
    "MellinCheckResult",
    "truncation_length",
    "theta_value",
    "theta_all_chars",
    "theta_moment",
    "mellin_check",
    "mellin_checks",
]


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


def _series_terms(q: int, x: float, eta: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(residues mod q, term values) for n = 1..N."""
    m = np.arange(1, n + 1, dtype=np.int64)
    e = np.exp(-math.pi * x / q * m.astype(float) ** 2)
    if eta:
        e = e * m
    return m % q, e


def theta_value(q: int, chi: Character, x: float, eps: float = 1e-12) -> ComplexApprox:
    """Truncated theta series with certified absolute error <= eps."""
    if chi.q != q:
        raise DomainError(f"character modulus {chi.q} does not match q = {q}")
    eta = 0 if chi.is_even else 1
    n = truncation_length(q, x, eta, eps / 2)
    if n == 0:
        return ComplexApprox(0j, _tail_bound(q, x, eta, 0))
    res, e = _series_terms(q, x, eta, n)
    total = chunked_sum(chi.value_table()[res] * e)
    tail = _tail_bound(q, x, eta, n)
    return ComplexApprox(total, tail + rounding_bound(n, float(np.sum(e))))


def _theta_parity(q: int, x: float, eta: int, eps: float,
                  group: CharacterGroup) -> tuple[np.ndarray, float]:
    """(values, err): theta(eta, x, chi) within err for the parity-eta
    characters, in index order; the series folded by residue, its units
    gathered, then transformed."""
    n = truncation_length(q, x, eta, eps / 2)
    res, e = _series_terms(q, x, eta, n)
    values, err = group.character_sums(
        np.bincount(res, weights=e, minlength=q)[group.structure.n_of_index], eta)
    return values, _tail_bound(q, x, eta, n) + err


def theta_all_chars(q: int, x: float, eps: float = 1e-12,
                    group: CharacterGroup | None = None) -> tuple[np.ndarray, float]:
    """theta(eta_chi, x, chi) for every character mod q in group index order.

    One residue-class weight vector per parity, one transform each; matches
    the naive per-character series within 2 eps.  Returns (values, err).
    """
    if q < 3:
        raise DomainError("theta_all_chars requires q >= 3")
    if not x > 0:
        raise DomainError("x must be positive")
    if group is None:
        group = build_group(q)
    if group.q != q:
        raise DomainError(f"group modulus {group.q} does not match q = {q}")
    values = np.zeros(len(group), dtype=complex)
    err = 0.0
    for eta in (0, 1):
        values[group.parity_index(eta)], e = _theta_parity(q, x, eta, eps, group)
        err = max(err, e)
    return values, err


def theta_moment(q: int, k: int, parity: str, eps: float = 1e-12) -> MomentReport:
    """S_2k(q) = sum |theta(1, chi)|^{2k} over the even-primitive or
    odd-primitive family, with the matching normalization.  Only the series
    of that parity is folded and transformed."""
    if q < 3:
        raise DomainError("theta_moment requires q >= 3")
    if k < 1:
        raise DomainError("k must be >= 1")
    if parity not in THETA_FAMILIES:
        raise DomainError(f"parity must be 'even' or 'odd'; got {parity!r}")
    eta = THETA_FAMILIES.index(parity)
    group = build_group(q)
    values, _ = _theta_parity(q, 1.0, eta, eps, group)
    terms = np.abs(values[group.family_mask(parity)[group.parity_index(eta)]]) ** (2 * k)
    half_powers = k if parity == "even" else 3 * k
    norm = group.phi * q ** (half_powers / 2) * math.log(q) ** ((k - 1) ** 2)
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


def mellin_checks(q: int, chars, height: float = 8.0, step: float = 1 / 64,
                  eps: float = 1e-12) -> list[MellinCheckResult]:
    """Trapezoidal quadrature of the Mellin integral vs the theta series, for
    each character in `chars`: characters mod q of the group's "even" family.

    Every character is validated before any L evaluation.  L-values come from
    one l_values_all_chars call over the t-grid at tol 1e-10, so
    PrecisionError is raised exactly where l_value would raise it.
    """
    chars = list(chars)
    for chi in chars:
        if chi.q != q:
            raise DomainError(f"character modulus {chi.q} does not match q = {q}")
    if not (0 < height < math.inf and 0 < step < math.inf):
        raise DomainError("height and step must be positive and finite")
    if not chars:
        return []
    group, idx = chars[0].group, [chi.index for chi in chars]
    if q < 3 or not group.family_mask("even")[idx].all():  # primitive mod q >= 3: nontrivial
        raise DomainError("mellin_check needs an even primitive nontrivial character")
    m = int(round(height / step))
    grid = step * np.arange(-m, m + 1)
    lq = math.log(q / math.pi)
    # rows = characters, columns = t-points
    lvals = l_values_all_chars(q, 0.5 + 2j * grid, tol=1e-10, group=group)[0][:, idx].T
    gam = gamma_fn(0.25 + 1j * grid).value
    f = lvals * np.exp(1j * lq * grid) * gam
    pref = (q / math.pi) ** 0.25 / (2 * math.pi)
    quads = pref * step * chunked_sum(f * _trapezoid_weights(len(grid)))
    tail_mass = _gamma_tail_mass(m * step)
    results = []
    for chi, quad, row in zip(chars, quads.tolist(), lvals):
        series = theta_value(q, chi, 1.0, eps).value
        results.append(MellinCheckResult(
            q=q, char_index=chi.index, series=series, quadrature=quad,
            residual=abs(series - quad), height=m * step, step=step,
            tail_bound=pref * float(np.max(np.abs(row))) * tail_mass))
    return results


def mellin_check(q: int, chi: Character, height: float = 8.0, step: float = 1 / 64,
                 eps: float = 1e-12) -> MellinCheckResult:
    """Trapezoidal quadrature of the Mellin integral vs the theta series for
    one character: mellin_checks(q, [chi], ...)[0]."""
    return mellin_checks(q, [chi], height, step, eps)[0]
