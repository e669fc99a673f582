"""Hurwitz zeta and log-gamma in float64 with explicit error accounting.

Every value leaves this module as a `ComplexApprox`: the computed number plus
a bound on its absolute error.  The bound has two parts, both reported
honestly rather than optimistically:

* the analytic remainder of the truncated expansion (Euler-Maclaurin tail for
  zeta(s, a), the Stirling tail for log Gamma), using the standard
  first-omitted-term bounds; and
* a floating-point model term ~ eps * (sum of magnitudes), since at desk
  tolerances the analytic remainder can be far below what float64 arithmetic
  actually achieves.

zeta(s, a) uses Euler-Maclaurin directly: sum_{n<N} (n+a)^{-s}
  + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
  + sum_{j<=M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1},
with remainder bounded by |first omitted term| * |s+2M+1|/(Re s + 2M + 1).
N scales with |s| so the expansion stays in its asymptotic regime; M is 10,
escalating to 15 (Bernoulli numbers through B_30 are precomputed) before N is
grown further.

log Gamma shifts the argument up by the recurrence until Re z >= 10 and then
applies Stirling with 9 Bernoulli terms; on Re z > 0 this is the principal
branch (the same convention as scipy.special.loggamma / mpmath.loggamma).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, PrecisionError

__all__ = [
    "ComplexApprox",
    "hurwitz_zeta",
    "hurwitz_zeta_vector",
    "digamma_vector",
    "log_gamma",
    "gamma_fn",
]

_EPS = np.finfo(float).eps

# B_2, B_4, ..., B_30 as exact ratios rounded to float
_B2J = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6,
    -23749461029 / 870, 8615841276005 / 14322,
]
_MAX_M = len(_B2J)  # 15


@dataclass(frozen=True)
class ComplexApprox:
    """A complex value together with a bound on its absolute error."""

    value: complex
    abs_error: float


def _em_tail_bound(s: complex, na: float, m: int) -> float:
    """Remainder bound after M = m correction terms, cut at N + a = na."""
    sigma = s.real
    # |B_{2m+2}/(2m+2)! * (s)_{2m+1} * (N+a)^{-s-2m-1}| * |s+2m+1|/(sigma+2m+1)
    if m >= _MAX_M:
        m = _MAX_M - 1
    b = abs(_B2J[m])  # B_{2(m+1)}
    fact = math.factorial(2 * m + 2)
    poch = 1.0
    for i in range(2 * m + 1):
        poch *= abs(s + i)
    return (b / fact) * poch * na ** (-sigma - 2 * m - 1) * abs(s + 2 * m + 1) / (sigma + 2 * m + 1)


def _em_choose(s: complex, a_min: float, tol: float) -> tuple[int, int]:
    """Pick (N, M) so the analytic remainder clears tol with headroom."""
    n = max(int(math.ceil(abs(s))), 12)
    m = 10
    target = tol / 4
    for _ in range(60):
        if _em_tail_bound(s, n + a_min, m) <= target:
            return n, m
        if m < _MAX_M - 1:
            m = _MAX_M - 1  # M = 14 keeps the B_30 first-omitted-term bound rigorous
        else:
            n = n + max(4, n // 3)
    return n, m


def hurwitz_zeta_vector(s: complex, a: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """zeta(s, a) for an array of a in (0, 1]; returns (values, error bound).

    The error bound is a single worst-case figure valid for every entry (it is
    evaluated at the smallest a, where the expansion is weakest).  Raises
    PrecisionError if the bound cannot be brought under tol.
    """
    s = complex(s)
    a = np.asarray(a, dtype=float)
    if s == 1:
        raise PoleError("zeta(s, a) has its pole at s = 1")
    if s.real <= 0:
        raise DomainError("hurwitz_zeta requires Re s > 0")
    if a.size == 0:
        return np.empty(0, dtype=complex), 0.0
    if np.any(a <= 0) or np.any(a > 1):
        raise DomainError("hurwitz_zeta requires 0 < a <= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")

    a_min = float(a.min())
    n, m = _em_choose(s, a_min, tol)

    sigma = s.real
    tabs = abs(s.imag)
    # main sum in fixed row blocks, each block reduced pairwise by np.sum;
    # alongside it accumulate |term| and |log(n+a)| |term| for the error model
    block = 256
    parts, parts_abs, parts_wabs = [], [], []
    for i0 in range(0, n, block):
        idx = np.arange(i0, min(i0 + block, n), dtype=float)[:, None]
        lg = np.log(idx + a[None, :])
        mag = np.exp(-sigma * lg)
        parts.append(np.sum(np.exp(-s * lg), axis=0))
        parts_abs.append(np.sum(mag, axis=0))
        parts_wabs.append(np.sum(np.abs(lg) * mag, axis=0))
    acc = np.sum(parts, axis=0)
    acc_abs = np.sum(parts_abs, axis=0)
    acc_wabs = np.sum(parts_wabs, axis=0)
    n_blocks = len(parts)

    na = n + a
    lg = np.log(na)
    pole = np.exp((1 - s) * lg) / (s - 1)
    half = 0.5 * np.exp(-s * lg)
    acc = acc + pole + half

    # Bernoulli corrections: B_2j/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1}
    poch = 1.0 + 0j  # rising factorial, updated incrementally
    corr_abs = np.zeros(a.shape)
    for j in range(1, m + 1):
        for i in range(2 * j - 3 if j > 1 else 0, 2 * j - 1):
            poch *= s + i
        term = (_B2J[j - 1] / math.factorial(2 * j)) * poch * np.exp((-s - 2 * j + 1) * lg)
        acc = acc + term
        corr_abs += np.abs(term)

    analytic = _em_tail_bound(s, n + a_min, m)
    # float model: pairwise-summation depth times accumulated magnitude, plus
    # the exp-argument (angle) error ~ |Im s| |log(n+a)| eps per term
    depth = math.log2(min(n, block) + 1) + n_blocks + 8
    tail_mag = np.abs(pole) + np.abs(half) + corr_abs
    per_entry = (depth * acc_abs + 2 * tabs * acc_wabs
                 + (2 * tabs * np.abs(lg) + 10) * tail_mag)
    rounding = _EPS * float(per_entry.max())
    err = analytic + rounding
    if err > tol:
        i = int(np.argmax(acc_abs))
        best = ComplexApprox(complex(acc[i]), err)
        raise PrecisionError(
            f"requested tol {tol:g} unreachable (achieved {err:g})", best=best)
    return acc, err


def hurwitz_zeta(s: complex, a: float, tol: float = 1e-12) -> ComplexApprox:
    """Hurwitz zeta(s, a) on Re s > 0, s != 1, 0 < a <= 1."""
    vals, err = hurwitz_zeta_vector(s, np.array([a], dtype=float), tol=tol)
    return ComplexApprox(complex(vals[0]), err)


def digamma_vector(a: np.ndarray) -> tuple[np.ndarray, float]:
    """psi(a) for real a in (0, 1], with worst-case error bound.

    Needed for L-values at s = 1, where the zeta(s, a/q) poles cancel and the
    finite part is -psi(a/q): psi(a) = psi(a+N) - sum_{n<N} 1/(a+n), then
    Stirling for psi at a+N >= 16.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0) or np.any(a > 1):
        raise DomainError("digamma_vector requires 0 < a <= 1")
    n = 16
    acc = np.zeros(a.shape)
    for j in range(n):
        acc += 1.0 / (j + a)
    x = a + n
    val = np.log(x) - 0.5 / x
    x2 = 1.0 / (x * x)
    p = x2.copy()
    for j in range(1, 8):
        val -= _B2J[j - 1] / (2 * j) * p
        p *= x2
    # first omitted Stirling term at x >= 16, plus accumulation rounding
    analytic = abs(_B2J[7]) / 16 * 16.0 ** -16
    err = analytic + _EPS * float((acc + np.abs(val)).max()) * 8
    return val - acc, err


# ---------------------------------------------------------------------------
# log Gamma

_STIRLING_K = 9
_STIRLING_SHIFT = 10.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2 * math.pi)


def log_gamma(s: complex) -> ComplexApprox:
    """Principal-branch log Gamma(s) for Re s > 0, with error bound.

    Recurrence-shift to Re z >= 10, then Stirling with 9 Bernoulli terms.  The
    analytic remainder uses the classical bound
    |B_{2K+2}| / ((2K+2)(2K+1) |z|^{2K+1}) * sec(arg(z)/2)^{2K+2}.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("log_gamma requires Re s > 0")
    shift = 0j
    z = s
    while z.real < _STIRLING_SHIFT:
        shift += cmath.log(z)
        z += 1
    zr = 1.0 / z
    zr2 = zr * zr
    series = 0j
    series_abs = 0.0
    p = zr
    for j in range(1, _STIRLING_K + 1):
        term = _B2J[j - 1] / (2 * j * (2 * j - 1)) * p
        series += term
        series_abs += abs(term)
        p *= zr2
    val = (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + series - shift

    sec = 1.0 / math.cos(0.5 * abs(cmath.phase(z)))
    k = _STIRLING_K
    analytic = (abs(_B2J[k]) / ((2 * k + 2) * (2 * k + 1) * abs(z) ** (2 * k + 1))
                * sec ** (2 * k + 2))
    rounding = 4 * _EPS * (abs(val) + abs(shift) + series_abs + abs(z) + 1)
    return ComplexApprox(val, analytic + rounding)


def gamma_fn(s: complex) -> ComplexApprox:
    """Gamma(s) = exp(log_gamma(s)), with the error bound carried through."""
    lg = log_gamma(s)
    v = cmath.exp(lg.value)
    err = abs(v) * (math.expm1(lg.abs_error) + 2 * _EPS)
    return ComplexApprox(v, err)
