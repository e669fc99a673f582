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
grown further.  An array of s-points is evaluated in input-order blocks of at
most HZ_BLOCK term entries; each point keeps its own (N, M), and the rows and
terms past them enter as exact zeros, so every row equals the one-point call.
A pre-flight on the one column a = a_min (a lower bound on every error, so it
refuses only past tol * (1 + 1e-9)) names the first point in input order that
misses before an a-wide block is built for it or for a later point.

log Gamma (elementwise on arrays) shifts the argument up by the recurrence
until Re z >= 10 and then applies Stirling with 9 Bernoulli terms; on
Re z > 0 this is the principal branch (the same convention as
scipy.special.loggamma / mpmath.loggamma).
"""

from __future__ import annotations

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
_B2J_FACT = np.array([b / math.factorial(2 * j) for j, b in enumerate(_B2J, 1)])  # B_2j/(2j)!
_MAX_M = len(_B2J)  # 15
HZ_BLOCK = 2 ** 16  # term entries (s-points x rows x a-values) evaluated at once


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


def _em_choose(s: complex, a_min: float, tol: float) -> tuple[int, int, float]:
    """(N, M, remainder bound) with the analytic remainder clearing tol with headroom."""
    n = max(int(math.ceil(abs(s))), 12)
    m = 10
    target = tol / 4
    for _ in range(60):
        bound = _em_tail_bound(s, n + a_min, m)
        if bound <= target:
            return n, m, bound
        if m < _MAX_M - 1:
            m = _MAX_M - 1  # M = 14 keeps the B_30 first-omitted-term bound rigorous
        else:
            n = n + max(4, n // 3)
    return n, m, _em_tail_bound(s, n + a_min, m)


def _em_block(pts: list[complex], nmb: list[tuple[int, int, float]], a: np.ndarray):
    """(values, errs, sums of |term|) at s-points pts, each with its own (N, M):
    rows n >= N_i and Bernoulli terms j > M_i enter as exact zeros."""
    s = np.array(pts)[:, None]
    ns, tabs = np.array([n for n, _, _ in nmb]), np.abs(s.imag)
    # main sum in fixed row blocks, each reduced by np.sum; alongside it the
    # sums of |term| and |log(n+a)| |term| for the error model
    block, parts = 256, []
    for i0 in range(0, ns.max(), block):
        idx = np.arange(i0, min(i0 + block, ns.max()), dtype=float)[:, None]
        lg = np.log(idx + a[None, :])
        drop = idx[:, 0] >= ns[:, None]  # rows n >= N of points that stop here
        # exp in place, one (points, rows, len(a)) array alive at a time
        term = -s[..., None] * lg
        np.exp(term, out=term)
        term[drop] = 0
        part = np.sum(term, axis=1)
        del term
        mag = -s.real[..., None] * lg
        np.exp(mag, out=mag)
        mag[drop] = 0
        parts.append((part, np.sum(mag, axis=1), np.sum(np.abs(lg) * mag, axis=1)))
    acc, acc_abs, acc_wabs = (np.sum(p, axis=0) for p in zip(*parts))

    lg = np.log(ns[:, None] + a)
    pole = np.exp((1 - s) * lg) / (s - 1)
    half = 0.5 * np.exp(-s * lg)
    acc = acc + pole + half

    # Bernoulli corrections B_2j/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1}: the rising
    # factorials are one running product, terms j > M_i are zero
    ms = np.array([m for _, m, _ in nmb])[:, None]
    poch = np.cumprod(s + np.arange(2 * ms.max() - 1), axis=1)[:, ::2]
    coef = np.where(np.arange(1, ms.max() + 1) <= ms, _B2J_FACT[:ms.max()] * poch, 0)
    corr_abs = np.zeros(lg.shape)
    for j in range(1, coef.shape[1] + 1):
        term = coef[:, j - 1:j] * np.exp((-s - 2 * j + 1) * lg)
        acc = acc + term
        corr_abs += np.abs(term)

    # float model: pairwise-summation depth times accumulated magnitude, plus
    # the exp-argument (angle) error ~ |Im s| |log(n+a)| eps per term
    depth = np.array([[math.log2(min(n, block) + 1) + -(-n // block) + 8] for n in ns])
    tail_mag = np.abs(pole) + np.abs(half) + corr_abs
    per_entry = (depth * acc_abs + 2 * tabs * acc_wabs
                 + (2 * tabs * np.abs(lg) + 10) * tail_mag)
    return acc, np.array([b for _, _, b in nmb]) + _EPS * per_entry.max(axis=1), acc_abs


def hurwitz_zeta_vector(s, a: np.ndarray, tol=1e-12) -> tuple[np.ndarray, float | np.ndarray]:
    """zeta(s, a) for an array of a in (0, 1]; returns (values, error bound).

    The error bound is one worst-case figure for every entry: the remainder at
    the smallest a plus the float model maximised over a.  An array of S points
    s (tol: a scalar or one per point) gives ((S, len(a)) values, (S,) errs),
    row i bit-identical to the call at s[i].  Raises PrecisionError naming the
    first s whose bound misses tol, decided where possible by the pre-flight at
    a_min alone (a lower bound), past a margin tol * 1e-9 for its summation order.
    """
    scalar, s = np.ndim(s) == 0, np.atleast_1d(np.asarray(s, dtype=complex))
    tols = np.broadcast_to(np.asarray(tol, dtype=float), s.shape)
    a = np.asarray(a, dtype=float)
    if np.any(s == 1):
        raise PoleError("zeta(s, a) has its pole at s = 1")
    if np.any(s.real <= 0):
        raise DomainError("hurwitz_zeta requires Re s > 0")
    if a.size and (np.any(a <= 0) or np.any(a > 1)):
        raise DomainError("hurwitz_zeta requires 0 < a <= 1")
    if a.size and not np.all(tols > 0):
        raise DomainError("tol must be positive")
    pts, a_min = s.tolist(), float(a.min(initial=1.0))
    nmb = [_em_choose(z, a_min, t) for z, t in zip(pts, tols.tolist())] if a.size else []
    k = best = None
    if nmb:
        # a lower bound on the full error; the margin covers its other row-sum order's ulps
        pre, pre_errs, _ = _em_block(pts, nmb, np.array([a_min]))
        for k in np.flatnonzero(pre_errs > tols * (1 + 1e-9))[:1]:
            best = ComplexApprox(complex(pre[k, 0]), float(pre_errs[k]))
    vals, errs, i = np.empty((s.size, a.size), dtype=complex), np.zeros(s.size), 0
    while i < (len(nmb) if k is None else k):
        # the longest run of points whose zero-padded term array fits HZ_BLOCK
        n_run = np.maximum.accumulate([n for n, _, _ in nmb[i:k]])
        j = i + max(1, int(np.sum(np.arange(1, len(n_run) + 1) * n_run * a.size <= HZ_BLOCK)))
        vals[i:j], errs[i:j], acc_abs = _em_block(pts[i:j], nmb[i:j], a)
        for k in np.flatnonzero(errs[i:j] > tols[i:j])[:1] + i:
            best = ComplexApprox(complex(vals[k, np.argmax(acc_abs[k - i])]), float(errs[k]))
        i = j
    if best is not None:
        raise PrecisionError(f"zeta(s, a) at s = {pts[k]:g}: requested tol {tols[k]:g} "
                             f"unreachable (achieved {best.abs_error:g})", best=best, s=pts[k])
    return (vals[0], float(errs[0])) if scalar else (vals, errs)


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


def log_gamma(s) -> ComplexApprox:
    """Principal-branch log Gamma(s) for Re s > 0, with error bound (arrays for an array s).

    Recurrence-shift to Re z >= 10, then Stirling with 9 Bernoulli terms.  The
    analytic remainder uses the classical bound
    |B_{2K+2}| / ((2K+2)(2K+1) |z|^{2K+1}) * sec(arg(z)/2)^{2K+2}.
    """
    z = np.asarray(s, dtype=complex)
    if np.any(z.real <= 0):
        raise DomainError("log_gamma requires Re s > 0")
    shift = series = series_abs = 0
    while np.any(low := z.real < _STIRLING_SHIFT):
        shift = shift + np.where(low, np.log(z), 0)
        z = z + low
    p = 1.0 / z
    zr2 = p * p
    for j in range(1, _STIRLING_K + 1):
        term = _B2J[j - 1] / (2 * j * (2 * j - 1)) * p
        series = series + term
        series_abs = series_abs + np.abs(term)
        p = p * zr2
    val = (z - 0.5) * np.log(z) - z + _HALF_LOG_TWO_PI + series - shift

    sec = 1.0 / np.cos(0.5 * np.abs(np.angle(z)))
    k = _STIRLING_K
    analytic = (abs(_B2J[k]) / ((2 * k + 2) * (2 * k + 1) * np.abs(z) ** (2 * k + 1))
                * sec ** (2 * k + 2))
    err = analytic + 4 * _EPS * (np.abs(val) + np.abs(shift) + series_abs + np.abs(z) + 1)
    return ComplexApprox(val, err) if z.ndim else ComplexApprox(complex(val), float(err))


def gamma_fn(s) -> ComplexApprox:
    """Gamma(s) = exp(log_gamma(s)), with the error bound carried through."""
    lg = log_gamma(s)
    v = np.exp(lg.value)
    err = np.abs(v) * (np.expm1(lg.abs_error) + 2 * _EPS)
    return ComplexApprox(v, err) if np.ndim(v) else ComplexApprox(complex(v), float(err))
