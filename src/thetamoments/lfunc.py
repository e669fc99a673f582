"""Dirichlet L-values on the critical line and their family aggregates.

Evaluation route: L(s, chi) = q^{-s} sum_{a} chi(a) zeta(s, a/q).  The
Hurwitz vector zeta(s, a/q) over units a is computed once per s-point and
shared by every character; the all-character values then come from one fast
multiplicative-group transform.  (No approximate functional equation: error
control is simpler and the shared vector makes moment scans cheap.)

Aggregates over character families:

* central moments  sum |L(1/2, chi)|^{2k} over primitive characters,
  normalized by q (log q)^{k^2};
* shifted moments  sum prod_i |L(1/2 + i t_i, chi)|, normalized by the
  bounds-module product bound;
* large-value counts N(q, V) = #{chi : sum_i log|L(1/2+it_i, chi)| >= V};
* an explicit-formula style majorant for log|L(1/2+it, chi)| under GRH.

Negative shifts reuse the |L| column of the matching positive shift through
the conjugation permutation chi -> conj(chi), and family sums are sorted
before the fixed-chunk reduction, so a moment at shifts -t is bit-identical
to the moment at t.  Columns are evaluated one after another on the calling
thread; the `workers` keyword of the public functions is accepted and ignored.

Near-vanishing values: when |L| is below its own error bound, log|L| is
clamped to -50 and the character is counted in the report's flag field, so
count and moment outputs stay finite and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ShiftTuple, as_shift_tuple, shifted_moment_bound
from .characters import Character, CharacterGroup, build_group
from .errors import DomainError, PoleError, PrecisionError
from .numtheory import PrimeTable, sieve
from .reports import MomentReport
from .specfun import ComplexApprox, digamma_vector, hurwitz_zeta_vector
from .summation import chunked_sum, parallel_map

__all__ = [
    "ShiftTuple",
    "LValueGrid",
    "LargeValueHistogram",
    "LOG_CLAMP",
    "LAMBDA0",
    "lambda_zero",
    "l_value",
    "l_values_all_chars",
    "l_value_grid",
    "central_moment",
    "shifted_moment",
    "large_value_counts",
    "log_l_majorant",
]

_EPS = np.finfo(float).eps

MAX_SHIFT = 50.0   # |t| window with quadrature-grade accuracy
LOG_CLAMP = -50.0  # log|L| substitute when |L| is below its error bound

def _unit_zeta_weights(group: CharacterGroup, s: complex, tol: float):
    """(w, per_sum_err): w[a] = zeta(s, a/q) at units, 0 elsewhere."""
    q = group.q
    units = group.structure.units()
    if q == 1:
        a = np.array([1.0])
    else:
        a = units.astype(float) / q
    phi = len(units)
    # split the requested tolerance: the character sum sees phi Hurwitz terms
    hz_tol = tol * q ** s.real / (2 * phi)
    try:
        vals, hz_err = hurwitz_zeta_vector(s, a, tol=hz_tol)
    except PrecisionError as e:
        raise PrecisionError(
            f"L(s, chi) mod {q} at s = {s:g}: requested tol {tol:g} unreachable "
            f"(per-entry Hurwitz tol {hz_tol:g}, achieved {e.best.abs_error:g})",
            best=e.best) from e
    w = np.zeros(q, dtype=complex)
    w[units % q] = vals
    # worst-case propagated error of any chi-weighted sum of these values
    sum_err = phi * hz_err + _EPS * (math.log2(phi) + 8) * float(np.sum(np.abs(vals)))
    return w, sum_err


def _qpow_factor(q: int, s: complex) -> tuple[complex, float]:
    """q^{-s} and the relative rounding of computing it."""
    v = complex(q) ** (-s)
    rel = (abs(s) * math.log(q) + 4) * _EPS
    return v, rel


def l_value(q: int, chi: Character, s: complex, tol: float = 1e-10) -> ComplexApprox:
    """L(s, chi) by the Hurwitz route; s = 1 handled via the digamma finite part.

    Error bound = q^{-Re s} (phi * per-term Hurwitz error + summation model),
    reported in the result.
    """
    if chi.q != q:
        raise DomainError(f"character modulus {chi.q} does not match q = {q}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    s = complex(s)
    group = chi.group
    units = group.structure.units()
    chivals = chi.value_table()[units % q]
    if s == 1:
        if chi.conductor == 1:
            raise PoleError("L(s, trivial-conductor character) has a pole at s = 1")
        a = np.array([1.0]) if q == 1 else units.astype(float) / q
        psi, psi_err = digamma_vector(a)
        total = chunked_sum(chivals * (-psi))
        err = (len(units) * psi_err + _EPS * 8 * float(np.sum(np.abs(psi)))) / q
        return ComplexApprox(total / q, err)
    w, sum_err = _unit_zeta_weights(group, s, tol)
    total = chunked_sum(chivals * w[units % q])
    qs, qs_rel = _qpow_factor(q, s)
    value = qs * total
    err = abs(qs) * sum_err + abs(value) * qs_rel
    return ComplexApprox(value, err)


def l_values_all_chars(q: int, s: complex, tol: float = 1e-10,
                       group: CharacterGroup | None = None) -> tuple[np.ndarray, float]:
    """L(s, chi) for every character mod q in group index order.

    Returns (values, err): one shared Hurwitz vector, one fast transform, and
    a single worst-case error bound valid for each entry.
    """
    if q < 3:
        raise DomainError("l_values_all_chars requires q >= 3")
    if group is None:
        group = build_group(q)
    s = complex(s)
    w, sum_err = _unit_zeta_weights(group, s, tol)
    t = group.transform(w)
    qs, qs_rel = _qpow_factor(q, s)
    values = qs * t
    err = abs(qs) * sum_err + float(np.max(np.abs(values))) * qs_rel
    return values, err


@dataclass(frozen=True)
class LValueGrid:
    """L-values on a grid: rows = selected characters, columns = s-points."""

    q: int
    s_points: tuple[complex, ...]
    char_indices: np.ndarray
    values: np.ndarray  # (n_chars, n_points) complex
    errs: np.ndarray    # (n_points,) worst-case per column

    def approx(self, row: int, col: int) -> ComplexApprox:
        return ComplexApprox(complex(self.values[row, col]), float(self.errs[col]))


def l_value_grid(q: int, s_points, tol: float = 1e-10,
                 family: str | None = None, workers: int = 1) -> LValueGrid:
    """Build an LValueGrid for all characters (or one family) at many s-points.

    `workers` is accepted and ignored.
    """
    group = build_group(q)
    pts = tuple(complex(s) for s in s_points)
    cols = parallel_map(lambda s: l_values_all_chars(q, s, tol, group=group), pts)
    if family is None:
        idx = np.arange(len(group))
    else:
        idx = np.flatnonzero(group.family_mask(family))
    values = np.stack([c[0][idx] for c in cols], axis=1)
    errs = np.array([c[1] for c in cols])
    return LValueGrid(q=q, s_points=pts, char_indices=idx, values=values, errs=errs)


# ---------------------------------------------------------------------------
# family aggregates


def _abs_l_columns(group: CharacterGroup, shifts, tol: float):
    """|L(1/2 + i t, chi)| columns for every shift value in `shifts`.

    Columns for -t are the +t column permuted by conjugation (same floats),
    which keeps t -> -t symmetry exact.  Returns (columns, errs) keyed by
    position in `shifts`.
    """
    pos = sorted({abs(t) for t in shifts})
    res = parallel_map(
        lambda tv: l_values_all_chars(group.q, 0.5 + 1j * tv, tol, group=group), pos)
    by_abs = {tv: (np.abs(vals), err) for tv, (vals, err) in zip(pos, res)}
    cols, errs = [], []
    for t in shifts:
        absl, err = by_abs[abs(t)]
        cols.append(absl if t >= 0 else absl[group.conjugation])
        errs.append(err)
    return cols, errs


def central_moment(q: int, k: int, tol: float = 1e-10) -> MomentReport:
    """M_{2k}(q) = sum over primitive chi of |L(1/2, chi)|^{2k}, with the
    q (log q)^{k^2} normalization."""
    if q < 3:
        raise DomainError("central_moment requires q >= 3")
    if k < 0:
        raise DomainError("k must be >= 0")
    group = build_group(q)
    mask = group.family_mask("star")
    size = int(np.sum(mask))
    if k == 0:
        raw = float(size)
    else:
        vals, _ = l_values_all_chars(q, 0.5, tol, group=group)
        raw = float(chunked_sum(np.sort(np.abs(vals[mask]) ** (2 * k))))
    norm = q * math.log(q) ** (k * k)
    return MomentReport(q=q, k=k, family="star", raw=raw, normalization=norm,
                        ratio=raw / norm, eps=tol, family_size=size)


def shifted_moment(q: int, t, tol: float = 1e-10, family: str = "star",
                   workers: int = 1) -> MomentReport:
    """sum over the family of prod_i |L(1/2 + i t_i, chi)|.

    The report's normalization is the bounds-module product bound (eps knob
    0.1); NaN when q < 16 where that bound is undefined.  `workers` is
    accepted and ignored.
    """
    t = as_shift_tuple(t)
    if max(abs(v) for v in t) > MAX_SHIFT:
        raise DomainError(f"shifts must satisfy |t| <= {MAX_SHIFT:g}")
    if q < 3:
        raise DomainError("shifted_moment requires q >= 3")
    group = build_group(q)
    mask = group.family_mask(family)
    size = int(np.sum(mask))
    cols, _ = _abs_l_columns(group, tuple(t), tol)
    prod = np.ones(size)
    for col in cols:
        prod = prod * col[mask]
    raw = float(chunked_sum(np.sort(prod)))
    norm = shifted_moment_bound(q, t, eps=0.1) if q >= 16 else float("nan")
    return MomentReport(q=q, k=t.k, family=family, raw=raw, normalization=norm,
                        ratio=raw / norm, eps=tol, family_size=size)


@dataclass(frozen=True)
class LargeValueHistogram:
    """Counts N(q, V) = #{chi in family : sum_i log|L(1/2+it_i, chi)| >= V}."""

    q: int
    shifts: ShiftTuple
    family: str
    excluded_quadratic: bool
    v_grid: np.ndarray
    counts: np.ndarray
    family_size: int
    flagged: int  # characters with at least one clamped log|L|
    eps: float


def large_value_counts(q: int, t, v_grid, tol: float = 1e-10,
                       family: str = "nonquadratic", workers: int = 1) -> LargeValueHistogram:
    """Empirical large-value histogram over an ascending V grid.

    log|L| below the evaluation's own error bound is clamped to LOG_CLAMP and
    the affected characters are counted in `flagged`.  `workers` is accepted
    and ignored.
    """
    t = as_shift_tuple(t)
    if max(abs(v) for v in t) > MAX_SHIFT:
        raise DomainError(f"shifts must satisfy |t| <= {MAX_SHIFT:g}")
    if q < 3:
        raise DomainError("large_value_counts requires q >= 3")
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0 or np.any(np.diff(v) < 0):
        raise DomainError("V grid must be one-dimensional and ascending")
    group = build_group(q)
    mask = group.family_mask(family)
    size = int(np.sum(mask))
    cols, errs = _abs_l_columns(group, tuple(t), tol)
    total = np.zeros(size)
    clamped = np.zeros(size, dtype=bool)
    for col, err in zip(cols, errs):
        absl = col[mask]
        low = absl < err
        with np.errstate(divide="ignore"):
            lv = np.where(low, LOG_CLAMP, np.log(np.where(low, 1.0, absl)))
        total += lv
        clamped |= low
    counts = size - np.searchsorted(np.sort(total), v, side="left")
    return LargeValueHistogram(
        q=q, shifts=t, family=family,
        excluded_quadratic=family in ("nonquadratic", "star-nonquadratic"),
        v_grid=v, counts=counts, family_size=size,
        flagged=int(np.sum(clamped)), eps=tol)


# ---------------------------------------------------------------------------
# GRH majorant


def lambda_zero(tol: float = 1e-15) -> float:
    """The unique root of e^{-x} = x, by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if math.exp(-mid) > mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


LAMBDA0 = lambda_zero()


def _log_plus(x: float) -> float:
    return math.log(x) if x > 1 else 0.0


def log_l_majorant(q: int, chi: Character, t: float = 0.0, x: float = 25.0,
                   lam: float = 0.6, primes_only: bool = False,
                   T: float | None = None, table: PrimeTable | None = None) -> float:
    """Explicit-formula style upper bound for log|L(1/2 + it, chi)| under GRH:

        Re sum_{n<=x} chi(n) Lambda(n) / (n^{1/2 + lam/log x + it} log n)
           * log(x/n)/log x  +  (1+lam)/2 * (log q + log+ T)/log x

    with prime powers n = p^j weighted 1/j; primes_only drops j >= 2.  T
    defaults to |t| (the tightest admissible height).
    """
    if chi.q != q:
        raise DomainError(f"character modulus {chi.q} does not match q = {q}")
    if x < 2:
        raise DomainError("x must be >= 2")
    if lam < LAMBDA0 - 1e-12:
        raise DomainError(f"lambda must be >= lambda0 = {LAMBDA0:.6f}")
    if T is None:
        T = abs(t)
    lx = math.log(x)
    sigma = 0.5 + lam / lx
    if table is None or table.limit < int(x):
        table = sieve(max(int(x), 2))
    acc = 0.0
    for p in table.primes_in(2, int(x)):
        p = int(p)
        n, j = p, 1
        while n <= x:
            if not (primes_only and j >= 2):
                coeff = math.log(x / n) / lx / j
                acc += (chi.value(n) * n ** complex(-sigma, -t)).real * coeff
            n *= p
            j += 1
    return acc + (1 + lam) / 2 * (math.log(q) + _log_plus(T)) / lx
