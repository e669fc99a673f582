"""Dirichlet L-values on the critical line and their family aggregates.

Evaluation route: L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q) over units a,
with the n = 0 term of each Hurwitz value split off:

    q^{-s} zeta(s, a/q) = a^{-s} + q^{-s} zeta(s, 1 + a/q).

The weights w_a (the right-hand side), on the units in group order, are
shared by every character, and one CharacterGroup.character_sums call per
run of s-points turns them into all L(s, chi) and bounds the transform's
rounding.  l_value is entry chi.index of that call, so it equals the family
entry bit for bit; s = 1 reads the character sums of the digamma values.
At real s the weights are real, so character_sums returns exact pairs
L(s, conj chi) = conj L(s, chi).  The Dirichlet polynomial a^{-s} takes its
phase t log a mod 2 pi in longdouble, with no phase work for a run of points
at t = 0, where a^{-s} is its real magnitude; zeta(s, 1 + a/q) comes from
specfun.hurwitz_grid_runs, with an error e_a per entry (Taylor in a from
longdouble centres at large phi, direct Euler-Maclaurin at small phi).  The
error of any character sum of the weights is then

    |q^{-s}| sum_a e_a  +  Dirichlet-polynomial rounding  +  transform rounding,

each part reported when a request is refused.  Without the split the n = 0
term of the a = 1 entry (size q^sigma) set the float model for all phi
entries.  (No approximate functional equation: error control is
simpler and the shared weights make moment scans cheap.)

Aggregates over character families:

* central moments  sum |L(1/2, chi)|^{2k} over primitive characters,
  normalized by q (log q)^{k^2};
* shifted moments  sum prod_i |L(1/2 + i t_i, chi)|, normalized by the
  bounds-module product bound;
* large-value counts N(q, V) = #{chi : sum_i log|L(1/2+it_i, chi)| >= V};
* an explicit-formula style majorant for log|L(1/2+it, chi)| under GRH.

All three reach L through one family path, _family_columns: it checks q
and the shifts, builds the group and the family mask once, and evaluates the
distinct |t| as the s-points of one _l_rows call, keeping only |L| of each
run (no (S, phi) complex array).  A central moment is its t = 0 column.
Negative shifts reuse the |L| column of the matching positive shift through
the conjugation permutation chi -> conj(chi) (the t = 0 row is exactly
conjugate-symmetric already), and every moment is reduced by
reports.moment_report (sorted, then the fixed-chunk sum), so a moment at
shifts -t is bit-identical to the moment at t, and M_2(q) to the shifted
moment at (0, 0).

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
from .numtheory import sieve
from .reports import MomentReport, moment_report
from .specfun import HZ_BLOCK, ComplexApprox, digamma_vector, hurwitz_grid_runs

__all__ = [
    "ShiftTuple",
    "LargeValueHistogram",
    "LOG_CLAMP",
    "LAMBDA0",
    "lambda_zero",
    "l_value",
    "l_values_all_chars",
    "central_moment",
    "shifted_moment",
    "large_value_counts",
    "log_l_majorant",
]

_EPS = np.finfo(float).eps
_EPS_LD = float(np.finfo(np.longdouble).eps)

MAX_SHIFT = 50.0   # |t| window with quadrature-grade accuracy
LOG_CLAMP = -50.0  # log|L| substitute when |L| is below its error bound

# a-values per elementwise chunk of the weights: about 100 bytes of
# temporaries each, so a chunk stays under a megabyte
_CHUNK = HZ_BLOCK // 8
_TWO_PI = np.longdouble("6.283185307179586476925286766559005768")


def _powers(s: np.ndarray, n: np.ndarray):
    """(n^{-s}, |n^{-s}|) for integers n > 0 and a column of s-points, from
    log n in longdouble: the phase t log n is reduced mod 2 pi there, then it
    and -sigma log n are rounded to float64 for cos, sin and exp.  A column
    of real points has no phase: n^{-s} is the (real) magnitude itself."""
    ln = np.log(n.astype(np.longdouble))
    mag = np.exp((-s.real * ln).astype(float))
    if not s.imag.any():
        return mag, mag
    ang = s.imag * ln
    ang -= _TWO_PI * np.rint(ang / _TWO_PI)
    ang = ang.astype(float)
    return mag * (np.cos(ang) - 1j * np.sin(ang)), mag


def _powers_rel(s: np.ndarray, n: int) -> np.ndarray:
    """Relative error of _powers at every n' <= n: the float64 exponent
    (sigma log n / 2 eps), angle, cos/sin, exp and products (5 eps), and the
    longdouble phase before its reduction (4 eps_ld |t| log n)."""
    ln = math.log(n)
    return (s.real * ln / 2 + 5) * _EPS + 4 * _EPS_LD * np.abs(s.imag) * ln


def _weights(group: CharacterGroup, s_col: np.ndarray, hurwitz, sums: np.ndarray) -> np.ndarray:
    """w[., i] = q^{-s} zeta(s, a/q) = a^{-s} + q^{-s} zeta(s, 1 + a/q), a = n_of_index[i],
    one row per s-point of the column s_col, filled in slices of _CHUNK
    units; adds each row's three error sums to sums (see _l_rows)."""
    q = group.q
    a_all = np.array([1]) if q == 1 else group.structure.n_of_index
    qs, qs_abs = _powers(s_col, np.array([q]))
    # q^{-s} and its product with zeta(s, 1 + a/q) round within rel + eps
    qs_abs, qs_rel = qs_abs[:, 0], _powers_rel(s_col[:, 0], q) + _EPS
    w = np.empty((len(s_col), len(a_all)), dtype=complex)
    for c in range(0, len(a_all), _CHUNK):
        a = a_all[c:c + _CHUNK]
        h, e = hurwitz(a)
        sums[0] += qs_abs * (np.sum(e, axis=1) + qs_rel * np.sum(np.abs(h), axis=1))
        d, mag = _powers(s_col, a)
        sums[1] += np.sum(mag, axis=1)
        h *= qs
        h += d
        w[:, c:c + _CHUNK] = h
        sums[2] += np.sum(np.abs(h), axis=1)
    return w


def _l_rows(group: CharacterGroup, s, tol: float):
    """Yield (i, j, L, err) over runs of the s-points (a 1-D array) in order,
    L the group transform of the _weights rows of points i..j-1 (row k: every
    L(s_{i+k}, chi)) and err the error of each entry of a row:
      |q^{-s}| (sum_a e_a + rel sum_a |zeta|)   (Hurwitz part, e_a per entry)
      + rel sum_a |a^{-s}|                      (Dirichlet polynomial)
      + eps sum_a |w_a| + character_sums' err   (weight and transform roundings),
    rel the _powers_rel bound.  Raises PrecisionError at the first point, in
    input order, whose err > tol, with best = ComplexApprox(its row of L, err).
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    q, phi = group.q, group.phi
    pts = np.ravel(np.asarray(s, dtype=complex)).tolist()
    # analytic budget per Hurwitz entry: the Hurwitz part's remainders stay <= tol / 8
    entry_tol = [tol * q ** z.real / (4 * phi) for z in pts]
    for i, j, hurwitz in hurwitz_grid_runs(pts, q, phi, entry_tol):
        s_col = np.array(pts[i:j])[:, None]
        sums = np.zeros((3, j - i))
        out, rounding = group.character_sums(_weights(group, s_col, hurwitz, sums))
        parts = {"Hurwitz part": sums[0],
                 "Dirichlet polynomial": _powers_rel(s_col[:, 0], q) * sums[1],
                 "transform rounding": _EPS * sums[2] + rounding}
        err = sum(parts.values())
        for k in np.flatnonzero(err > tol)[:1]:
            stage = max(parts, key=lambda name: parts[name][k])
            split = ", ".join(f"{name} {v[k]:.3g}" for name, v in parts.items())
            raise PrecisionError(
                f"L(s, chi) mod {q} at s = {pts[i + k]:g}: requested tol {tol:g} unreachable "
                f"(achieved {err[k]:.3g}: {split}; largest: {stage})",
                best=ComplexApprox(out[k], float(err[k])), s=pts[i + k], stage=stage, q=q,
                tol=tol, internal_tol=entry_tol[i + k])
        yield i, j, out, err
        del out  # not alive during the next run's transform


def l_value(q: int, chi: Character, s: complex, tol: float = 1e-10) -> ComplexApprox:
    """L(s, chi) by the Hurwitz route: entry chi.index of the _l_rows
    transform, with its error bound (a refusal's best is that entry); s = 1
    by the digamma finite part, entry chi.index of the character sums of
    -psi(a/q) / q.
    """
    if chi.q != q:
        raise DomainError(f"character modulus {chi.q} does not match q = {q}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    s = complex(s)
    group = chi.group
    if s == 1:
        if chi.is_trivial:
            raise PoleError("L(s, trivial character) has a pole at s = 1")
        psi, psi_err = digamma_vector(group.structure.n_of_index / q)
        values, err = group.character_sums(psi)
        return ComplexApprox(-complex(values[chi.index]) / q, (group.phi * psi_err + err) / q)
    try:
        ((_, _, row, err),) = _l_rows(group, s, tol)
    except PrecisionError as e:
        e.best = ComplexApprox(complex(e.best.value[chi.index]), e.best.abs_error)
        raise
    return ComplexApprox(complex(row[0, chi.index]), float(err[0]))


def l_values_all_chars(q: int, s, tol: float = 1e-10, group: CharacterGroup | None = None
                       ) -> tuple[np.ndarray, float | np.ndarray]:
    """L(s, chi) for every character mod q in group index order.

    Returns (values, err): one shared weight vector per s-point, one fast
    transform, and a single worst-case error bound valid for each entry.  For a
    1-D array of S points, ((S, phi) values, (S,) errs), row i equal to the
    call at s[i].
    """
    if q < 3:
        raise DomainError("l_values_all_chars requires q >= 3")
    if group is None:
        group = build_group(q)
    if group.q != q:
        raise DomainError(f"group modulus {group.q} does not match q = {q}")
    values = np.empty((np.size(s), group.phi), dtype=complex)
    errs = np.empty(np.size(s))
    for i, j, v, err in _l_rows(group, s, tol):
        values[i:j], errs[i:j] = v, err
        del v  # not alive during the next run's transform
    if np.ndim(s):
        return values, errs
    return values[0], float(errs[0])


# ---------------------------------------------------------------------------
# family aggregates


def _family_columns(caller: str, q: int, shifts, tol: float, family: str):
    """The one family path of the aggregates (see the module docstring):
    (columns, errs, family size), column i holding |L(1/2 + i t, chi)| over
    the family at t = shifts[i] and errs[i] its error bound.  q and the shifts
    are checked in the name of caller; no shifts evaluate no L."""
    if max(map(abs, shifts), default=0) > MAX_SHIFT:
        raise DomainError(f"shifts must satisfy |t| <= {MAX_SHIFT:g}")
    if q < 3:
        raise DomainError(f"{caller} requires q >= 3")
    group = build_group(q)
    mask = group.family_mask(family)
    pos = sorted({abs(t) for t in shifts})
    absl, errs = np.empty((len(pos), group.phi)), np.empty(len(pos))
    for i, j, v, err in _l_rows(group, 0.5 + 1j * np.array(pos), tol):
        np.abs(v, out=absl[i:j])
        errs[i:j] = err
        del v  # not alive during the next run's transform
    rows = [pos.index(abs(t)) for t in shifts]
    cols = [(absl[i] if t >= 0 else group.conjugate(absl[i]))[mask]
            for i, t in zip(rows, shifts)]
    return cols, [float(errs[i]) for i in rows], int(np.sum(mask))


def central_moment(q: int, k: int, tol: float = 1e-10) -> MomentReport:
    """M_{2k}(q) = sum over primitive chi of |L(1/2, chi)|^{2k}, with the
    q (log q)^{k^2} normalization: the t = 0 column of the family path."""
    if k < 0:
        raise DomainError("k must be >= 0")
    cols, _, size = _family_columns("central_moment", q, (0.0,) if k else (), tol, "star")
    terms = cols[0] ** (2 * k) if k else np.ones(size)
    return moment_report(q, k, "star", terms, q * math.log(q) ** (k * k), tol)


def shifted_moment(q: int, t, tol: float = 1e-10, family: str = "star") -> MomentReport:
    """sum over the family of prod_i |L(1/2 + i t_i, chi)|.

    The report's normalization is the bounds-module product bound (eps knob
    0.1); NaN when q < 16 where that bound is undefined.
    """
    t = as_shift_tuple(t)
    cols, _, size = _family_columns("shifted_moment", q, t, tol, family)
    prod = np.ones(size)
    for col in cols:
        prod *= col
    norm = shifted_moment_bound(q, t, eps=0.1) if q >= 16 else float("nan")
    return moment_report(q, t.k, family, prod, norm, tol)


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
                       family: str = "nonquadratic") -> LargeValueHistogram:
    """Empirical large-value histogram over an ascending V grid.

    log|L| below the evaluation's own error bound is clamped to LOG_CLAMP and
    the affected characters are counted in `flagged`.
    """
    t = as_shift_tuple(t)
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0 or np.isnan(v).any() or np.any(np.diff(v) < 0):
        raise DomainError("V grid must be one-dimensional, ascending and free of NaN")
    cols, errs, size = _family_columns("large_value_counts", q, t, tol, family)
    total = np.zeros(size)
    clamped = np.zeros(size, dtype=bool)
    for lv, err in zip(cols, errs):
        low = lv < err
        lv[low] = 1.0
        np.log(lv, out=lv)
        lv[low] = LOG_CLAMP
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
                   T: float | None = None) -> float:
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
    acc = 0.0
    for p in sieve(max(int(x), 2)).primes_in(2, int(x)):
        p = int(p)
        n, j = p, 1
        while n <= x:
            if not (primes_only and j >= 2):
                coeff = math.log(x / n) / lx / j
                acc += (chi.value(n) * n ** complex(-sigma, -t)).real * coeff
            n *= p
            j += 1
    return acc + (1 + lam) / 2 * (math.log(q) + _log_plus(T)) / lx
