"""Dirichlet L-values on the critical line and their family aggregates.

Evaluation route: L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q) over units a,
with the n = 0 term of each Hurwitz value split off:

    q^{-s} zeta(s, a/q) = a^{-s} + q^{-s} zeta(s, 1 + a/q).

The weights w_a (the right-hand side), on the units in group order, are
shared by every character, and one CharacterGroup.character_sums call per
run of s-points turns them into all L(s, chi) and bounds the transform's
rounding.  l_value is entry chi.index of that call, so it equals the family
entry bit for bit; s = 1 reads the character sums of the digamma values.
zeta(s, 1 + a/q) comes from specfun.hurwitz_grid_runs with an error e_a per
entry (Taylor in a from longdouble centres at large phi, direct
Euler-Maclaurin at small phi).  a^{-s} is a float64 power a^{-sigma} times,
at complex s, the unit phasor of t log a mod 2 pi: per point, one table of
t log a0 mod 2 pi in longdouble over the leading parts a0 of the units
(a = a0 (1 + r), 0 <= r < 2^-LEAD_BITS), plus t log1p(r) in float64 per unit;
where phi is no more than the table's rows, the phase is taken in longdouble
per unit (see _powers).  Runs never mix real and complex points, and a real
run stays real up to the transform: a^{-s} is one float64 power, the Hurwitz
values and weights are float64, and character_sums returns exact pairs
L(s, conj chi) = conj L(s, chi).  The error of any character sum of the
weights is then

    |q^{-s}| sum_a e_a  +  Dirichlet-polynomial rounding  +  transform rounding,

each part reported when a request is refused.  The split keeps the a = 1
term (size q^sigma) out of every entry's float model; with no approximate
functional equation, error control stays simple and moment scans cheap.

Aggregates over character families:

* central moments  sum |L(1/2, chi)|^{2k} over primitive characters,
  normalized by q (log q)^{k^2};
* shifted moments  sum prod_i |L(1/2 + i t_i, chi)|, normalized by the
  bounds-module product bound;
* large-value counts N(q, V) = #{chi : sum_i log|L(1/2+it_i, chi)| >= V};
* log_l_majorants: (values, err) of a GRH majorant of log|L(1/2+it, chi)|.

The first three reach L through one family path, _family_columns: it checks q
and the shifts, builds the group and the family mask once, and evaluates the
distinct |t| as the s-points of one _l_rows call (none for an empty family,
whose sums are exactly 0), keeping only |L| of each run (no (S, phi) complex
array).  A central moment is its t = 0 column.  Negative shifts reuse the
|L| column of the matching positive shift through the conjugation
permutation chi -> conj(chi) (the t = 0 row is exactly conjugate-symmetric
already).  shifted_moment multiplies its columns in an order that t -> -t maps
to itself (by |t|, each the product of its chi-side and conj-side powers), and
every moment is reduced by reports.moment_report (sorted, then the
fixed-chunk sum), so a moment at shifts -t is bit-identical to the moment at
t, and M_2(q) to the shifted moment at (0, 0).

Near-vanishing values: when |L| is below its own error bound, log|L| is
clamped to -50 and the character is counted in the report's flag field, so
count and moment outputs stay finite and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ShiftTuple, as_shift_tuple, shifted_moment_bound
from .characters import (Character, CharacterGroup, build_group, check_family_modulus,
                         check_modulus, family_group)
from .errors import DomainError, PoleError, PrecisionError
from .numtheory import sieve
from .reports import MomentReport, moment_normalization, moment_report
from .specfun import HZ_BLOCK, TWO_PI, ComplexApprox, digamma_vector, hurwitz_grid_runs

__all__ = [
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
    "log_l_majorants",
]

_EPS = np.finfo(float).eps
_EPS_LD = float(np.finfo(np.longdouble).eps)

MAX_SHIFT = 50.0   # |t| window with quadrature-grade accuracy
LOG_CLAMP = -50.0  # log|L| substitute when |L| is below its error bound

# a-values per elementwise chunk of the weights: about 100 bytes of
# temporaries each, so a chunk stays under a megabyte
_CHUNK = HZ_BLOCK // 8

# B: a complex point's unit phases come from a table over n's leading B + 1 bits
LEAD_BITS = 7


def _powers(s: np.ndarray, n: np.ndarray, table: np.ndarray | None = None):
    """(n^{-s}, |n^{-s}|) for integers n > 0 and a column of s-points.  A real
    column is one float64 power n^{-sigma}, its own magnitude.  At complex s
    the magnitude is that same power and the phase t log n mod 2 pi is, with no
    table, _ld_phase of n; with a _phase_table, n = n0 (1 + r) splits at its
    leading bits (_lead) and the phase is table[n0] + t log1p(r) in float64.
    The value is the magnitude times cos - i sin of the phase."""
    mag = n.astype(float) ** -s.real
    if not s.imag.any():
        return mag, mag
    if table is None:
        ang = _ld_phase(s.imag, n)
    else:
        i, n0 = _lead(n)
        ang = table[:, i] + s.imag * np.log1p((n - n0) / n0)
    # mag (cos - i sin), written in place: no complex temporaries
    out = np.empty(ang.shape, dtype=complex)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    out.real *= mag
    out.imag *= -mag
    return out, mag


def _ld_phase(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """t log n mod 2 pi for a column t and integers n > 0: log, product and
    reduction in longdouble, rounded once to float64 (|value| <= pi)."""
    ang = t * np.log(n.astype(np.longdouble))
    ang -= TWO_PI * np.rint(ang / TWO_PI)
    return ang.astype(float)


def _lead(n: np.ndarray):
    """(row, n0) for integers 0 < n < 2^53: n0 keeps n's leading LEAD_BITS + 1
    bits (n0 = n below 2^(LEAD_BITS + 1)), so n = n0 (1 + r) with 0 <= r <
    2^-LEAD_BITS, and row = (n >> k) + k 2^LEAD_BITS, k the bits dropped, is
    n0's row of _phase_table."""
    k = np.maximum(np.frexp(n)[1] - (LEAD_BITS + 1), 0)
    lead = n >> k
    return lead + (k << LEAD_BITS), lead << k


def _phase_table(t: np.ndarray, rows: int) -> np.ndarray:
    """_ld_phase(t, n0) for the leading parts n0 of _lead's rows 0..rows-1
    (row 0 unused).  With rows = 1 + n's row these are all n0 <= n: at most
    2^(B+1) + 2^B (bitlen(n) - B - 1) of them, B = LEAD_BITS, and 1348 for
    the units mod 100003."""
    row = np.arange(rows)
    k = np.maximum((row >> LEAD_BITS) - 1, 0)
    return _ld_phase(t, np.maximum((row - (k << LEAD_BITS)) << k, 1))


def _powers_rel(s: np.ndarray, n: int) -> np.ndarray:
    """Relative error of _powers at every n' <= n, in the order it computes:
      (sigma log n / 2 + 5) eps   the real column's charge, kept as the floor:
                                  the float64 power (one ulp) and, at complex
                                  s, cos and sin (one ulp), the two products
                                  (eps / 2) and the longdouble phase rounded
                                  to float64 (|phase| <= pi < 4: eps);
      4 eps_ld |t| log n          that phase before its reduction mod 2 pi;
      eps / 2 min(pi, |t| log n)  the float64 add of the table phase and
      + 5 eps |t| 2^-B / 2        t log1p(r) < |t| 2^-B (eps / 2 of their
                                  sum), and r's rounding (eps / 2), log1p
                                  (one ulp) and the product by t (eps / 2) on
                                  the second, B = LEAD_BITS.
    A phase error is the same relative error of the unit phasor."""
    ln, t = math.log(n), np.abs(s.imag)
    return ((s.real * ln / 2 + 5 + (np.minimum(math.pi, t * ln) + 5 * t / 2 ** LEAD_BITS) / 2)
            * _EPS + 4 * _EPS_LD * t * ln)


def _weights(group: CharacterGroup, s_col: np.ndarray, hurwitz, sums: np.ndarray) -> np.ndarray:
    """w[., i] = q^{-s} zeta(s, a/q) = a^{-s} + q^{-s} zeta(s, 1 + a/q), a = n_of_index[i],
    one row per point of the column s_col (float64 if it is real), filled in
    slices of _CHUNK units; adds each row's two error sums to sums (see _l_rows).
    A complex column's unit phases come from one _phase_table for all the
    slices, or in longdouble per unit where the units are no more than its
    rows; q^{-s} takes its one phase in longdouble."""
    q = group.q
    a_all = np.array([1]) if q == 1 else group.structure.n_of_index
    qs, qs_abs = _powers(s_col, np.array([q]))
    rows = int(_lead(a_all.max(keepdims=True))[0][0]) + 1
    table = _phase_table(s_col.imag, rows) if s_col.imag.any() and rows < len(a_all) else None
    # q^{-s} and its product with zeta(s, 1 + a/q) round within rel + eps
    qs_abs, qs_rel = qs_abs[:, 0], _powers_rel(s_col[:, 0], q) + _EPS
    w = np.empty((len(s_col), len(a_all)), dtype=qs.dtype)
    for c in range(0, len(a_all), _CHUNK):
        a = a_all[c:c + _CHUNK]
        h, e = hurwitz(a)
        sums[0] += qs_abs * (np.sum(e, axis=1) + qs_rel * np.sum(np.abs(h), axis=1))
        d, mag = _powers(s_col, a, table)
        sums[1] += np.sum(mag, axis=1)
        h *= qs
        h += d
        w[:, c:c + _CHUNK] = h
    return w


def _l_rows(group: CharacterGroup, s, tol: float):
    """Yield (i, j, L, err) over runs of the s-points (a 1-D array) in order,
    L the group transform of the _weights rows of points i..j-1 (row k: every
    L(s_{i+k}, chi)) and err the error of each entry of a row:
      |q^{-s}| (sum_a e_a + rel sum_a |zeta|)   (Hurwitz part, e_a per entry)
      + rel sum_a |a^{-s}|                      (Dirichlet polynomial)
      + character_sums' err                     (weight and transform roundings),
    rel the _powers_rel bound.  Raises PrecisionError at the first point, in
    input order, whose err > tol, with best = ComplexApprox(its row of L, err).
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    q, phi = group.q, group.phi
    pts = np.ravel(np.asarray(s, dtype=complex)).tolist()
    # per-entry analytic budget: Hurwitz remainders <= tol / 8, tol at least 5 eps (a = 1's rounding)
    entry_tol = [max(tol, 5 * _EPS) * q ** z.real / (4 * phi) for z in pts]
    for i, j, hurwitz in hurwitz_grid_runs(pts, q, phi, entry_tol):
        s_col = np.array(pts[i:j])[:, None]
        sums = np.zeros((2, j - i))
        out, rounding = group.character_sums(_weights(group, s_col, hurwitz, sums))
        parts = {"Hurwitz part": sums[0],
                 "Dirichlet polynomial": _powers_rel(s_col[:, 0], q) * sums[1],
                 "transform rounding": rounding}
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
    -psi(a/q) / q, refused the same way when its bound exceeds tol.
    """
    check_modulus(q, chi)
    if not tol > 0:
        raise DomainError("tol must be positive")
    s = complex(s)
    group = chi.group
    if s == 1:
        if chi.is_trivial:
            raise PoleError("L(s, trivial character) has a pole at s = 1")
        psi, psi_err = digamma_vector(group.structure.n_of_index / q)
        values, err = group.character_sums(psi)
        best = ComplexApprox(-complex(values[chi.index]) / q, float(psi_err.sum() + err) / q)
        if best.abs_error > tol:
            raise PrecisionError(f"L(s, chi) mod {q} at s = 1: requested tol {tol:g} unreachable "
                                 f"(achieved {best.abs_error:.3g})", best=best, s=s, q=q, tol=tol)
        return best
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
    group = family_group(q, group)
    values = np.empty((np.size(s), group.phi), dtype=complex)
    errs = np.empty(np.size(s))
    for i, j, v, err in _l_rows(group, s, tol):
        values[i:j], errs[i:j] = v, err
        del v  # not alive during the next run's transform
    return (values, errs) if np.ndim(s) else (values[0], float(errs[0]))


# ---------------------------------------------------------------------------
# family aggregates


def _family_columns(q: int, shifts, tol: float, family: str):
    """The one family path of the aggregates (see the module docstring):
    (columns, errs, family size), column i holding |L(1/2 + i t, chi)| over
    the family at t = shifts[i] and errs[i] its error bound.  q and the shifts
    are checked first; no shifts, or an empty family, evaluate no L."""
    if max(map(abs, shifts), default=0) > MAX_SHIFT:
        raise DomainError(f"shifts must satisfy |t| <= {MAX_SHIFT:g}")
    group = family_group(q)
    mask = group.family_mask(family)
    if not mask.any():  # the exact empty sum: nothing to certify
        return [np.empty(0) for _ in shifts], [0.0] * len(shifts), 0
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
    q (log q)^{k^2} normalization, checked before the group is built: the
    t = 0 column of the family path."""
    if k < 0:
        raise DomainError("k must be >= 0")
    check_family_modulus(q)
    norm = moment_normalization(q, k, q, 0, k * k)
    cols, _, size = _family_columns(q, (0.0,) if k else (), tol, "star")
    terms = cols[0] ** (2 * k) if k else np.ones(size)
    return moment_report(q, k, "star", terms, norm, tol)


def shifted_moment(q: int, t, tol: float = 1e-10, family: str = "star") -> MomentReport:
    """sum over the family of prod_i |L(1/2 + i t_i, chi)|.

    The report's normalization is the bounds-module product bound (eps knob
    0.1); NaN when q < 16 where that bound is undefined.  A bound that is no
    finite float is refused by the shift count before any group is built.
    """
    t = as_shift_tuple(t)
    norm = shifted_moment_bound(q, t, eps=0.1) if q >= 16 else float("nan")
    cols, _, size = _family_columns(q, t, tol, family)
    # by |t| ascending, each the product of its chi-side (t >= 0) and conj-side
    # (t < 0) powers: t -> -t swaps the two sides, so the products over chi at -t
    # are those at t over conj chi, bit for bit
    sides: dict[float, tuple[list, list]] = {}
    for x, col in zip(t, cols):
        sides.setdefault(abs(x), ([], []))[x < 0].append(col)
    prod = np.ones(size)
    for tau in sorted(sides):
        prod *= math.prod(side[0] ** len(side) for side in sides[tau] if side)
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
    cols, errs, size = _family_columns(q, t, tol, family)
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


def log_l_majorants(q: int, t: float = 0.0, x: float = 25.0, lam: float = 0.6,
                     primes_only: bool = False, T: float | None = None
                     ) -> tuple[np.ndarray, float]:
    """Explicit-formula style upper bounds for log|L(1/2 + it, chi)| under GRH,
    (values, err) for every character mod q >= 1 in index order:

        Re sum_{n<=x} chi(n) Lambda(n) / (n^{1/2 + lam/log x + it} log n)
           * log(x/n)/log x  +  K,   K = (1+lam)/2 * (log q + log+ T)/log x,

    with prime powers n = p^j weighted 1/j; primes_only drops j >= 2.  T
    defaults to |t| (the tightest admissible height).  The N weights c_n n^{-s},
    c_n = log(x/n) / (j log x), fold by residue onto the units (at most m =
    ceil(x/q) a bin) for one character_sums call.  err adds to its bound, to
    first order, with M_n = |n^{-s}| and S = sum c_n M_n: rel S for n^{-s}
    (_powers_rel, and 2 eps sigma log n for sigma's rounding); eps (3 S + sum
    M_n / (2 log x)) for c_n (log, log x, two divisions, and x/n: absolute, as
    log(x/n) -> 0 at n = x); eps S / 2 for the product, (m - 1) eps S for the
    bins, eps (S + K) / 2 for adding K and 4 eps K for K, times (1 + 6 N eps).
    """
    T = abs(t) if T is None else T
    if not math.isfinite(t):
        raise DomainError(f"t must be finite; got {t}")
    for name, v, floor in (("x", x, 2.0), ("lam", lam, LAMBDA0 - 1e-12), ("T", T, abs(t))):
        if not (math.isfinite(v) and v >= floor):
            raise DomainError(f"{name} must be finite and >= {floor:.6g}; got {v:g}")
    group, lx = build_group(q), math.log(x)
    s = np.array([complex(0.5 + lam / lx, t)])
    n = [sieve(max(int(x), 2)).primes_in(2, int(x))]
    while not primes_only and 2 * n[-1][0] <= x:  # the p with p^j <= x: a prefix of the p
        n.append((pk := n[-1] * n[0][:n[-1].size])[pk <= x])
    c, n = np.concatenate([np.log(x / a) / lx / j for j, a in enumerate(n, 1)]), np.concatenate(n)
    power, mag = _powers(s[:, None], n)
    bins = np.zeros(q, dtype=power.dtype)
    np.add.at(bins, n % q, power[0] * c)
    values, err = group.character_sums(bins[group.structure.n_of_index])
    const = (1 + lam) / 2 * (math.log(q) + (math.log(T) if T > 1 else 0.0)) / lx
    rate = _powers_rel(s, n.max())[0] + _EPS * (2 * s.real[0] * math.log(n.max()) + math.ceil(x / q) + 3)
    own = rate * (c @ mag[0]) + _EPS * (mag.sum() / (2 * lx) + 4.5 * const)
    return values.real + const, float(err + own * (1 + 6 * n.size * _EPS))


def log_l_majorant(q: int, chi: Character, t: float = 0.0, x: float = 25.0,
                   lam: float = 0.6, primes_only: bool = False,
                   T: float | None = None) -> float:
    """Entry chi.index of log_l_majorants(q, t, x, lam, primes_only, T)."""
    check_modulus(q, chi)
    return float(log_l_majorants(q, t, x, lam, primes_only, T)[0][chi.index])
