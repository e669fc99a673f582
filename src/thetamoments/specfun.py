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
grown further.  _em_block is the one kernel: it evaluates a ladder of rungs
s, s+1, ..., s+K-1 from one complex power (n+a)^{-s} per row, since
(n+a)^{-s-k} = (n+a)^{-s} (n+a)^{-k} is k real multiplications away (2k eps
more in the float model), and each tail term at N + a is one complex power
(N+a)^{-s-k} times real powers of (N+a)^{-1}.  _em_fill is the one tiling of
this work, and every caller takes its (points, rungs, len(a)) values and
errors whole: runs of s-points in input order, each run's a-values in
balanced column tiles (equal widths +-1, so none is one column wide unless
len(a) = 1) of at most HZ_BLOCK term entries (points x min(N, EM_ROWS) x
columns; a point's rungs share its term array).  Each rung keeps its own
(N, M) and analytic bound, with the rows and terms past them as exact zeros,
so every row equals the one-point, untiled evaluation.  The same block code
runs in float64 or, with eps_ld in its float model, in longdouble.

The L path needs zeta(s, 1 + a/q) at every unit a mod q, with an error per
entry (hurwitz_grid_runs).  Each s-point takes the cheaper of two routes:

* Taylor in a (DLMF 25.11): zeta(s, c + d) = sum_k (-1)^k (s)_k/k!
  zeta(s+k, c) d^k about J = 64 centres c_j = 1 + (j + 1/2)/J, so |d| <= 1/128.
  The J K centre values zeta(s+k, c_j) are one K-rung ladder of the block
  code in clongdouble; each entry is then a K-term float64 Horner sum in
  d = (2Ja - (2j+1)q)/(2Jq), an integer ratio rounded once, with bound
  sum_k (|(s)_k/k!| err_k(c_j) + (2K + 5) eps |C_k|) |d|^k plus the
  truncation bound of _taylor_terms;
* direct Euler-Maclaurin at the float64 argument 1 + a/q, its rounding
  included in the bound.

The route is chosen by term count, J K N + phi K for Taylor against phi N for
direct (N the Euler-Maclaurin rows), so small groups (the Mellin check's
phi = 28) stay direct and large ones go through the centres.  Of the J K N
centre terms only J N are complex powers; the rest are the ladder's real
multiplications, so the count overstates the centres' cost.

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

# B_2, B_4, ..., B_30 as exact ratios, and rounded to float
_B2J_EXACT = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322),
]
_B2J = [n / d for n, d in _B2J_EXACT]
# B_2j/(2j)! in float64, and in longdouble from the exact ratios
_B2J_FACT = {np.float64: np.array([b / math.factorial(2 * j) for j, b in enumerate(_B2J, 1)]),
             np.longdouble: np.array([np.longdouble(n) / np.longdouble(d * math.factorial(2 * j))
                                      for j, (n, d) in enumerate(_B2J_EXACT, 1)])}
_MAX_M = len(_B2J)  # 15
HZ_BLOCK = 2 ** 16  # term entries (s-points x rows x a-values) evaluated at once
EM_ROWS = 256  # Euler-Maclaurin rows summed per step of _em_block


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


def _ladder(x: np.ndarray, idx: np.ndarray, a: np.ndarray, keep: np.ndarray,
            out: np.ndarray) -> None:
    """out[:, k] += sum over the rows kept for rung k of x (n+a)^{-k}, for
    every rung k, n the row column idx: x (points, rows, len(a)) is
    overwritten by k real multiplications by (n+a)^{-1}, and keep is (points,
    rungs, rows).  Each rung is one np.sum over the rows, so its order does
    not depend on the other rungs or on how the columns are tiled."""
    for k in range(out.shape[1]):
        if k == 1:
            inv = (1 / (idx + a)).astype(x.dtype)  # once, so no cast per product
        if k:
            x *= inv
        out[:, k] += np.sum(x, axis=1, where=keep[:, k, :, None])


def _em_block(pts, nmb, a: np.ndarray):
    """(values, per-entry errs), shape (points, rungs, len(a)), of zeta(s + k, a)
    at each point s of pts and rung k, with nmb[i][k] the (N, M, bound) of
    rung k of point i: rows n >= N and Bernoulli terms j > M enter as exact
    zeros.  One complex power (n+a)^{-s} per point, row and a-value; rung k is
    k real multiplications by (n+a)^{-1} away.  Each rung's tail is one
    complex power (N+a)^{-s-k} times real powers of (N+a)^{-1}.  The
    arithmetic, and the eps of the float model, follow a's dtype (float64 or
    longdouble)."""
    s = np.asarray(pts, dtype=np.result_type(a, complex))[:, None]
    eps, bern = np.finfo(a.dtype).eps, _B2J_FACT[a.dtype.type]
    ns, ms, analytic = (np.array([[r[i] for r in rungs] for rungs in nmb]) for i in range(3))
    ks = np.arange(ns.shape[1])
    # main sum in blocks of EM_ROWS rows; alongside it, in float64, the sums of
    # |term| and |log(n+a)| |term| for the error model
    acc = np.zeros(ns.shape + a.shape, dtype=s.dtype)
    acc_abs, acc_wabs = np.zeros(acc.shape), np.zeros(acc.shape)
    for i0 in range(0, ns.max(), EM_ROWS):
        idx = np.arange(i0, min(i0 + EM_ROWS, ns.max()), dtype=a.dtype)[:, None]
        keep = idx[:, 0] < ns[..., None]  # rows n < N of each point's rungs
        lg = np.log(idx + a)
        # exp in place, one complex (points, rows, len(a)) array alive at a time
        term = -s[..., None] * lg
        np.exp(term, out=term)
        _ladder(term, idx, a, keep, acc)
        del term
        lg = lg.astype(float, copy=False)
        mag = -s.real.astype(float)[..., None] * lg
        np.exp(mag, out=mag)
        _ladder(np.abs(lg) * mag, idx, a, keep, acc_wabs)
        _ladder(mag, idx, a, keep, acc_abs)
        del mag

    # pole and half terms (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2 from x = (N+a)^{-s}
    sk = (s + ks)[..., None]  # exact
    na = ns[..., None] + a
    lg = np.log(na)
    x = np.exp(-sk * lg)
    pole = x * na / (sk - 1)
    half = 0.5 * x
    acc += pole + half

    # Bernoulli corrections B_2j/(2j)! * (s)_{2j-1} * x (N+a)^{1-2j}: the rising
    # factorials and the powers of (N+a)^{-2} are running products, terms j > M
    # are zero
    mmax = ms.max()
    poch = np.cumprod(sk + np.arange(2 * mmax - 1), axis=-1)[..., ::2]
    coef = np.where(np.arange(1, mmax + 1) <= ms[..., None], bern[:mmax] * poch, 0)
    power, inv2 = x / na, na ** -2
    corr_abs = np.zeros(acc.shape, dtype=a.dtype)
    for j in range(mmax):
        if j:
            power *= inv2
        term = coef[..., j:j + 1] * power
        acc += term
        corr_abs += np.abs(term)

    # float model: pairwise-summation depth times accumulated magnitude, plus
    # 2k eps for rung k's products, the exp-argument error ~ |Im s| |log(n+a)|
    # eps per term (|s + k| |log(N+a)| eps in the tail), and 4M eps for the
    # Bernoulli terms' running products
    depth = np.log2(np.minimum(ns, EM_ROWS) + 1) + -(-ns // EM_ROWS) + 8 + 2 * ks
    tail_mag = np.abs(pole) + np.abs(half) + corr_abs
    per_entry = (depth[..., None] * acc_abs + 2 * np.abs(s.imag)[..., None] * acc_wabs
                 + (2 * np.abs(sk) * lg + 10) * tail_mag + 4 * mmax * corr_abs)
    return acc, analytic[..., None] + float(eps) * per_entry.astype(float)


def _em_fill(pts, nmb, a: np.ndarray):
    """(values, errs) of _em_block at every point, rung and a-value, shape
    (points, rungs, len(a)) in a's complex dtype, over the balanced tiles of
    the module docstring: points x min(N, EM_ROWS) x width <= HZ_BLOCK (a lone
    point always fits; its rungs share one term array).  numpy reduces a
    one-column term array in another order, so a one-column tile would move
    that entry's last bits."""
    vals = np.empty((len(pts), len(nmb[0]), a.size), dtype=np.result_type(a, complex))
    errs = np.empty(vals.shape)
    i = 0
    while i < len(pts):
        rows = np.minimum(np.maximum.accumulate([max(r[0] for r in rungs) for rungs in nmb[i:]]),
                          EM_ROWS)
        width = max(1, min(a.size, HZ_BLOCK // rows[0]))
        j = i + max(1, int(np.sum(np.arange(1, len(rows) + 1) * rows * width <= HZ_BLOCK)))
        tiles = -(-a.size // width)
        edges = [c * a.size // tiles for c in range(tiles + 1)]
        for c0, c1 in zip(edges, edges[1:]):
            vals[i:j, :, c0:c1], errs[i:j, :, c0:c1] = _em_block(pts[i:j], nmb[i:j], a[c0:c1])
        i = j
    return vals, errs


def _check_s(s) -> None:
    if np.any(s == 1):
        raise PoleError("zeta(s, a) has its pole at s = 1")
    if np.any(s.real <= 0):
        raise DomainError("hurwitz_zeta requires Re s > 0")


def hurwitz_zeta_vector(s: complex, a: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """zeta(s, a) at one point s for an array of a in (0, 1]: (values, error bound).

    The bound is one worst-case figure for every entry: the remainder at the
    smallest a plus the float model maximised over a, evaluated in _em_fill's
    column tiles.  Raises PrecisionError when it misses tol, with best the value
    at argmin(a), where sum_n (n + a)^{-sigma}, and so the float model, is largest.
    """
    s, a = complex(s), np.ravel(np.asarray(a, dtype=float))
    _check_s(s)
    if np.any(a <= 0) or np.any(a > 1):
        raise DomainError("hurwitz_zeta requires 0 < a <= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    nmb = [[_em_choose(s, float(a.min(initial=1.0)), tol)]]
    vals, errs = (x[0, 0] for x in _em_fill([s], nmb, a))
    err = float(errs.max(initial=0.0))
    if err > tol:
        raise PrecisionError(f"zeta(s, a) at s = {s:g}: requested tol {tol:g} unreachable "
                             f"(achieved {err:g})", best=ComplexApprox(complex(vals[np.argmin(a)]), err),
                             s=s, tol=float(tol))
    return vals, err


# ---------------------------------------------------------------------------
# zeta(s, 1 + a/q) on the uniform grid, for the L path

TAYLOR_J = 64  # Taylor centres c_j = 1 + (j + 1/2)/J, so every offset |d| <= 1/(2J)
_TAYLOR_MAX_K = 40


def _taylor_terms(s: complex, tol: float, k_max: int) -> tuple[int, float] | None:
    """(K, bound) for the fewest Taylor terms K <= k_max whose truncation bound
    at every offset |d| <= delta = 1/(2J) is <= tol / 4, or None.

    For k >= K, |(s)_{k+1}/(k+1)!| / |(s)_k/k!| = |s+k|/(k+1) <= rho =
    max(|s+K|/(K+1), 1); zeta(sigma+k+1, c) <= zeta(sigma+k, c) for c >= 1;
    and zeta(sigma+K, c) <= 1 + 1/(sigma+K-1).  So the omitted terms sum to at
    most |(s)_K/K!| (1 + 1/(sigma+K-1)) delta^K / (1 - rho delta).
    """
    if k_max < 2:
        return None
    delta, r = 0.5 / TAYLOR_J, 1.0
    for k in range(k_max + 1):
        rho = max(abs(s + k) / (k + 1), 1.0)
        if k >= 2 and rho * delta < 1:
            bound = r * (1 + 1 / (s.real + k - 1)) * delta ** k / (1 - rho * delta)
            if bound <= tol / 4:
                return k, bound
        r *= abs(s + k) / (k + 1)
    return None


def _taylor(s: complex, k_terms: int, tail: float, tol: float, q: int):
    """Evaluator a -> (values, errs) of the K-term Taylor sum of zeta(s, c_j + d)
    = sum_k (-1)^k (s)_k/k! zeta(s+k, c_j) d^k (DLMF 25.11) at the integers a.

    The J*K centre values are one K-rung ladder of _em_block in clongdouble.
    Each entry's bound is sum_k B[k, j] |d|^k + the truncation bound, with
    B[k, j] the centre error weighted by |(s)_k/k!| plus 2K + 5 eps per |C_k|:
    the float64 Horner sum, the rounding of C_k to complex128 and of d.
    """
    centres = 1 + (np.arange(TAYLOR_J, dtype=np.longdouble) + 0.5) / TAYLOR_J
    ks = np.arange(k_terms)
    pts = np.clongdouble(s) + ks  # exact in longdouble
    nmb = [_em_choose(complex(z), 1 + 0.5 / TAYLOR_J, tol) for z in pts.tolist()]
    zeta, zerr = (x[0] for x in _em_fill(pts[:1], [nmb], centres))
    # (-1)^k (s)_k / k! as one running product
    r = np.cumprod(np.concatenate([[1], -pts[:-1] / ks[1:]]))[:, None]
    coef = r * zeta
    c64 = coef.astype(complex)
    bound = ((np.abs(r).astype(float) * zerr + (2 * k_terms + 5) * _EPS * np.abs(coef).astype(float))
             * (1 + 4 * k_terms * _EPS))

    def evaluate(a: np.ndarray):
        j = a * TAYLOR_J // q
        d = (2 * TAYLOR_J * a - (2 * j + 1) * q) / (2 * TAYLOR_J * q)  # one rounding
        ad = np.abs(d)
        val, err = c64[-1][j], bound[-1][j]
        for k in range(k_terms - 2, -1, -1):
            val *= d
            val += c64[k][j]
            err *= ad
            err += bound[k][j]
        return val[None], err[None] + tail

    return evaluate


def _direct(pts: list[complex], nmb, q: int):
    """Evaluator a -> (values, errs) of Euler-Maclaurin at the float64 x = 1 + a/q.

    x is within 2 eps of 1 + a/q (two roundings), which moves zeta by at most
    |s| zeta(sigma + 1, 1) 2 eps <= |s| (1 + 1/sigma) 2 eps; that is added to
    each entry's bound.
    """
    shift = np.array([2 * _EPS * abs(z) * (1 + 1 / z.real) for z in pts])[:, None]

    def evaluate(a: np.ndarray):
        vals, errs = _em_fill(pts, [[r] for r in nmb], 1 + a / q)
        return vals[:, 0], errs[:, 0] + shift

    return evaluate


def hurwitz_grid_runs(s, q: int, count: int, tols):
    """zeta(s, 1 + a/q) at integers 1 <= a <= q, with a bound per entry.

    s is a 1-D array of points and tols the per-entry analytic targets, one
    per point; count is the number of a-values the caller evaluates.  Each
    point takes the cheaper of two routes, by term count: the K-term Taylor
    expansion about J centres (J K N + count K) or direct Euler-Maclaurin
    (count N), N the Euler-Maclaurin rows.  Yields (i, j, evaluate) in input
    order: points i..j-1 share the evaluator, a -> ((j-i, len(a)) values,
    per-entry errors).  Consecutive direct points run together, at most
    HZ_BLOCK / 16 entries' worth; a Taylor point runs alone.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    _check_s(s)
    pts = s.tolist()
    nmb = [_em_choose(z, 1 + 1 / q, t) for z, t in zip(pts, tols)]
    # Taylor wins while J K N + count K < count N
    terms = [_taylor_terms(z, t, min(_TAYLOR_MAX_K, -(-count * n // (TAYLOR_J * n + count)) - 1))
             for z, t, (n, _, _) in zip(pts, tols, nmb)]
    i = 0
    while i < len(pts):
        if terms[i] is not None:
            yield i, i + 1, _taylor(pts[i], *terms[i], tols[i], q)
            i += 1
            continue
        j = next((j for j in range(i, len(pts)) if terms[j] is not None), len(pts))
        j = min(j, i + max(1, HZ_BLOCK // (16 * count)))
        yield i, j, _direct(pts[i:j], nmb[i:j], q)
        i = j


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
