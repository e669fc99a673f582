"""Closed-form bound shapes for shifted moments and large-value counts.

Pure formula evaluation, shared by the L-moment drivers and the CLI:

* pairwise shift kernels: for each pair of shifts at separation D,
  a log-scale weight F and a factor E = exp(F/2); a pair is "close" when
  D <= 1/100, where the kernel saturates at min(1/D, log q);
* the variance parameter W = 2k loglog q + 2 sum F over pairs, which controls
  the Gaussian range of the large-value count;
* a three-regime large-value bound (count of characters whose summed log|L|
  exceeds V) and the matching piecewise cutoff exponent A;
* the product moment bound phi(q) (log q)^{k/2+eps} prod E;
* a prime cosine-sum comparator sum_{p<=z} cos(a log p)/p against its
  Mertens-type main term.

All "<<" constants are fixed to 1; consumers report ratios, never pass/fail
against absolute constants.  Domain floors (q >= 17 where log log log q must
be positive, q >= 16 where only log log q is needed) are enforced by raising,
not clamping: a silently clamped bound value would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numtheory import PrimeTable, euler_phi, sieve
from .reports import check_float_range

__all__ = [
    "CLOSE_THRESHOLD", "MAX_COS_A", "ShiftTuple", "as_shift_tuple", "PairTerm", "BoundProfile",
    "RegimeBound", "pair_log_weight", "pair_factor", "variance_parameter", "cutoff_exponent",
    "large_value_bound", "shifted_moment_bound", "cos_sum_check", "bound_profile",
]

CLOSE_THRESHOLD = 1 / 100
MAX_COS_A = 1e15  # |a| in cos(a log p): past it the phase's rounding nears a radian


@dataclass(frozen=True)
class ShiftTuple:
    """An even-length tuple of real shifts, sorted on construction."""

    shifts: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(float(t) for t in self.shifts))
        if len(vals) < 2 or len(vals) % 2:
            raise DomainError("shift tuple must have even length >= 2")
        if not all(math.isfinite(t) for t in vals):
            raise DomainError("shifts must be finite")
        object.__setattr__(self, "shifts", vals)

    @property
    def k(self) -> int:
        return len(self.shifts) // 2

    def __len__(self) -> int:
        return len(self.shifts)

    def __iter__(self):
        return iter(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]

    def pairs(self) -> list[tuple[int, int, float]]:
        """(i, j, |t_i - t_j|) for all i < j."""
        t = self.shifts
        return [(i, j, abs(t[i] - t[j]))
                for i in range(len(t)) for j in range(i + 1, len(t))]

    @staticmethod
    def is_close(delta: float) -> bool:
        return abs(delta) <= CLOSE_THRESHOLD


def as_shift_tuple(t) -> ShiftTuple:
    return t if isinstance(t, ShiftTuple) else ShiftTuple(tuple(t))


def _require_q(q, floor: int, why: str) -> None:
    if q < floor:
        raise DomainError(f"q must be >= {floor} ({why}); got {q}")


@dataclass(frozen=True)
class PairTerm:
    """Per-pair record: indices, separation, closeness, F and E values."""

    i: int
    j: int
    delta: float
    close: bool
    log_weight: float
    factor: float


def _pair_scale(d: float, lq: float) -> float:
    """The scale of a pair at separation D, lq = log q: min(1/D, log q) for a
    close pair (D = 0 giving log q), log log q for a far pair, so never below
    log log q.  F is its log and E its square root."""
    if ShiftTuple.is_close(d):
        return lq if d == 0 else min(1 / d, lq)
    return math.log(lq)


def pair_log_weight(ti: float, tj: float, q) -> float:
    """Log-scale pair kernel F: close pairs log(min(1/D, log q)) with D=0
    resolving to loglog q, far pairs logloglog q.  Requires q >= 17."""
    _require_q(q, 17, "log log log q must be positive")
    return math.log(_pair_scale(abs(ti - tj), math.log(q)))


def pair_factor(ti: float, tj: float, q) -> float:
    """Moment-bound pair factor E: sqrt of the close-branch min, or
    sqrt(loglog q) for far pairs.  Equals exp(F/2) branchwise.  q >= 16."""
    _require_q(q, 16, "log log q must be positive")
    return math.sqrt(_pair_scale(abs(ti - tj), math.log(q)))


def _pair_terms(t: ShiftTuple, lq: float) -> tuple[PairTerm, ...]:
    """Every pair's F and E from its one scale: the one listing of t's pairs."""
    return tuple(PairTerm(i, j, d, ShiftTuple.is_close(d), math.log(s := _pair_scale(d, lq)),
                          math.sqrt(s)) for i, j, d in t.pairs())


def _variance(k: int, lq: float, terms) -> float:  # W, as variance_parameter
    return 2 * k * math.log(lq) + 2 * sum(p.log_weight for p in terms)


def variance_parameter(t, q) -> float:
    """W = 2k loglog q + 2 sum_{i<j} F_{i,j}.  Requires q >= 17."""
    t = as_shift_tuple(t)
    _require_q(q, 17, "log log log q must be positive")
    lq = math.log(q)
    return _variance(t.k, lq, _pair_terms(t, lq))


def cutoff_exponent(v: float, w: float, k: int) -> float:
    """Piecewise exponent A: log(W)/2 for V <= W, W log W/(2V) up to the
    second knot V = W log W/(4k), then 2k.  Continuous at both knots."""
    if not v > 0:
        raise DomainError("V must be positive")
    if not w > math.e:
        raise DomainError("W must exceed e")
    lw = math.log(w)
    if v <= w:
        return lw / 2
    if v <= w * lw / (4 * k):
        return w * lw / (2 * v)
    return 2.0 * k


@dataclass(frozen=True)
class RegimeBound:
    """Large-value bound value with its regime tag (I, II, or III)."""

    v: float
    regime: str
    value: float
    w: float
    k: int


def large_value_bound(q, v: float, w: float, k: int) -> RegimeBound:
    """Three-regime bound on the count of characters with summed log|L| >= V.

    I  (4 sqrt(loglog q) <= V <= W): phi(q) (V/sqrt W) exp(-V^2/W (1 - 18k/(5 log W))^2)
    II (W < V < W log W/(4k)):       same with 18kV/(5W log W) inside the square
    III (V >= W log W/(4k)):         phi(q) exp(-(V/801k) log V)
    """
    _require_q(q, 17, "bound shapes need iterated logs")
    if not w > math.e:
        raise DomainError("W must exceed e")
    v_floor = 4 * math.sqrt(math.log(math.log(q)))
    if v < v_floor:
        raise DomainError(f"V = {v:g} below admissible floor 4 sqrt(loglog q) = {v_floor:g}")
    phi = euler_phi(q)
    lw = math.log(w)
    if v <= w:
        value = phi * (v / math.sqrt(w)) * math.exp(-(v * v / w) * (1 - 18 * k / (5 * lw)) ** 2)
        regime = "I"
    elif v < w * lw / (4 * k):
        value = phi * (v / math.sqrt(w)) * math.exp(
            -(v * v / w) * (1 - 18 * k * v / (5 * w * lw)) ** 2)
        regime = "II"
    else:
        value = phi * math.exp(-(v / (801 * k)) * math.log(v))
        regime = "III"
    return RegimeBound(v=v, regime=regime, value=value, w=w, k=k)


def shifted_moment_bound(q, t, eps: float = 0.1) -> float:
    """Product bound phi(q) (log q)^{k/2+eps} prod_{i<j} E_{i,j}.  q >= 16."""
    _require_q(q, 16, "log log q must be positive")
    return _profile(q, as_shift_tuple(t), eps).moment_bound


def cos_sum_check(z: int, a: float, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(lhs, rhs, margin): lhs = sum_{p<=z} cos(a log p)/p by direct prime sum,
    rhs the Mertens-type main term (close: log(min(1/|a|, log z)), a=0 giving
    loglog z; far: loglog(2+|a|)), margin = lhs - rhs.  |a| <= MAX_COS_A."""
    if z < 3:
        raise DomainError("z must be >= 3")
    if not abs(a) <= MAX_COS_A:
        raise DomainError(f"a must satisfy |a| <= {MAX_COS_A:g}; got {a}")
    if table is None or table.limit < z:
        table = sieve(int(z))
    p = table.primes_in(2, int(z)).astype(float)
    lhs = float(np.sum(np.cos(a * np.log(p)) / p))
    rhs = math.log(_pair_scale(abs(a), math.log(z)) if ShiftTuple.is_close(a)
                   else math.log(2 + abs(a)))
    return lhs, rhs, lhs - rhs


@dataclass(frozen=True)
class BoundProfile:
    """All pairwise kernel data for one (q, shift tuple), W, the eps knob and
    the product bound at that eps."""

    q: int
    shifts: ShiftTuple
    k: int
    w: float
    eps: float
    pairs: tuple[PairTerm, ...]
    moment_bound: float


def _profile(q, t: ShiftTuple, eps: float) -> BoundProfile:
    """The profile from one listing of t's pairs, or DomainError unless the
    moment bound is a finite float, decided on the sum of the factors' logs
    (each >= 1 for eps >= 0), as moment_normalization decides k: by the shift
    count if the bound at min(eps, 0) overflows, else by eps.  Every scale is
    >= log log q > 1, so the count is first decided on its n(n-1)/2 pairs alone."""
    n, phi, lq = len(t), euler_phi(q), math.log(q)
    log_phi, llq = math.log(phi), math.log(lq)
    count = f"{n} shifts are too many at q = {q}: the moment bound"
    check_float_range(log_phi + (t.k / 2 + min(eps, 0.0)) * llq + n * (n - 1) / 4 * math.log(llq),
                      count)
    terms = _pair_terms(t, lq)
    log_e = math.fsum(p.log_weight for p in terms) / 2
    for e, blame in ((min(eps, 0.0), count),
                     (eps, f"eps = {eps:g} is too large at q = {q} with {n} shifts: the moment bound")):
        check_float_range(log_phi + (t.k / 2 + e) * llq + log_e, blame)
    bound = phi * lq ** (t.k / 2 + eps) * math.prod(p.factor for p in terms)
    return BoundProfile(q=q, shifts=t, k=t.k, w=_variance(t.k, lq, terms), eps=eps, pairs=terms,
                        moment_bound=bound)


def bound_profile(q, t, eps: float = 0.1) -> BoundProfile:
    """Every pair kernel, W and the moment bound for one shift tuple;
    DomainError, as shifted_moment_bound, when the bound is no finite float.
    Requires q >= 17."""
    _require_q(q, 17, "log log log q must be positive")
    return _profile(q, as_shift_tuple(t), eps)
