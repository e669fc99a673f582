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

__all__ = [
    "CLOSE_THRESHOLD",
    "ShiftTuple",
    "as_shift_tuple",
    "PairTerm",
    "BoundProfile",
    "RegimeBound",
    "pair_log_weight",
    "pair_factor",
    "variance_parameter",
    "cutoff_exponent",
    "large_value_bound",
    "shifted_moment_bound",
    "cos_sum_check",
    "bound_profile",
]

CLOSE_THRESHOLD = 1 / 100


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

    def negated(self) -> "ShiftTuple":
        return ShiftTuple(tuple(-t for t in self.shifts))

    @staticmethod
    def is_close(delta: float) -> bool:
        return abs(delta) <= CLOSE_THRESHOLD


def as_shift_tuple(t) -> ShiftTuple:
    return t if isinstance(t, ShiftTuple) else ShiftTuple(tuple(t))


def _require_q(q, floor: int, why: str) -> None:
    if q < floor:
        raise DomainError(f"q must be >= {floor} ({why}); got {q}")


def _pair_scale(ti: float, tj: float, q) -> float:
    """min(1/D, log q) for a close pair (D = 0 giving log q), loglog q for a
    far pair; F is its log and E its square root."""
    d = abs(ti - tj)
    lq = math.log(q)
    if d <= CLOSE_THRESHOLD:
        return lq if d == 0 else min(1 / d, lq)
    return math.log(lq)


def pair_log_weight(ti: float, tj: float, q) -> float:
    """Log-scale pair kernel F: close pairs log(min(1/D, log q)) with D=0
    resolving to loglog q, far pairs logloglog q.  Requires q >= 17."""
    _require_q(q, 17, "log log log q must be positive")
    return math.log(_pair_scale(ti, tj, q))


def pair_factor(ti: float, tj: float, q) -> float:
    """Moment-bound pair factor E: sqrt of the close-branch min, or
    sqrt(loglog q) for far pairs.  Equals exp(F/2) branchwise.  q >= 16."""
    _require_q(q, 16, "log log q must be positive")
    return math.sqrt(_pair_scale(ti, tj, q))


def variance_parameter(t, q) -> float:
    """W = 2k loglog q + 2 sum_{i<j} F_{i,j}.  Requires q >= 17."""
    t = as_shift_tuple(t)
    _require_q(q, 17, "log log log q must be positive")
    llq = math.log(math.log(q))
    return 2 * t.k * llq + 2 * sum(pair_log_weight(t[i], t[j], q) for i, j, _ in t.pairs())


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
    t = as_shift_tuple(t)
    _require_q(q, 16, "log log q must be positive")
    prod = 1.0
    for i, j, _ in t.pairs():
        prod *= pair_factor(t[i], t[j], q)
    return euler_phi(q) * math.log(q) ** (t.k / 2 + eps) * prod


def cos_sum_check(z: int, a: float, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(lhs, rhs, margin): lhs = sum_{p<=z} cos(a log p)/p by direct prime sum,
    rhs the Mertens-type main term (close: log(min(1/|a|, log z)), a=0 giving
    loglog z; far: loglog(2+|a|)), margin = lhs - rhs."""
    if z < 3:
        raise DomainError("z must be >= 3")
    if table is None or table.limit < z:
        table = sieve(int(z))
    p = table.primes_in(2, int(z)).astype(float)
    lhs = float(np.sum(np.cos(a * np.log(p)) / p))
    lz = math.log(z)
    if abs(a) <= CLOSE_THRESHOLD:
        inner = lz if a == 0 else min(1 / abs(a), lz)
        rhs = math.log(inner)
    else:
        rhs = math.log(math.log(2 + abs(a)))
    return lhs, rhs, lhs - rhs


@dataclass(frozen=True)
class PairTerm:
    """Per-pair record: indices, separation, closeness, F and E values."""

    i: int
    j: int
    delta: float
    close: bool
    log_weight: float
    factor: float


@dataclass(frozen=True)
class BoundProfile:
    """All pairwise kernel data for one (q, shift tuple), plus W and the
    eps knob used in the product bound."""

    q: int
    shifts: ShiftTuple
    k: int
    w: float
    pairs: tuple[PairTerm, ...]
    eps: float

    @property
    def moment_bound(self) -> float:
        return shifted_moment_bound(self.q, self.shifts, self.eps)


def bound_profile(q, t, eps: float = 0.1) -> BoundProfile:
    """Evaluate every pair kernel and W for one shift tuple."""
    t = as_shift_tuple(t)
    _require_q(q, 17, "log log log q must be positive")
    pairs = tuple(
        PairTerm(i=i, j=j, delta=d, close=ShiftTuple.is_close(d),
                 log_weight=pair_log_weight(t[i], t[j], q),
                 factor=pair_factor(t[i], t[j], q))
        for i, j, d in t.pairs())
    return BoundProfile(q=q, shifts=t, k=t.k, w=variance_parameter(t, q), pairs=pairs, eps=eps)
