"""Deterministic summation helpers.

Three concerns are handled here once so every module behaves the same way:

* accuracy: long scalar accumulations use Neumaier's compensated summation;
  vector reductions go through fixed-size chunks summed with numpy's pairwise
  algorithm and then combined left-to-right.

* determinism: the chunk boundaries and the combine order depend only on the
  input length, so results are bit-identical from run to run.

* the rounding term: every character sum (a direct chunked sum or a group
  transform over n points) charges rounding_bound(n, mass), where mass is
  the sum of the magnitudes of its terms.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

CHUNK = 1024
_EPS = np.finfo(float).eps


def neumaier_sum(values: Iterable[complex]) -> complex:
    """Compensated (Neumaier) sum of a scalar iterable; exact to ~1 ulp."""
    sr = cr = 0.0  # running sum / compensation, real part
    si = ci = 0.0
    for v in values:
        v = complex(v)
        t = sr + v.real
        if abs(sr) >= abs(v.real):
            cr += (sr - t) + v.real
        else:
            cr += (v.real - t) + sr
        sr = t
        t = si + v.imag
        if abs(si) >= abs(v.imag):
            ci += (si - t) + v.imag
        else:
            ci += (v.imag - t) + si
        si = t
    return complex(sr + cr, si + ci)


def _neumaier_rows(partials: list[np.ndarray]) -> np.ndarray:
    """neumaier_sum applied entry-wise across equal-shape real arrays."""
    s = np.zeros_like(partials[0])
    c = np.zeros_like(s)
    for v in partials:
        t = s + v
        c += np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
        s = t
    return s + c


def chunked_sum(values: np.ndarray) -> complex | np.ndarray:
    """Sum an array in chunks of CHUNK entries, combining partials in index order.

    The chunking grid depends only on len(values), so the result does not
    depend on how the input was produced.  A 2-D array is summed along
    its rows: entry i of the result equals chunked_sum(values[i]) bit for bit.
    """
    a = np.asarray(values)
    if a.ndim == 2:
        partials = ([np.sum(a[:, i:i + CHUNK], axis=1) for i in range(0, a.shape[1], CHUNK)]
                    or [np.zeros(a.shape[0], dtype=a.dtype)])
        if not np.iscomplexobj(a):
            return _neumaier_rows(partials)
        out = np.empty(a.shape[0], dtype=complex)
        out.real = _neumaier_rows([p.real for p in partials])
        out.imag = _neumaier_rows([p.imag for p in partials])
        return out
    if a.size == 0:
        return 0.0 if not np.iscomplexobj(a) else 0j
    partials = [np.sum(a[i:i + CHUNK]) for i in range(0, a.size, CHUNK)]
    return neumaier_sum(partials) if np.iscomplexobj(a) else neumaier_sum(partials).real


def rounding_bound(n: int, mass: float) -> float:
    """Float64 rounding of a length-n character sum whose terms have total
    magnitude `mass`: eps * (log2 n + 8) * mass."""
    return _EPS * (math.log2(n) + 8) * mass


def parallel_map(fn: Callable[[T], U], items: Sequence[T], workers: int = 1) -> list[U]:
    """[fn(x) for x in items], in input order on the calling thread.

    No library code calls it: it stays, with its ignored `workers`, only as
    the (fn, items, workers) entry point that the benchmark's tracing layer
    wraps and its contract test pins.
    """
    return [fn(x) for x in items]
