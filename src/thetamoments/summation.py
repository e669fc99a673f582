"""Deterministic summation helpers.

Three concerns are handled here once so every module behaves the same way:

* accuracy: a reduction sums fixed-size chunks with numpy's pairwise
  algorithm, then combines the chunk partials with math.fsum, which rounds
  their exact sum once.

* determinism: the chunk boundaries depend only on the input length, and
  fsum's result not on the order of the partials, so results are
  bit-identical from run to run.

* the rounding term: every character sum of n terms with total magnitude
  mass charges rounding_bound(n, mass): a direct chunked sum (theta_value)
  here, a group transform in CharacterGroup.character_sums.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

CHUNK = 1024
_EPS = np.finfo(float).eps


def chunked_sum(values: np.ndarray) -> float | complex | np.ndarray:
    """Sum an array in chunks of CHUNK entries, combining the chunk partials
    with math.fsum.

    The chunking grid depends only on the length of the summed axis, so the
    result does not depend on how the input was produced.  A 1-D array gives
    a Python float or complex; a 2-D array is summed along its rows, entry i
    equal to chunked_sum(values[i]) bit for bit.
    """
    a = np.asarray(values)
    rows = a if a.ndim == 2 else a[None]
    n = rows.shape[1]
    full = n - n % CHUNK
    p = rows[:, full:].sum(axis=1, keepdims=True)  # the last, short chunk or an empty sum
    if full:  # every full chunk in one reduction, each summed as np.sum sums it alone
        chunks = rows[:, :full].reshape(len(rows), full // CHUNK, CHUNK).sum(axis=2)
        p = chunks if full == n else np.concatenate([chunks, p], axis=1)
    if p.shape[1] == 1:
        out = p[:, 0]
    else:
        out = np.empty(len(rows), dtype=p.dtype)
        out.real = [math.fsum(r) for r in p.real.tolist()]
        if np.iscomplexobj(p):
            out.imag = [math.fsum(r) for r in p.imag.tolist()]
    return out if a.ndim == 2 else out[0].item()


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
