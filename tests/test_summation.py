"""Fixed-chunk summation and the ordered map."""

import math
import threading

import numpy as np

from thetamoments.summation import CHUNK, chunked_sum, parallel_map


def _reference(r):
    """math.fsum of the per-chunk np.sum partials, chunk by chunk."""
    parts = [np.sum(r[i:i + CHUNK]) for i in range(0, len(r), CHUNK)]
    real = math.fsum(p.real for p in parts)
    return complex(real, math.fsum(p.imag for p in parts)) if np.iscomplexobj(r) else real


def test_row_sums_equal_one_dimensional_sums():
    """Row i of a 2-D sum equals the 1-D sum of row i bit for bit, and that
    is a Python float or complex (repr writes a bare number) equal to the
    chunk-by-chunk reference."""
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        a = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 8, (5, n))
        z = a + 1j * rng.standard_normal((5, n))
        for x in (a, z):
            rows = chunked_sum(x)
            assert rows.shape == (5,) and rows.dtype == x.dtype
            assert rows.tolist() == [chunked_sum(r) for r in x] == [_reference(r) for r in x]
            assert type(chunked_sum(x[0])) is (complex if x is z else float)
    assert repr(chunked_sum(np.full(5, 0.5))) == "2.5"


def test_chunk_partials_are_combined_exactly():
    """fsum rounds the exact sum of the chunk partials once: 2^60 per entry in
    the first chunk cancels against the third, leaving the middle chunk."""
    x = np.concatenate([np.full(CHUNK, 2.0 ** 60), np.ones(CHUNK), np.full(CHUNK, -2.0 ** 60)])
    assert chunked_sum(x) == CHUNK
    assert chunked_sum(x[::-1] + 1j * x).imag == CHUNK
    assert chunked_sum(np.stack([x, -x])).tolist() == [CHUNK, -CHUNK]


def test_parallel_map_runs_in_order_on_the_calling_thread():
    on_main = parallel_map(lambda x: threading.current_thread() is threading.main_thread(),
                           range(4), workers=4)
    assert on_main == [True] * 4
    assert parallel_map(lambda x: x * x, range(5), workers=3) == [0, 1, 4, 9, 16]
