"""Fixed-chunk summation and the ordered map."""

import threading

import numpy as np

from thetamoments.summation import CHUNK, chunked_sum, parallel_map


def test_row_sums_equal_one_dimensional_sums():
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        a = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 8, (5, n))
        z = a + 1j * rng.standard_normal((5, n))
        for x in (a, z):
            rows = chunked_sum(x)
            assert rows.shape == (5,) and rows.dtype == x.dtype
            assert rows.tolist() == [chunked_sum(r) for r in x]


def test_parallel_map_runs_in_order_on_the_calling_thread():
    on_main = parallel_map(lambda x: threading.current_thread() is threading.main_thread(),
                           range(4), workers=4)
    assert on_main == [True] * 4
    assert parallel_map(lambda x: x * x, range(5), workers=3) == [0, 1, 4, 9, 16]
