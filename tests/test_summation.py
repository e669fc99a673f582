"""Fixed-chunk summation: the row-wise form against the one-dimensional one."""

import numpy as np

from thetamoments.summation import CHUNK, chunked_sum


def test_row_sums_equal_one_dimensional_sums():
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        a = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 8, (5, n))
        z = a + 1j * rng.standard_normal((5, n))
        for x in (a, z):
            rows = chunked_sum(x)
            assert rows.shape == (5,) and rows.dtype == x.dtype
            assert rows.tolist() == [chunked_sum(r) for r in x]
