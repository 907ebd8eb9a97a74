"""Vectorised seed streams: every row is exactly NumPy's ``default_rng`` draw.

If NumPy ever changes its SeedSequence, PCG64 or ``uniform`` stream, these
tests fail, so a curvature certificate cannot change silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcheck.streams import uniform_rows

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def _reference(seeds, scale, size):
    return np.array(
        [np.random.default_rng(s).uniform(-scale, scale, size) for s in seeds]
    ).reshape(len(seeds), size)


@pytest.mark.parametrize("size", [4, 5, 6])
def test_edge_seeds_and_a_contiguous_range(size):
    seeds = EDGE_SEEDS + list(range(2, 1002)) + list(range(2**32 - 500, 2**32 + 500))
    rows = uniform_rows(np.array(seeds, dtype=np.uint64), 1.0, size)
    assert np.array_equal(rows, _reference(seeds, 1.0, size))
    assert np.array_equal(uniform_rows(seeds, 1.0, size), rows)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    size=st.integers(1, 8),
    scale=st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
)
def test_equals_default_rng(seeds, size, scale):
    assert np.array_equal(uniform_rows(seeds, scale, size), _reference(seeds, scale, size))


def test_int64_and_uint64_arrays_agree():
    seeds = np.arange(0, 2**40, 2**30)
    assert np.array_equal(uniform_rows(seeds, 1.0, 4), uniform_rows(seeds.astype(np.uint64), 1.0, 4))


def test_shapes():
    assert uniform_rows([], 1.0, 4).shape == (0, 4)
    assert uniform_rows(np.zeros((0, 3), dtype=int), 1.0, 4).shape == (0, 3, 4)
    single = uniform_rows(5, 2.0, 6)
    assert single.shape == (6,)
    assert np.array_equal(single, np.random.default_rng(5).uniform(-2.0, 2.0, 6))
    grid = np.arange(12).reshape(3, 4)
    rows = uniform_rows(grid, 1.0, 5)
    assert rows.shape == (3, 4, 5)
    assert np.array_equal(rows.reshape(12, 5), uniform_rows(grid.ravel(), 1.0, 5))


@pytest.mark.parametrize(
    "seeds", [-1, [3, -1], np.array([-7]), [2**64], [2**64 + 5, 1], [-1, 2**64]]
)
def test_seeds_outside_64_bits_raise(seeds):
    with pytest.raises(ValueError):
        uniform_rows(seeds, 1.0, 4)


@pytest.mark.parametrize("seeds", [1.5, [1.0], np.array([2.0]), "3"])
def test_non_integer_seeds_raise(seeds):
    with pytest.raises(TypeError):
        uniform_rows(seeds, 1.0, 4)


def test_unrepresentable_range_raises_like_default_rng():
    for scale in (np.inf, np.nan, 1e308):
        with pytest.raises(OverflowError):
            np.random.default_rng(1).uniform(-scale, scale, 3)
        with pytest.raises(OverflowError):
            uniform_rows([1], scale, 3)
