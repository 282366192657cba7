import numpy as np
import pytest
from scipy.spatial.distance import pdist

from groundlab.geometry import (_gathered_distances, pair_distances,
                                pair_indices)


@pytest.mark.parametrize("dimension", (1, 2, 3))
@pytest.mark.parametrize("n", (2, 3, 16, 64, 256))
def test_pair_distances_match_pdist_bit_for_bit(n, dimension):
    # the numpy path is checked at every size, not only where it is used
    rng = np.random.default_rng([n, dimension])
    for scale in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3):
        for shift in (0.0, 1.0, 1e3):
            points = scale * (rng.standard_normal((n, dimension))
                              + shift * rng.standard_normal(dimension))
            want = pdist(points)
            assert np.array_equal(_gathered_distances(points), want), (
                scale, shift)
            assert np.array_equal(pair_distances(points), want)
    # coincident points and integer input
    points = np.repeat(rng.integers(-3, 4, size=(1, dimension)), n, axis=0)
    points[::2] += 1
    assert np.array_equal(pair_distances(points), pdist(points))
    assert np.array_equal(_gathered_distances(points.astype(float)),
                          pdist(points))


def test_pair_indices_are_condensed_order_and_read_only():
    rows, cols = pair_indices(5)
    want_rows, want_cols = np.triu_indices(5, 1)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)
    assert pair_indices(5)[0] is rows
    with pytest.raises(ValueError):
        rows[0] = 1
    assert pair_distances(np.zeros((1, 2))).shape == (0,)
    # large clouds get fresh indices, so none stay resident after the call
    big = pair_indices(600)
    assert big[0] is not pair_indices(600)[0]
    assert np.array_equal(big[1], np.triu_indices(600, 1)[1])
