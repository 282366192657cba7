"""Unit spheres and balls in low dimension, and pair distances of points."""

import math
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DimensionUnsupported

_SUPPORTED = (1, 2, 3)
# index arrays of up to this many pairs (n <= 512, 2 MB) stay cached; a
# one-off large point cloud should not leave its indices resident
_CACHED_PAIRS = 1 << 17
# up to this many coordinate differences (pairs times dimension) numpy's
# gathers beat pdist, whose array-API wrapper alone takes about 15 us
_GATHERED_DIFFERENCES = 3000


def check_dimension(dimension: int) -> int:
    if dimension not in _SUPPORTED:
        raise DimensionUnsupported(
            f"dimension must be 1, 2 or 3, got {dimension!r}")
    return int(dimension)


def unit_sphere_area(dimension: int) -> float:
    """Surface measure of the unit sphere boundary in R^dimension.

    Equals 2 in dimension 1 (two endpoints), 2*pi in dimension 2 and
    4*pi in dimension 3.
    """
    check_dimension(dimension)
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def unit_ball_volume(dimension: int) -> float:
    """Lebesgue volume of the unit ball in R^dimension."""
    check_dimension(dimension)
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


def pair_indices(n: int):
    """Row and column indices (i, j), i < j, of the n*(n-1)/2 pairs of n
    points, in condensed order.  Up to n = 512 the arrays are cached and
    shared between callers, and read-only."""
    if n * (n - 1) // 2 > _CACHED_PAIRS:
        return np.triu_indices(n, 1)
    return _cached_pair_indices(n)


@lru_cache(maxsize=16)
def _cached_pair_indices(n):
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pair_distances(points) -> np.ndarray:
    """Euclidean distances |x_i - x_j|, i < j, of the rows of ``points``,
    in the condensed order and with the bits of
    ``scipy.spatial.distance.pdist(points)``.  A (S, n, d) stack of point
    clouds gives a (S, n*(n-1)/2) array, one row per cloud.

    Small clouds (up to 3000 coordinate differences: 77 points on a line,
    55 in the plane, 45 in space) are computed in plain numpy at a third
    to a half of the cost of a pdist call; larger ones go to pdist, whose
    fused C loop is faster than numpy's index gathers there.  A stack
    makes one pdist call per cloud but one gather for all of them, so it
    is gathered up to S times that many differences per cloud.
    """
    points = np.asarray(points, dtype=float)
    n, dimension = points.shape[-2:]
    clouds = points.shape[0] if points.ndim == 3 else 1
    if n * (n - 1) // 2 * dimension <= _GATHERED_DIFFERENCES * clouds:
        return _gathered_distances(points)
    if points.ndim == 2:
        return pdist(points)
    return np.stack([pdist(cloud) for cloud in points])


def _gathered_distances(points):
    """pdist's arithmetic in numpy: each pair's squared coordinate
    differences are added in coordinate order before the square root."""
    rows, cols = pair_indices(points.shape[-2])
    diff = points.take(rows, axis=-2)
    diff -= points.take(cols, axis=-2)
    diff *= diff
    total = diff[..., 0]
    for k in range(1, points.shape[-1]):
        total += diff[..., k]
    return np.sqrt(total)
