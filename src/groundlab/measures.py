"""Probability measures: weighted point clouds and cell-averaged densities.

Two concrete representations are used throughout the package:

* :class:`PointCloudMeasure` -- finitely many weighted atoms,
* :class:`GridDensity` -- a piecewise-constant density on a regular grid.

On top of those sit the constructive operations: cube-partition empirical
approximation of an arbitrary target measure (:func:`empirical_approximation`),
a box-family Levy-Prokhorov upper estimator (:func:`levy_prokhorov_upper`),
and the witness densities the stability module builds
(:func:`uniform_ball_density`, :func:`gaussian_witness_density`,
:func:`modulated_witness_density`).  All three sample a centred cube at
the cell centres of one axis, a half-axis joined to its mirror image, so
each witness equals its mirror image along every axis, bit for bit.  The
ball samples its indicator on the whole grid.  The Gaussian and the
modulated Gaussian are tensor products: each is the outer product of
unit-mass 1-d factors, bit for bit, and carries those factors, which the
grid energy contracts in place of the grid.

Both representations give the approximation the same three views of
themselves: the candidate radii of a centred cube, the mass outside such a
cube, and the masses of the l^N cubes partitioning it.  So one bisection
finds the support radius of either, and the approximation has no branch
per type.  A grid's box masses, of one box or of a whole partition, are
its values contracted with one matrix of cell-overlap lengths per axis.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionUnsupported, InvariantViolation
from .geometry import check_dimension

__all__ = [
    "PointCloudMeasure",
    "GridDensity",
    "combine",
    "empirical_approximation",
    "levy_prokhorov_upper",
    "uniform_ball_density",
    "gaussian_witness_density",
    "modulated_witness_density",
]

_MASS_TOL = 1e-9
# most coordinates (atoms x dimension) an empirical approximation may hold
_MAX_COORDINATES = 2**27
# cells per write of a grid density's CSV
_CSV_CHUNK = 4096


@dataclass(frozen=True)
class PointCloudMeasure:
    """Finitely many weighted atoms in R^N (N <= 3).

    Attributes:
        points: (n, N) array of atom locations.
        weights: (n,) array of nonnegative masses.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.ndim != 2 or pts.shape[0] != w.shape[0]:
            raise ValueError("points must be (n, N) with one weight per point")
        check_dimension(pts.shape[1])
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        pts = pts.copy()
        w = w.copy()
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def empirical(cls, points) -> "PointCloudMeasure":
        """Equal weights 1/n on the given points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[0]
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _MASS_TOL

    def translated(self, vector) -> "PointCloudMeasure":
        v = np.asarray(vector, dtype=float).reshape(1, self.dimension)
        return PointCloudMeasure(self.points + v, self.weights)

    def scaled_mass(self, factor: float) -> "PointCloudMeasure":
        if factor < 0:
            raise ValueError("mass factor must be nonnegative")
        return PointCloudMeasure(self.points, self.weights * factor)

    def to_csv(self, path):
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{d + 1}" for d in range(self.dimension)]
                            + ["weight"])
            for pt, w in zip(self.points, self.weights):
                writer.writerow([f"{c:.17g}" for c in pt] + [f"{w:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "PointCloudMeasure":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not header or header[-1] != "weight":
                raise ValueError(f"{path}: expected trailing 'weight' column")
            rows = [[float(cell) for cell in row] for row in reader if row]
        if not rows:
            raise ValueError(f"{path}: no atoms below the header")
        if any(len(row) != len(header) for row in rows):
            raise ValueError(f"{path}: every row must have the header's "
                             f"{len(header)} columns")
        data = np.asarray(rows, dtype=float)
        return cls(data[:, :-1], data[:, -1])

    # what empirical_approximation reads of a target

    def _norms(self) -> np.ndarray:
        return np.max(np.abs(self.points), axis=1)

    def _cube_radii(self) -> np.ndarray:
        """Candidate radii of a centred cube, ascending: the atoms' sup
        norms.  The last holds every atom."""
        return np.unique(self._norms())

    def _mass_outside(self, radius: float) -> float:
        """Mass outside the centred cube [-radius, radius]^N."""
        return float(np.sum(self.weights[self._norms() > radius]))

    def _cube_masses(self, radius: float, count: int) -> np.ndarray:
        """Mass in each of the count**N cubes partitioning
        [-radius, radius]^N, flattened in C order."""
        inside = self._norms() <= radius
        side = 2.0 * radius / count
        idx = np.floor((self.points[inside] + radius) / side).astype(np.int64)
        flat = np.ravel_multi_index(np.clip(idx, 0, count - 1).T,
                                    (count,) * self.dimension)
        return np.bincount(flat, weights=self.weights[inside],
                           minlength=count**self.dimension)


def combine(first: PointCloudMeasure,
            second: PointCloudMeasure) -> PointCloudMeasure:
    """Sum of two atomic measures (atoms concatenated, masses add)."""
    if first.dimension != second.dimension:
        raise ValueError("measures live in different dimensions")
    return PointCloudMeasure(
        np.vstack([first.points, second.points]),
        np.concatenate([first.weights, second.weights]))


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant density on a regular grid with cubic cells.

    ``origin`` is the lower corner of the grid box; cell (i_1, ..., i_N)
    covers ``origin + cell_width * [i, i+1)`` per axis.  ``values`` holds the
    density (mass per unit volume) on each cell, read-only: the public
    constructor, :meth:`load` and :func:`dataclasses.replace` copy the
    array they are given, and the witness builders keep the one they made
    (see :meth:`_adopt`).

    A density built as a tensor product (the Gaussian and modulated
    witnesses) also keeps its 1-d factors, whose outer product ``values``
    equals bit for bit; :func:`groundlab.energy.energy_grid` contracts
    them in place of the grid.  The public constructor, :meth:`load` and
    :func:`dataclasses.replace` make densities without factors, and the
    factors take no part in ``repr``, equality or :meth:`save`.
    """

    origin: np.ndarray
    cell_width: float
    values: np.ndarray
    _factors: tuple = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        self._settle(copy=True)

    @classmethod
    def _adopt(cls, origin, cell_width, values) -> "GridDensity":
        """The density of a float array ``values`` that nothing else
        holds, as a witness builder makes it: the density keeps that
        array, made read-only, where the public constructor would copy
        it."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "origin", origin)
        object.__setattr__(rho, "cell_width", cell_width)
        object.__setattr__(rho, "values", values)
        rho._settle(copy=False)
        return rho

    def _settle(self, copy):
        """Check the fields and make them read-only float arrays, the
        values a copy of the given array when ``copy`` is set."""
        vals = np.asarray(self.values, dtype=float)
        check_dimension(vals.ndim)
        org = np.asarray(self.origin, dtype=float).ravel()
        if org.shape[0] != vals.ndim:
            raise ValueError("origin length must match number of grid axes")
        if not (self.cell_width > 0 and math.isfinite(self.cell_width)):
            raise ValueError("cell_width must be positive and finite")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("cell values must be finite and nonnegative")
        if copy:
            vals = vals.copy()
        org = org.copy()
        vals.flags.writeable = False
        org.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "cell_width", float(self.cell_width))

    @classmethod
    def _tensor_product(cls, radius, dimension, per_half, first,
                        rest) -> "GridDensity":
        """Density on [-radius, radius]^N whose values are the outer
        product of N unit-mass 1-d factors on :func:`_mirrored_axis`: the
        profile ``first`` sampled along the first axis and ``rest`` along
        the others, each normalized on its own.  The density carries the
        factors, read-only, so its energy takes the separable path of
        :func:`groundlab.energy.energy_grid`, and keeps their outer product
        as its values."""
        h, axis = _mirrored_axis(radius, dimension, per_half)
        factors = (_unit_mass(first(axis), h),)
        if dimension > 1:
            factors += (_unit_mass(rest(axis), h),) * (dimension - 1)
        for factor in factors:
            factor.flags.writeable = False
        rho = cls._adopt(np.full(dimension, -radius), h,
                         functools.reduce(np.multiply.outer, factors))
        object.__setattr__(rho, "_factors", factors)
        return rho

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def extents(self) -> tuple:
        return self.values.shape

    @property
    def cell_volume(self) -> float:
        return self.cell_width ** self.dimension

    @property
    def total_mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= _MASS_TOL

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def axis_centers(self, axis: int) -> np.ndarray:
        count = self.extents[axis]
        return self.origin[axis] + self.cell_width * (np.arange(count) + 0.5)

    def cell_centers(self) -> np.ndarray:
        """All cell centers as an (M, N) array in C order."""
        axes = [self.axis_centers(d) for d in range(self.dimension)]
        return np.stack(np.broadcast_arrays(*np.ix_(*axes)),
                        axis=-1).reshape(-1, self.dimension)

    def _axis_edges(self, axis: int) -> np.ndarray:
        count = self.extents[axis]
        return self.origin[axis] + self.cell_width * np.arange(count + 1)

    def _box_masses(self, lower, upper) -> np.ndarray:
        """Masses of the boxes whose sides along axis d are the intervals
        [lower[d][j], upper[d][j]], as an array over (j_1, ..., j_N): the
        values contracted with each axis's (k_d, cells) overlap lengths, one
        axis at a time (a 3-d einsum left unoptimized loops over every
        (box, cell) pair)."""
        overlaps = []
        for d in range(self.dimension):
            edges = self._axis_edges(d)
            lo = np.maximum(edges[:-1], lower[d][:, None])
            hi = np.minimum(edges[1:], upper[d][:, None])
            overlaps.append(np.clip(hi - lo, 0.0, None))
        if self.dimension == 1:
            return overlaps[0] @ self.values
        if self.dimension == 2:
            return overlaps[0] @ self.values @ overlaps[1].T
        return np.einsum("ai,bj,ck,ijk->abc", *overlaps, self.values,
                         optimize=True)

    def box_mass(self, lower, upper) -> float:
        """Exact mass of the axis box [lower, upper] under this density."""
        lower = np.asarray(lower, dtype=float).reshape(-1, 1)
        upper = np.asarray(upper, dtype=float).reshape(-1, 1)
        return self._box_masses(lower, upper).item()

    # what empirical_approximation reads of a target

    def _cube_radii(self) -> np.ndarray:
        """Candidate radii of a centred cube, ascending: the positive
        distances of the cell faces from the origin.  The last holds every
        cell."""
        radii = np.unique(np.abs(np.concatenate(
            [self._axis_edges(d) for d in range(self.dimension)])))
        return radii[radii > 0]

    def _mass_outside(self, radius: float) -> float:
        """Mass outside the centred cube [-radius, radius]^N."""
        corner = np.full(self.dimension, radius)
        return self.total_mass - self.box_mass(-corner, corner)

    def _cube_masses(self, radius: float, count: int) -> np.ndarray:
        """Mass in each of the count**N cubes partitioning
        [-radius, radius]^N, flattened in C order."""
        side = 2.0 * radius / count
        lower = -radius + side * np.arange(count)
        return self._box_masses([lower] * self.dimension,
                                [lower + side] * self.dimension).ravel()

    def save(self, base_path) -> Path:
        """Write ``<base>.json`` (geometry) plus ``<base>.csv`` (flat values).

        Returns the path of the JSON file.
        """
        base = Path(base_path)
        json_path = base.with_suffix(".json")
        csv_path = base.with_suffix(".csv")
        meta = {
            "kind": "grid_density",
            "origin": [float(c) for c in self.origin],
            "cell_width": self.cell_width,
            "extents": list(self.extents),
            "values_csv": csv_path.name,
        }
        json_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        # the lines csv.writer writes, joined in chunks of cells: one join
        # of a large witness grid would hold all its text at once
        values = self.values.ravel()
        with csv_path.open("w", newline="") as fh:
            fh.write("cell_value\r\n")
            for first in range(0, values.size, _CSV_CHUNK):
                fh.write("".join(f"{v:.17g}\r\n" for v in
                                 values[first:first + _CSV_CHUNK].tolist()))
        return json_path

    @classmethod
    def load(cls, json_path) -> "GridDensity":
        json_path = Path(json_path)
        meta = json.loads(json_path.read_text())
        csv_path = json_path.parent / meta["values_csv"]
        with csv_path.open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            flat = np.asarray([float(row[0]) for row in reader if row])
        values = flat.reshape(meta["extents"])
        return cls(np.asarray(meta["origin"]), float(meta["cell_width"]),
                   values)


# ---------------------------------------------------------------------------
# reference density sequences


_GAUSSIAN_CELLS_PER_SIGMA = 6
_GAUSSIAN_RADIUS_SIGMAS = 5.0
_MODULATED_RADIUS_SIGMAS = 4.0


def _mirrored_axis(radius, dimension, per_half):
    """Cell width h and cell centres of [-radius, radius] with ``per_half``
    cells per half-axis: the upper half, h (k + 1/2), joined to its negated
    mirror image, so any profile even in each coordinate is sampled to a
    grid that equals its mirror image bit for bit."""
    check_dimension(dimension)
    if radius <= 0 or per_half < 1:
        raise ValueError("radius must be > 0 and per_half >= 1")
    h = radius / per_half
    upper = h * (np.arange(per_half) + 0.5)
    return h, np.concatenate((-upper[::-1], upper))


def _unit_mass(values, cell_volume):
    """``values`` divided in place by their mass sum(values) * cell_volume."""
    mass = values.sum() * cell_volume
    if mass <= 0:
        raise ValueError("profile has no mass on the requested grid")
    values /= mass
    return values


def uniform_ball_density(radius: float, dimension: int,
                         cells_per_radius: int = 64) -> GridDensity:
    """Uniform probability density on the centered ball of the given radius,
    rasterized by cell-center sampling and renormalized to unit mass.

    The ball is not a tensor product, so its density carries no factors.
    Its indicator is written into the one full-size array of squared
    radii, with no bool array or copy beside it, and the density keeps
    that array.
    """
    radius = float(radius)
    h, axis = _mirrored_axis(radius, dimension, cells_per_radius)
    rsq = sum(np.ix_(*[axis**2] * dimension))
    inside = np.less_equal(np.sqrt(rsq, out=rsq), radius, out=rsq,
                           casting="unsafe")
    return GridDensity._adopt(np.full(dimension, -radius), h,
                              _unit_mass(inside, h**dimension))


def gaussian_witness_density(p: float, dimension: int) -> GridDensity:
    """Isotropic Gaussian probability density with exponent -2 p^2 |x|^2.

    Standard deviation per axis is sigma = 1/(2p); the grid truncates at
    ``_GAUSSIAN_RADIUS_SIGMAS`` (5) standard deviations, with
    ``_GAUSSIAN_CELLS_PER_SIGMA`` (6) cells per sigma.  The density is the
    outer product of N copies of one unit-mass 1-d factor,
    exp(-2 p^2 x^2) normalized on the mirrored axis, bit for bit, and
    carries that factor (see :meth:`GridDensity._tensor_product`).
    """
    if p <= 0:
        raise ValueError("p must be > 0")

    def factor(x):
        # (-2 p^2 x) x: the radial profile's (-2 p^2 r) r in 1-d, bit for bit
        return np.exp(-2.0 * p * p * x * x)

    sigma = 1.0 / (2.0 * p)
    return GridDensity._tensor_product(
        _GAUSSIAN_RADIUS_SIGMAS * sigma, dimension,
        round(_GAUSSIAN_CELLS_PER_SIGMA * _GAUSSIAN_RADIUS_SIGMAS),
        factor, factor)


def modulated_witness_density(p: float, wave_number: float,
                              dimension: int) -> GridDensity:
    """Gaussian envelope modulated along the first axis:
    density proportional to exp(-2 p^2 |x|^2) * (1 + cos(wave_number x1)).

    The modulation concentrates the density's spectrum near the given wave
    number.  The grid truncates at ``_MODULATED_RADIUS_SIGMAS`` (4)
    standard deviations sigma = 1/(2p), and its cell width resolves both the
    envelope (sigma/3) and the oscillation (an eighth of its period).  The
    density is the outer product of unit-mass 1-d factors on the mirrored
    axis, bit for bit: exp(-2 p^2 x^2) (1 + cos(wave_number x)) along the
    first axis and exp(-2 p^2 x^2) along the others, and carries them (see
    :meth:`GridDensity._tensor_product`).
    """
    if p <= 0:
        raise ValueError("p must be > 0")
    if wave_number <= 0:
        raise ValueError("wave_number must be > 0")
    sigma = 1.0 / (2.0 * p)
    radius = _MODULATED_RADIUS_SIGMAS * sigma
    h = min(sigma / 3.0, (2.0 * math.pi / wave_number) / 8.0)

    def envelope(x):
        return np.exp(-2.0 * p * p * (x * x))

    return GridDensity._tensor_product(
        radius, dimension, int(math.ceil(radius / h)),
        lambda x: envelope(x) * (1.0 + np.cos(wave_number * x)), envelope)


# ---------------------------------------------------------------------------
# empirical approximation by cube counts


def _halton_points(count: int, dimension: int) -> np.ndarray:
    """First ``count`` Halton points in [0, 1)^dimension (bases 2, 3, 5)."""
    bases = (2, 3, 5)[:dimension]
    out = np.empty((count, dimension))
    idx = np.arange(1, count + 1, dtype=np.int64)
    for d, base in enumerate(bases):
        x = np.zeros(count)
        denom = 1.0
        k = idx.copy()
        while k.any():
            denom *= base
            k, rem = np.divmod(k, base)
            x += rem / denom
        out[:, d] = x
    return out


def _support_radius(target, eps: float) -> float:
    """Smallest of the target's candidate cube radii whose centred cube
    leaves less than eps/2 of its mass outside, by bisection (the mass
    outside falls as the radius grows).  The largest candidate holds the
    whole target, so the search ends there at the latest."""
    radii = target._cube_radii()
    allowed = eps / 2.0 * target.total_mass
    lo, hi = 0, radii.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if target._mass_outside(radii[mid]) < allowed:
            hi = mid
        else:
            lo = mid + 1
    return float(radii[lo])


def empirical_approximation(target, eps: float, n_min: int = 1,
                            seed: int = 0) -> PointCloudMeasure:
    """Equal-weight empirical stand-in for an arbitrary probability measure.

    The construction partitions a cube holding all but eps/2 of the target
    mass into subcubes of diameter below eps, allocates floor(p_i * n) of the
    n atoms to cube i (p_i the target mass of the cube), and parks the
    leftover atoms on a shell outside the cube.  The number of atoms n is the
    smallest value >= n_min with cubes/n < eps/2, so requesting a larger
    n_min never breaks the bound; when the two requirements pull against each
    other the operation raises n above n_min rather than loosening eps.
    The result is within eps of the target in Levy-Prokhorov distance.

    Args:
        target: PointCloudMeasure or GridDensity with unit mass.
        eps: approximation accuracy, in (0, 2).
        n_min: lower bound on the number of atoms.
        seed: placement seed (cube fills use per-cube substreams).

    Returns:
        PointCloudMeasure with n distinct atoms of weight 1/n.

    Raises:
        TypeError: the target is neither a PointCloudMeasure nor a
            GridDensity.
        ValueError: eps or n_min is out of range, the target's mass is not
            1, or the n atoms would need more than 2**27 coordinates
            (n * N, 1 GiB of points); n is known before anything is built,
            and an eps so small that n passes the largest float is refused
            the same way.
    """
    if not isinstance(target, (PointCloudMeasure, GridDensity)):
        raise TypeError(f"unsupported target type {type(target).__name__}")
    if not (0 < eps < 2):
        raise ValueError("eps must lie in (0, 2)")
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if not target.is_probability:
        raise ValueError("target must be a probability measure")
    dim = target.dimension
    big_r = max(_support_radius(target, eps), eps / 2.0, 1e-9)

    # smallest cube count making the cube diameter sqrt(N) * (2R/l) < eps.
    # n exceeds 2 span^N / eps, a float that a tiny eps takes to inf; the
    # counts become ints only once that bound is small, since a larger
    # one would pass the range of an int-to-float conversion
    span = 2.0 * big_r * math.sqrt(dim) / eps
    n = 2.0 * math.prod([span] * dim) / eps
    if n * dim <= _MAX_COORDINATES:
        l = math.floor(span) + 1
        cube_count = l**dim
        n = max(int(n_min), math.floor(2.0 * cube_count / eps) + 1)
    if n * dim > _MAX_COORDINATES:
        raise ValueError(
            f"eps {eps:g} needs at least {n:.6g} atoms in dimension {dim}, "
            f"more than {_MAX_COORDINATES} coordinates; raise eps or lower "
            f"n_min")

    masses = target._cube_masses(big_r, l)
    counts = np.floor(masses * n).astype(np.int64)
    side = 2.0 * big_r / l

    blocks = []
    base_pattern = _halton_points(int(counts.max()), dim)
    occupied = np.nonzero(counts)[0]
    corners = -big_r + side * np.stack(np.unravel_index(occupied, (l,) * dim),
                                       axis=1)
    for flat, lo in zip(occupied.tolist(), corners):
        rng = np.random.default_rng([seed, flat])
        unit = (base_pattern[:counts[flat]] + rng.uniform(size=dim)) % 1.0
        blocks.append(lo + side * (0.02 + 0.96 * unit))

    leftover = n - int(counts.sum())
    if leftover > 0:
        rng = np.random.default_rng([seed, cube_count + 7])
        unit = (_halton_points(leftover, dim)
                + rng.uniform(size=dim)) % 1.0
        shell = big_r * (-0.75 + 1.5 * unit)
        shell[:, 0] = big_r * (1.25 + 0.5 * unit[:, 0])
        blocks.append(shell)

    # atoms of two cubes are kept apart by the cubes' margins, and the
    # shell lies beyond the cube, so only atoms of one block can coincide
    if any(_has_coincident_rows(block) for block in blocks):
        raise InvariantViolation("coincident atoms in empirical approximation")
    points = np.vstack(blocks)
    del blocks  # the measure copies the points: hold two copies, not three
    if points.shape[0] != n:
        raise InvariantViolation("atom count does not match n")
    return PointCloudMeasure(points, np.full(n, 1.0 / n))


def _has_coincident_rows(points: np.ndarray) -> bool:
    """Whether two rows of ``points`` are equal.  Only rows whose first
    coordinate is shared are compared whole, so a block whose first
    coordinates are distinct costs one sort of a column."""
    first = np.sort(points[:, 0])
    shared = first[1:][first[1:] == first[:-1]]
    if not shared.size:
        return False
    candidates = points[np.isin(points[:, 0], shared)]
    return np.unique(candidates, axis=0).shape[0] < candidates.shape[0]


# ---------------------------------------------------------------------------
# Levy-Prokhorov upper estimator over a box test family


_LP_COORD_CAP = {1: 1500, 2: 60}


def _thinned_coords(values: np.ndarray, cap: int) -> np.ndarray:
    uniq = np.unique(values)
    if uniq.size <= cap:
        return uniq
    pick = np.unique(np.linspace(0, uniq.size - 1, cap).round().astype(int))
    return uniq[pick]


def _mass_below(sorted_x, cum_w, queries, side):
    """Mass at x <= queries (side 'right') or x < queries (side 'left')."""
    idx = np.searchsorted(sorted_x, queries, side=side)
    return np.where(idx > 0, cum_w[idx - 1], 0.0)


def _violation_1d(mu, nu, coords, delta):
    """max over intervals [c_i, c_j] of mu([c_i,c_j]) - nu([c_i-d, c_j+d])."""
    mu_order = np.argsort(mu.points[:, 0], kind="stable")
    mx = mu.points[mu_order, 0]
    mw = np.cumsum(mu.weights[mu_order])
    nu_order = np.argsort(nu.points[:, 0], kind="stable")
    nx = nu.points[nu_order, 0]
    nw = np.cumsum(nu.weights[nu_order])
    upper_term = (_mass_below(mx, mw, coords, "right")
                  - _mass_below(nx, nw, coords + delta, "right"))
    lower_term = (_mass_below(nx, nw, coords - delta, "left")
                  - _mass_below(mx, mw, coords, "left"))
    # max over i <= j of upper_term[j] + lower_term[i]
    best_lower = np.maximum.accumulate(lower_term)
    return float(np.max(upper_term + best_lower))


def _quadrant_table(points, weights, x_queries, x_mode, y_queries, y_mode):
    """Cumulative table T[p, q] = mass of atoms below (x_queries[p],
    y_queries[q]); per axis the comparison is '<=' (mode 'le') or '<'
    (mode 'lt')."""
    bx = np.searchsorted(x_queries, points[:, 0],
                         side="left" if x_mode == "le" else "right")
    by = np.searchsorted(y_queries, points[:, 1],
                         side="left" if y_mode == "le" else "right")
    hist = np.zeros((x_queries.size + 1, y_queries.size + 1))
    np.add.at(hist, (bx, by), weights)
    table = hist.cumsum(axis=0).cumsum(axis=1)
    return table[:x_queries.size, :y_queries.size]


def _box_mass_tables(measure, x_lo, x_hi, y_lo, y_hi):
    """Tables so that the closed box [x_lo[i], x_hi[j]] x [y_lo[k], y_hi[l]]
    has mass hh[j, l] - lh[i, l] - hl[j, k] + ll[i, k]."""
    pts, w = measure.points, measure.weights
    hh = _quadrant_table(pts, w, x_hi, "le", y_hi, "le")
    lh = _quadrant_table(pts, w, x_lo, "lt", y_hi, "le")
    hl = _quadrant_table(pts, w, x_hi, "le", y_lo, "lt")
    ll = _quadrant_table(pts, w, x_lo, "lt", y_lo, "lt")
    return hh, lh, hl, ll


def _violation_2d(mu, nu, cx, cy, delta):
    """max over boxes [cx_i, cx_j] x [cy_k, cy_l] of
    mu(box) - nu(box enlarged per axis by delta, closed)."""
    mu_tabs = _box_mass_tables(mu, cx, cx, cy, cy)
    nu_tabs = _box_mass_tables(nu, cx - delta, cx + delta,
                               cy - delta, cy + delta)
    d_hh, d_lh, d_hl, d_ll = (m - n for m, n in zip(mu_tabs, nu_tabs))

    # _LP_COORD_CAP[2] = 60 coordinates per axis at most: one array of
    # 1830 x 1830 index pairs
    ii, jj = np.triu_indices(cx.size)
    kk, ll = np.triu_indices(cy.size)
    i_b, j_b = ii[:, None], jj[:, None]
    gap = (d_hh[j_b, ll] - d_lh[i_b, ll] - d_hl[j_b, kk] + d_ll[i_b, kk])
    return float(gap.max())


def levy_prokhorov_upper(mu: PointCloudMeasure, nu: PointCloudMeasure,
                         eps_grid) -> float:
    """Smallest grid value eps certifying both one-sided box inequalities.

    The test family is axis boxes with faces on the merged atom coordinates
    (thinned to a per-axis cap when very large, which only shrinks the
    family).  Enlargements use the closed per-axis offset eps/sqrt(N), a
    subset of the Euclidean eps-enlargement, so passing that side of the
    check is conservative; in dimension 1 the offset coincides with the
    Euclidean enlargement.  Returns ``inf`` when no grid value passes.
    """
    if mu.dimension != nu.dimension:
        raise ValueError("measures live in different dimensions")
    dim = mu.dimension
    if dim > 2:
        raise DimensionUnsupported(
            "the box-family check supports dimensions 1 and 2 only")
    if not (mu.is_probability and nu.is_probability):
        raise ValueError("both measures must be probability measures")
    grid = sorted(float(e) for e in eps_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("eps_grid must contain positive values")

    axes = [_thinned_coords(np.concatenate([mu.points[:, a], nu.points[:, a]]),
                            _LP_COORD_CAP[dim]) for a in range(dim)]
    violation = _violation_1d if dim == 1 else _violation_2d
    fudge = 1e-12
    for eps in grid:
        delta = eps / math.sqrt(dim)
        v1 = violation(mu, nu, *axes, delta)
        v2 = violation(nu, mu, *axes, delta)
        if max(v1, v2) <= eps + fudge:
            return eps
    return math.inf
