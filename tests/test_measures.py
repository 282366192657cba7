import csv
import dataclasses
import functools
import io
import math

import numpy as np
import pytest

from groundlab import (GridDensity, PointCloudMeasure, combine,
                       empirical_approximation, gaussian_witness_density,
                       levy_prokhorov_upper, modulated_witness_density,
                       uniform_ball_density)
from groundlab import measures
from groundlab.errors import DimensionUnsupported, InvariantViolation
from groundlab.measures import _has_coincident_rows, _support_radius


def test_pointcloud_basics():
    mu = PointCloudMeasure([[0.0], [1.0]], [0.25, 0.75])
    assert mu.size == 2
    assert mu.dimension == 1
    assert mu.total_mass == pytest.approx(1.0)
    assert mu.is_probability
    shifted = mu.translated([2.0])
    np.testing.assert_allclose(shifted.points[:, 0], [2.0, 3.0])
    half = mu.scaled_mass(0.5)
    assert half.total_mass == pytest.approx(0.5)
    with pytest.raises(ValueError):
        PointCloudMeasure([[0.0]], [-0.1])
    with pytest.raises(ValueError):
        PointCloudMeasure([[0.0], [1.0]], [1.0])


def test_pointcloud_is_immutable():
    mu = PointCloudMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        mu.points[0, 0] = 5.0


def test_empirical_equal_weights():
    mu = PointCloudMeasure.empirical([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(mu.weights, 1.0 / 3.0)


def test_pointcloud_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    mu = PointCloudMeasure(rng.normal(size=(5, 2)), np.full(5, 0.2))
    path = tmp_path / "cloud.csv"
    mu.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,weight"
    back = PointCloudMeasure.from_csv(path)
    np.testing.assert_array_equal(back.points, mu.points)
    np.testing.assert_array_equal(back.weights, mu.weights)


def test_pointcloud_from_csv_refuses_a_header_only_file(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("x1,weight\n")
    with pytest.raises(ValueError, match="no atoms"):
        PointCloudMeasure.from_csv(path)


@pytest.mark.parametrize("row", ["1,2,0.5", "0.5"])
def test_pointcloud_from_csv_refuses_rows_unlike_the_header(tmp_path, row):
    path = tmp_path / "cloud.csv"
    path.write_text(f"x1,weight\n1,0.5\n{row}\n")
    with pytest.raises(ValueError, match="2 columns"):
        PointCloudMeasure.from_csv(path)


def test_combine_adds_mass():
    a = PointCloudMeasure([[0.0]], [0.4])
    b = PointCloudMeasure([[1.0]], [0.6])
    both = combine(a, b)
    assert both.size == 2
    assert both.total_mass == pytest.approx(1.0)
    with pytest.raises(ValueError):
        combine(a, PointCloudMeasure([[0.0, 0.0]], [1.0]))


def test_grid_density_box_mass_1d():
    rho = GridDensity(np.array([-1.0]), 1.0, np.array([0.3, 0.7]))
    assert rho.total_mass == pytest.approx(1.0)
    assert rho.box_mass([-1.0], [0.0]) == pytest.approx(0.3)
    # half of each cell
    assert rho.box_mass([-0.5], [0.5]) == pytest.approx(0.5)
    assert rho.box_mass([5.0], [6.0]) == 0.0


def test_grid_density_box_mass_2d():
    values = np.array([[0.1, 0.2], [0.3, 0.4]])
    rho = GridDensity(np.array([0.0, 0.0]), 1.0, values)
    assert rho.box_mass([0.0, 0.0], [2.0, 2.0]) == pytest.approx(1.0)
    assert rho.box_mass([0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.1)
    assert rho.box_mass([0.5, 0.0], [1.5, 2.0]) == pytest.approx(
        0.5 * (0.1 + 0.2) + 0.5 * (0.3 + 0.4))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_grid_cube_masses_are_the_cubes_box_masses(dimension):
    rng = np.random.default_rng(dimension)
    values = rng.uniform(size=(9, 8, 7)[:dimension])
    rho = GridDensity(rng.uniform(-1.0, 0.0, dimension), 0.23, values)
    # the partitioned cube cuts through the grid and reaches past it
    radius, count = 0.8, 4
    side = 2.0 * radius / count
    want = [rho.box_mass(-radius + side * np.array(multi),
                         -radius + side * (np.array(multi) + 1))
            for multi in np.ndindex(*(count,) * dimension)]
    np.testing.assert_allclose(rho._cube_masses(radius, count), want,
                               rtol=1e-13, atol=1e-15)


def test_box_masses_in_3d_match_a_per_axis_contraction():
    rng = np.random.default_rng(7)
    values = rng.uniform(size=(13, 11, 9))
    rho = GridDensity([-0.3, -1.7, 0.4], 0.19, values)
    # boxes that cut through the grid, some reaching past it
    lower = [origin + rng.uniform(-0.3, 1.5, k)
             for origin, k in zip(rho.origin, (5, 4, 3))]
    upper = [lo + rng.uniform(0.05, 1.5, lo.size) for lo in lower]
    overlaps = []
    for axis, (lo, hi) in enumerate(zip(lower, upper)):
        edges = rho.origin[axis] + rho.cell_width * np.arange(
            values.shape[axis] + 1)
        overlaps.append(np.array([[max(0.0, min(b, right) - max(a, left))
                                   for left, right in zip(edges, edges[1:])]
                                  for a, b in zip(lo, hi)]))
    want = np.einsum("ai,ijk->ajk", overlaps[0], values)
    want = np.einsum("bj,ajk->abk", overlaps[1], want)
    want = np.einsum("ck,abk->abc", overlaps[2], want)
    assert want.shape == (5, 4, 3) and np.all(want > 0.0)
    np.testing.assert_allclose(rho._box_masses(lower, upper), want,
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("target", [
    PointCloudMeasure.empirical(np.random.default_rng(0).normal(size=(400, 1))),
    gaussian_witness_density(1.0, 2)], ids=["cloud-1d", "gaussian-2d"])
def test_support_radius_is_the_smallest_candidate_that_holds_enough(target):
    eps = 0.3
    radius = _support_radius(target, eps)
    radii = target._cube_radii()
    k = int(np.flatnonzero(radii == radius)[0])
    assert 0 < k < radii.size - 1
    allowed = eps / 2.0 * target.total_mass
    assert target._mass_outside(radii[k]) < allowed
    assert target._mass_outside(radii[k - 1]) >= allowed


def test_grid_density_save_load_round_trip(tmp_path):
    rho = uniform_ball_density(1.0, 2, cells_per_radius=8)
    json_path = rho.save(tmp_path / "ball")
    back = GridDensity.load(json_path)
    assert back.cell_width == pytest.approx(rho.cell_width)
    np.testing.assert_allclose(back.origin, rho.origin)
    np.testing.assert_allclose(back.values, rho.values, rtol=1e-15)


def test_grid_density_csv_is_what_csv_writer_writes(tmp_path):
    # more cells than one chunk of lines, and values whose shortest
    # round-trip text differs from their 17-digit one
    rng = np.random.default_rng(5)
    values = rng.exponential(size=(70, 70))
    values[0, :4] = [0.0, 5e-324, 0.1, 1e300]
    rho = GridDensity(np.zeros(2), 0.5, values)
    rho.save(tmp_path / "grid")
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["cell_value"])
    for v in rho.values.ravel():
        writer.writerow([f"{v:.17g}"])
    assert (tmp_path / "grid.csv").read_bytes() == want.getvalue().encode()
    assert np.array_equal(GridDensity.load(tmp_path / "grid.json").values,
                          rho.values)


def test_uniform_ball_probability_and_support():
    rho = uniform_ball_density(2.0, 2, cells_per_radius=32)
    assert rho.total_mass == pytest.approx(1.0, abs=1e-12)
    centers = rho.cell_centers()
    radii = np.linalg.norm(centers, axis=1)
    occupied = rho.values.ravel() > 0
    assert radii[occupied].max() <= 2.0 + rho.cell_width


def test_vanishing_sequence_spreads_mass():
    peaks = [uniform_ball_density(k, 1, cells_per_radius=64).max_value
             for k in (1, 2, 4)]
    assert peaks[0] > peaks[1] > peaks[2]
    # uniform density on [-k, k] has height 1/(2k)
    assert peaks[2] == pytest.approx(1.0 / 8.0, rel=1e-12)
    with pytest.raises(ValueError):
        uniform_ball_density(0, 1)


def test_gaussian_witness_density_shape():
    rho = gaussian_witness_density(0.5, 1)
    assert rho.total_mass == pytest.approx(1.0, abs=1e-12)
    # density profile exp(-2 p^2 r^2) has standard deviation 1/(2p) = 1
    centers = rho.cell_centers()[:, 0]
    mean = float(np.sum(rho.values.ravel() * rho.cell_volume * centers))
    assert mean == pytest.approx(0.0, abs=1e-12)
    second = float(np.sum(rho.values.ravel() * rho.cell_volume * centers**2))
    assert second == pytest.approx(1.0, rel=0.01)
    with pytest.raises(ValueError):
        gaussian_witness_density(0.0, 1)


def test_modulated_witness_density_oscillates():
    rho = modulated_witness_density(0.25, 3.0, 1)
    assert rho.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(rho.values >= 0.0)
    # troughs of 1 + cos(3 x) pull the density to (near) zero well inside
    # the envelope, which a plain gaussian never does
    centers = rho.cell_centers()[:, 0]
    inside = np.abs(centers) < 1.0
    assert rho.values.ravel()[inside].min() < 0.05 * rho.max_value
    with pytest.raises(ValueError):
        modulated_witness_density(0.25, 0.0, 1)


def _witness_axis(radius, per_half):
    """Cell width and cell centres of a witness axis: the upper half of
    the cell centres and its negated mirror image."""
    h = radius / per_half
    upper = h * (np.arange(per_half) + 0.5)
    return h, np.concatenate((-upper[::-1], upper))


def _meshgrid_witness(radius, dimension, per_half, profile):
    """The witness rasterizer as written with N float meshgrids on
    :func:`_witness_axis`: the reference whose bits the ball must keep."""
    h, axis = _witness_axis(radius, per_half)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    rsq = sum(m**2 for m in mesh)
    values = profile(rsq, mesh[0])
    mass = values.sum() * h**dimension
    return np.full(dimension, -radius), h, values / mass


def _ball_reference(radius, dimension, cells):
    return _meshgrid_witness(
        radius, dimension, cells,
        lambda rsq, x1: (np.sqrt(rsq) <= radius).astype(float))


def _factored_witness(radius, dimension, per_half, first, rest):
    """A tensor-product witness as the outer product of unit-mass 1-d
    factors, ``first`` along the first axis and ``rest`` along the others,
    each sampled on :func:`_witness_axis`: the reference whose bits the
    Gaussian and modulated builders must keep."""
    h, axis = _witness_axis(radius, per_half)
    factors = [first(axis)] + [rest(axis)] * (dimension - 1)
    factors = [f / (f.sum() * h) for f in factors]
    return (np.full(dimension, -radius), h,
            functools.reduce(np.multiply.outer, factors))


def _gaussian_reference(p, dimension):
    sigma = 1.0 / (2.0 * p)

    def factor(x):
        r = np.sqrt(x**2)
        return np.exp(-2.0 * p * p * r * r)

    return _factored_witness(5.0 * sigma, dimension, 30, factor, factor)


def _modulated_reference(p, wave_number, dimension):
    sigma = 1.0 / (2.0 * p)
    radius = 4.0 * sigma
    h = min(sigma / 3.0, (2.0 * math.pi / wave_number) / 8.0)
    return _factored_witness(
        radius, dimension, int(math.ceil(radius / h)),
        lambda x: (np.exp(-2.0 * p * p * x**2)
                   * (1.0 + np.cos(wave_number * x))),
        lambda x: np.exp(-2.0 * p * p * x**2))


BALL_PARAMETERS = ((1.0, 8), (2.5, 13), (4.0, 16))
GAUSSIAN_PARAMETERS = (0.05, 0.3, 1.0, 2.7, 10.0)
MODULATED_PARAMETERS = ((0.25, 3.0), (0.5, 1.0), (1.3, 6.5))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_witness_builders_keep_the_meshgrid_bits(dimension):
    cases = []
    for radius, cells in BALL_PARAMETERS:
        cases.append((uniform_ball_density(radius, dimension, cells),
                      _ball_reference(radius, dimension, cells)))
    for p in GAUSSIAN_PARAMETERS:
        cases.append((gaussian_witness_density(p, dimension),
                      _gaussian_reference(p, dimension)))
    for p, k in MODULATED_PARAMETERS:
        cases.append((modulated_witness_density(p, k, dimension),
                      _modulated_reference(p, k, dimension)))
    for rho, (origin, width, values) in cases:
        assert np.array_equal(rho.values, values)
        assert np.array_equal(rho.origin, origin)
        assert rho.cell_width == width


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_witness_builders_equal_their_mirror_images(dimension):
    witnesses = (
        [uniform_ball_density(radius, dimension, cells)
         for radius, cells in BALL_PARAMETERS]
        + [gaussian_witness_density(p, dimension)
           for p in GAUSSIAN_PARAMETERS]
        + [modulated_witness_density(p, k, dimension)
           for p, k in MODULATED_PARAMETERS])
    for rho in witnesses:
        for axis in range(dimension):
            assert np.array_equal(rho.values, np.flip(rho.values, axis))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_tensor_product_witnesses_are_the_outer_products_of_their_factors(
        dimension):
    witnesses = ([gaussian_witness_density(p, dimension)
                  for p in GAUSSIAN_PARAMETERS]
                 + [modulated_witness_density(p, k, dimension)
                    for p, k in MODULATED_PARAMETERS])
    for rho in witnesses:
        factors = rho._factors
        assert len(factors) == dimension
        assert np.array_equal(rho.values,
                              functools.reduce(np.multiply.outer, factors))
        for factor in factors:
            assert np.array_equal(factor, factor[::-1])
            assert factor.sum() * rho.cell_width == pytest.approx(1.0,
                                                                  abs=1e-12)
            assert not factor.flags.writeable
    for radius, cells in BALL_PARAMETERS:
        assert uniform_ball_density(radius, dimension, cells)._factors is None


def test_public_loaded_and_derived_densities_carry_no_factors(tmp_path):
    rho = modulated_witness_density(0.5, 1.0, 2)
    assert rho._factors is not None
    assert "_factors" not in repr(rho)
    assert not {f.name for f in dataclasses.fields(rho)
                if f.compare and f.name.startswith("_")}
    loaded = GridDensity.load(rho.save(tmp_path / "witness"))
    assert "factor" not in (tmp_path / "witness.json").read_text()
    for other in (GridDensity(rho.origin, rho.cell_width, rho.values),
                  loaded, dataclasses.replace(rho),
                  dataclasses.replace(rho, origin=rho.origin + 1.0)):
        assert other._factors is None
        assert np.array_equal(other.values, rho.values)


def test_public_densities_copy_and_builders_keep_their_own_array(tmp_path):
    # the public constructor, load and replace copy what they are given;
    # a builder keeps the array it made, read-only, with no copy
    values = np.random.default_rng(6).uniform(size=(5, 4))
    kept = values.copy()
    public = GridDensity(np.zeros(2), 0.5, values)
    values[...] = 7.0
    assert np.array_equal(public.values, kept)
    assert not public.values.flags.writeable
    loaded = GridDensity.load(public.save(tmp_path / "grid"))
    replaced = dataclasses.replace(public)
    for other in (loaded, replaced):
        assert not np.shares_memory(other.values, public.values)
        assert np.array_equal(other.values, kept)
    for rho in (uniform_ball_density(1.0, 2, 8),
                gaussian_witness_density(0.5, 2),
                modulated_witness_density(0.5, 1.0, 2)):
        assert not rho.values.flags.writeable
        with pytest.raises(ValueError):
            rho.values[0, 0] = 1.0


def test_ball_build_holds_little_more_than_its_grid():
    # the 128^3 ball of the 3-d integral criterion: the squared radii
    # become the density in place, and the density keeps that array, so
    # the build peaks at the grid and the checks' bool temporaries
    import tracemalloc

    tracemalloc.start()
    try:
        rho = uniform_ball_density(2.0, 3, cells_per_radius=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.extents == (128, 128, 128)
    assert peak <= 1.25 * rho.values.nbytes


def test_empirical_approximation_contract():
    target = PointCloudMeasure([[0.0], [1.0], [2.5]], [0.2, 0.3, 0.5])
    approx = empirical_approximation(target, 0.1, n_min=50, seed=3)
    assert approx.size >= 50
    np.testing.assert_allclose(approx.weights, 1.0 / approx.size)
    assert np.unique(approx.points, axis=0).shape[0] == approx.size
    again = empirical_approximation(target, 0.1, n_min=50, seed=3)
    np.testing.assert_array_equal(again.points, approx.points)
    other = empirical_approximation(target, 0.1, n_min=50, seed=4)
    assert not np.array_equal(other.points, approx.points)


@pytest.mark.parametrize("target", [
    uniform_ball_density(1.0, 1, 16), gaussian_witness_density(1.0, 2)],
    ids=["ball-1d", "gaussian-2d"])
def test_empirical_approximation_of_a_grid_density(target):
    # support radius by box masses, cube masses by exact cell overlaps; the
    # density's cell-centre cloud is within one cell diameter of it, so the
    # approximation is within eps plus that of the cloud (0.23 for the
    # ball, 0.19 for the Gaussian)
    eps = 0.3
    approx = empirical_approximation(target, eps, seed=0)
    assert approx.is_probability
    np.testing.assert_allclose(approx.weights, 1.0 / approx.size)
    assert np.unique(approx.points, axis=0).shape[0] == approx.size
    cloud = PointCloudMeasure(target.cell_centers(),
                              target.values.ravel() * target.cell_volume)
    diameter = target.cell_width * math.sqrt(target.dimension)
    bound = levy_prokhorov_upper(
        cloud, approx, [0.05, 0.1, 0.15, 0.2, 0.25, eps, eps + diameter])
    assert bound <= eps + diameter


def test_empirical_approximation_of_a_3d_grid_density():
    # the cube [-0.75, 0.75]^3 leaves 0.254 < eps/2 of the rasterized ball
    # outside, the next smaller candidate more; l = floor(2 * 0.75 *
    # sqrt(3) / 0.6) + 1 = 5 cubes per axis and n = floor(2 * 125 / 0.6)
    # + 1 = 417 atoms
    approx = empirical_approximation(uniform_ball_density(1.0, 3, 8), 0.6)
    assert approx.size == 417
    assert approx.dimension == 3
    assert approx.is_probability
    assert np.unique(approx.points, axis=0).shape[0] == approx.size


def test_empirical_approximation_refuses_a_non_measure():
    with pytest.raises(TypeError, match="ndarray"):
        empirical_approximation(np.zeros((3, 1)), 0.1)


def test_empirical_approximation_refuses_too_many_atoms():
    # about 2.2e8 atoms in 3-d, 5 GB of points: refused before any is built
    cloud = PointCloudMeasure.empirical(
        np.random.default_rng(0).normal(size=(1000, 3)))
    with pytest.raises(ValueError, match="coordinates"):
        empirical_approximation(cloud, 0.05)


@pytest.mark.parametrize("eps", [1e-100, 1e-300])
def test_empirical_approximation_refuses_a_tiny_eps(eps):
    # n passes the largest float; it is refused as too many atoms, not
    # by an overflow converting it
    cloud = PointCloudMeasure.empirical(
        np.random.default_rng(0).normal(size=(100, 3)))
    with pytest.raises(ValueError, match="coordinates"):
        empirical_approximation(cloud, eps)


def test_empirical_approximation_refuses_coincident_atoms(monkeypatch):
    # one atom, so one cube holds all n atoms, and a pattern whose last
    # point repeats its first
    halton = measures._halton_points
    monkeypatch.setattr(
        measures, "_halton_points",
        lambda count, dim: np.vstack([halton(count - 1, dim),
                                      halton(1, dim)]))
    target = PointCloudMeasure([[0.3, -0.2]], [1.0])
    with pytest.raises(InvariantViolation, match="coincident"):
        empirical_approximation(target, 0.5)


def test_coincident_rows_are_found_among_shared_first_coordinates():
    rows = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [0.0, 1.0]])
    assert _has_coincident_rows(rows)
    assert not _has_coincident_rows(rows[:3])
    assert not _has_coincident_rows(rows[1:])


def test_empirical_approximation_rejects_bad_inputs():
    target = PointCloudMeasure([[0.0]], [1.0])
    with pytest.raises(ValueError):
        empirical_approximation(target, 0.0)
    with pytest.raises(ValueError):
        empirical_approximation(target, 2.5)
    with pytest.raises(ValueError):
        empirical_approximation(PointCloudMeasure([[0.0]], [0.5]), 0.1)


def test_levy_prokhorov_two_atoms():
    mu = PointCloudMeasure([[0.0]], [1.0])
    nu = PointCloudMeasure([[0.3]], [1.0])
    got = levy_prokhorov_upper(mu, nu, [0.1, 0.2, 0.3, 0.4])
    assert got == pytest.approx(0.3)


def test_levy_prokhorov_split_mass():
    # half the mass must travel distance 1, so the distance is 1/2
    mu = PointCloudMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = PointCloudMeasure([[0.0]], [1.0])
    assert levy_prokhorov_upper(mu, nu, [0.25, 0.5]) == pytest.approx(0.5)
    assert levy_prokhorov_upper(nu, mu, [0.25, 0.5]) == pytest.approx(0.5)


def test_levy_prokhorov_identical_and_unreachable():
    mu = PointCloudMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert levy_prokhorov_upper(mu, mu, [0.05, 0.1]) == pytest.approx(0.05)
    far = PointCloudMeasure([[50.0]], [1.0])
    assert levy_prokhorov_upper(mu, far, [0.1, 0.5]) == math.inf


def test_levy_prokhorov_2d_axis_enlargement_is_conservative():
    mu = PointCloudMeasure([[0.0, 0.0]], [1.0])
    nu = PointCloudMeasure([[0.3, 0.0]], [1.0])
    # per-axis enlargement eps/sqrt(2) certifies at 0.45, not at 0.3
    assert levy_prokhorov_upper(mu, nu, [0.3, 0.45]) == pytest.approx(0.45)
    with pytest.raises(DimensionUnsupported):
        levy_prokhorov_upper(
            PointCloudMeasure([[0.0, 0.0, 0.0]], [1.0]),
            PointCloudMeasure([[0.0, 0.0, 0.0]], [1.0]), [0.1])


def test_levy_prokhorov_certifies_empirical_approximation():
    target = PointCloudMeasure([[0.0], [1.0], [2.5]], [0.2, 0.3, 0.5])
    approx = empirical_approximation(target, 0.1, seed=0)
    assert levy_prokhorov_upper(target, approx, [0.1]) <= 0.1
