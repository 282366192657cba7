import csv
import io
import math

import numpy as np
import pytest

from groundlab import (GridDensity, PointCloudMeasure, combine,
                       empirical_approximation, gaussian_witness_density,
                       levy_prokhorov_upper, modulated_witness_density,
                       uniform_ball_density)
from groundlab.errors import DimensionUnsupported


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


def _meshgrid_witness(radius, dimension, per_half, profile):
    """The witness rasterizer as written with N float meshgrids: the
    reference whose bits the builders must keep."""
    h = radius / per_half
    axis = -radius + h * (np.arange(2 * per_half) + 0.5)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    rsq = sum(m**2 for m in mesh)
    values = profile(rsq, mesh[0])
    mass = values.sum() * h**dimension
    return np.full(dimension, -radius), h, values / mass


def _ball_reference(radius, dimension, cells):
    return _meshgrid_witness(
        radius, dimension, cells,
        lambda rsq, x1: (np.sqrt(rsq) <= radius).astype(float))


def _gaussian_reference(p, dimension):
    sigma = 1.0 / (2.0 * p)

    def profile(rsq, x1):
        r = np.sqrt(rsq)
        return np.exp(-2.0 * p * p * r * r)

    return _meshgrid_witness(5.0 * sigma, dimension, 30, profile)


def _modulated_reference(p, wave_number, dimension):
    sigma = 1.0 / (2.0 * p)
    radius = 4.0 * sigma
    h = min(sigma / 3.0, (2.0 * math.pi / wave_number) / 8.0)
    return _meshgrid_witness(
        radius, dimension, int(math.ceil(radius / h)),
        lambda rsq, x1: (np.exp(-2.0 * p * p * rsq)
                         * (1.0 + np.cos(wave_number * x1))))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_witness_builders_keep_the_meshgrid_bits(dimension):
    cases = []
    for radius, cells in ((1.0, 8), (2.5, 13), (4.0, 16)):
        cases.append((uniform_ball_density(radius, dimension, cells),
                      _ball_reference(radius, dimension, cells)))
    for p in (0.05, 0.3, 1.0, 2.7, 10.0):
        cases.append((gaussian_witness_density(p, dimension),
                      _gaussian_reference(p, dimension)))
    for p, k in ((0.25, 3.0), (0.5, 1.0), (1.3, 6.5)):
        cases.append((modulated_witness_density(p, k, dimension),
                      _modulated_reference(p, k, dimension)))
    for rho, (origin, width, values) in cases:
        assert np.array_equal(rho.values, values)
        assert np.array_equal(rho.origin, origin)
        assert rho.cell_width == width


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
    # the grid branch: support radius by box masses, cube masses by exact
    # cell overlaps; the density's cell-centre cloud is within one cell
    # diameter of it, so the approximation is within eps plus that of the
    # cloud (0.23 for the ball, 0.19 for the Gaussian)
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
