import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct, dctn, dst, next_fast_len
from scipy.spatial.distance import cdist

import groundlab
from groundlab import (GaussianMix, GridDensity, Morse, PointCloudMeasure,
                       PowerLaw, Tabulated, bilinear_form, combine,
                       energy_grid, energy_pointcloud,
                       gaussian_witness_density, modulated_witness_density,
                       uniform_ball_density)
from groundlab import energy
from groundlab.energy import _octant_kernel, _self_cell_average
from groundlab.geometry import pair_distances, pair_indices


def test_two_atom_oracle():
    w = GaussianMix([(1.0, 1.0)], 1)
    mu = PointCloudMeasure([[0.0], [1.0]], [0.5, 0.5])
    report = energy_pointcloud(w, mu)
    # off-diagonal 2 * (1/4) * exp(-1), diagonal W(0) * (1/4 + 1/4)
    assert report.value == pytest.approx(0.5 + 0.5 * math.exp(-1.0),
                                         rel=1e-14)
    assert report.diagonal_contribution == pytest.approx(0.5)
    assert report.pair_count == 1
    bare = energy_pointcloud(w, mu, include_diagonal=False)
    assert bare.value == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)


def test_singular_contact_gives_infinite_value():
    w = PowerLaw(2.0, -0.5, 1)
    mu = PointCloudMeasure([[0.0], [1.0]], [0.5, 0.5])
    report = energy_pointcloud(w, mu)
    assert report.value == math.inf
    assert math.isinf(report.diagonal_contribution)
    # dropping the diagonal keeps separated atoms finite
    assert math.isfinite(energy_pointcloud(w, mu,
                                           include_diagonal=False).value)


def test_dimension_mismatch_rejected():
    w = Morse(1.0, 1.0, 2)
    mu = PointCloudMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        energy_pointcloud(w, mu)


def test_mass_scaling_is_quadratic():
    rng = np.random.default_rng(11)
    w = Morse(1.5, 1.0, 2)
    mu = PointCloudMeasure(rng.normal(size=(6, 2)),
                           rng.uniform(0.1, 0.3, size=6))
    base = energy_pointcloud(w, mu).value
    scaled = energy_pointcloud(w, mu.scaled_mass(0.7)).value
    assert scaled == pytest.approx(0.49 * base, rel=1e-13)


def test_translation_invariance():
    rng = np.random.default_rng(12)
    w = GaussianMix([(2.0, 1.0), (-1.0, 2.0)], 3)
    mu = PointCloudMeasure(rng.normal(size=(5, 3)), np.full(5, 0.2))
    base = energy_pointcloud(w, mu).value
    moved = energy_pointcloud(w, mu.translated([3.0, -1.0, 0.5])).value
    assert moved == pytest.approx(base, rel=1e-13)


def test_bilinear_decomposition():
    rng = np.random.default_rng(13)
    w = Morse(0.5, 2.0, 2)
    mu = PointCloudMeasure(rng.normal(size=(4, 2)),
                           rng.uniform(0.05, 0.2, size=4))
    nu = PointCloudMeasure(rng.normal(size=(7, 2)),
                           rng.uniform(0.05, 0.2, size=7))
    whole = energy_pointcloud(w, combine(mu, nu)).value
    parts = (energy_pointcloud(w, mu).value + energy_pointcloud(w, nu).value
             + bilinear_form(w, mu, nu))
    assert whole == pytest.approx(parts, rel=1e-13)
    # the form against itself doubles the energy
    assert bilinear_form(w, mu, mu) == pytest.approx(
        2.0 * energy_pointcloud(w, mu).value, rel=1e-13)


def test_escaping_atom_keeps_constant_energy_for_linear_tail():
    # W(s) = -s on [0, 100]: moving mass 1/n out to distance n keeps the
    # energy at -2 (1 - 1/n) (1/n) n = -2 (1 - 1/n), which stays bounded
    # away from the energy 0 of the limit point mass
    w = Tabulated([0.0, 100.0], [0.0, -100.0], 1)
    for n in (2, 10, 50):
        mu = PointCloudMeasure([[0.0], [float(n)]], [1.0 - 1.0 / n, 1.0 / n])
        report = energy_pointcloud(w, mu)
        assert report.value == pytest.approx(-2.0 * (1.0 - 1.0 / n),
                                             rel=1e-14)


def test_grid_energy_matches_closed_form_1d():
    # uniform density on [-1, 1] against exp(-s^2); the double integral has
    # the closed form (2 sqrt(pi) erf(2) - 1 + exp(-4)) / 4
    w = GaussianMix([(1.0, 1.0)], 1)
    rho = uniform_ball_density(1.0, 1, cells_per_radius=500)
    expect = (2.0 * math.sqrt(math.pi) * math.erf(2.0)
              - 1.0 + math.exp(-4.0)) / 4.0
    got = energy_grid(w, rho).value
    assert got == pytest.approx(expect, rel=1e-4)


def direct_grid_energy(potential, rho, rows=1024):
    """The O(M^2) double sum over all cell-center pairs, in blocks of rows:
    the reference the spectral energy_grid must reproduce."""
    masses = (rho.values * rho.cell_volume).ravel()
    centers = rho.cell_centers()
    off = 0.0
    for start in range(0, masses.size, rows):
        block = slice(start, start + rows)
        kernel = potential(cdist(centers[block], centers))
        kernel[np.arange(kernel.shape[0]),
               np.arange(start, start + kernel.shape[0])] = 0.0
        off += float(masses[block] @ kernel @ masses)
    self_avg = _self_cell_average(potential, rho.cell_width, rho.dimension)
    return off + float(np.sum(masses**2)) * self_avg


def random_density(shape, seed):
    """Seeded random nonnegative cell values on a grid about [-2, 2]^N."""
    h = 4.0 / max(shape)
    values = np.random.default_rng(seed).uniform(0.0, 1.0, size=shape)
    return GridDensity(-0.5 * h * np.array(shape), h,
                       values / (values.sum() * h**len(shape)))


def meshgrid_kernel(potential, shape, h):
    """Offset kernel built from float meshgrids of the offsets, indexed from
    -(e - 1) to e - 1 per axis, with the zero offset set to 0."""
    offsets = np.meshgrid(*[np.arange(-(e - 1), e) for e in shape],
                          indexing="ij")
    radii = h * np.sqrt(sum(o.astype(float)**2 for o in offsets))
    kernel = potential(radii)
    kernel[tuple(e - 1 for e in shape)] = 0.0
    return kernel


GRID_CASES = [
    ("ball-1d", Morse(1.2, 1.0, 1),
     lambda: uniform_ball_density(1.5, 1, cells_per_radius=500)),
    ("ball-2d", Morse(1.2, 1.0, 2),
     lambda: uniform_ball_density(1.5, 2, cells_per_radius=16)),
    ("gaussian-2d", Morse(1.0, 2.0, 2),
     lambda: gaussian_witness_density(0.2, 2)),
    ("modulated-2d", GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 2),
     lambda: modulated_witness_density(0.3, 2.0, 2)),
    ("ball-3d", Morse(1.0, 2.0, 3),
     lambda: uniform_ball_density(2.0, 3, cells_per_radius=6)),
    ("singular-2d", PowerLaw(2.0, -0.5, 2),
     lambda: uniform_ball_density(1.0, 2, cells_per_radius=10)),
    ("random-3d-9x14x5", Morse(1.0, 2.0, 3),
     lambda: random_density((9, 14, 5), 71)),
    ("random-1d-1021", Morse(1.2, 1.0, 1),
     lambda: random_density((1021,), 72)),
    ("random-2d-97x97", GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 2),
     lambda: random_density((97, 97), 73)),
    ("random-2d-1x6", Morse(1.2, 1.0, 2), lambda: random_density((1, 6), 74)),
    ("random-3d-3x1x2", Morse(1.0, 2.0, 3),
     lambda: random_density((3, 1, 2), 75)),
    ("random-2d-2x9", GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 2),
     lambda: random_density((2, 9), 76)),
    ("random-3d-7x5x3", Morse(1.0, 2.0, 3),
     lambda: random_density((7, 5, 3), 77)),
    ("single-cell-3d", Morse(1.0, 2.0, 3),
     lambda: random_density((1, 1, 1), 78)),
    ("zero-2d", Morse(1.2, 1.0, 2),
     lambda: GridDensity([-1.0, -1.0], 0.25, np.zeros((8, 5)))),
]


@pytest.mark.parametrize("potential, build", [c[1:] for c in GRID_CASES],
                         ids=[c[0] for c in GRID_CASES])
def test_grid_energy_matches_direct_double_sum(potential, build):
    rho = build()
    report = energy_grid(potential, rho)
    assert math.isfinite(report.value)
    # abs=0: the all-zero grid must give exactly 0
    assert report.value == pytest.approx(direct_grid_energy(potential, rho),
                                         rel=1e-12, abs=0.0)


@pytest.mark.parametrize("potential, build", [c[1:] for c in GRID_CASES],
                         ids=[c[0] for c in GRID_CASES])
def test_offset_kernel_matches_meshgrid_kernel_bit_for_bit(potential, build):
    rho = build()
    shape, h = rho.values.shape, rho.cell_width
    octant = tuple(slice(e - 1, None) for e in shape)
    assert np.array_equal(_octant_kernel(potential, shape, h, shape),
                          meshgrid_kernel(potential, shape, h)[octant])


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (3, 4), (12, 12, 12),
                                   (9, 14, 5)])
def test_padded_offset_kernel_is_the_kernel_zero_padded(shape):
    w = Morse(1.2, 1.0, len(shape))
    padded = [e + k + 1 for k, e in enumerate(shape)]
    octant = meshgrid_kernel(w, shape, 0.1)[
        tuple(slice(e - 1, None) for e in shape)]
    assert np.array_equal(_octant_kernel(w, shape, 0.1, padded),
                          np.pad(octant, [(0, p - e) for p, e in
                                          zip(padded, shape)]))


class CountingMorse(Morse):
    def __init__(self, *args):
        super().__init__(*args)
        self.points = 0

    def _profile(self, radii):
        self.points += radii.size
        return super()._profile(radii)


@pytest.mark.parametrize("dimension, cells", [(1, 4096), (2, 128), (3, 32)])
def test_offset_kernel_evaluates_w_at_most_once_per_offset(dimension, cells):
    # the table over every integer up to max |o|^2 would take (e - 1)^2
    # evaluations on a 1-d grid of e cells
    w = CountingMorse(1.0, 2.0, dimension)
    shape = (cells,) * dimension
    kernel = _octant_kernel(w, shape, 0.1, shape)
    assert w.points <= min(kernel.size, dimension * (cells - 1)**2 + 1)


def test_grid_cases_cover_the_stated_shapes():
    assert GRID_CASES[0][2]().values.shape == (1000,)
    assert GRID_CASES[2][2]().values.shape == (60, 60)
    assert GRID_CASES[4][2]().values.shape == (12, 12, 12)
    assert PowerLaw(2.0, -0.5, 2).value_at_zero == math.inf
    assert GRID_CASES[6][2]().values.shape == (9, 14, 5)
    # the padded lengths are not twice the extents
    for k, shape in ((7, (1021,)), (8, (97, 97))):
        assert GRID_CASES[k][2]().values.shape == shape
        assert next_fast_len(shape[0], real=True) > shape[0]
    # extents of 1 and 2, odd extents on every axis, one cell, no mass
    shapes = [(1, 6), (3, 1, 2), (2, 9), (7, 5, 3), (1, 1, 1), (8, 5)]
    assert [GRID_CASES[k][2]().values.shape for k in range(9, 15)] == shapes
    assert not GRID_CASES[14][2]().values.any()


def counted_transforms(monkeypatch):
    """Count the type-II DCT and DST calls energy_grid makes."""
    calls = {"dct": 0, "dst": 0}

    def counting(name):
        transform = getattr(energy, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(energy, name, counting(name))
    return calls


def test_mirror_symmetric_ball_transforms_only_its_even_component(
        monkeypatch):
    rho = uniform_ball_density(2.0, 3, cells_per_radius=6)
    assert np.array_equal(rho.values, rho.values[::-1, ::-1, ::-1])
    calls = counted_transforms(monkeypatch)
    energy_grid(Morse(1.0, 2.0, 3), rho)
    assert calls == {"dct": 3, "dst": 0}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_gaussian_and_modulated_witnesses_transform_only_their_even_component(
        monkeypatch, dimension):
    w = Morse(1.0, 2.0, dimension)
    for rho in (gaussian_witness_density(1.0, dimension),
                modulated_witness_density(1.0, 3.0, dimension)):
        calls = counted_transforms(monkeypatch)
        energy_grid(w, rho)
        assert calls == {"dct": dimension, "dst": 0}


def test_asymmetric_density_transforms_odd_components_and_matches_oracle(
        monkeypatch):
    # the Gaussian of the p = 0.2 witness on a 60 x 60 grid whose centre
    # is off the origin: no axis mirrors it, so all four parity
    # components are nonzero
    w = Morse(1.0, 2.0, 2)
    h = gaussian_witness_density(0.2, 2).cell_width
    origin = h * np.array([-23.0, -38.5])
    axes = [o + h * (np.arange(60) + 0.5) for o in origin]
    values = np.exp(-2.0 * 0.2**2 * sum(np.ix_(*[a**2 for a in axes])))
    rho = GridDensity(origin, h, values / (values.sum() * h**2))
    for axis in (0, 1):
        assert not np.array_equal(rho.values, np.flip(rho.values, axis))
    calls = counted_transforms(monkeypatch)
    value = energy_grid(w, rho).value
    assert calls == {"dct": 4, "dst": 4}
    assert value == pytest.approx(direct_grid_energy(w, rho), rel=1e-12)


IMPORT_BUDGET = """
import json, sys
from pathlib import Path

import groundlab
from groundlab import (Morse, classify_trace, cli, ground_state_scan,
                       integral_criterion, minimize_particles, ruc_search)

def loaded():
    return [name for name in ("scipy.signal", "scipy.integrate",
                              "scipy.optimize") if name in sys.modules]

seen = {"import": loaded()}
w = Morse(1.0, 2.0, 2)
classify_trace(minimize_particles(w, n=8, max_iter=50))
ruc_search(w, n_list=(4, 8), seeds=(0,), optimizer_budget=50)
ground_state_scan(lambda G: Morse(G, 1.0, 1), [{"G": 0.5}, {"G": 2.0}],
                  n=4, seeds=(0, 1), max_iter=50)
seen["descent"] = loaded()
out = Path(sys.argv[1])
for command, extra in (
        ("minimize", {"n": 8, "seeds": [0, 1], "max_iter": 50}),
        ("scan", {"grid": {"G": [0.5, 2.0], "L": [0.5, 1.0]}, "n": 4,
                  "seeds": [0], "max_iter": 50})):
    config = out / f"{command}.json"
    config.write_text(json.dumps({
        "command": command, "output_dir": str(out / command),
        "potential": {"family": "morse", "G": 1.0, "L": 1.0,
                      "dimension": 1}, **extra}))
    assert cli.main([command, "--config", str(config)]) == 0
seen["cli"] = loaded()
integral_criterion(Morse(1.0, 2.0, 1), build_witness=True)
seen["witness"] = loaded()
print(json.dumps(seen))
"""


def test_descents_load_no_quadrature_or_optimizer(tmp_path):
    # A fresh process: pytest's own -W flags may import scipy.integrate.
    # scipy.signal alone used to cost more than a second of every
    # start-up; scipy.integrate and scipy.optimize 13 MB of a descent's
    # peak memory, which never calls quad or minimize_scalar
    src = str(Path(groundlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET,
                           str(tmp_path)], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == seen["descent"] == seen["cli"] == []
    # the ball witness's scale polishes the profile's infimum
    assert "scipy.optimize" in seen["witness"]


def test_grid_energy_has_one_mode():
    w = Morse(1.2, 1.0, 2)
    rho = uniform_ball_density(1.5, 2, cells_per_radius=16)
    for mode in ("direct", "something"):
        with pytest.raises(ValueError):
            energy_grid(w, rho, quad_mode=mode)
    assert energy_grid(w, rho, quad_mode="radial_fast") == energy_grid(w, rho)


def test_grid_energy_reports_mode_and_diagonal():
    w = GaussianMix([(1.0, 1.0)], 1)
    rho = uniform_ball_density(1.0, 1, cells_per_radius=32)
    report = energy_grid(w, rho)
    assert report.mode == "grid-radial_fast"
    assert report.diagonal_contribution > 0.0
    assert report.potential_label == w.label


def reference_energy_grid(potential, rho):
    """The grid energy's arithmetic before the fold read the density
    itself: a full-size mass array first, then the kernel spectrum, then
    each parity component of the masses folded out of whole new arrays."""
    masses = rho.values * rho.cell_volume
    self_avg = _self_cell_average(potential, rho.cell_width, rho.dimension)
    diagonal = float(np.sum(masses**2)) * self_avg
    if any(e % 2 for e in masses.shape):
        masses = np.pad(masses, [(0, e % 2) for e in masses.shape])
    lengths = [next_fast_len(e, real=True) for e in masses.shape]
    spectrum = dctn(_octant_kernel(potential, rho.extents, rho.cell_width,
                                   [n + 1 for n in lengths]),
                    type=1, overwrite_x=True)
    for axis in range(spectrum.ndim):
        spectrum[(slice(None),) * axis + (slice(1, -1),)] *= 2.0
    off = 0.0
    for parities, part in reference_components(masses):
        for axis, (parity, n) in enumerate(zip(parities, lengths)):
            part = (dst if parity else dct)(part, type=2, n=n, axis=axis)
        part *= part
        part *= spectrum[tuple(slice(p, p + n)
                               for p, n in zip(parities, lengths))]
        off += float(np.sum(part))
    off /= 4**len(lengths) * math.prod(2 * n for n in lengths)
    return off + diagonal, diagonal


def reference_components(masses):
    parts = [((), masses)]
    for axis in range(masses.ndim):
        folded = []
        for parities, part in parts:
            lower, upper = np.split(part, 2, axis=axis)
            lower = np.flip(lower, axis)
            for parity, half in enumerate((upper + lower, upper - lower)):
                if half.any():
                    folded.append((parities + (parity,), half))
        parts = folded
    return parts


ORACLE_SHAPES = [(1,), (2,), (7,), (64,), (1021,), (1, 6), (6, 5), (8, 8),
                 (13, 9), (3, 1, 2), (7, 5, 3), (9, 14, 5), (8, 6, 10),
                 (12, 12, 12)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES,
                         ids=["x".join(map(str, s)) for s in ORACLE_SHAPES])
def test_grid_energy_keeps_the_mass_first_arithmetic_bit_for_bit(shape):
    w = Morse(1.2, 1.0, len(shape))
    rho = random_density(shape, 80 + len(shape) * sum(shape))
    if min(shape) > 1:
        # asymmetric: every parity component of the masses takes part
        masses = np.pad(rho.values * rho.cell_volume,
                        [(0, e % 2) for e in shape])
        assert len(reference_components(masses)) == 2**len(shape)
    report = energy_grid(w, rho)
    assert (report.value, report.diagonal_contribution) == \
        reference_energy_grid(w, rho)


@pytest.mark.parametrize("shape", [(7,), (64,), (6, 5), (13, 9), (7, 5, 3),
                                   (8, 6, 10)])
def test_first_fold_in_small_blocks_keeps_the_bits(shape, monkeypatch):
    # blocks of 5 cells: one row or a few per block, and a short last one
    monkeypatch.setattr(energy, "_FOLD_BLOCK", 5)
    w = Morse(1.2, 1.0, len(shape))
    rho = random_density(shape, 90 + sum(shape))
    assert energy_grid(w, rho).value == reference_energy_grid(w, rho)[0]


@pytest.mark.parametrize("shape", [(5,), (8,), (4, 7), (6, 6, 6),
                                   (3, 5, 4)])
def test_zero_density_has_zero_grid_energy(shape):
    w = Morse(1.2, 1.0, len(shape))
    rho = GridDensity(np.zeros(len(shape)), 0.25, np.zeros(shape))
    report = energy_grid(w, rho)
    assert (report.value, report.diagonal_contribution) == (0.0, 0.0)
    assert (report.value, report.diagonal_contribution) == \
        reference_energy_grid(w, rho)


def test_witness_build_and_grid_energy_hold_little_more_than_the_grid():
    # the 128^3 ball of the 3-d integral criterion: the build and the
    # energy each peak below 2.25 grids' bytes, the energy counted above
    # the witness it reads
    import tracemalloc

    w = Morse(1.0, 2.0, 3)
    tracemalloc.start()
    try:
        rho = uniform_ball_density(2.0, 3, cells_per_radius=64)
        build_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        energy_grid(w, rho)
        energy_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    grid = rho.values.nbytes
    assert rho.extents == (128, 128, 128)
    assert build_peak <= 2.25 * grid
    assert energy_peak <= 2.25 * grid


def test_pointcloud_pair_weights_keep_the_outer_product_bits():
    # the pair weights w_i w_j over the condensed pairs, as the n x n outer
    # product indexed by the pairs gave them
    rng = np.random.default_rng(81)
    w = Morse(1.2, 1.0, 2)
    for n in (2, 3, 17, 64):
        weights = rng.uniform(0.1, 1.0, n)
        mu = PointCloudMeasure(rng.normal(size=(n, 2)),
                               weights / weights.sum())
        pair_w = (mu.weights[:, None] * mu.weights[None, :])[pair_indices(n)]
        off = 2.0 * float(np.dot(pair_w, w(pair_distances(mu.points))))
        report = energy_pointcloud(w, mu, include_diagonal=False)
        assert report.value == off
        assert energy_pointcloud(w, mu).value == \
            off + w.value_at_zero * float(np.dot(mu.weights, mu.weights))
