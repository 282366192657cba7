"""Quadratic interaction energy of a measure under a radial potential.

The energy of a measure is the double integral of W(|x - y|) against the
product measure.  For atomic measures this is a double sum; the diagonal
terms contribute W(0) times the sum of squared weights and can be included
or dropped via a flag (self-interaction is physical for diffuse measures,
spurious for particle systems).  For grid densities the double integral is
evaluated cell-pairwise at cell centers, grouped by lattice offset: the sum
over offsets o of K(o) = W(h |o|) times the autocorrelation of the cell
masses is taken in frequency space by Parseval.  K is even in every axis,
so its spectrum is the type-I DCT of K on the nonnegative octant of
offsets, and the sum splits exactly over the even and odd parts of the
masses about the grid centre (symmetric convolution, Martucci 1994): each
part is a half grid transformed by type-II DCTs along its even axes and
DSTs along its odd ones, and a part that is exactly zero, such as every odd
part of a mirror-symmetric witness, is skipped.  The parts are folded
straight from the density, with no full-size array of cell masses, each is
transformed in place in one padded array that they share in turn, and the
kernel spectrum is built only once the first part is transformed, so the
energy of a mirror-symmetric witness holds about two grid-sized arrays
beside it.  W is evaluated at most once per octant offset, from a table
over the integer squared offset lengths where that table is the smaller.
The self-cell term is a fixed-seed Monte Carlo average of W over
intra-cell displacements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dctn, dst, next_fast_len
from scipy.spatial.distance import cdist

from .errors import QuadratureFailure
from .geometry import pair_distances, pair_indices
from .measures import GridDensity, PointCloudMeasure
from .potentials import RadialPotential

__all__ = ["EnergyReport", "energy_pointcloud", "energy_grid",
           "bilinear_form"]

_SELF_CELL_SEED = 170512
_SELF_CELL_PAIRS = 512
# cells per block of the first fold, which scales the density's halves
_FOLD_BLOCK = 1 << 16


@dataclass(frozen=True)
class EnergyReport:
    """Value of one energy evaluation plus its bookkeeping.

    ``value`` may be +inf (atoms sitting on a singularity of W); that is the
    infinite-energy signal, no exception is raised for it.
    """

    value: float
    diagonal_contribution: float
    pair_count: int
    potential_label: str
    mode: str


def energy_pointcloud(potential: RadialPotential, mu: PointCloudMeasure,
                      include_diagonal: bool = True) -> EnergyReport:
    """Double sum of W over atom pairs.

    Off-diagonal pairs contribute 2 * w_i * w_j * W(|x_i - x_j|); the
    diagonal, when included, adds W(0) * sum_i w_i**2.  The sums use
    numpy's pairwise accumulation, so the value is reproducible across atom
    orderings to around 1e-12 relative.
    """
    if potential.dimension != mu.dimension:
        raise ValueError("potential and measure dimensions differ")
    n = mu.size
    off = 0.0
    if n > 1:
        dists = pair_distances(mu.points)
        rows, cols = pair_indices(n)
        pair_w = mu.weights[rows] * mu.weights[cols]
        off = 2.0 * float(np.dot(pair_w, potential(dists)))

    diagonal = 0.0
    if include_diagonal:
        w0 = potential.value_at_zero
        sq = float(np.dot(mu.weights, mu.weights))
        if math.isfinite(w0):
            diagonal = w0 * sq
        elif sq > 0.0:
            diagonal = math.inf * (1.0 if w0 > 0 else -1.0)
    value = off + diagonal
    return EnergyReport(
        value=float(value),
        diagonal_contribution=float(diagonal),
        pair_count=n * (n - 1) // 2,
        potential_label=potential.label,
        mode="pointcloud",
    )


def bilinear_form(potential: RadialPotential, mu: PointCloudMeasure,
                  nu: PointCloudMeasure) -> float:
    """Cross term 2 * sum_ij wmu_i * wnu_j * W(|x_i - y_j|).

    Satisfies energy(mu + nu) = energy(mu) + energy(nu) + bilinear_form(mu,
    nu) with diagonal-inclusive energies, and bilinear_form(mu, mu) equals
    twice the energy of mu.
    """
    if mu.dimension != nu.dimension:
        raise ValueError("measures live in different dimensions")
    if potential.dimension != mu.dimension:
        raise ValueError("potential and measure dimensions differ")
    dists = cdist(mu.points, nu.points)
    contributions = (mu.weights[:, None] * nu.weights[None, :]
                     * potential(dists))
    return 2.0 * float(contributions.sum())


def _self_cell_average(potential, cell_width, dimension) -> float:
    """Mean of W over displacements between two uniform points of one cell."""
    rng = np.random.default_rng(_SELF_CELL_SEED)
    u = rng.uniform(0.0, cell_width, size=(_SELF_CELL_PAIRS, dimension))
    v = rng.uniform(0.0, cell_width, size=(_SELF_CELL_PAIRS, dimension))
    samples = potential(np.linalg.norm(u - v, axis=1))
    if not np.all(np.isfinite(samples)):
        raise QuadratureFailure(
            "self-cell average hit a non-finite potential value")
    half = _SELF_CELL_PAIRS // 2
    first, second = samples[:half].mean(), samples[half:].mean()
    scale = 0.5 * (abs(first) + abs(second))
    if abs(first - second) > 0.5 * scale + 1e-12:
        raise QuadratureFailure(
            f"self-cell Monte Carlo did not stabilize "
            f"(half-sample means {first:.3e} vs {second:.3e})")
    return float(samples.mean())


def _octant_kernel(potential, shape, h, padded) -> np.ndarray:
    """W(h |o|) for the lattice offsets o with 0 <= o_i < e_i of a grid of
    the given shape, with the zero offset set to 0, zero-padded to the
    shape ``padded``.

    This is the nonnegative octant of the even kernel K the grid energy
    weights the mass autocorrelation by.  |o|^2 is an exact integer.  When
    the integers up to its maximum are fewer than the octant's offsets, as
    on 3-d grids with equal sides, W is evaluated once per integer and
    gathered from that table one slab of the first axis at a time.
    Otherwise W is evaluated at each offset: a 1-d grid of e cells has e
    offsets but (e - 1)^2 such integers.  Both give the same bits.  Writing the kernel straight into
    its padded array, with no full-size |o|^2 array or unpadded copy
    beside it, keeps the grid energy's peak memory low and independent of
    where the heap places those blocks.
    """
    kernel = np.zeros(padded)
    octant = kernel[tuple(slice(0, e) for e in shape)]
    first = np.arange(shape[0])**2
    rest = sum(np.ix_(*[np.arange(e)**2 for e in shape[1:]]), 0)
    top = int(first[-1] + np.max(rest))
    if top < math.prod(shape):
        table = potential(h * np.sqrt(np.arange(top + 1)))
        for i, sq in enumerate(first):
            octant[i] = table[rest + sq]
    else:
        octant[...] = potential(h * np.sqrt(np.add.outer(first, rest)))
    kernel[(0,) * len(shape)] = 0.0
    return kernel


def _spectrum(potential, rho, lengths) -> np.ndarray:
    """K^ of the grid energy: the type-I DCT of the octant kernel of
    ``rho`` zero-padded to L_i + 1 entries per axis, with frequencies
    1..L_i - 1 doubled for their two signs, transformed in place."""
    spectrum = dctn(_octant_kernel(potential, rho.extents, rho.cell_width,
                                   [n + 1 for n in lengths]),
                    type=1, overwrite_x=True)
    # frequencies 1..L-1 stand for both of their signs
    for axis in range(spectrum.ndim):
        spectrum[(slice(None),) * axis + (slice(1, -1),)] *= 2.0
    return spectrum


def _parity_components(values, scale):
    """The nonzero parity components of the cell masses ``values * scale``,
    ``values`` an array of even extents, as (parities, half-grid array)
    pairs.

    Each axis of e cells is folded about its centre into the upper half
    plus the mirrored lower half (parity 0, the even part) and the upper
    half minus it (parity 1, the odd part); a component that is exactly
    zero is dropped together with everything it would fold into.  The
    first fold reads ``values`` itself (see :func:`_scaled_fold`), and the
    arrays of one axis are dropped as soon as all their halves are formed.
    """
    parts = [((), values)]
    for axis in range(values.ndim):
        parts = [(parities + (parity,), half)
                 for parities, part in parts
                 for parity, half in _fold(part, axis, scale)]
    return parts


def _fold(part, axis, scale):
    """The nonzero halves of ``part`` folded along ``axis``, as (parity,
    half) pairs; the first axis folds ``part * scale``.  A later axis forms
    its odd half in place in the upper half it is taken from, so a zero one
    takes no memory of its own."""
    if axis == 0:
        even, odd = _scaled_fold(part, scale)
    else:
        lower, upper = np.split(part, 2, axis=axis)
        lower = np.flip(lower, axis)
        even = upper + lower
        odd = np.subtract(upper, lower, out=upper)
    return [(parity, half) for parity, half in enumerate((even, odd))
            if half.any()]


def _scaled_fold(values, scale):
    """The even and odd halves of ``values * scale`` folded along the first
    axis, (v_u s) + (v_l s) and (v_u s) - (v_l s): the elements of a fold
    of the masses.  They are formed a block of about ``_FOLD_BLOCK`` cells
    at a time, so no array of the grid's size is made beside the two
    halves."""
    half = values.shape[0] // 2
    upper, lower = values[half:], values[half - 1::-1]
    even, odd = np.empty(upper.shape), np.empty(upper.shape)
    rows = max(1, _FOLD_BLOCK // math.prod(values.shape[1:]))
    for first in range(0, half, rows):
        block = slice(first, first + rows)
        up, low = upper[block] * scale, lower[block] * scale
        np.add(up, low, out=even[block])
        np.subtract(up, low, out=odd[block])
    return even, odd


def energy_grid(potential: RadialPotential, rho: GridDensity,
                quad_mode: str = "radial_fast") -> EnergyReport:
    """Energy of a piecewise-constant density.

    Cell pairs interact at their centers' distance.  The off-diagonal part
    sum_o K(o) A(o), with A the autocorrelation of the cell masses and K
    from :func:`_octant_kernel`, is computed by Parseval over a period of
    2 L_i cells per axis, L_i = next_fast_len(e_i) for the extent e_i made
    even by one zero cell, so the circular correlation does not wrap.  K is
    even in every axis, so the sum splits exactly over the parity
    components of the masses about the grid centre (see
    :func:`_parity_components`); the cross terms vanish.  On a component
    the DFT over the period is, up to a phase, the type-II DCT (even axes)
    or DST (odd axes) of its half grid zero-padded to L_i.  K^ is the
    type-I DCT of the octant kernel zero-padded to L_i + 1 entries, the DFT
    of its even extension, weighted 1, 2, ..., 2, 1 per axis for the two
    signs of each frequency.  An even axis reads its rows 0..L_i - 1, an
    odd axis rows 1..L_i, since DST index j is frequency j + 1, and the sum
    of K^ T^2 over the components is divided by 4^N prod(2 L_i).  Zero
    components are skipped, so a mirror-symmetric density transforms only
    its even component.  The self-cell term is the Monte Carlo average of W
    over two uniform points of one cell.  ``"radial_fast"`` is the only
    ``quad_mode``; any other value raises ValueError.

    Memory: the cell masses are never formed as a grid of their own.  The
    diagonal squares one temporary ``values * cell_volume`` in place and
    drops it; the first fold scales the density's halves a block at a
    time (see :func:`_scaled_fold`).  The components take turns in one
    array of the padded half period, prod L_i cells: each is copied into
    its corner and transformed there in place, one axis after the other.
    K^ is built once the first component is transformed, so a zero density
    builds none.  On the 128^3 ball witness the peak above the density is
    that array plus K^, about 2.1 grids, where the mass array, K^ and a
    component with its padded copy were held together before (3.65 grids).
    The sums are those of the mass-first order, bit for bit: (v_u c) +
    (v_l c) is the fold of the masses v c element for element, and each
    axis transforms the same zero-padded lines.
    """
    if potential.dimension != rho.dimension:
        raise ValueError("potential and density dimensions differ")
    if quad_mode != "radial_fast":
        raise ValueError(f"unknown quad_mode {quad_mode!r}")

    self_avg = _self_cell_average(potential, rho.cell_width, rho.dimension)
    squares = rho.values * rho.cell_volume
    squares *= squares
    diagonal = float(np.sum(squares)) * self_avg
    del squares

    values = rho.values
    if any(e % 2 for e in values.shape):
        values = np.pad(values, [(0, e % 2) for e in values.shape])
    lengths = [next_fast_len(e, real=True) for e in values.shape]
    halves = [e // 2 for e in values.shape]
    components = _parity_components(values, rho.cell_volume)
    del values
    part = spectrum = None
    off = 0.0
    while components:
        parities, half = components.pop(0)
        if part is None:
            part = np.zeros(lengths)
        else:
            part[...] = 0.0
        part[tuple(slice(0, e) for e in halves)] = half
        del half
        # in place, along each axis in turn: the axes before it are already
        # transformed, the ones after it still hold only their half grid
        for axis, parity in enumerate(parities):
            view = part[tuple(slice(None) if k <= axis else slice(0, e)
                              for k, e in enumerate(halves))]
            out = (dst if parity else dct)(view, type=2, axis=axis,
                                           overwrite_x=True)
            if not np.may_share_memory(out, part):
                view[...] = out
        part *= part
        if spectrum is None:
            spectrum = _spectrum(potential, rho, lengths)
        part *= spectrum[tuple(slice(p, p + n)
                               for p, n in zip(parities, lengths))]
        off += float(np.sum(part))
    off /= 4**len(lengths) * math.prod(2 * n for n in lengths)

    return EnergyReport(
        value=off + diagonal,
        diagonal_contribution=diagonal,
        pair_count=rho.values.size * (rho.values.size - 1) // 2,
        potential_label=potential.label,
        mode=f"grid-{quad_mode}",
    )
