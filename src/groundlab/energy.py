"""Quadratic interaction energy of a measure under a radial potential.

The energy of a measure is the double integral of W(|x - y|) against the
product measure.  For atomic measures this is a double sum; the diagonal
terms contribute W(0) times the sum of squared weights and can be included
or dropped via a flag (self-interaction is physical for diffuse measures,
spurious for particle systems).  For grid densities the double integral is
evaluated cell-pairwise at cell centers, grouped by lattice offset: the sum
over offsets o of K(o) = W(h |o|) times the autocorrelation of the cell
masses.  K is even in every axis, and W is evaluated at most once per
offset of its nonnegative octant, from a table over the integer squared
offset lengths where that table is the smaller.  The sum takes one of two
paths, chosen by the density.

A density built as a tensor product of 1-d factors (the Gaussian and
modulated witnesses) carries its factors, and its mass autocorrelation is
the product of theirs: the sum is the octant of K contracted against one
weight vector per axis, with no transform and nothing held beyond the
octant.  Every other density, the ball witness included, is summed in
frequency space by Parseval.  K's spectrum is the type-I DCT of its octant,
and the sum splits exactly over the even and odd parts of the masses about
the grid centre (symmetric convolution, Martucci 1994): each part is a half
grid transformed by type-II DCTs along its even axes and DSTs along its odd
ones, and a part that is exactly zero is skipped, so the ball, which
equals its mirror image along each axis bit for bit, makes N type-II DCT
passes and no DST.  Each part is folded straight from the density into
one padded array that the parts share in turn, an odd extent read as one
more cell of zero mass, transformed there in place and summed before the
next is folded, so the energy holds about two grid-sized arrays beside
the density: that array and the kernel spectrum.  From 2^16 cells on, the
spectrum is built on a helper thread while the first part is folded and
transformed, and every transform splits its lines over the CPUs the
process may run on; pocketfft computes each line alike however they are
split, so the value keeps its bits.  The self-cell term is a fixed-seed
Monte Carlo average of W over intra-cell displacements.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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
# cells of the density's halves per block of a parity component's folds
_FOLD_BLOCK = 1 << 16
# cells from which a density's transforms split their lines over the CPUs
# and K^ is built on a helper thread: 48^3 gains, 32^3 loses to the start-up
_THREADED_CELLS = 1 << 16
# CPUs the process may run on, the workers of a threaded transform
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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


def _spectrum(potential, rho, lengths, workers) -> np.ndarray:
    """K^ of the grid energy: the type-I DCT of the octant kernel of
    ``rho`` zero-padded to L_i + 1 entries per axis, with frequencies
    1..L_i - 1 doubled for their two signs, transformed in place by
    ``workers`` threads (None: scipy's default)."""
    spectrum = dctn(_octant_kernel(potential, rho.extents, rho.cell_width,
                                   [n + 1 for n in lengths]),
                    type=1, overwrite_x=True, workers=workers)
    # frequencies 1..L-1 stand for both of their signs
    for axis in range(spectrum.ndim):
        spectrum[(slice(None),) * axis + (slice(1, -1),)] *= 2.0
    return spectrum


def _parity_components(values, scale, out):
    """Write the nonzero parity components of the cell masses ``values *
    scale`` about the grid centre into the corner of ``out`` one at a
    time, and yield the parities of each once it is written.  An odd
    extent is read as one more cell of zero mass at its end.  ``out`` must
    hold zeros on the first call; it is cleared before each component
    that follows a yielded one, so the caller may overwrite it in between.

    Along each axis of e cells, the upper half plus the mirrored lower half
    is the even part (parity 0) and the upper half minus it the odd part
    (parity 1); a component folds the masses along every axis in turn.
    Components come in lexicographic order of their parities, and each is
    folded straight from ``values`` (see :func:`_fold_into`), so no
    component or intermediate fold is held beside ``out`` beyond one
    block.  A component is skipped when it, or a fold it comes from, is
    known to be exactly zero.
    """
    nonzero, written = {}, False
    for parities in itertools.product((0, 1), repeat=values.ndim):
        if not all(nonzero.get(parities[:k], True)
                   for k in range(1, values.ndim + 1)):
            continue
        if written:
            out[...] = 0.0
        written = _fold_into(values, scale, parities, out, nonzero)
        if written:
            yield parities


def _zero_extended(half, axis, size):
    """``half`` with zeros appended along ``axis`` up to ``size`` cells:
    the upper half of an odd extent lacks its last cell, read as zero."""
    missing = size - half.shape[axis]
    if not missing:
        return half
    return np.pad(half, [(0, missing if k == axis else 0)
                         for k in range(half.ndim)])


def _fold_into(values, scale, parities, out, nonzero):
    """Fold ``values * scale`` to the component of the given parities in
    the corner of ``out``, a block of about ``_FOLD_BLOCK`` cells of the
    first axis's halves at a time; return whether it is nonzero.

    The first axis folds (v_u s) + (v_l s) or (v_u s) - (v_l s), the
    elements of a fold of the masses, and each later axis the halves of
    the block's previous fold, so every element takes the arithmetic of
    folding the whole grid axis by axis.  An odd extent's upper half is
    extended by a zero within the block, and 0 + x and 0 - x are exact,
    so the folds are those of the grid padded by a zero cell.  Whether
    each fold is nonzero is recorded in ``nonzero`` under its parities,
    and so is its sibling's, the fold of the other parity from the same
    halves, which is formed only until an earlier component has settled
    it or a block has shown it nonzero.
    """
    half = (values.shape[0] + 1) // 2
    upper, lower = values[half:], values[half - 1::-1]
    rows = max(1, _FOLD_BLOCK // math.prod(values.shape[1:]))
    corner = tuple(slice(0, (e + 1) // 2) for e in values.shape[1:])
    seen = {}
    for first in range(0, half, rows):
        block = slice(first, min(first + rows, half))
        low = lower[block] * scale
        up = _zero_extended(upper[block] * scale, 0, len(low))
        for axis, parity in enumerate(parities):
            if axis:
                middle = (part.shape[axis] + 1) // 2
                low, up = np.split(part, [middle], axis=axis)
                low = np.flip(low, axis)
                up = _zero_extended(up, axis, middle)
            key = parities[:axis + 1]
            # the sibling first, so its temporary is gone before the fold
            sibling = key[:-1] + (1 - parity,)
            if sibling not in nonzero and not seen.get(sibling):
                seen[sibling] = bool((up + low if parity else up - low).any())
            part = up - low if parity else up + low
            seen[key] = seen.get(key, False) or bool(part.any())
        out[(block,) + corner] = part
    nonzero.update(seen)
    return nonzero[parities]


def _transform_sums(potential, rho):
    """The off-diagonal sum and the sum of squared cell masses of ``rho``
    by the parity-DCT path (see :func:`energy_grid`).  From
    ``_THREADED_CELLS`` cells on, every transform splits its lines over
    ``_WORKERS`` threads, and a density with mass builds K^ on a helper
    thread while its first component is folded and transformed."""
    squares = rho.values * rho.cell_volume
    squares *= squares
    square_sum = float(np.sum(squares))
    del squares

    lengths = [next_fast_len(e + e % 2, real=True) for e in rho.extents]
    workers = _WORKERS if rho.values.size >= _THREADED_CELLS else None
    if workers is None or not square_sum:
        off = _component_sums(rho, lengths, workers,
                              lambda: _spectrum(potential, rho, lengths,
                                                workers))
        return off, square_sum
    # leaving the block joins the helper, also when either side raises
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(_spectrum, potential, rho, lengths, workers)
        off = _component_sums(rho, lengths, workers, pending.result)
    return off, square_sum


def _component_sums(rho, lengths, workers, take_spectrum):
    """The off-diagonal sum of ``rho`` over its nonzero parity components
    with the padded lengths ``lengths``, each transformed by ``workers``
    threads; ``take_spectrum()`` gives K^ and is called once, after the
    first component is transformed, so a zero density builds none."""
    halves = [(e + 1) // 2 for e in rho.extents]
    part = np.zeros(lengths)
    spectrum = None
    off = 0.0
    for parities in _parity_components(rho.values, rho.cell_volume, part):
        # in place, along each axis in turn: the axes before it are already
        # transformed, the ones after it still hold only their half grid
        for axis, parity in enumerate(parities):
            view = part[tuple(slice(None) if k <= axis else slice(0, e)
                              for k, e in enumerate(halves))]
            out = (dst if parity else dct)(view, type=2, axis=axis,
                                           overwrite_x=True, workers=workers)
            if not np.may_share_memory(out, part):
                view[...] = out
        part *= part
        if spectrum is None:
            spectrum = take_spectrum()
        part *= spectrum[tuple(slice(p, p + n)
                               for p, n in zip(parities, lengths))]
        off += float(np.sum(part))
    return off / (4**len(lengths) * math.prod(2 * n for n in lengths))


def _lag_weights(masses):
    """b(0) = a(0) and b(t) = 2 a(t) for t > 0, where a(t) = sum_k m(k)
    m(k + t) is the autocorrelation of the 1-d ``masses`` m: the weight of
    the offsets t and -t together.  Each a(t) is one numpy sum of a row of
    products."""
    e = masses.size
    shifted = sliding_window_view(np.concatenate((masses, np.zeros(e - 1))),
                                  e)
    weights = (shifted * masses).sum(axis=1)
    weights[1:] *= 2.0
    return weights


def _separable_sums(potential, rho):
    """The off-diagonal sum and the sum of squared cell masses of a
    tensor-product density by contracting its octant kernel against the
    lag weights of its factors (see :func:`energy_grid`)."""
    masses = [factor * rho.cell_width for factor in rho._factors]
    square_sum = math.prod(float(np.sum(m * m)) for m in masses)
    contracted = _octant_kernel(potential, rho.extents, rho.cell_width,
                                rho.extents)
    # the last axis first: each step multiplies in place and sums along
    # the contiguous axis, a numpy reduction with no BLAS call
    for axis_masses in reversed(masses):
        contracted *= _lag_weights(axis_masses)
        contracted = contracted.sum(axis=-1)
    return float(contracted), square_sum


def energy_grid(potential: RadialPotential, rho: GridDensity,
                quad_mode: str = "radial_fast") -> EnergyReport:
    """Energy of a piecewise-constant density.

    Cell pairs interact at their centers' distance: the off-diagonal part
    is sum_o K(o) A(o), with A the autocorrelation of the cell masses and K
    from :func:`_octant_kernel`, and the diagonal is the sum of squared
    cell masses times the Monte Carlo average of W over two uniform points
    of one cell.  Two paths compute the off-diagonal part; the density
    decides which, and ``mode`` reports it.

    Separable (``mode="grid-separable"``): a density built as a tensor
    product of 1-d factors, as the Gaussian and modulated witnesses are,
    carries them (see :class:`GridDensity`).  A is then the product of the
    factors' 1-d autocorrelations a_i, and K is even in every axis, so the
    sum is K on the nonnegative octant contracted against one weight
    vector per axis, a_i(0) at offset 0 and 2 a_i(t) at t > 0 (see
    :func:`_lag_weights`), one axis at a time with numpy reductions and no
    BLAS call, the last axis first.  The squared masses sum to the product
    of the factors' sums.  No transform is made, and only the octant
    kernel, a grid of the density's size, is held.

    Parity transform (``mode="grid-radial_fast"``): every other density,
    the ball witness and any density made by the public constructor,
    :meth:`GridDensity.load` or :func:`dataclasses.replace` included.  The
    sum is taken by Parseval over a period of 2 L_i cells per axis, L_i =
    next_fast_len(e_i) for the extent e_i made even by one zero cell, so
    the circular correlation does not wrap.  K is even in every axis, so
    the sum splits exactly over the parity components of the masses about
    the grid centre (see :func:`_parity_components`); the cross terms
    vanish.  On a component the DFT over the period is, up to a phase, the
    type-II DCT (even axes) or DST (odd axes) of its half grid zero-padded
    to L_i.  K^ is the type-I DCT of the octant kernel zero-padded to L_i +
    1 entries, the DFT of its even extension, weighted 1, 2, ..., 2, 1 per
    axis for the two signs of each frequency.  An even axis reads its rows
    0..L_i - 1, an odd axis rows 1..L_i, since DST index j is frequency j
    + 1, and the sum of K^ T^2 over the components is divided by 4^N
    prod(2 L_i).  Zero components are skipped, so a mirror-symmetric
    density, as the ball is, transforms only its even component.

    ``"radial_fast"`` is the only ``quad_mode``; any other value raises
    ValueError.

    Memory and threads of the transform path: the cell masses are never
    formed as a grid of their own.  The diagonal squares one temporary
    ``values * cell_volume`` in place and drops it.  The components take
    turns in one array of the padded half period, prod L_i cells: each is
    folded straight from the density into its corner, a block at a time,
    an odd extent's missing cell read as zero within the block, then
    transformed there in place, one axis after the other, and summed
    before the next is folded.  Below ``_THREADED_CELLS`` (2^16) cells, K^
    is built once the first component is transformed, so a zero density
    builds none.  From there on, K^ is built on one helper thread, started
    once the squares are dropped and only if they sum to more than zero,
    while the calling thread folds and transforms the first component and
    then waits for it; the helper is joined before the energy returns or
    raises, and what it raises is raised unchanged.  Every transform is
    then split over ``_WORKERS`` threads, the CPUs the process may run on.
    The peak above the density is that array, K^ and the temporaries of
    one fold block, the first component's included: 2.2 grids on the
    128^3 ball witness and on a random 128^3 density, 2.3-2.4 on a
    random 96^3 or 95^3 one, where all eight components are nonzero.
    The sums are those of the mass-first order, bit for bit: (v_u c) +
    (v_l c) is the fold of the masses v c element for element, 0 + x and
    0 - x are exact, and each axis transforms the same zero-padded lines,
    each line alike on any thread.
    """
    if potential.dimension != rho.dimension:
        raise ValueError("potential and density dimensions differ")
    if quad_mode != "radial_fast":
        raise ValueError(f"unknown quad_mode {quad_mode!r}")

    self_avg = _self_cell_average(potential, rho.cell_width, rho.dimension)
    if rho._factors is None:
        off, square_sum = _transform_sums(potential, rho)
        mode = f"grid-{quad_mode}"
    else:
        off, square_sum = _separable_sums(potential, rho)
        mode = "grid-separable"
    diagonal = square_sum * self_avg
    return EnergyReport(
        value=off + diagonal,
        diagonal_contribution=diagonal,
        pair_count=rho.values.size * (rho.values.size - 1) // 2,
        potential_label=potential.label,
        mode=mode,
    )
