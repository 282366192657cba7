"""Particle-system energy descent and trajectory classification.

``minimize_particles`` runs backtracking gradient descent on the
per-pair-normalized interaction energy of n equal-weight particles,

    E(x_1, ..., x_n) = (2 / n**2) * sum_{i<j} W(|x_i - x_j|),

which is the self-interaction-free energy of the empirical measure.  The
run records a :class:`MinimizationTrace` whose late-time geometry
(:func:`classify_trace`) separates four behaviours: mass staying put
(tight), mass fleeing to infinity (vanishing), mass splitting into
receding clusters (dichotomy), or none of those (undecided).  The labels
are heuristics read off one finite trajectory; they diagnose, they do not
prove.

``ground_state_scan`` repeats the experiment over a parameter grid and
aggregates a phase table.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (InvariantViolation, NonDifferentiable,
                     ParticleCollision)
from .geometry import pair_distances, pair_indices
from .potentials import RadialPotential

__all__ = ["MinimizationTrace", "minimize_particles", "classify_trace",
           "ground_state_scan", "ScanRow"]

_MIN_SEPARATION = 1e-10
_ARMIJO_SLOPE = 1e-4
_MAX_BACKTRACKS = 48
_INIT_KINDS = ("lattice", "random_ball", "two_cluster")
# classify_trace: radius growth that reads as vanishing, and the gap to
# cluster diameter ratio that reads as dichotomy
_GROWTH_FACTOR = 2.0
_CLUSTER_GAP_RATIO = 3.0


@dataclass
class MinimizationTrace:
    """History of one descent run.

    ``iterations`` rows: (iteration, energy, q90_radius, max_pair_distance,
    step).  ``snapshots`` keeps a thinned history of configurations for the
    classifier; ``final_config`` is centred on its centroid.
    """

    potential_label: str
    n: int
    dimension: int
    init: str
    seed: int
    energies: np.ndarray
    q90_radii: np.ndarray
    max_pair_distances: np.ndarray
    step_sizes: np.ndarray
    final_config: np.ndarray
    converged: bool
    snapshots: tuple = field(repr=False, default=())

    @property
    def iterations(self) -> int:
        return len(self.energies) - 1

    @property
    def final_energy(self) -> float:
        return float(self.energies[-1])

    def rows(self):
        for k in range(len(self.energies)):
            yield (k, float(self.energies[k]), float(self.q90_radii[k]),
                   float(self.max_pair_distances[k]),
                   float(self.step_sizes[k]))

    def to_csv(self, path):
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "energy", "q90_radius",
                             "max_pair_distance", "step"])
            for row in self.rows():
                writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])


def _energies(potential, configs, clamp):
    """Energy of each configuration of a (S, n, d) stack, as floats, and
    the (S, pairs) distances it was read from: one distance pass and one
    W evaluation for the whole stack."""
    n = configs.shape[1]
    d = pair_distances(configs)
    if clamp:
        np.maximum(d, _MIN_SEPARATION, out=d)
    values = potential(d.reshape(-1)).reshape(d.shape)
    totals = np.add.reduce(values, axis=1).tolist()
    return [(2.0 / n**2) * total for total in totals], d


def _descent_state(potential, configs, clamp, weights, slots):
    """Energies, gradients, pair distances and dW/dr at them of a (S, n, d)
    stack, from one pass over its pairs.  ``weights`` is a (at least S,
    pairs + 1) buffer whose first column is zero, ``slots`` the flattened
    :func:`_pair_slots` of n: the pair weights dW/dr / r go into the
    buffer and are gathered into square form from there."""
    count, n = configs.shape[:2]
    energies, d = _energies(potential, configs, clamp)
    slopes = potential.derivative(d.reshape(-1)).reshape(d.shape)
    padded = weights[:count]
    np.divide(slopes, d, out=padded[:, 1:])
    mat = padded.take(slots, axis=1).reshape(count, n, n)
    if configs.shape[2] == 1:
        diffs = configs[:, :, None, :] - configs[:, None, :, :]
    else:
        # numpy would loop over the few coordinates innermost, so subtract
        # along j, one coordinate at a time, into the same (S, n, n, d)
        # layout: einsum's summation order, and so its bits, follow the
        # operands' layout
        diffs = np.empty((count, n, n, configs.shape[2]))
        coords = configs.transpose(0, 2, 1)
        np.subtract(coords[:, :, :, None], coords[:, :, None, :],
                    out=diffs.transpose(0, 3, 1, 2), order="C")
    grads = (2.0 / n**2) * np.einsum("sij,sijd->sid", mat, diffs)
    return energies, grads, d, slopes


def _energy(potential, config, clamp):
    return _energies(potential, config[None], clamp)[0][0]


def _energy_and_gradient(potential, config, clamp):
    n = config.shape[0]
    energies, grads, _, _ = _descent_state(
        potential, config[None], clamp, np.zeros((1, n * (n - 1) // 2 + 1)),
        _pair_slots(n).ravel())
    return energies[0], grads[0]


def _pair_slots(n):
    """(n, n) positions of a square form's entries in [0, condensed pair
    values...]: 0 on the diagonal, k + 1 at both entries of pair k."""
    rows, cols = pair_indices(n)
    slots = np.zeros((n, n), dtype=np.intp)
    slots[rows, cols] = slots[cols, rows] = np.arange(1, rows.size + 1)
    return slots


def _square_form(values, n):
    """Symmetric n x n matrix of condensed pair values, zero diagonal."""
    return np.concatenate(([0.0], values))[_pair_slots(n)]


def _centred(config):
    # the bits of config - config.mean(axis=-2, keepdims=True), which sums
    # and divides the same way, without np.mean's Python layers; a stack of
    # configurations is centred one configuration at a time
    return (config - np.add.reduce(config, axis=-2, keepdims=True)
            / config.shape[-2])


def preferred_spacing(potential: RadialPotential) -> float:
    """Length scale for initial configurations, clipped to [0.25, 2.5].

    Profiles with an interior minimum yield its radius.  Monotone
    profiles (pure repulsion decaying to zero) have no such radius; the
    1/e decay radius of the profile stands in, so that initial spreads
    stay inside the region where forces are still alive.
    """
    grid = np.logspace(-2, 2, 400)
    values = potential(grid)
    finite = np.where(np.isfinite(values), values, math.inf)
    idx = int(np.argmin(finite))
    if idx < grid.size - 1 and finite[idx] < finite[-1] - 1e-12:
        return float(np.clip(grid[idx], 0.25, 2.5))
    magnitudes = np.abs(np.where(np.isfinite(values), values, 0.0))
    peak = float(np.max(magnitudes))
    if peak <= 0.0:
        return 1.0
    below = np.nonzero(magnitudes <= peak / math.e)[0]
    radius = float(grid[below[0]]) if below.size else float(grid[-1])
    return float(np.clip(radius, 0.25, 2.5))


def _initial_config(potential, n, dim, kind, seed):
    spacing = preferred_spacing(potential)
    if kind == "lattice":
        per_axis = int(math.ceil(n ** (1.0 / dim)))
        axes = [spacing * (np.arange(per_axis) - (per_axis - 1) / 2.0)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)[:n].copy()
        # break exact lattice symmetry so gradients do not lock onto it
        rng = np.random.default_rng([seed, 11])
        pts += 0.01 * spacing * rng.standard_normal(pts.shape)
        return pts
    if kind == "random_ball":
        rng = np.random.default_rng([seed, 23])
        radius = 0.5 * spacing * n ** (1.0 / dim)
        raw = rng.standard_normal((n, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
        return raw * radii
    if kind == "two_cluster":
        rng = np.random.default_rng([seed, 37])
        half = n // 2
        offsets = 0.25 * spacing * rng.standard_normal((n, dim))
        centers = np.zeros((n, dim))
        centers[:half, 0] = -2.0 * spacing
        centers[half:, 0] = 2.0 * spacing
        return centers + offsets
    raise ValueError(f"unknown init kind {kind!r}; "
                     f"choose from {_INIT_KINDS}")


def minimize_particles(potential: RadialPotential, n: int,
                       init: str = "random_ball", seed: int = 0,
                       max_iter: int = 500,
                       grad_tol: float = 1e-8) -> MinimizationTrace:
    """Backtracking gradient descent on the n-particle pair energy.

    The step is accepted under an Armijo decrease test, halving on
    rejection and doubling after acceptance; the configuration is recentred
    on its centroid every iteration (the energy only sees pair distances).
    Profiles finite at contact get their pair distances clamped below at
    1e-10 inside the energy, which keeps collapsing clusters finite and
    gradients defined.  The run stops once the gradient is small, when no
    step passes the test within 48 halvings, or after ``max_iter``
    iterations.

    Each configuration's pair distances are computed once, by
    :func:`~groundlab.geometry.pair_distances`: a trial step's feed its
    energy, an accepted step's its energy, gradient and recorded largest
    pair distance, and the start's dW/dr values also set the first step.

    This is the descent engine with one start.  ``ground_state_scan``,
    ``ruc_search`` and the ``minimize`` subcommand hand it all their starts
    at once, and each start's trace there is bit for bit the one this
    function returns for it.

    Args:
        potential: differentiable radial potential.
        n: particle count, >= 2.
        init: 'lattice', 'random_ball' or 'two_cluster'.
        seed: seeds the initial configuration only; descent is
            deterministic.
        max_iter: iteration budget.
        grad_tol: stop once the sup norm of the gradient drops below this.

    Returns:
        MinimizationTrace with nonincreasing recorded energies.

    Raises:
        ParticleCollision: the energy became non-finite after an accepted
            step.
    """
    trace, = _descend(potential, n, [(init, seed)], max_iter, grad_tol)
    if isinstance(trace, Exception):
        raise trace
    return trace


def _cycled_starts(seeds):
    """(init, seed) per seed, the initializations taken in turn."""
    return [(_INIT_KINDS[idx % len(_INIT_KINDS)], seed)
            for idx, seed in enumerate(seeds)]


def _descend(potential, n, starts, max_iter, grad_tol=1e-8):
    """Descents of one potential and n from each (init, seed) of
    ``starts``, run together.  Returns one entry per start, in order: its
    MinimizationTrace, or the exception that stopped it.
    InvariantViolation propagates.

    A start whose energy turns non-finite leaves the stack with a
    ParticleCollision while the others carry on.  Any other exception
    cannot be pinned on one start of a stack, so each start is then run
    alone and keeps its own outcome.
    """
    try:
        return _descend_stack(potential, n, starts, max_iter, grad_tol)
    except InvariantViolation:
        raise
    except Exception as exc:
        if len(starts) == 1:
            return [exc]
        return [_descend(potential, n, [start], max_iter, grad_tol)[0]
                for start in starts]


class _Start:
    """What one start of a descent stack has recorded, and its outcome."""

    def __init__(self, init, seed):
        self.init = init
        self.seed = seed
        # (energy, q90 radius, largest pair distance, step) per iteration
        self.rows = []
        self.snapshots = []
        # traces can terminate long before max_iter, so a dense rolling
        # tail backs up the stride-spaced history for the classifier
        self.tail = deque(maxlen=129)
        self.outcome = None

    def finish(self, potential, n, config, converged):
        merged = dict(self.snapshots)
        merged.update(self.tail)
        merged[len(self.rows) - 1] = config.copy()
        energies, q90_radii, max_pair_distances, steps = map(
            np.array, zip(*self.rows))
        self.outcome = MinimizationTrace(
            potential_label=potential.label,
            n=n,
            dimension=potential.dimension,
            init=self.init,
            seed=self.seed,
            energies=energies,
            q90_radii=q90_radii,
            max_pair_distances=max_pair_distances,
            step_sizes=steps,
            final_config=config.copy(),
            converged=converged,
            snapshots=tuple(sorted(merged.items())),
        )


def _record(starts, it, configs, energies, d, steps, stride):
    """Append iteration ``it`` (0 for the initial configurations) of each
    start of the stack to its history."""
    rows = zip(energies, _q90_radii(configs),
               np.maximum.reduce(d, axis=1).tolist(), steps)
    for start, config, row in zip(starts, configs, rows):
        start.rows.append(row)
        config = config.copy()
        if it % stride == 0:
            start.snapshots.append((it, config))
        if it:
            start.tail.append((it, config))


def _keep(positions, *stack):
    """The rows at ``positions`` of each array or list of a stack."""
    return [rows[positions] if isinstance(rows, np.ndarray)
            else [rows[k] for k in positions] for rows in stack]


def _backtrack(potential, configs, grads, energies, gsq, steps, clamp):
    """Armijo backtracking of each start of a stack from twice its last
    step, halving the steps that fail the test, at most
    ``_MAX_BACKTRACKS`` times.  Only the starts still backtracking are
    evaluated.

    Returns, per start, whether it found a step, and the accepted
    configurations, their energies and their steps (junk where it found
    none).
    """
    if len(steps) == 1:
        # a lone start (a one-start descent, or the last start of a stack)
        # backtracks on floats, with none of the stack's bookkeeping
        (step,), (energy,), (slope,) = steps, energies, gsq
        trial = step * 2.0
        for _ in range(_MAX_BACKTRACKS):
            candidates = configs - trial * grads
            (cand_energy,), _ = _energies(potential, candidates, clamp)
            if cand_energy <= energy - _ARMIJO_SLOPE * trial * slope:
                return [True], candidates, [cand_energy], [trial]
            trial *= 0.5
        return [False], candidates, [cand_energy], [trial]
    trials = [step * 2.0 for step in steps]
    passed = [False] * len(trials)
    accepted = (np.empty_like(configs), trials[:], trials[:])
    origin = list(range(len(trials)))  # stack position of each pending row
    for _ in range(_MAX_BACKTRACKS):
        candidates = configs - np.array(trials)[:, None, None] * grads
        cand_energies, _ = _energies(potential, candidates, clamp)
        rest = []
        for k, (cand_energy, energy, trial, slope) in enumerate(zip(
                cand_energies, energies, trials, gsq)):
            if cand_energy <= energy - _ARMIJO_SLOPE * trial * slope:
                row = origin[k]
                passed[row] = True
                accepted[0][row] = candidates[k]
                accepted[1][row] = cand_energy
                accepted[2][row] = trial
            else:
                rest.append(k)
        if not rest:
            break
        if len(rest) < len(origin):
            origin, configs, grads, energies, gsq, trials = _keep(
                rest, origin, configs, grads, energies, gsq, trials)
        trials = [trial * 0.5 for trial in trials]
    return (passed,) + accepted


def _descend_stack(potential, n, starts, max_iter, grad_tol):
    """The descent engine: the starts descend as one C-contiguous
    (S, n, d) stack.  Each energy evaluation is one distance pass and one
    W call for every start still descending, and each state evaluation
    adds one dW/dr call.  Every start keeps its own step, backtracking,
    stopping rule, history and snapshots, and leaves the stack when it
    stops.  The per-start sums run over contiguous rows, in the order a
    lone configuration's would, and the per-start scalars are Python
    floats, so each trace is bit for bit the one its start has alone."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not potential.differentiable:
        raise NonDifferentiable(
            f"{potential.label} carries no derivative model")
    dim = potential.dimension
    clamp = math.isfinite(potential.value_at_zero)

    everyone = [_Start(init, seed) for init, seed in starts]
    live = list(everyone)
    configs = _centred(np.stack([
        _initial_config(potential, n, dim, init, seed)
        for init, seed in starts]))
    weights = np.zeros((len(live), n * (n - 1) // 2 + 1))
    slots = _pair_slots(n).ravel()

    energies, grads, d, slopes = _descent_state(potential, configs, clamp,
                                                weights, slots)
    steps = [1.0 / (n * scale) if scale > 0 else 1.0
             for scale in np.abs(slopes).max(axis=1).tolist()]
    del slopes  # only the first step needs dW/dr; at n = 256 it is 261 kB
    stride = max(1, max_iter // 128)
    _record(live, 0, configs, energies, d, [0.0] * len(live), stride)

    def leave(flags, converged):
        """Finish the starts whose flag is set; the positions of the rest."""
        for start, config, flag in zip(live, configs, flags):
            if flag:
                start.finish(potential, n, config, converged)
        return [k for k, flag in enumerate(flags) if not flag]

    for it in range(1, max_iter + 1):
        norms = np.maximum.reduce(np.abs(grads), axis=(1, 2)).tolist()
        small = [norm < grad_tol for norm in norms]
        if any(small):
            keep = leave(small, converged=True)
            live, configs, grads, energies, steps = _keep(
                keep, live, configs, grads, energies, steps)
            if not live:
                break
        gsq = np.add.reduce(grads * grads, axis=(1, 2)).tolist()
        passed, candidates, cand_energies, trials = _backtrack(
            potential, configs, grads, energies, gsq, steps, clamp)
        if not all(passed):
            keep = leave([not flag for flag in passed], converged=False)
            live, candidates, cand_energies, trials = _keep(
                keep, live, candidates, cand_energies, trials)
            if not live:
                break

        configs = _centred(candidates)
        steps = trials
        energies, grads, d = _descent_state(potential, configs, clamp,
                                            weights, slots)[:3]
        if not all(map(math.isfinite, energies)):
            keep = []
            for k, (start, energy) in enumerate(zip(live, energies)):
                if math.isfinite(energy):
                    keep.append(k)
                else:
                    start.outcome = ParticleCollision(
                        "energy became non-finite after an accepted step")
            live, configs, grads, energies, d, cand_energies, steps = _keep(
                keep, live, configs, grads, energies, d, cand_energies,
                steps)
            if not live:
                break
        for energy, cand_energy in zip(energies, cand_energies):
            if abs(energy - cand_energy) > 1e-12 * (1.0 + abs(cand_energy)):
                raise InvariantViolation(
                    "recentring changed the energy: "
                    f"{cand_energy!r} -> {energy!r}")
        _record(live, it, configs, energies, d, steps, stride)

    leave([True] * len(live), converged=False)
    return [start.outcome for start in everyone]


def _q90_radii(configs):
    """q90 radius of each configuration of a (S, n, d) stack."""
    centred = _centred(configs)
    # np.linalg.norm(centred, axis=-1) evaluates this same expression
    radii = np.sqrt(np.add.reduce(centred * centred, axis=-1))
    return [_quantile90(row) for row in radii]


def _quantile90(values) -> float:
    """``np.quantile(values, 0.9)`` bit for bit, from one sort: numpy's
    linear interpolation between the order statistics around the virtual
    index 0.9 * (n - 1), evaluated from the nearer end."""
    ordered = np.sort(values)
    if math.isnan(ordered[-1]):
        return math.nan
    position = (ordered.size - 1) * 0.9
    low = math.floor(position)
    t = position - low
    a = float(ordered[low])
    b = float(ordered[min(low + 1, ordered.size - 1)])
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def _median_nn_distance(config) -> float:
    n = config.shape[0]
    if n < 2:
        return 0.0
    d = _square_form(pair_distances(config), n)
    np.fill_diagonal(d, math.inf)
    return float(np.median(d.min(axis=1)))


def _two_means(config, iterations: int = 60):
    """Deterministic 2-means: seeded from the most separated pair."""
    d = _square_form(pair_distances(config), config.shape[0])
    i, j = np.unravel_index(np.argmax(d), d.shape)
    centers = np.stack([config[i], config[j]])
    labels = np.zeros(config.shape[0], dtype=int)
    for sweep in range(iterations):
        dist = np.linalg.norm(config[:, None, :] - centers[None, :, :],
                              axis=2)
        new_labels = np.argmin(dist, axis=1)
        if sweep > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in (0, 1):
            if np.any(labels == c):
                centers[c] = config[labels == c].mean(axis=0)
    return labels, centers


def classify_trace(trace: MinimizationTrace, return_details: bool = False):
    """Label one trace: 'tight' | 'vanishing' | 'dichotomy' | 'undecided'.

    The trailing window is the last quarter of the active iterations (at
    least 2).  vanishing: the q90 radius grew by ``_GROWTH_FACTOR`` (2)
    over the trailing window and nearest-neighbour spacings grew with it,
    or the run converged after expanding both bulk radius and spacing by
    that factor overall (forces die once a spreading gas outruns the
    interaction range, freezing the trace mid-expansion).  dichotomy: the
    final configuration splits into two clusters whose separation dwarfs
    their diameters by ``_CLUSTER_GAP_RATIO`` (3), with stable membership
    over the window.  tight: the configuration collapsed outright (checked first),
    or the q90 radius moved less than 10% over the window.  The rest are
    checked in the order above.

    With ``return_details`` the label comes with a diagnostics dict; for
    dichotomy it carries the mass fraction ``alpha`` of one cluster along
    with the gap and diameter that triggered the split.

    The labels diagnose one finite trajectory; they are not proofs about
    minimizing sequences.
    """
    q = trace.q90_radii
    # iterations after the configuration stopped moving carry no signal
    moving = np.nonzero(np.abs(np.diff(q))
                        > 1e-12 * np.maximum(q[1:], 1e-300))[0]
    end = int(moving[-1]) + 1 if moving.size else len(q) - 1
    total = end + 1
    window = min(max(2, total // 4), total)
    w_start = total - window

    details = {"window": window, "active_end": end}

    def answer(label):
        return (label, details) if return_details else label

    scale_ref = max(float(q[0]), float(trace.max_pair_distances[0]), 1e-12)
    snaps = [(k, cfg) for k, cfg in trace.snapshots if k <= end]
    if not snaps:
        snaps = [trace.snapshots[-1]]
    window_snaps = [(k, cfg) for k, cfg in snaps if k >= w_start]
    if not window_snaps:
        window_snaps = [snaps[-1]]

    # tight: collapsed to a point; checked first because noise on a
    # vanishing radius can double it across the window and read as drift
    if q[end] <= max(1e-6 * scale_ref, 1e-9):
        details["route"] = "collapse"
        return answer("tight")
    # vanishing route A: sustained outward drift across the last window
    if q[w_start] > 0 and q[end] >= _GROWTH_FACTOR * q[w_start]:
        nn_first = _median_nn_distance(window_snaps[0][1])
        nn_last = _median_nn_distance(window_snaps[-1][1])
        if nn_last >= 1.25 * nn_first and nn_last > 0:
            details["route"] = "window-drift"
            details["radius_growth"] = float(q[end] / q[w_start])
            return answer("vanishing")
    # vanishing route B: converged runs that expanded throughout
    if trace.converged and q[0] > 0 and q[end] >= _GROWTH_FACTOR * q[0]:
        nn_start = _median_nn_distance(snaps[0][1])
        nn_end = _median_nn_distance(snaps[-1][1])
        if nn_start > 0 and nn_end >= _GROWTH_FACTOR * nn_start:
            details["route"] = "frozen-expansion"
            details["radius_growth"] = float(q[end] / q[0])
            return answer("vanishing")

    # dichotomy: two receding clusters with steady mass split
    labels, centers = _two_means(trace.final_config)
    n0 = int(np.sum(labels == 0))
    n1 = int(np.sum(labels == 1))
    if n0 > 0 and n1 > 0:
        cross = np.linalg.norm(
            trace.final_config[labels == 0][:, None, :]
            - trace.final_config[labels == 1][None, :, :], axis=2)
        gap = float(cross.min())
        diams = []
        for c in (0, 1):
            members = trace.final_config[labels == c]
            diams.append(float(pair_distances(members).max())
                         if members.shape[0] > 1 else 0.0)
        diameter = max(max(diams), 1e-9 * scale_ref, 10 * _MIN_SEPARATION)
        if gap / diameter >= _CLUSTER_GAP_RATIO and gap > 1e-3 * scale_ref:
            frac_end = n0 / trace.final_config.shape[0]
            stable = True
            sep_start = None
            for k, cfg in window_snaps:
                dist = np.linalg.norm(cfg[:, None, :] - centers[None, :, :],
                                      axis=2)
                lab = np.argmin(dist, axis=1)
                frac = float(np.mean(lab == 0))
                if abs(frac - frac_end) > 0.1:
                    stable = False
                    break
                c0 = cfg[lab == 0].mean(axis=0) if np.any(lab == 0) else None
                c1 = cfg[lab == 1].mean(axis=0) if np.any(lab == 1) else None
                if c0 is None or c1 is None:
                    stable = False
                    break
                sep = float(np.linalg.norm(c0 - c1))
                if sep_start is None:
                    sep_start = sep
            if stable and sep_start is not None:
                sep_end = float(np.linalg.norm(centers[0] - centers[1]))
                if sep_end >= 0.9 * sep_start:
                    details["alpha"] = frac_end
                    details["gap"] = gap
                    details["diameter"] = diameter
                    details["separation"] = sep_end
                    return answer("dichotomy")

    # tight: bulk radius settled
    qw = q[w_start:end + 1]
    spread = float(qw.max() - qw.min())
    if spread < 0.10 * max(float(qw.max()), 1e-300):
        details["route"] = "settled-radius"
        return answer("tight")
    return answer("undecided")


@dataclass(frozen=True)
class ScanRow:
    """One line of a phase table; ``seed`` is None for the aggregate row."""

    params: dict
    seed: int | None
    classification: str
    best_energy: float
    stability_outcome: str
    stability_value: float
    error: str = ""


def ground_state_scan(potential_factory: Callable[..., RadialPotential],
                      param_grid: Sequence[dict], n: int,
                      seeds: Sequence[int], max_iter: int = 400,
                      grad_tol: float = 1e-8,
                      with_stability: bool = True) -> list:
    """Phase scan: descent classification per parameter point per seed.

    Each grid point builds a potential via ``potential_factory(**params)``
    and descends from one start per seed (initializations cycle through
    lattice / random_ball / two_cluster with the seed index); a point's
    starts descend together as one stack, each with the trace
    ``minimize_particles`` gives it.  Per point the scan emits one row per
    seed plus an aggregate row carrying the majority classification and
    the best energy.  A tie for the majority goes to the tied label of the
    lowest (energy, seed) trace.  Failures of a point or of one seed are
    recorded in the row's ``error`` field and do not stop the scan, except
    InvariantViolation, which signals a bug and propagates.  When
    ``with_stability`` is set, the aggregate row also carries the space
    integral criterion verdict for cross-reading.
    """
    rows = []
    for params in param_grid:
        try:
            potential = potential_factory(**params)
        except Exception as exc:
            rows.append(ScanRow(dict(params), None, "error", math.nan,
                                "skipped", math.nan, error=str(exc)))
            continue

        stab_outcome, stab_value = "skipped", math.nan
        if with_stability:
            from .stability import integral_criterion

            try:
                verdict = integral_criterion(potential)
                stab_outcome = verdict.outcome
                stab_value = verdict.numeric_value
            except InvariantViolation:
                raise
            except Exception:
                pass  # the cross-read stays "skipped"; descents still run

        traces = _descend(potential, n, _cycled_starts(seeds), max_iter,
                          grad_tol)
        labels = []
        best_energy = math.inf
        for seed, trace in zip(seeds, traces):
            if isinstance(trace, Exception):
                rows.append(ScanRow(dict(params), seed, "error", math.nan,
                                    stab_outcome, stab_value,
                                    error=str(trace)))
                continue
            label = classify_trace(trace)
            labels.append((label, trace.final_energy, seed))
            best_energy = min(best_energy, trace.final_energy)
            rows.append(ScanRow(dict(params), seed, label,
                                trace.final_energy, stab_outcome,
                                stab_value))

        if labels:
            counts = Counter(label for label, _, _ in labels)
            top = max(counts.values())
            # a tie sides with the best-energy trace among the tied labels
            majority = min((t for t in labels if counts[t[0]] == top),
                           key=lambda t: (t[1], t[2]))[0]
            rows.append(ScanRow(dict(params), None, majority, best_energy,
                                stab_outcome, stab_value))
        else:
            rows.append(ScanRow(dict(params), None, "error", math.nan,
                                stab_outcome, stab_value,
                                error="all seeds failed"))
    return rows
