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
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial.distance import squareform

from .errors import (InvariantViolation, NonDifferentiable,
                     ParticleCollision)
from .geometry import pair_distances, pair_indices
from .potentials import RadialPotential

__all__ = ["MinimizationTrace", "minimize_particles", "classify_trace",
           "ground_state_scan", "ScanRow"]

_MIN_SEPARATION = 1e-10
_ARMIJO_SLOPE = 1e-4
_MAX_BACKTRACKS = 48
# a start's trace keeps the configurations of its last _TAIL iterations
# (after the first) among its snapshots; its history is read out in
# blocks of _BLOCK iterations, and it stops once its energy has been
# bit-constant for _BLOCK iterations
_TAIL = 129
_BLOCK = 128
# a scan's grid points join one stack while its (S, n, n, N) coordinate
# differences stay within this many doubles (512 kB): the README's 36
# starts at n = 16 in the line take 9216
_STACK_DOUBLES = 1 << 16
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
    classifier, as a sequence of (iteration, configuration) pairs;
    ``final_config`` is centred on its centroid.  ``stop_reason`` says why
    the run stopped: ``gradient`` (small gradient), ``stalled`` (energy
    bit-constant for 128 iterations), ``no_step`` (no step passed the
    Armijo test) or ``budget`` (``max_iter`` reached); the first two set
    ``converged``.
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
    stop_reason: str = "budget"
    snapshots: Sequence = field(repr=False, default=())

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


def _energies(groups, configs):
    """Energy of each configuration of a (S, n, d) stack, as floats, and
    the (S, pairs) distances it was read from: one distance pass for the
    whole stack and one W call per run of rows (:func:`_groups`)."""
    n = configs.shape[1]
    d = _distances(groups, configs)
    totals = []
    for span, members, values, _ in groups:
        totals += np.add.reduce(_group_call(values, members, d[span]),
                                axis=1).tolist()
    return [(2.0 / n**2) * total for total in totals], d


def _distances(groups, configs):
    """(S, pairs) distances of a stack, each group's rows clamped at
    ``_MIN_SEPARATION`` if its profile is finite at contact: a stack can
    mix profiles finite and singular there."""
    d = pair_distances(configs)
    for span, members, _, _ in groups:
        if members[0].clamp:
            np.maximum(d[span], _MIN_SEPARATION, out=d[span])
    return d


def _group_call(evaluate, members, rows, parts=1):
    """``evaluate`` at a group's (k, pairs) rows of pair distances: its
    array, or its ``parts`` arrays, of their shape.  If the group failed
    before or the call raises anything but InvariantViolation, they read
    NaN and the group's starts fail: a lone start keeps the exception as
    its outcome, and the starts of a larger group are left to descend
    again alone."""
    if not members[0].failed:
        try:
            return evaluate(rows)
        except InvariantViolation:
            raise
        except Exception as exc:
            for start in members:
                start.fail(exc if len(members) == 1 else None)
    nan = np.full(rows.shape, math.nan)
    return nan if parts == 1 else (nan,) * parts


def _descent_state(groups, configs, weights, slots):
    """Energies, gradients and pair distances of a (S, n, d) stack, and
    each group's dW/dr at them, from one distance pass and one W and
    dW/dr call per group (:func:`_groups`).  ``weights`` is a
    (at least S, pairs + 1) buffer whose first column is zero, ``slots``
    the flattened :func:`_pair_slots` of n: the pair weights dW/dr / r go
    into the buffer and are gathered into square form from there."""
    count, n = configs.shape[:2]
    d = _distances(groups, configs)
    padded = weights[:count]
    totals, slopes = [], []
    for span, members, _, state in groups:
        rows = d[span]
        terms, slope = _group_call(state, members, rows, parts=2)
        totals += np.add.reduce(terms, axis=1).tolist()
        np.divide(slope, rows, out=padded[span, 1:])
        slopes.append(slope)
    energies = [(2.0 / n**2) * total for total in totals]
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


# one configuration's groups: a W or dW/dr call that raises reads NaN
def _lone_groups(potential, clamp):
    return _groups([_Start(0, potential, clamp, None, None)])


def _energy(potential, config, clamp):
    return _energies(_lone_groups(potential, clamp), config[None])[0][0]


def _energy_and_gradient(potential, config, clamp):
    n = config.shape[0]
    energies, grads, _, _ = _descent_state(
        _lone_groups(potential, clamp), config[None],
        np.zeros((1, n * (n - 1) // 2 + 1)), _pair_slots(n).ravel())
    return energies[0], grads[0]


def _pair_slots(n):
    """(n, n) positions of a square form's entries in [0, condensed pair
    values...]: 0 on the diagonal, k + 1 at both entries of pair k."""
    rows, cols = pair_indices(n)
    slots = np.zeros((n, n), dtype=np.intp)
    slots[rows, cols] = slots[cols, rows] = np.arange(1, rows.size + 1)
    return slots


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


def _initial_config(spacing, n, dim, kind, seed):
    """Initial configuration of n points in R^dim; ``spacing`` is the
    potential's :func:`preferred_spacing`."""
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
    gradients defined.  The run stops once the gradient is small, once the
    recorded energy has been bit-for-bit equal to the previous iteration's
    for 128 iterations in a row (a bit-exact fixed point of the energy),
    when no step passes the test within 48 halvings, or after ``max_iter``
    iterations; the trace's ``stop_reason`` says which (``gradient``,
    ``stalled``, ``no_step``, ``budget``), and the first two count as
    converged.

    Each configuration's pair distances are computed once, by
    :func:`~groundlab.geometry.pair_distances`: a trial step's feed its
    energy, an accepted step's its energy, gradient and recorded largest
    pair distance, and the start's dW/dr values also set the first step.

    This is the descent engine with one start.  ``ground_state_scan`` (the
    starts of all grid points of one dimension), ``ruc_search`` and the
    ``minimize`` subcommand hand it all their starts at once, and each
    start's trace there is bit for bit the one this function returns for
    it.

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
    trace, = _descend(n, [(potential, init, seed)], max_iter, grad_tol)
    if isinstance(trace, Exception):
        raise trace
    return trace


def _cycled_starts(potential, seeds):
    """(potential, init, seed) per seed, the initializations taken in
    turn."""
    return [(potential, _INIT_KINDS[idx % len(_INIT_KINDS)], seed)
            for idx, seed in enumerate(seeds)]


def _descend(n, starts, max_iter, grad_tol=1e-8):
    """Descents of n particles from each (potential, init, seed) of
    ``starts``, run together as one stack (:func:`_descend_stack`).
    Returns one entry per start, in order: its MinimizationTrace, or the
    exception that stopped it.  InvariantViolation propagates.

    A start whose group's W or dW/dr call raised with other starts' pairs
    in it has no outcome of its own from the stack: it descends again
    alone, and so does every start when the stack raises outside any
    group call.
    """
    try:
        outcomes = _descend_stack(n, starts, max_iter, grad_tol)
    except InvariantViolation:
        raise
    except Exception as exc:
        outcomes = [exc] if len(starts) == 1 else [None] * len(starts)
    return [outcome if outcome is not None
            else _descend(n, [start], max_iter, grad_tol)[0]
            for start, outcome in zip(starts, outcomes)]


def _groups(starts):
    """(rows, starts, W, W and dW/dr) of each run of a stack's
    consecutive starts, with its evaluators of (k, pairs) distances: a
    run ends wherever the starts' run key changes, and its evaluators are
    its forms' ``_run_profiles`` of the starts' potentials (see
    RadialPotential).  Starts of one family with run forms are one run,
    evaluated on their rows of parameter columns; the other starts group
    while they share a potential and keep its checked calls."""
    edges = [k for k in range(len(starts))
             if k == 0 or starts[k].key != starts[k - 1].key]
    groups = []
    for first, end in zip(edges, edges[1:] + [len(starts)]):
        members = starts[first:end]
        groups.append((slice(first, end), members,
                       *members[0].forms._run_profiles(
                           [start.potential for start in members])))
    return groups


class _Snapshots(Sequence):
    """(iteration, configuration) pairs read from one (m, n, d) array, so
    that a trace holds its snapshots without an array object for each."""

    def __init__(self, iterations, configs):
        self.iterations = iterations
        self.configs = configs

    def __len__(self):
        return len(self.iterations)

    def __getitem__(self, k):
        return int(self.iterations[k]), self.configs[k]

    def __iter__(self):
        return zip(self.iterations.tolist(), self.configs)


class _Start:
    """One start of a descent stack: its row, its potential's run forms
    and run key (see :func:`_groups`), the blocks of its history read out
    so far, and its outcome."""

    def __init__(self, row, potential, clamp, init, seed):
        self.row = row
        self.potential = potential
        self.clamp = clamp
        # the run forms are looked up on the exact type, not through the
        # potential, so that a subclass that overrides a profile, or a
        # proxy that counts the calls, keeps its checked calls on the
        # default run of one potential; a family's forms take clamped
        # distances only, which no check could refuse
        kind = type(potential)
        self.forms = (kind if clamp and "_run_profiles" in vars(kind)
                      else RadialPotential)
        self.key = self.forms, self.forms._run_key(potential)
        self.init = init
        self.seed = seed
        # per block, a (4, iterations) array of energies, largest pair
        # distances, steps and q90 radii
        self.blocks = []
        # per block, its iterations at multiples of the stride and their
        # configurations
        self.snapshots = []
        self.outcome = None
        self.failed = False

    def fail(self, outcome):
        """Stop the start with ``outcome``: an exception pinned on it, or
        None if it must descend again alone."""
        self.failed, self.outcome = True, outcome

    def finish(self, history, last, config, reason):
        """Read out the start's history through iteration ``last`` and make
        its trace, stopped for ``reason``.  Its snapshots are the
        stride-spaced configurations and then the dense tail
        (:meth:`_History.tail`), which ends with ``config``."""
        history.read(self, last + 1)
        tail_iterations, tail = history.tail(self, last)
        first = max(1, last + 1 - _TAIL)
        iterations = np.concatenate(
            [its[its < first] for its, _ in self.snapshots]
            + [tail_iterations])
        configs = np.concatenate(
            [kept[its < first] for its, kept in self.snapshots] + [tail])
        energies, max_pair_distances, steps, q90_radii = np.concatenate(
            self.blocks, axis=1)
        self.blocks = self.snapshots = None
        self.outcome = MinimizationTrace(
            potential_label=self.potential.label,
            n=config.shape[0],
            dimension=self.potential.dimension,
            init=self.init,
            seed=self.seed,
            energies=energies,
            q90_radii=q90_radii,
            max_pair_distances=max_pair_distances,
            step_sizes=steps,
            final_config=config.copy(),
            converged=reason in ("gradient", "stalled"),
            stop_reason=reason,
            snapshots=_Snapshots(iterations, configs),
        )


class _History:
    """What a descent stack has recorded and not yet read out.

    Each iteration's configurations go into a ring that holds the last
    ``_TAIL`` iterations, with their energies, largest pair distances and
    steps beside them.  Every ``_BLOCK`` iterations, and when a start
    leaves, each start's pending iterations are read out as one block: its
    q90 radii, and copies of the configurations at multiples of the
    stride, which the classifier keeps.  A full block's q90 radii come
    from one vectorised pass over all live starts, a leaving start's from
    one pass of its own.  The ring still holds the dense tail that a
    leaving start's snapshots end with.
    """

    def __init__(self, count, n, dim, max_iter):
        size = min(_TAIL, max_iter + 1)
        self.configs = np.empty((size, count, n, dim))
        # energy, largest pair distance and step of each iteration and row
        self.values = np.empty((3, size, count))
        self.stride = max(1, max_iter // 128)
        self.pending = 0  # the first iteration not yet read out

    def record(self, it, live, rows, configs, energies, d, steps):
        """Record iteration ``it`` of the live starts, which sit at the
        stack's ``rows``; read out a block once it is full."""
        slot = it % len(self.configs)
        self.configs[slot, rows] = configs
        self.values[0, slot, rows] = energies
        self.values[1, slot, rows] = np.maximum.reduce(d, axis=1)
        self.values[2, slot, rows] = steps
        if it + 1 - self.pending == _BLOCK:
            _, slots = self._slots(self.pending, it + 1)
            starts = np.arange(self.configs.shape[1])[rows]
            block = self.configs[slots[:, None], starts]
            # one (iteration, start) configuration per row, as a lone
            # start's read-out takes them, so the radii keep their bits
            q90 = _q90_radii(block.reshape(-1, *block.shape[2:])).reshape(
                block.shape[:2])
            for k, start in enumerate(live):
                self.read(start, it + 1, q90[:, k])
            self.pending = it + 1

    def _slots(self, first, end):
        iterations = np.arange(first, end)
        return iterations, iterations % len(self.configs)

    def read(self, start, end, q90=None):
        """Append the start's iterations from ``pending`` up to ``end`` to
        its history; ``q90`` are their q90 radii if already read."""
        iterations, slots = self._slots(self.pending, end)
        configs = self.configs[slots, start.row]
        if q90 is None:
            q90 = _q90_radii(configs)
        start.blocks.append(np.concatenate(
            (self.values[:, slots, start.row], q90[None])))
        kept = iterations % self.stride == 0
        start.snapshots.append((iterations[kept], configs[kept]))

    def tail(self, start, last):
        """Iterations and configurations of the start's dense tail: its
        last ``_TAIL`` recorded iterations after the first."""
        iterations, slots = self._slots(max(1, last + 1 - _TAIL), last + 1)
        return iterations, self.configs[slots, start.row]


def _keep(positions, *stack):
    """The rows at ``positions`` of each array or list of a stack."""
    return [rows[positions] if isinstance(rows, np.ndarray)
            else [rows[k] for k in positions] for rows in stack]


def _backtrack(live, groups, configs, grads, energies, gsq, steps):
    """Armijo backtracking of each start of a stack from twice its last
    step, halving the steps that fail the test, at most
    ``_MAX_BACKTRACKS`` times.  Only the starts still backtracking are
    evaluated; their groups are recomputed when one stops.  A start whose
    group's call raised stops at once, and a start whose doubled step
    overflowed finds none before any candidate is formed: its halvings
    would stay infinite.

    Returns, per start, whether it found a step, and the accepted
    configurations, their energies and their steps (junk where it found
    none).
    """
    if len(steps) == 1:
        # a lone start (a one-start descent, or the last start of a stack)
        # backtracks on floats, with none of the stack's bookkeeping
        (step,), (energy,), (slope,) = steps, energies, gsq
        trial = step * 2.0
        if not math.isfinite(trial):
            return [False], configs, energies, [trial]
        for _ in range(_MAX_BACKTRACKS):
            candidates = configs - trial * grads
            (cand_energy,), _ = _energies(groups, candidates)
            if cand_energy <= energy - _ARMIJO_SLOPE * trial * slope:
                return [True], candidates, [cand_energy], [trial]
            if live[0].failed:
                break
            trial *= 0.5
        return [False], candidates, [cand_energy], [trial]
    trials = [step * 2.0 for step in steps]
    passed = [False] * len(trials)
    accepted = (np.empty_like(configs), trials[:], trials[:])
    origin = list(range(len(trials)))  # stack position of each pending row
    rest = [k for k, trial in enumerate(trials) if math.isfinite(trial)]
    for _ in range(_MAX_BACKTRACKS):
        if len(rest) < len(origin):
            if not rest:
                break
            origin, live, configs, grads, energies, gsq, trials = _keep(
                rest, origin, live, configs, grads, energies, gsq, trials)
            groups = _groups(live)
        candidates = configs - np.array(trials)[:, None, None] * grads
        cand_energies, _ = _energies(groups, candidates)
        rest = []
        for k, (cand_energy, energy, trial, slope) in enumerate(zip(
                cand_energies, energies, trials, gsq)):
            if cand_energy <= energy - _ARMIJO_SLOPE * trial * slope:
                row = origin[k]
                passed[row] = True
                accepted[0][row] = candidates[k]
                accepted[1][row] = cand_energy
                accepted[2][row] = trial
            elif not live[k].failed:
                rest.append(k)
        trials = [trial * 0.5 for trial in trials]
    return (passed,) + accepted


def _descend_stack(n, starts, max_iter, grad_tol):
    """The descent engine: the (potential, init, seed) starts descend as
    one C-contiguous (S, n, d) stack, whose rows are grouped in runs
    (:func:`_groups`): consecutive starts of one family with run forms,
    such as a scan grid's Morse cells, or else of one potential.  Each
    energy evaluation is one distance pass over the stack and one W call
    per run with a start still descending, and each state evaluation one
    W and dW/dr call per run.  Every start keeps its own step,
    backtracking, stopping rule, history and snapshots.  The per-start
    sums run over contiguous rows, in the order a lone configuration's
    would, a family's run forms make the operations of the checked calls
    element by element, and the per-start scalars are Python floats, so
    each trace is bit for bit the one its start has alone.

    A start stops on a small gradient, once its recorded energy has been
    bit-for-bit equal to the previous iteration's for ``_BLOCK`` (128)
    iterations in a row (``==`` on the floats, so NaN never counts), when
    no step passes the Armijo test or its doubled step overflows, on a
    non-finite energy (a ParticleCollision), at the end of its budget, or
    when its group's call raised or its potential carries no derivative
    (NonDifferentiable); it then leaves the stack, and the groups are
    recomputed only then.  A trace's ``stop_reason`` names the first
    four: ``gradient``, ``stalled``, ``no_step`` or ``budget``.  A group
    whose call raised reads NaN and is called no more; the other groups
    carry on bit for bit.  Returns each start's trace or exception, or
    None for a start whose failure could not be pinned on it alone (see
    :func:`_group_call`)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    live, initial = [], []
    for row, (potential, init, seed) in enumerate(starts):
        if not live or potential is not live[-1].potential:
            clamp = math.isfinite(potential.value_at_zero)
            spacing = preferred_spacing(potential)
        live.append(_Start(row, potential, clamp, init, seed))
        if not potential.differentiable:
            live[-1].fail(NonDifferentiable(
                f"{potential.label} carries no derivative model"))
        initial.append(_initial_config(spacing, n, potential.dimension,
                                       init, seed))
    everyone = list(live)
    configs = _centred(np.stack(initial))
    groups, rows = _groups(live), slice(None)
    weights = np.zeros((len(live), n * (n - 1) // 2 + 1))
    slots = _pair_slots(n).ravel()

    energies, grads, d, slopes = _descent_state(groups, configs, weights,
                                                slots)
    steps = [1.0 / (n * scale) if scale > 0 else 1.0 for slope in slopes
             for scale in np.abs(slope).max(axis=1).tolist()]
    del slopes  # only the first step needs dW/dr; at n = 256 it is 261 kB
    history = _History(len(live), n, configs.shape[2], max_iter)
    history.record(0, live, rows, configs, energies, d, [0.0] * len(live))
    last = 0  # the last iteration recorded
    # per live start, for how many iterations in a row its recorded energy
    # equalled the one before
    runs = [0] * len(live)

    def leave(reasons, *stack):
        """Finish the starts with a stop reason in ``reasons`` (None for a
        start that goes on), and take them and the starts that failed out
        of the stack and its groups; returns the arrays and lists of
        ``stack`` at the starts that stay."""
        nonlocal live, groups, rows
        keep = [k for k, (start, reason) in enumerate(zip(live, reasons))
                if not (reason or start.failed)]
        for start, config, reason in zip(live, configs, reasons):
            if reason and not start.failed:
                start.finish(history, last, config, reason)
        live, *stack = _keep(keep, live, *stack)
        groups, rows = _groups(live), [start.row for start in live]
        return stack

    # a start whose group failed finds no step, and leaves with the starts
    # that found none
    for it in range(1, max_iter + 1):
        norms = np.maximum.reduce(np.abs(grads), axis=(1, 2)).tolist()
        reasons = ["gradient" if norm < grad_tol
                   else "stalled" if run >= _BLOCK else None
                   for norm, run in zip(norms, runs)]
        if any(reasons):
            configs, grads, energies, steps, runs = leave(
                reasons, configs, grads, energies, steps, runs)
            if not live:
                break
        gsq = np.add.reduce(grads * grads, axis=(1, 2)).tolist()
        passed, candidates, cand_energies, trials = _backtrack(
            live, groups, configs, grads, energies, gsq, steps)
        if not all(passed):
            candidates, cand_energies, trials, energies, runs = leave(
                [None if flag else "no_step" for flag in passed],
                candidates, cand_energies, trials, energies, runs)
            if not live:
                break

        configs = _centred(candidates)
        steps = trials
        previous = energies
        energies, grads, d = _descent_state(groups, configs, weights,
                                            slots)[:3]
        runs = [run + 1 if energy == before else 0
                for run, energy, before in zip(runs, energies, previous)]
        if not all(map(math.isfinite, energies)):
            for start, energy in zip(live, energies):
                if not (start.failed or math.isfinite(energy)):
                    start.fail(ParticleCollision(
                        "energy became non-finite after an accepted step"))
            configs, grads, energies, d, cand_energies, steps, runs = leave(
                [None] * len(live),
                configs, grads, energies, d, cand_energies, steps, runs)
            if not live:
                break
        for energy, cand_energy in zip(energies, cand_energies):
            if abs(energy - cand_energy) > 1e-12 * (1.0 + abs(cand_energy)):
                raise InvariantViolation(
                    "recentring changed the energy: "
                    f"{cand_energy!r} -> {energy!r}")
        history.record(it, live, rows, configs, energies, d, steps)
        last = it

    leave(["budget"] * len(live))
    return [start.outcome for start in everyone]


def _q90_radii(configs):
    """q90 radius of each configuration of a (m, n, d) stack."""
    squares = _centred(configs)
    # np.linalg.norm(centred, axis=-1) evaluates this same expression; the
    # temporaries are overwritten in place, since a full block of a grid
    # stack is as large as the history's ring
    np.multiply(squares, squares, out=squares)
    radii = np.add.reduce(squares, axis=-1)
    del squares
    np.sqrt(radii, out=radii)
    return np.quantile(radii, 0.9, axis=-1, overwrite_input=True)


def _median_nn_distance(config) -> float:
    n = config.shape[0]
    if n < 2:
        return 0.0
    d = squareform(pair_distances(config))
    np.fill_diagonal(d, math.inf)
    return float(np.median(d.min(axis=1)))


def _two_means(config, iterations: int = 60):
    """Deterministic 2-means: seeded from the most separated pair."""
    d = squareform(pair_distances(config))
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
    lattice / random_ball / two_cluster with the seed index).  The starts
    of all points of one dimension descend together as one stack, each
    with the trace ``minimize_particles`` gives it; a stack takes points
    while its (S, n, n, N) coordinate differences stay within 2**16
    doubles, and never splits a point's starts.  Consecutive points whose
    potentials are of one family with run forms (Morse, or GaussianMix
    with as many terms; see RadialPotential) are one run of the stack, and
    the starts of any other point are a run of their own; each run is
    evaluated by one W call per energy evaluation and one W and dW/dr
    call per state.  Per point the scan emits
    one row per seed plus an aggregate row carrying the majority
    classification and the best energy.  A tie for the majority goes to
    the tied label of the lowest (energy, seed) trace.  Failures of a
    point or of one seed are recorded in the row's ``error`` field and do
    not stop the scan, except InvariantViolation, which signals a bug and
    propagates.  A W or dW/dr call that raises stops only the starts of
    its run or point in the stack: a lone start keeps the exception,
    several starts each descend again alone, and the other starts carry
    on with their lone traces.  When ``with_stability`` is set, the
    aggregate row also carries the space integral criterion verdict for
    cross-reading.

    Raises:
        ValueError: ``n`` is below 2 or ``seeds`` is empty, before any
            potential is built.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    cells, potentials = [], {}
    for params in param_grid:
        try:
            potential = potential_factory(**params)
        except Exception as exc:
            cells.append((params, str(exc), "skipped", math.nan))
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
        potentials[len(cells)] = potential
        cells.append((params, None, stab_outcome, stab_value))

    traces = {}
    for stack in _scan_stacks(potentials, n, len(seeds)):
        outcomes = _descend(n, [start for key in stack for start in
                                _cycled_starts(potentials[key], seeds)],
                            max_iter, grad_tol)
        for k, key in enumerate(stack):
            traces[key] = outcomes[k * len(seeds):(k + 1) * len(seeds)]

    rows = []
    for key, (params, error, stab_outcome, stab_value) in enumerate(cells):
        if error is not None:
            rows.append(ScanRow(dict(params), None, "error", math.nan,
                                stab_outcome, stab_value, error=error))
            continue
        labels = []
        best_energy = math.inf
        for seed, trace in zip(seeds, traces.pop(key)):
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


def _scan_stacks(potentials, n, count):
    """The keys of ``potentials`` (a scan's grid points) grouped into the
    stacks they descend in: the points of one dimension in grid order, as
    many to a stack as keep its (count * points, n, n, N) coordinate
    differences within ``_STACK_DOUBLES``, and at least one."""
    by_dimension = {}
    for key, potential in potentials.items():
        by_dimension.setdefault(potential.dimension, []).append(key)
    stacks = []
    for dimension, keys in by_dimension.items():
        size = max(1, _STACK_DOUBLES // max(1, count * n * n * dimension))
        stacks += [keys[k:k + size] for k in range(0, len(keys), size)]
    return stacks
