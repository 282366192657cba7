import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import Cliff
from scipy.spatial.distance import pdist, squareform

from groundlab import (GaussianMix, MinimizationTrace, Morse, PowerLaw,
                       Tabulated, classify_trace, geometry, ground_state_scan,
                       groundstate, minimize_particles, ruc_search)
from groundlab.errors import (InvariantViolation, NonDifferentiable,
                              ParticleCollision)
from groundlab.groundstate import _BLOCK, _energy, _energy_and_gradient, \
    _q90_radii, preferred_spacing
from groundlab.potentials import RadialPotential


def test_two_particle_optimum_powerlaw():
    trace = minimize_particles(PowerLaw(2.0, 1.0, 1), 2, seed=0)
    assert trace.converged
    gap = abs(trace.final_config[0, 0] - trace.final_config[1, 0])
    # W(s) = s^2/2 - s is minimal at s = 1 with value -1/2, so the
    # per-pair-normalized energy is -1/4
    assert gap == pytest.approx(1.0, abs=1e-3)
    assert trace.final_energy == pytest.approx(-0.25, abs=1e-6)


def test_descent_energy_never_increases():
    cases = [
        (PowerLaw(2.0, 1.0, 2), 12),
        (Morse(0.5, 2.0, 2), 12),
        (GaussianMix([(1.0, 1.0), (-1.5, 2.0)], 1), 10),
    ]
    for potential, n in cases:
        for seed in (0, 1):
            trace = minimize_particles(potential, n, seed=seed, max_iter=400)
            e = trace.energies
            slack = 1e-12 * (1.0 + np.abs(e[:-1]))
            assert np.all(np.diff(e) <= slack), potential.label


def test_recentring_leaves_energy_unchanged():
    rng = np.random.default_rng(5)
    w = Morse(1.5, 1.0, 2)
    config = rng.normal(size=(9, 2))
    base = _energy(w, config, clamp=True)
    moved = _energy(w, config + np.array([17.0, -4.0]), clamp=True)
    assert moved == pytest.approx(base, rel=1e-12)


def test_final_config_is_centred():
    trace = minimize_particles(Morse(0.5, 2.0, 2), 10, seed=3, max_iter=200)
    centroid = trace.final_config.mean(axis=0)
    assert np.all(np.abs(centroid) < 1e-9)


def test_descent_is_deterministic():
    a = minimize_particles(PowerLaw(2.0, 1.0, 2), 8, seed=5, max_iter=120)
    b = minimize_particles(PowerLaw(2.0, 1.0, 2), 8, seed=5, max_iter=120)
    np.testing.assert_array_equal(a.energies, b.energies)
    np.testing.assert_array_equal(a.final_config, b.final_config)
    c = minimize_particles(PowerLaw(2.0, 1.0, 2), 8, seed=6, max_iter=120)
    assert not np.array_equal(a.final_config, c.final_config)


def test_all_initializations_run():
    for init in ("lattice", "random_ball", "two_cluster"):
        trace = minimize_particles(Morse(0.5, 1.0, 2), 6, init=init,
                                   seed=0, max_iter=60)
        assert trace.init == init
        assert trace.iterations >= 1
    with pytest.raises(ValueError):
        minimize_particles(Morse(0.5, 1.0, 2), 6, init="ring")


def test_input_guards():
    with pytest.raises(ValueError):
        minimize_particles(Morse(0.5, 1.0, 1), 1)
    with pytest.raises(NonDifferentiable):
        minimize_particles(Tabulated([0.0, 1.0], [1.0, 0.0], 1), 4)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    cases = [PowerLaw(2.0, 1.0, 2), Morse(1.5, 1.2, 2),
             GaussianMix([(1.0, 1.0), (-0.7, 1.8)], 2)]
    h = 1e-6
    for potential in cases:
        config = rng.normal(size=(6, 2)) * 1.5
        _, grad = _energy_and_gradient(potential, config, clamp=True)
        for i, d in ((0, 0), (3, 1), (5, 0)):
            bumped = config.copy()
            bumped[i, d] += h
            up = _energy(potential, bumped, clamp=True)
            bumped[i, d] -= 2 * h
            down = _energy(potential, bumped, clamp=True)
            fd = (up - down) / (2 * h)
            assert grad[i, d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_trace_csv_round_trip(tmp_path):
    trace = minimize_particles(PowerLaw(2.0, 1.0, 1), 4, seed=0,
                               max_iter=80)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,energy,q90_radius,max_pair_distance,step"
    assert len(lines) == trace.iterations + 2
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(trace.energies[0])


def test_snapshots_cover_the_tail_densely():
    trace = minimize_particles(Morse(0.5, 2.0, 2), 8, seed=2, max_iter=300)
    iters = {k for k, _ in trace.snapshots}
    want = set(range(max(0, trace.iterations - 100), trace.iterations + 1))
    assert want <= iters


def test_preferred_spacing_families():
    # interior minimum of s^2/2 - s sits at 1
    assert preferred_spacing(PowerLaw(2.0, 1.0, 1)) == pytest.approx(
        1.0, abs=0.05)
    # monotone repulsive bump: the 1/e decay radius of exp(-s^2) is 1
    assert preferred_spacing(GaussianMix([(1.0, 1.0)], 1)) == pytest.approx(
        1.0, abs=0.05)
    # deep minimum beyond the clip band saturates at 2.5
    assert preferred_spacing(Morse(0.5, 2.0, 2)) == pytest.approx(2.5)


def _synthetic_trace(configs, converged=False):
    """Wrap a list of per-iteration configurations as a trace."""
    configs = [np.asarray(c, dtype=float) for c in configs]
    q90 = []
    max_pd = []
    for cfg in configs:
        radii = np.linalg.norm(cfg - cfg.mean(axis=0), axis=1)
        q90.append(float(np.quantile(radii, 0.9)))
        diffs = cfg[:, None, :] - cfg[None, :, :]
        max_pd.append(float(np.linalg.norm(diffs, axis=2).max()))
    return MinimizationTrace(
        potential_label="synthetic", n=configs[0].shape[0],
        dimension=configs[0].shape[1], init="lattice", seed=0,
        energies=np.linspace(1.0, 0.0, len(configs)),
        q90_radii=np.array(q90), max_pair_distances=np.array(max_pd),
        step_sizes=np.zeros(len(configs)),
        final_config=configs[-1] - configs[-1].mean(axis=0),
        converged=converged,
        snapshots=tuple(enumerate(configs)))


def test_classify_synthetic_expanding_gas():
    base = np.linspace(-1.0, 1.0, 12)[:, None]
    configs = [base * 1.08**k for k in range(61)]
    assert classify_trace(_synthetic_trace(configs)) == "vanishing"


def test_classify_synthetic_receding_clusters_recovers_alpha():
    rng = np.random.default_rng(29)
    left = rng.uniform(-0.2, 0.2, size=(6, 1))
    right = rng.uniform(-0.2, 0.2, size=(6, 1))
    configs = []
    for k in range(61):
        c = 2.0 + 0.05 * k
        configs.append(np.vstack([left - c, right + c]))
    label, info = classify_trace(_synthetic_trace(configs),
                                 return_details=True)
    assert label == "dichotomy"
    assert info["alpha"] == pytest.approx(0.5, abs=0.05)


def test_classify_synthetic_static_configuration_is_tight():
    cfg = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    configs = [cfg for _ in range(40)]
    assert classify_trace(_synthetic_trace(configs)) == "tight"


def test_classify_real_runs():
    spread = minimize_particles(GaussianMix([(1.0, 1.0)], 2), 16, seed=0,
                                max_iter=2000)
    assert classify_trace(spread) == "vanishing"
    assert (spread.stop_reason, spread.converged) == ("gradient", True)
    assert spread.final_energy >= 0.0

    held = minimize_particles(PowerLaw(2.0, 1.0, 2), 16, seed=0,
                              max_iter=1500)
    assert classify_trace(held) == "tight"
    assert held.final_energy < 0.0

    split = minimize_particles(Morse(2.0, 1.0, 1), 32, init="random_ball",
                               seed=4, max_iter=2000)
    label, info = classify_trace(split, return_details=True)
    assert label == "dichotomy"
    assert info["alpha"] == pytest.approx(0.5, abs=0.1)


def test_collapsed_traces_classify_as_tight():
    # Morse(2,1,1) collapses these starts to a point (final q90 radius
    # about 5e-12); jitter on that radius must not read as outward drift
    w = Morse(2.0, 1.0, 1)
    for n, init, seed in ((32, "lattice", 0), (32, "lattice", 1),
                          (32, "two_cluster", 2), (16, "random_ball", 1),
                          (16, "random_ball", 4), (16, "random_ball", 5)):
        trace = minimize_particles(w, n, init=init, seed=seed,
                                   max_iter=2000)
        label, info = classify_trace(trace, return_details=True)
        assert (label, info.get("route")) == ("tight", "collapse"), \
            (n, init, seed)
        assert trace.stop_reason == "stalled"


def test_growing_tails_never_classify_as_vanishing():
    # profiles growing at infinity confine the particles, whatever the
    # seed; dispersal must never be reported for them
    for potential in (PowerLaw(2.0, 1.0, 2), PowerLaw(4.0, 2.0, 2),
                      PowerLaw(2.0, -0.5, 2)):
        for seed in (0, 1, 2):
            trace = minimize_particles(potential, 16, seed=seed,
                                       max_iter=800)
            assert classify_trace(trace) != "vanishing", potential.label


def test_scan_phase_flip_with_stability_cross_read():
    rows = ground_state_scan(
        lambda G: Morse(G, 1.0, 1), [{"G": 0.25}, {"G": 2.0}],
        n=8, seeds=(0, 1), max_iter=300)
    aggregate = {row.params["G"]: row for row in rows if row.seed is None}
    assert aggregate[0.25].classification == "vanishing"
    assert aggregate[0.25].stability_outcome == "stable_indication"
    assert aggregate[2.0].classification == "tight"
    assert aggregate[2.0].stability_outcome == "HE_satisfied"
    assert aggregate[2.0].best_energy < 0.0
    per_seed = [row for row in rows if row.seed is not None]
    assert len(per_seed) == 4


def test_scan_isolates_bad_cells(monkeypatch):
    rows = ground_state_scan(
        lambda G: Morse(G, 1.0, 1), [{"G": 0.5}, {"G": -3.0}],
        n=6, seeds=(0,), max_iter=100, with_stability=False)
    bad = [row for row in rows if row.params["G"] == -3.0]
    assert len(bad) == 1
    assert bad[0].classification == "error"
    assert "morse strength" in bad[0].error
    good = [row for row in rows
            if row.params["G"] == 0.5 and row.seed is None]
    assert len(good) == 1
    assert good[0].classification != "error"

    # a tabulated cell in the middle of a grid stack has no derivative:
    # its seeds fail in the one engine call, and the cells around it keep
    # the rows they have alone
    def factory(G):
        if G == 1.0:
            return Tabulated([0.0, 1.0], [1.0, 0.0], 1)
        return Morse(G, 1.0, 1)

    grid = [{"G": 0.5}, {"G": 1.0}, {"G": 2.0}]
    calls, _ = spy_stacks(monkeypatch)
    rows = ground_state_scan(factory, grid, n=6, seeds=(0, 1), max_iter=100,
                             with_stability=False)
    assert [len(starts) for starts in calls] == [6]
    tabulated = [row for row in rows if row.params["G"] == 1.0]
    assert [row.classification for row in tabulated] == ["error"] * 3
    assert tabulated[0].error == ("tabulated(2 knots,N=1) carries no "
                                  "derivative model")
    assert tabulated[-1].error == "all seeds failed"
    for cell in (grid[0], grid[2]):
        alone = ground_state_scan(factory, [cell], n=6, seeds=(0, 1),
                                  max_iter=100, with_stability=False)
        assert [row for row in rows if row.params == cell] == alone


def test_scan_refuses_too_few_particles_and_no_seeds():
    # as minimize_particles and ruc_search do, and before any potential is
    # built, rather than as error rows
    made = []

    def factory(G):
        made.append(Morse(G, 2.0, 1))
        return made[-1]

    with pytest.raises(ValueError, match="n must be >= 2"):
        ground_state_scan(factory, [{"G": 1.0}], n=1, seeds=(0, 1),
                          with_stability=False)
    with pytest.raises(ValueError, match="seeds must be nonempty"):
        ground_state_scan(factory, [{"G": 1.0}], n=8, seeds=(),
                          with_stability=False)
    assert made == []


def test_scan_propagates_invariant_violations(monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("recentring changed the energy")

    monkeypatch.setattr(groundstate, "_descend_stack", broken)
    with pytest.raises(InvariantViolation):
        ground_state_scan(lambda G: Morse(G, 1.0, 1), [{"G": 0.5}], n=6,
                          seeds=(0,), with_stability=False)
    with pytest.raises(InvariantViolation):
        ground_state_scan(lambda G: Morse(G, 1.0, 1), [{"G": 0.5}], n=6,
                          seeds=(0, 1, 2), with_stability=False)
    with pytest.raises(InvariantViolation):
        ground_state_scan(lambda G: Morse(G, 1.0, 1),
                          [{"G": 0.5}, {"G": 2.0}], n=6, seeds=(0, 1, 2),
                          with_stability=False)
    with pytest.raises(InvariantViolation):
        ruc_search(Morse(1.0, 2.0, 2), n_list=(8, 16))
    with pytest.raises(InvariantViolation):
        minimize_particles(Morse(1.0, 2.0, 2), 8)


def test_scan_tie_sides_with_the_best_energy_among_the_tied_labels(
        monkeypatch):
    labels = ["tight", "tight", "vanishing", "vanishing", "undecided"]
    energies = [-0.5, -0.4, -0.7, -0.3, -0.9]

    def fake_descend(n, starts, max_iter, grad_tol=1e-8):
        return [MinimizationTrace(
            potential_label="fake", n=n, dimension=1, init=init, seed=seed,
            energies=np.array([0.0, energy]), q90_radii=np.ones(2),
            max_pair_distances=np.ones(2), step_sizes=np.zeros(2),
            final_config=np.zeros((n, 1)), converged=False)
            for (_, init, seed), energy in zip(starts, energies)]

    monkeypatch.setattr(groundstate, "_descend", fake_descend)
    monkeypatch.setattr(groundstate, "classify_trace",
                        lambda trace: labels[trace.seed])
    rows = ground_state_scan(lambda G: Morse(G, 1.0, 1), [{"G": 0.5}], n=4,
                             seeds=range(5), with_stability=False)
    assert [row.classification for row in rows[:-1]] == labels
    aggregate = rows[-1]
    # tight and vanishing tie at two seeds each; the undecided trace is
    # the lowest in energy but its label is not among the tied ones
    assert aggregate.classification == "vanishing"
    assert aggregate.best_energy == -0.9


class Brittle(Morse):
    """Morse whose derivative raises beyond ``edge``."""

    edge = 6.0

    def _profile_derivative(self, radii):
        if np.any(radii > self.edge):
            raise ArithmeticError(f"radius beyond {self.edge}")
        return super()._profile_derivative(radii)


def assert_same_trace(trace, want):
    """``want`` is a trace or a reference_descent dict."""
    def get(name):
        return want[name] if isinstance(want, dict) else getattr(want, name)

    for name in ("energies", "q90_radii", "max_pair_distances",
                 "step_sizes", "final_config"):
        assert np.array_equal(getattr(trace, name), get(name)), name
    assert [k for k, _ in trace.snapshots] == [k for k, _ in
                                               get("snapshots")]
    for (k, got), (_, config) in zip(trace.snapshots, get("snapshots")):
        assert np.array_equal(got, config), k
    if not isinstance(want, dict):
        assert (trace.converged, trace.stop_reason) == (want.converged,
                                                        want.stop_reason)
        assert (trace.init, trace.seed) == (want.init, want.seed)


def test_a_colliding_start_leaves_the_stack_and_the_others_carry_on(
        monkeypatch):
    stacks = []
    engine = groundstate._descend_stack

    def spied(n, starts, *args):
        stacks.append(len(starts))
        return engine(n, starts, *args)

    monkeypatch.setattr(groundstate, "_descend_stack", spied)
    w = Cliff(1.0, 2.0, 2)
    starts = groundstate._cycled_starts(w, (0, 1, 2))
    outcomes = groundstate._descend(8, starts, 400)
    # one stack: the collision did not send the starts to run alone
    assert stacks == [3]
    # the two_cluster start collides at iteration 11, the others stop on
    # their own at iterations 64 and 58
    assert isinstance(outcomes[2], ParticleCollision)
    for (_, init, seed), trace in zip(starts[:2], outcomes):
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=400))
    assert [trace.iterations for trace in outcomes[:2]] == [64, 58]
    with pytest.raises(ParticleCollision):
        minimize_particles(w, 8, init="two_cluster", seed=2, max_iter=400)

    rows = ground_state_scan(lambda G: Cliff(G, 2.0, 2), [{"G": 1.0}], n=8,
                             seeds=(0, 1, 2), with_stability=False)
    assert [(row.seed, row.classification) for row in rows] == [
        (0, classify_trace(outcomes[0])), (1, classify_trace(outcomes[1])),
        (2, "error"), (None, rows[-1].classification)]
    assert rows[2].error == "energy became non-finite after an accepted step"
    assert rows[-1].classification != "error"

    with pytest.raises(ParticleCollision):
        ruc_search(w, n_list=(8, 16))


def test_other_failures_are_pinned_on_their_own_start():
    # a stacked W evaluation that raises cannot say whose pairs it was;
    # each start then runs alone and keeps its own outcome
    w = Brittle(1.0, 2.0, 2)
    starts = groundstate._cycled_starts(w, (0, 1, 2))
    outcomes = groundstate._descend(8, starts, 400)
    assert isinstance(outcomes[2], ArithmeticError)
    for (_, init, seed), trace in zip(starts[:2], outcomes):
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=400))
    rows = ground_state_scan(lambda G: Brittle(G, 2.0, 2), [{"G": 1.0}],
                             n=8, seeds=(0, 1, 2), with_stability=False)
    assert [row.classification == "error" for row in rows] == [
        False, False, True, False]
    assert rows[2].error == "radius beyond 6.0"


def run_forms(potentials):
    """(forms, potentials) of each run the engine makes of a stack of
    one start per potential (groundstate._groups)."""
    starts = [groundstate._Start(row, w, math.isfinite(w.value_at_zero),
                                 "lattice", 0)
              for row, w in enumerate(potentials)]
    return [(members[0].forms, [start.potential for start in members])
            for _, members, _, _ in groundstate._groups(starts)]


def spy_stacks(monkeypatch):
    """Record the starts of every call of the descent engine, and of each
    call that returned, its outcome per (potential, init, seed)."""
    calls, outcomes = [], {}
    engine = groundstate._descend_stack

    def spied(n, starts, *args):
        calls.append(starts)
        got = engine(n, starts, *args)
        outcomes.update(zip(starts, got))
        return got

    monkeypatch.setattr(groundstate, "_descend_stack", spied)
    return calls, outcomes


@pytest.mark.parametrize("keys", [
    # profiles singular at contact (no clamp) and finite (clamped) in one
    # stack
    [{"r": r} for r in (-0.5, 0.5, 1.0)],
    # the dimension as a key, alternating: one stack per dimension
    [{"r": r, "dimension": N} for r in (-0.5, 0.5) for N in (1, 2)],
], ids=["mixed-clamps", "two-dimensions"])
def test_a_scan_stack_gives_each_start_its_lone_trace(monkeypatch, keys):
    calls, outcomes = spy_stacks(monkeypatch)
    made = []

    def factory(r, dimension=2):
        made.append(PowerLaw(2.0, r, dimension))
        return made[-1]

    rows = ground_state_scan(factory, keys, n=8, seeds=(0, 1, 2),
                             max_iter=150, with_stability=False)
    dimensions = sorted({w.dimension for w in made})
    assert [sorted({w.dimension for w, _, _ in starts})
            for starts in calls] == [[dim] for dim in dimensions]
    assert [len(starts) for starts in calls] == [
        3 * sum(w.dimension == dim for w in made) for dim in dimensions]
    assert {math.isfinite(w.value_at_zero) for w in made} == {True, False}
    per_seed = iter(row for row in rows if row.seed is not None)
    for w in made:
        for init, seed in zip(("lattice", "random_ball", "two_cluster"),
                              (0, 1, 2)):
            trace = outcomes[(w, init, seed)]
            assert_same_trace(trace, minimize_particles(
                w, 8, init=init, seed=seed, max_iter=150))
            row = next(per_seed)
            assert (row.seed, row.classification, row.best_energy) == (
                seed, classify_trace(trace), trace.final_energy)


def test_a_cell_that_raises_leaves_the_other_cells_traces_unchanged(
        monkeypatch):
    calls, outcomes = spy_stacks(monkeypatch)
    made = {}

    def factory(G):
        made[G] = (Brittle if G == 1.0 else Morse)(G, 2.0, 2)
        return made[G]

    rows = ground_state_scan(factory, [{"G": 0.5}, {"G": 1.0}, {"G": 2.0}],
                             n=8, seeds=(0, 1, 2), max_iter=400,
                             with_stability=False)
    # the brittle cell's dW/dr call raised with three starts' pairs in it:
    # the other cells finished in the grid stack, and only the brittle
    # cell's starts descended again, each alone
    assert [len(starts) for starts in calls] == [9, 1, 1, 1]
    assert [row.error for row in rows if row.params["G"] == 1.0] == [
        "", "", "radius beyond 6.0", ""]
    # Brittle overrides dW/dr, so its cell is a default run of its own,
    # on its checked calls, between the Morse cells, which stay two runs
    assert run_forms([made[G] for G in (0.5, 1.0, 2.0)]) == [
        (Morse, [made[0.5]]), (RadialPotential, [made[1.0]]),
        (Morse, [made[2.0]])]
    for G in (0.5, 2.0):
        for init, seed in zip(("lattice", "random_ball", "two_cluster"),
                              (0, 1, 2)):
            assert_same_trace(outcomes[(made[G], init, seed)],
                              minimize_particles(made[G], 8, init=init,
                                                 seed=seed, max_iter=400))


def test_a_lone_start_that_raises_keeps_its_exception(monkeypatch):
    # three one-start groups: the middle start's dW/dr call raises with
    # only its own pairs in it, so the stack pins the exception on it
    calls, _ = spy_stacks(monkeypatch)
    starts = [(Morse(0.5, 2.0, 2), "lattice", 0),
              (Brittle(1.0, 2.0, 2), "two_cluster", 2),
              (Morse(2.0, 2.0, 2), "random_ball", 1)]
    outcomes = groundstate._descend(8, starts, 400)
    assert [len(starts) for starts in calls] == [3]
    assert isinstance(outcomes[1], ArithmeticError)
    assert str(outcomes[1]) == "radius beyond 6.0"
    for k in (0, 2):
        w, init, seed = starts[k]
        assert_same_trace(outcomes[k], minimize_particles(
            w, 8, init=init, seed=seed, max_iter=400))


class Sticky(Morse):
    """Morse whose W raises on pairs closer than ``edge`` but apart: a
    collapsing descent raises on a trial step, inside its backtracking."""

    edge = 1e-6

    def _profile(self, radii):
        if np.any((radii > 0) & (radii < self.edge)):
            raise FloatingPointError(f"pair closer than {self.edge}")
        return super()._profile(radii)


def test_a_trial_step_that_raises_stops_only_its_own_start(monkeypatch):
    calls, _ = spy_stacks(monkeypatch)
    failed = []
    backtrack = groundstate._backtrack

    def spied(live, *args):
        got = backtrack(live, *args)
        if any(start.failed for start in live):
            failed.append([start.failed for start in live])
        return got

    monkeypatch.setattr(groundstate, "_backtrack", spied)
    w, other = Sticky(2.0, 1.0, 1), Morse(0.5, 1.0, 1)
    starts = [(other, "lattice", 0), (w, "random_ball", 1),
              (w, "lattice", 0), (other, "two_cluster", 2)]
    outcomes = groundstate._descend(8, starts, 2000)
    # each sticky start raised on a trial step while it was the only start
    # of its group still backtracking, so the stack pinned it on that start
    assert [len(starts) for starts in calls] == [4]
    assert failed == [[False, False, True, False], [False, True, False]]
    for k in (1, 2):
        assert str(outcomes[k]) == "pair closer than 1e-06"
        with pytest.raises(FloatingPointError):
            minimize_particles(w, 8, init=starts[k][1], seed=starts[k][2],
                               max_iter=2000)
    for k in (0, 3):
        assert_same_trace(outcomes[k], minimize_particles(
            other, 8, init=starts[k][1], seed=starts[k][2], max_iter=2000))


def test_a_grid_stack_records_its_histories_in_little_memory():
    # the twelve cells of the README scan descend as one stack of 36
    # starts, all of them recorded until the last one stops
    import tracemalloc

    grid = [{"G": G, "L": L} for G in (0.25, 0.5, 1.0, 2.0)
            for L in (0.5, 1.0, 2.0)]
    tracemalloc.start()
    try:
        ground_state_scan(lambda G, L: Morse(G, L, 1), grid, n=16,
                          seeds=(0, 1, 2), with_stability=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def reference_descent(potential, n, init, seed, max_iter, grad_tol=1e-8):
    """The descent loop with one scipy ``pdist`` per trial energy, one for
    the gradient, one for the recorded largest pair distance and one more
    for the slope scale, and ``np.quantile`` for the q90 radius.  It has
    no stall stop: the production loop reuses one distance vector per
    configuration and must reproduce this one bit for bit, up to the
    iteration where it stalls (:func:`reference_prefix`)."""
    clamp = math.isfinite(potential.value_at_zero)

    def terms(config):
        d = pdist(config)
        return np.maximum(d, 1e-10) if clamp else d

    def energy_of(config):
        return (2.0 / n**2) * float(np.sum(potential(terms(config))))

    def energy_and_gradient(config):
        d = terms(config)
        energy = (2.0 / n**2) * float(np.sum(potential(d)))
        mat = squareform(potential.derivative(d) / d)
        diffs = config[:, None, :] - config[None, :, :]
        return energy, (2.0 / n**2) * np.einsum("ij,ijd->id", mat, diffs)

    def q90(config):
        radii = np.linalg.norm(config - config.mean(axis=0), axis=1)
        return float(np.quantile(radii, 0.9))

    config = groundstate._initial_config(preferred_spacing(potential), n,
                                         potential.dimension, init, seed)
    config = config - config.mean(axis=0)
    energy, grad = energy_and_gradient(config)
    d0 = terms(config)
    slope_scale = float(np.max(np.abs(potential.derivative(d0))))
    step = 1.0 / (n * slope_scale) if slope_scale > 0 else 1.0
    energies, radii, max_pd, steps = [energy], [q90(config)], \
        [float(np.max(d0))], [0.0]
    configs = [config]
    for it in range(1, max_iter + 1):
        if float(np.max(np.abs(grad))) < grad_tol:
            break
        gsq = float(np.sum(grad * grad))
        trial = step * 2.0
        accepted = False
        for _ in range(48):
            candidate = config - trial * grad
            if energy_of(candidate) <= energy - 1e-4 * trial * gsq:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        config = candidate - candidate.mean(axis=0)
        step = trial
        energy, grad = energy_and_gradient(config)
        energies.append(energy)
        radii.append(q90(config))
        max_pd.append(float(np.max(terms(config))))
        steps.append(trial)
        configs.append(config)
    full = {"energies": np.asarray(energies), "q90_radii": np.asarray(radii),
            "max_pair_distances": np.asarray(max_pd),
            "step_sizes": np.asarray(steps), "configs": configs,
            "stride": max(1, max_iter // 128)}
    return reference_prefix(full, len(energies) - 1)


def reference_prefix(want, last):
    """A reference_descent run as it stood after iteration ``last``: its
    rows through ``last``, and its snapshots at multiples of the stride
    and at its last 129 iterations."""
    configs = want["configs"][:last + 1]
    return dict(want, configs=configs, final_config=configs[-1],
                snapshots=[(k, config) for k, config in enumerate(configs)
                           if k % want["stride"] == 0 or k > last - 129],
                **{name: want[name][:last + 1] for name in (
                    "energies", "q90_radii", "max_pair_distances",
                    "step_sizes")})


REFERENCE_CASES = [
    # the collapsing starts stall: their energy is bit-constant from about
    # iteration 35 on
    (Morse(2.0, 1.0, 1), 16, "lattice", "stalled"),
    (Morse(2.0, 1.0, 1), 16, "random_ball", "stalled"),
    (Morse(2.0, 1.0, 1), 16, "two_cluster", "stalled"),
    (Morse(1.0, 2.0, 3), 16, "random_ball", "budget"),
    # W(0) = inf: no clamp
    (PowerLaw(2.0, -0.5, 2), 16, "lattice", "gradient"),
    (Morse(1.0, 2.0, 2), 64, "two_cluster", "budget"),
    # an expanding profile, and n not a power of two
    (Morse(0.5, 1.0, 2), 24, "random_ball", "gradient"),
]


@pytest.mark.parametrize("potential, n, init, reason", REFERENCE_CASES,
                         ids=[f"{w.label}-{n}-{init}"
                              for w, n, init, _ in REFERENCE_CASES])
def test_descent_reproduces_the_reference_loop_bit_for_bit(potential, n,
                                                           init, reason):
    trace = minimize_particles(potential, n, init=init, seed=1, max_iter=300)
    full = reference_descent(potential, n, init, seed=1, max_iter=300)
    assert trace.stop_reason == reason
    last = trace.iterations
    if reason == "stalled":
        # the reference runs on, and every iteration it records after the
        # stop, as the _BLOCK before it, has the stop's energy
        assert last < full["energies"].size - 1
        assert np.all(full["energies"][last - _BLOCK:]
                      == full["energies"][last])
        assert np.any(full["energies"][last - _BLOCK - 1:]
                      != full["energies"][last])
    else:
        assert last == full["energies"].size - 1
    want = reference_prefix(full, last)
    assert_same_trace(trace, want)

    # the same start in the middle of a stack with the other two inits
    others = [kind for kind in ("lattice", "random_ball", "two_cluster")
              if kind != init]
    starts = [(potential, others[0], 2), (potential, init, 1),
              (potential, others[1], 0)]
    stacked = groundstate._descend(n, starts, 300)
    assert_same_trace(stacked[1], want)
    assert (stacked[1].converged, stacked[1].stop_reason) == (
        trace.converged, reason)
    for (_, kind, seed), got in zip(starts[::2], stacked[::2]):
        assert_same_trace(got, minimize_particles(
            potential, n, init=kind, seed=seed, max_iter=300))


def test_stacked_starts_stop_at_their_own_iterations():
    w = Morse(1.0, 2.0, 2)
    starts = groundstate._cycled_starts(w, (0, 1, 2))
    stacked = groundstate._descend(8, starts, 400)
    assert [trace.iterations for trace in stacked] == [64, 58, 318]
    for (_, init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, reference_descent(w, 8, init, seed, 400))
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=400))


@pytest.mark.parametrize("dimension, by_pdist", [(2, False), (3, True)])
def test_stack_above_the_pdist_threshold_is_bit_for_bit(monkeypatch,
                                                        dimension, by_pdist):
    # 64 points make 4032 coordinate differences per configuration in the
    # plane and 6048 in space: a lone configuration goes to pdist either
    # way, a stack of two is gathered up to 6000
    gathered = []
    kernel = geometry._gathered_distances

    def spied(points):
        gathered.append(points.shape)
        return kernel(points)

    monkeypatch.setattr(geometry, "_gathered_distances", spied)
    w = Morse(1.0, 2.0, dimension)
    starts = [(w, "random_ball", 3), (w, "lattice", 0)]
    stacked = groundstate._descend(64, starts, 200)
    assert ((2, 64, dimension) in gathered) == (not by_pdist)
    for (_, init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, reference_descent(w, 64, init, seed, 200))
        assert_same_trace(trace, minimize_particles(w, 64, init=init,
                                                    seed=seed, max_iter=200))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 10, 11, 16, 64, 257))
def test_quantile90_matches_numpy_bit_for_bit(n):
    # a block's q90 radii, read out for a stack of configurations at once,
    # are numpy's quantile of each configuration's radii as the reference
    # loop takes it, one configuration at a time
    def lone(config):
        radii = np.linalg.norm(config - config.mean(axis=0), axis=1)
        return np.quantile(radii, 0.9)

    rng = np.random.default_rng(n)
    for scale in (1e-12, 1.0, 1e3):
        configs = scale * rng.standard_normal((50, n, 2))
        assert np.array_equal(_q90_radii(configs),
                              [lone(config) for config in configs])
    # points on a circle tie at one radius; a NaN coordinate makes every
    # radius of its configuration NaN
    angles = 2 * np.pi * np.arange(n) / n
    ties = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    with_nan = rng.standard_normal((n, 2))
    with_nan[0, 0] = math.nan
    got = _q90_radii(np.stack([ties, with_nan]))
    assert got[0] == lone(ties)
    assert math.isnan(got[1])


class Astray(Morse):
    """Morse whose derivative model reads NaN: every trial step along its
    gradient has a NaN energy, so no step passes the Armijo test."""

    def _profile_derivative(self, radii):
        return np.full(radii.shape, math.nan)


class Bump(RadialPotential):
    """W(s) = (1 - s)**3 for s < 1, and 0 beyond: a repulsion of compact
    support, whose spreading gas stops interacting."""

    family = "bump"
    differentiable = True

    def _profile(self, radii):
        return np.maximum(1.0 - radii, 0.0) ** 3

    def _profile_derivative(self, radii):
        return -3.0 * np.maximum(1.0 - radii, 0.0) ** 2


def test_each_start_of_a_stack_stops_for_its_own_reason():
    # the start that finds no step leaves before the stalling one, whose
    # count of bit-constant energies must stay its own
    starts = [(Morse(1.0, 2.0, 1), "lattice", 0),
              (Astray(1.0, 2.0, 1), "lattice", 0),
              (Morse(2.0, 1.0, 1), "random_ball", 1),
              (Morse(0.5, 1.0, 1), "lattice", 0)]
    stacked = groundstate._descend(16, starts, 400)
    assert [(trace.iterations, trace.stop_reason, trace.converged)
            for trace in stacked] == [
        (53, "gradient", True), (0, "no_step", False),
        (164, "stalled", True), (400, "budget", False)]
    for (w, init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, minimize_particles(w, 16, init=init,
                                                    seed=seed, max_iter=400))
    energies = stacked[2].energies
    assert np.all(energies[-_BLOCK - 1:] == energies[-1])
    assert energies[-_BLOCK - 2] != energies[-1]


def test_a_stalling_start_carries_on_past_a_collision_in_its_stack():
    # with no gradient stop the gas of bumps spreads until its energy
    # freezes; the colliding start leaves at iteration 11, before it
    starts = [(Cliff(1.0, 2.0, 2), "two_cluster", 2), (Bump(2), "lattice", 0)]
    stacked = groundstate._descend(8, starts, 400, grad_tol=0.0)
    assert isinstance(stacked[0], ParticleCollision)
    assert (stacked[1].iterations, stacked[1].stop_reason) == (143,
                                                               "stalled")
    assert_same_trace(stacked[1], minimize_particles(
        Bump(2), 8, init="lattice", seed=0, max_iter=400, grad_tol=0.0))


def test_a_gas_whose_energy_freezes_stalls_and_still_vanishes():
    # a stall is a fixed point, so it counts as converged and the
    # frozen-expansion route reads the trace; were it not counted so, the
    # frozen gas would read as a settled radius
    trace = minimize_particles(Bump(2), 16, init="lattice", seed=0,
                               max_iter=2000, grad_tol=0.0)
    assert (trace.iterations, trace.stop_reason, trace.converged) == (
        222, "stalled", True)
    label, info = classify_trace(trace, return_details=True)
    assert (label, info["route"]) == ("vanishing", "frozen-expansion")
    assert classify_trace(dataclasses.replace(
        trace, converged=False)) == "tight"


class CountingMorse(Morse):
    """Morse profile counting its pair-energy and derivative evaluations."""

    def __init__(self, *args, pairs):
        super().__init__(*args)
        self.pairs = pairs
        self.energy_calls = 0
        self.derivative_calls = 0

    def __call__(self, radii):
        if np.shape(radii) == (self.pairs,):
            self.energy_calls += 1
        return super().__call__(radii)

    def derivative(self, radii):
        self.derivative_calls += 1
        return super().derivative(radii)


def test_descent_computes_each_configuration_once(monkeypatch):
    kernel_calls = []
    kernel = groundstate.pair_distances

    def counted(points):
        kernel_calls.append(points.shape)
        return kernel(points)

    monkeypatch.setattr(groundstate, "pair_distances", counted)
    n = 16
    potential = CountingMorse(2.0, 1.0, 1, pairs=n * (n - 1) // 2)
    trace = minimize_particles(potential, n, init="lattice", seed=0,
                               max_iter=200)
    # the collapse's energy is bit-constant from iteration 35 on
    assert (trace.iterations, trace.stop_reason) == (163, "stalled")
    # the start and every accepted step evaluate dW/dr once, and the
    # slope scale reuses the start's values
    assert potential.derivative_calls == trace.iterations + 1
    # one distance pass per configuration whose energy is evaluated: the
    # start, every trial step, every accepted (recentred) step
    assert len(kernel_calls) == potential.energy_calls
    assert potential.energy_calls > 2 * trace.iterations


def test_runs_of_one_family_give_each_start_its_lone_trace(monkeypatch):
    # one stack: a Morse run of two cells, a PowerLaw cell, a second Morse
    # run, a run of two-term GaussianMix cells and a one-term GaussianMix
    # cell, which has fewer run parameters
    calls, outcomes = spy_stacks(monkeypatch)
    cells = [Morse(0.5, 2.0, 2), Morse(1.0, 2.0, 2), PowerLaw(2.0, 1.0, 2),
             Morse(2.0, 1.0, 2), GaussianMix([(1.0, 1.0), (-1.5, 2.0)], 2),
             GaussianMix([(2.0, 1.0), (-1.0, 2.0)], 2),
             GaussianMix([(-0.5, 1.2)], 2)]
    starts = [start for w in cells
              for start in groundstate._cycled_starts(w, (0, 1))]
    assert run_forms([w for w, _, _ in starts]) == [
        (Morse, [cells[0]] * 2 + [cells[1]] * 2),
        (RadialPotential, [cells[2]] * 2), (Morse, [cells[3]] * 2),
        (GaussianMix, [cells[4]] * 2 + [cells[5]] * 2),
        (GaussianMix, [cells[6]] * 2)]
    stacked = groundstate._descend(8, starts, 300)
    assert [len(starts) for starts in calls] == [14]
    for (w, init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=300))


class CountingProxy:
    """Delegates to a potential, recording each W and dW/dr call and its
    number of radii."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, radii):
        self.calls.append(("W", np.size(radii)))
        return self.inner(radii)

    def derivative(self, radii):
        self.calls.append(("dW/dr", np.size(radii)))
        return self.inner.derivative(radii)


def test_a_proxy_in_a_stack_is_a_run_of_its_own_on_its_checked_calls(
        monkeypatch):
    # a proxy is not a Morse, so the engine gives it the default run, one
    # potential's checked calls, between two runs of Morse's forms
    cells = [Morse(0.5, 2.0, 2), CountingProxy(Morse(1.0, 2.0, 2)),
             Morse(2.0, 1.0, 2)]
    proxy = cells[1]
    starts = [start for w in cells
              for start in groundstate._cycled_starts(w, (0, 1, 2))]
    assert run_forms([w for w, _, _ in starts]) == [
        (Morse, [cells[0]] * 3), (RadialPotential, [proxy] * 3),
        (Morse, [cells[2]] * 3)]
    # the calls the proxy should see: per energy evaluation one W call,
    # per state one W and dW/dr call, each on the rows of its live starts
    expected = []
    energies, descent_state = (groundstate._energies,
                               groundstate._descent_state)

    def expect(groups, kinds):
        for _, members, _, _ in groups:
            if members[0].potential is proxy:
                expected.extend((kind, 28 * len(members)) for kind in kinds)

    def spied_energies(groups, configs):
        expect(groups, ["W"])
        return energies(groups, configs)

    def spied_state(groups, *args):
        expect(groups, ["W", "dW/dr"])
        return descent_state(groups, *args)

    monkeypatch.setattr(groundstate, "_energies", spied_energies)
    monkeypatch.setattr(groundstate, "_descent_state", spied_state)
    stacked = groundstate._descend(8, starts, 300)
    # the first call is preferred_spacing's grid of 400 radii
    assert proxy.calls[0] == ("W", 400)
    assert proxy.calls[1:] == expected
    assert ("W", 84) in expected and ("dW/dr", 84) in expected
    for (w, init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=300))


def test_the_readme_grid_makes_one_w_call_per_energy_evaluation(
        monkeypatch):
    # the twelve Morse cells of the README scan are one run of 36 starts:
    # each distance pass over the live starts feeds one call of the run's
    # evaluators, and the checked profiles evaluate W only for each cell's
    # preferred spacing
    calls, _ = spy_stacks(monkeypatch)
    passes, evaluations, profiles = [], [], []
    distances, run_profiles = groundstate._distances, Morse._run_profiles
    profile, derivative = Morse._profile, Morse._profile_derivative

    def spied_distances(groups, configs):
        passes.append(len(configs))
        return distances(groups, configs)

    def counted(evaluate, kind):
        def call(radii):
            evaluations.append((kind, len(radii)))
            return evaluate(radii)
        return call

    def spied_profiles(parameters):
        values, state = run_profiles(parameters)
        return counted(values, "W"), counted(state, "W and dW/dr")

    def spied_profile(self, radii):
        profiles.append("W")
        return profile(self, radii)

    def spied_derivative(self, radii):
        profiles.append("dW/dr")
        return derivative(self, radii)

    monkeypatch.setattr(groundstate, "_distances", spied_distances)
    monkeypatch.setattr(Morse, "_run_profiles", staticmethod(spied_profiles))
    monkeypatch.setattr(Morse, "_profile", spied_profile)
    monkeypatch.setattr(Morse, "_profile_derivative", spied_derivative)
    grid = [{"G": G, "L": L} for G in (0.25, 0.5, 1.0, 2.0)
            for L in (0.5, 1.0, 2.0)]
    rows = ground_state_scan(lambda G, L: Morse(G, L, 1), grid, n=16,
                             seeds=(0, 1, 2), with_stability=False)
    assert [len(starts) for starts in calls] == [36]
    assert not any(row.error for row in rows)
    assert [count for _, count in evaluations] == passes
    assert passes[0] == 36 and evaluations[0][0] == "W and dW/dr"
    assert 1000 < len(passes) < 3000
    assert profiles == ["W"] * 12


def test_an_overflowing_step_finds_none_before_its_candidate():
    # a spreading gas with no gradient stop keeps doubling its step on
    # subnormal energies until the doubled trial step is infinite: it
    # leaves there with no_step, and no NaN candidate is evaluated: that
    # warned "invalid value encountered in subtract"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = minimize_particles(GaussianMix([(1.0, 1.0)], 2), 16, seed=0,
                                   max_iter=3000, grad_tol=0.0)
    assert (trace.iterations, trace.stop_reason, trace.converged) == (
        1787, "no_step", False)
    assert float(trace.step_sizes[-1]) * 2.0 == math.inf
    assert np.all(np.isfinite(trace.final_config))
