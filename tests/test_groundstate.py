import math

from collections import deque

import numpy as np
import pytest
from conftest import Cliff
from scipy.spatial.distance import pdist, squareform

from groundlab import (GaussianMix, MinimizationTrace, Morse, PowerLaw,
                       Tabulated, classify_trace, geometry, ground_state_scan,
                       groundstate, minimize_particles, ruc_search)
from groundlab.errors import (InvariantViolation, NonDifferentiable,
                              ParticleCollision)
from groundlab.groundstate import _energy, _energy_and_gradient, \
    _quantile90, preferred_spacing


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


def test_scan_isolates_bad_cells():
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
        ruc_search(Morse(1.0, 2.0, 2), n_list=(8, 16))
    with pytest.raises(InvariantViolation):
        minimize_particles(Morse(1.0, 2.0, 2), 8)


def test_scan_tie_sides_with_the_best_energy_among_the_tied_labels(
        monkeypatch):
    labels = ["tight", "tight", "vanishing", "vanishing", "undecided"]
    energies = [-0.5, -0.4, -0.7, -0.3, -0.9]

    def fake_descend(potential, n, starts, max_iter, grad_tol=1e-8):
        return [MinimizationTrace(
            potential_label="fake", n=n, dimension=1, init=init, seed=seed,
            energies=np.array([0.0, energy]), q90_radii=np.ones(2),
            max_pair_distances=np.ones(2), step_sizes=np.zeros(2),
            final_config=np.zeros((n, 1)), converged=False)
            for (init, seed), energy in zip(starts, energies)]

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
        assert trace.converged == want.converged
        assert (trace.init, trace.seed) == (want.init, want.seed)


def test_a_colliding_start_leaves_the_stack_and_the_others_carry_on(
        monkeypatch):
    stacks = []
    engine = groundstate._descend_stack

    def spied(potential, n, starts, *args):
        stacks.append(len(starts))
        return engine(potential, n, starts, *args)

    monkeypatch.setattr(groundstate, "_descend_stack", spied)
    w = Cliff(1.0, 2.0, 2)
    starts = groundstate._cycled_starts((0, 1, 2))
    outcomes = groundstate._descend(w, 8, starts, 400)
    # one stack: the collision did not send the starts to run alone
    assert stacks == [3]
    # the two_cluster start collides at iteration 11, the others stop on
    # their own at iterations 64 and 58
    assert isinstance(outcomes[2], ParticleCollision)
    for (init, seed), trace in zip(starts[:2], outcomes):
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
    starts = groundstate._cycled_starts((0, 1, 2))
    outcomes = groundstate._descend(w, 8, starts, 400)
    assert isinstance(outcomes[2], ArithmeticError)
    for (init, seed), trace in zip(starts[:2], outcomes):
        assert_same_trace(trace, minimize_particles(w, 8, init=init,
                                                    seed=seed, max_iter=400))
    rows = ground_state_scan(lambda G: Brittle(G, 2.0, 2), [{"G": 1.0}],
                             n=8, seeds=(0, 1, 2), with_stability=False)
    assert [row.classification == "error" for row in rows] == [
        False, False, True, False]
    assert rows[2].error == "radius beyond 6.0"


def reference_descent(potential, n, init, seed, max_iter, grad_tol=1e-8):
    """The descent loop with one scipy ``pdist`` per trial energy, one for
    the gradient, one for the recorded largest pair distance and one more
    for the slope scale, and ``np.quantile`` for the q90 radius.  The
    production loop reuses one distance vector per configuration and must
    reproduce this one bit for bit."""
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

    config = groundstate._initial_config(potential, n, potential.dimension,
                                         init, seed)
    config = config - config.mean(axis=0)
    energy, grad = energy_and_gradient(config)
    d0 = terms(config)
    slope_scale = float(np.max(np.abs(potential.derivative(d0))))
    step = 1.0 / (n * slope_scale) if slope_scale > 0 else 1.0
    energies, radii, max_pd, steps = [energy], [q90(config)], \
        [float(np.max(d0))], [0.0]
    stride = max(1, max_iter // 128)
    snapshots = [(0, config.copy())]
    tail = deque(maxlen=129)
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
        if it % stride == 0:
            snapshots.append((it, config.copy()))
        tail.append((it, config.copy()))
    merged = dict(snapshots)
    merged.update(dict(tail))
    merged[len(energies) - 1] = config.copy()
    return {"energies": np.asarray(energies), "q90_radii": np.asarray(radii),
            "max_pair_distances": np.asarray(max_pd),
            "step_sizes": np.asarray(steps), "final_config": config,
            "snapshots": sorted(merged.items())}


@pytest.mark.parametrize("potential, n, init", [
    (Morse(2.0, 1.0, 1), 16, "lattice"),
    (Morse(2.0, 1.0, 1), 16, "random_ball"),
    (Morse(2.0, 1.0, 1), 16, "two_cluster"),
    (Morse(1.0, 2.0, 3), 16, "random_ball"),
    (PowerLaw(2.0, -0.5, 2), 16, "lattice"),  # W(0) = inf: no clamp
    (Morse(1.0, 2.0, 2), 64, "two_cluster"),
    # an expanding profile, and n not a power of two
    (Morse(0.5, 1.0, 2), 24, "random_ball"),
], ids=lambda v: getattr(v, "label", v))
def test_descent_reproduces_the_reference_loop_bit_for_bit(potential, n,
                                                           init):
    trace = minimize_particles(potential, n, init=init, seed=1, max_iter=300)
    want = reference_descent(potential, n, init, seed=1, max_iter=300)
    assert_same_trace(trace, want)

    # the same start in the middle of a stack with the other two inits
    others = [kind for kind in ("lattice", "random_ball", "two_cluster")
              if kind != init]
    starts = [(others[0], 2), (init, 1), (others[1], 0)]
    stacked = groundstate._descend(potential, n, starts, 300)
    assert_same_trace(stacked[1], want)
    assert stacked[1].converged == trace.converged
    for (kind, seed), got in zip(starts[::2], stacked[::2]):
        assert_same_trace(got, minimize_particles(
            potential, n, init=kind, seed=seed, max_iter=300))


def test_stacked_starts_stop_at_their_own_iterations():
    w = Morse(1.0, 2.0, 2)
    starts = groundstate._cycled_starts((0, 1, 2))
    stacked = groundstate._descend(w, 8, starts, 400)
    assert [trace.iterations for trace in stacked] == [64, 58, 318]
    for (init, seed), trace in zip(starts, stacked):
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
    starts = [("random_ball", 3), ("lattice", 0)]
    stacked = groundstate._descend(w, 64, starts, 200)
    assert ((2, 64, dimension) in gathered) == (not by_pdist)
    for (init, seed), trace in zip(starts, stacked):
        assert_same_trace(trace, reference_descent(w, 64, init, seed, 200))
        assert_same_trace(trace, minimize_particles(w, 64, init=init,
                                                    seed=seed, max_iter=200))


@pytest.mark.parametrize("n", (1, 2, 3, 4, 10, 11, 16, 64, 257))
def test_quantile90_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    # numpy interpolates from the upper end when the weight is >= 0.5; from
    # the lower end about one draw in eight rounds differently at n = 2..4
    for scale in (1e-12, 1.0, 1e3):
        for _ in range(50):
            values = scale * rng.exponential(size=n)
            assert _quantile90(values) == float(np.quantile(values, 0.9))
    ties = np.repeat([0.5, 2.0], (n + 1) // 2)[:n]
    assert _quantile90(ties) == float(np.quantile(ties, 0.9))
    with_nan = rng.exponential(size=n)
    with_nan[0] = math.nan
    assert math.isnan(_quantile90(with_nan))


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
    assert trace.iterations == 200
    # the start and every accepted step evaluate dW/dr once, and the
    # slope scale reuses the start's values
    assert potential.derivative_calls == trace.iterations + 1
    # one distance pass per configuration whose energy is evaluated: the
    # start, every trial step, every accepted (recentred) step
    assert len(kernel_calls) == potential.energy_calls
    assert potential.energy_calls > 2 * trace.iterations
