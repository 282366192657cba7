"""Each layer timed on its own, on fixed inputs (the same for every seed).

Cheap probes report the median of several repeats; the weighted scan and
the largest grid energy run once, because one repeat already takes
seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from groundlab import energy, groundstate, measures, stability
from groundlab.potentials import GaussianMix, Morse

MORSE_2D = Morse(1.0, 2.0, 2)
# the ROADMAP's scan prototype profile
SCAN_PROFILE = GaussianMix([(2.0, 1.0), (-1.0, 2.0)], 2)
# cells per radius of the uniform ball, small and large, per dimension;
# the large 3-d ball is the integral criterion's 255^3 FFT witness
GRID_SIZES = {1: (512, 2048), 2: (64, 128), 3: (32, 64)}
DESCENT_ITERATIONS = 200


def run(reference_time):
    """Probe times as measured, and the reference-loop times sampled before
    each repeat, from which run.py reads the probes' slowdown."""
    reference = []

    def _timed(fn, repeats=1):
        times = []
        for _ in range(repeats):
            reference.append(reference_time())
            start = perf_counter()
            fn()
            times.append(perf_counter() - start)
        return statistics.median(times)

    m = {}
    radii = np.logspace(-3, 3, 100_000)
    m["probe.w_vector_s"] = _timed(lambda: MORSE_2D(radii), 7)
    scalars = [float(r) for r in radii[::100]]
    m["probe.w_scalar_us"] = 1e6 * _timed(
        lambda: [MORSE_2D(r) for r in scalars], 3) / len(scalars)
    m["probe.space_integral_s"] = _timed(
        lambda: stability.space_integral(MORSE_2D), 3)
    p_grid = stability._default_p_grid()
    m["probe.weighted_scan_s"] = _timed(
        lambda: [stability.weighted_space_integral(SCAN_PROFILE, p)
                 for p in p_grid])
    xi_grid = stability._default_xi_grid()
    for n in (1, 2, 3):
        m[f"probe.fourier_transform_s.n{n}"] = _timed(
            lambda n=n: stability.radial_fourier_transform(
                Morse(1.0, 2.0, n), xi_grid))
    for n, sizes in GRID_SIZES.items():
        potential = Morse(1.0, 2.0, n)
        for size, cells in zip(("small", "large"), sizes):
            density = measures.uniform_ball_density(4.0, n, cells)
            repeats = 1 if density.values.size > 10**6 else 3
            m[f"probe.energy_grid_s.n{n}_{size}"] = _timed(
                lambda d=density: energy.energy_grid(
                    potential, d, quad_mode="radial_fast"), repeats)
    for n in (16, 64, 256):
        reference.append(reference_time())
        start = perf_counter()
        trace = groundstate.minimize_particles(
            MORSE_2D, n, init="lattice", seed=0,
            max_iter=DESCENT_ITERATIONS, grad_tol=0.0)
        m[f"probe.descent_ms_per_iter.n{n}"] = (
            1e3 * (perf_counter() - start) / max(trace.iterations, 1))
    return m, reference
