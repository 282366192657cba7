import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from groundlab import (GaussianMix, HypothesisReport, Morse, PowerLaw,
                       Tabulated, groundstate, probe_hypotheses, radial)
from groundlab.errors import DimensionUnsupported, NonDifferentiable
from groundlab.potentials import RadialPotential


def test_powerlaw_values_and_derivative():
    w = PowerLaw(2.0, 1.0, 1)
    s = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(w(s), s**2 / 2.0 - s, rtol=1e-15)
    np.testing.assert_allclose(w.derivative(s), s - 1.0, rtol=1e-15)
    assert w(1.0) == pytest.approx(-0.5)
    assert w.value_at_zero == 0.0
    assert w.tail_class == "H3a"


def test_powerlaw_singular_contact():
    w = PowerLaw(2.0, -1.0, 3)
    assert w.value_at_zero == math.inf
    assert w(0.0) == math.inf
    # s**2/2 + 1/s
    assert w(2.0) == pytest.approx(2.0 + 0.5)


def test_powerlaw_parameter_guards():
    with pytest.raises(ValueError):
        PowerLaw(1.0, 2.0, 1)           # needs r < a
    with pytest.raises(ValueError):
        PowerLaw(2.0, -1.0, 1)          # needs r > -N
    with pytest.raises(ValueError):
        PowerLaw(2.0, 0.0, 1)           # zero exponent divides by zero
    with pytest.raises(DimensionUnsupported):
        PowerLaw(2.0, 1.0, 4)


def test_morse_values():
    w = Morse(3.0, 2.0, 2)
    s = np.array([0.3, 1.7])
    np.testing.assert_allclose(w(s), np.exp(-s) - 3.0 * np.exp(-s / 2.0),
                               rtol=1e-15)
    np.testing.assert_allclose(
        w.derivative(s), -np.exp(-s) + 1.5 * np.exp(-s / 2.0), rtol=1e-15)
    assert w.value_at_zero == pytest.approx(-2.0)
    assert w.tail_class == "H3b"
    with pytest.raises(ValueError):
        Morse(-0.1, 1.0, 1)
    with pytest.raises(ValueError):
        Morse(1.0, 0.0, 1)


def test_morse_unit_range_degenerates_to_single_exponential():
    assert Morse(2.0, 1.0, 1)(0.7) == pytest.approx(-math.exp(-0.7))
    assert Morse(0.25, 1.0, 1)(0.7) == pytest.approx(0.75 * math.exp(-0.7))


def test_gaussmix_values_and_closed_forms():
    w = GaussianMix([(2.0, 1.0), (-0.5, 3.0)], 2)
    s = np.array([0.0, 1.0, 4.0])
    expect = 2.0 * np.exp(-s**2) - 0.5 * np.exp(-(s / 3.0) ** 2)
    np.testing.assert_allclose(w(s), expect, rtol=1e-15)
    assert w.value_at_zero == pytest.approx(1.5)
    assert w.space_integral() == pytest.approx(
        2.0 * math.pi - 0.5 * math.pi * 9.0, rel=1e-15)
    xi = np.array([0.0, 2.0])
    ft = (2.0 * math.pi * np.exp(-xi**2 / 4.0)
          - 4.5 * math.pi * np.exp(-9.0 * xi**2 / 4.0))
    np.testing.assert_allclose(w.fourier_transform(xi), ft, rtol=1e-14)
    with pytest.raises(ValueError):
        GaussianMix([(1.0, 0.0)], 1)
    with pytest.raises(ValueError):
        GaussianMix([], 1)


def _oracle_profiles(w, radii):
    """W and dW/dr by each family's plain expressions, one temporary per
    operation."""
    if isinstance(w, Morse):
        minus = -radii
        return (np.exp(minus) - w.G * np.exp(minus / w.L),
                -np.exp(minus) + (w.G / w.L) * np.exp(minus / w.L))
    if isinstance(w, PowerLaw):
        with np.errstate(divide="ignore", invalid="ignore"):
            values = radii ** w.a / w.a - radii ** w.r / w.r
            slopes = radii ** (w.a - 1.0) - radii ** (w.r - 1.0)
        values[radii == 0.0] = math.inf if w.r < 0 else 0.0
        return values, slopes
    values, slopes = np.zeros_like(radii), np.zeros_like(radii)
    for amp, width in w.terms:
        values += amp * np.exp(-((radii / width) ** 2))
        slopes += (amp * (-2.0 * radii / width**2)
                   * np.exp(-((radii / width) ** 2)))
    return values, slopes


@pytest.mark.parametrize("w", [
    Morse(2.0, 1.0, 1), Morse(1.0, 2.0, 2), Morse(0.25, 0.5, 1),
    Morse(0.5, 3.0, 3),
    PowerLaw(2.0, 1.0, 1), PowerLaw(2.0, -0.5, 2), PowerLaw(2.0, 0.5, 1),
    PowerLaw(3.0, -2.0, 3), PowerLaw(-0.5, -1.5, 2),
    GaussianMix([(1.0, 1.0)], 1), GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1),
    GaussianMix([(1.0, 1.0), (-0.3, 1.5)], 3),
], ids=lambda w: w.label)
def test_profiles_are_bit_for_bit_the_plain_expressions(w):
    rng = np.random.default_rng(3)
    for scale in (1e-6, 1.0, 30.0, 300.0):
        radii = np.concatenate(([0.0, 1e-10, 1.0, scale],
                                scale * rng.exponential(size=997)))
        values, slopes = _oracle_profiles(w, radii)
        assert np.array_equal(w(radii), values)
        assert np.array_equal(w.derivative(radii[1:]), slopes[1:])


class BlindBelowMicron(Morse):
    """Morse profile that reads NaN below r = 1e-6."""

    def _profile(self, radii):
        return np.where(radii < 1e-6, np.nan, super()._profile(radii))


RUNS = [
    [Morse(2.0, 1.0, 1), Morse(1.0, 2.0, 1), Morse(0.25, 0.5, 1),
     Morse(0.0, 3.0, 1), Morse(1.7, 0.3, 1)],
    [Morse(0.5, 3.0, 3)],
    [GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1),
     GaussianMix([(1.0, 1.0), (-0.3, 1.5)], 1)],
    [GaussianMix([(1.0, 1.0)], 2)],
    # the default run of one potential: its checked calls
    pytest.param([PowerLaw(2.0, 1.0, 2)], id="powerlaw-growing"),
    pytest.param([PowerLaw(2.0, -0.5, 2)], id="powerlaw-singular"),
    pytest.param([BlindBelowMicron(1.0, 2.0, 2)], id="morse-subclass"),
]


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run[0].family
                         + f"x{len(run)}")
def test_run_forms_are_bit_for_bit_the_checked_calls(run):
    # the descent engine evaluates a run of one family's potentials in one
    # call on (rows, pairs) radii, and W with dW/dr from the same
    # exponentials; the large radii underflow them to zero.  The forms
    # are the engine's pick: a family's own only for exactly Morse or
    # GaussianMix, else the default run of one potential
    rng = np.random.default_rng(11)
    radii = np.concatenate(([1e-10, 1.0, 800.0, 1e3, 1e5],
                            10.0 ** rng.uniform(-10, 3, size=1995)))
    rows = np.stack([rng.permutation(radii) for _ in run])
    starts = [groundstate._Start(row, w, math.isfinite(w.value_at_zero),
                                 None, None) for row, w in enumerate(run)]
    (_, members, values, state), = groundstate._groups(starts)
    assert members == starts
    assert starts[0].forms is (type(run[0]) if type(run[0]) in (
        Morse, GaussianMix) else RadialPotential)
    fused = state(rows)
    assert [part.shape for part in fused] == [rows.shape] * 2
    for w, got, got_fused, got_slopes, row in zip(run, values(rows), *fused,
                                                  rows):
        assert np.array_equal(got, w(row), equal_nan=True)
        assert np.array_equal(got_fused, w(row), equal_nan=True)
        assert np.array_equal(got_slopes, w.derivative(row))


def test_tabulated_interpolation_and_edges():
    w = Tabulated([0.0, 1.0, 2.0], [3.0, 1.0, 0.0], 1)
    assert w(0.5) == pytest.approx(2.0)
    assert w(1.5) == pytest.approx(0.5)
    assert w(5.0) == 0.0                 # beyond the last knot
    assert w.value_at_zero == pytest.approx(3.0)
    assert w.continuous_tail_junction
    clamped = Tabulated([1.0, 2.0], [4.0, 0.0], 1)
    assert clamped(0.2) == pytest.approx(4.0)   # held at the first value
    with pytest.raises(NonDifferentiable):
        w.derivative(1.0)
    with pytest.raises(ValueError):
        Tabulated([0.0, 0.0], [1.0, 2.0], 1)    # radii must increase
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [1.0], 1)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        Morse(1.0, 1.0, 1)(-0.1)
    with pytest.raises(ValueError):
        Morse(1.0, 1.0, 1).derivative(0.0)


def test_probe_local_integral_powerlaw_singular():
    # |W| = r**2/2 + 1/r near zero in dimension 3: the weighted integral
    # over the unit ball is 4*pi*(1/10 + 1/2)
    report = probe_hypotheses(PowerLaw(2.0, -1.0, 3))
    assert report.local_integrability == "holds"
    assert report.local_integral == pytest.approx(4.0 * math.pi * 0.6,
                                                  rel=1e-6)
    assert report.tail_class == "H3a"
    assert report.lower_semicontinuity == "holds-by-construction"


def test_probe_exponent_constraint_keeps_contact_integrable():
    # the -N < r constraint caps the contact singularity strictly below
    # 1/r**N, so even the most singular admissible profile integrates
    report = probe_hypotheses(PowerLaw(1.0, -0.95, 1))
    assert report.local_integrability == "holds"
    report = probe_hypotheses(PowerLaw(2.0, -1.9, 2))
    assert report.local_integrability == "holds"
    report = probe_hypotheses(Tabulated([0.0, 1.0], [1.0, 0.0], 1))
    assert report.local_integrability == "holds"


def test_probe_inconclusive_when_contact_quadrature_fails(monkeypatch):
    # the five cutoffs down to 1e-6 give estimates; the segment below
    # fails and stops the refinement after one fallback quadrature
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    original = radial.quad
    monkeypatch.setattr(radial, "quad", counting)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = probe_hypotheses(BlindBelowMicron(1.0, 2.0, 2))
    assert calls == [(1e-7, 1e-6)]
    assert [w.category for w in caught] == [IntegrationWarning]
    assert report.local_integrability == "inconclusive"
    assert len(report.decade_estimates) == 5
    assert report.local_integral == report.decade_estimates[-1]
    # 2 pi int_0^1 (exp(-r/2) - exp(-r)) r dr, less 1e-18 below 1e-6
    want = 2.0 * math.pi * (3.0 - 6.0 * math.exp(-0.5) + 2.0 * math.exp(-1.0))
    assert report.local_integral == pytest.approx(want, rel=1e-12)


def test_probe_tail_and_infimum_powerlaw():
    report = probe_hypotheses(PowerLaw(2.0, 1.0, 1))
    assert report.tail_class == "H3a"
    # min of s**2/2 - s sits at s=1 with value -1/2
    assert report.profile_infimum == pytest.approx(-0.5, abs=1e-9)
    assert report.infimum_radius == pytest.approx(1.0, abs=1e-6)


def test_probe_tail_morse_and_infimum_near_contact():
    report = probe_hypotheses(Morse(2.0, 1.0, 1))
    assert report.tail_class == "H3b"
    # -exp(-s) decreases toward contact; the infimum estimate sits at the
    # smallest probed radius with value close to -1
    assert report.profile_infimum == pytest.approx(-1.0, abs=1e-6)
    assert report.infimum_radius < 1e-6


def test_probe_tabulated_tail_jump_flags_semicontinuity():
    jumpy = Tabulated([0.0, 1.0], [2.0, 1.0], 1)
    report = probe_hypotheses(jumpy)
    assert report.lower_semicontinuity == "not-checked"
    assert report.tail_class == "H3b"


def test_probe_report_round_trips_to_dict():
    report = probe_hypotheses(GaussianMix([(1.0, 1.0)], 2))
    data = json.loads(json.dumps(asdict(report)))
    assert list(data) == [f.name for f in fields(HypothesisReport)]
    assert data["tail_class"] == "H3b"
    assert data["local_integrability"] == "holds"
    assert len(data["decade_estimates"]) >= 2
    assert all(len(pair) == 2 for pair in data["tail_probes"])
