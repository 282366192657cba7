import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from groundlab import (EnergyReport, GaussianMix, Morse, PointCloudMeasure,
                       PowerLaw, Tabulated, check_ruc, cli, energy_grid,
                       energy_pointcloud, fourier_criterion,
                       gaussian_criterion, integral_criterion,
                       probe_hypotheses, radial,
                       radial_fourier_transform, ruc_search, space_integral,
                       stability, unit_sphere_area, weighted_space_integral)
from groundlab.errors import (NotAbsolutelyIntegrable, NotSquareIntegrable,
                             QuadratureFailure)
from conftest import CRITERION_ORDER, HE, REGRESSION_CASES


def closed_form_morse_integral(G, L, N):
    return unit_sphere_area(N) * math.gamma(N) * (1.0 - G * L**N)


def test_space_integral_morse_reference_value():
    got = space_integral(Morse(1.0, 2.0, 2))
    assert got == pytest.approx(-6.0 * math.pi, rel=1e-9)


def test_space_integral_matches_morse_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(5):
        G = float(rng.uniform(0.2, 3.0))
        L = float(rng.uniform(0.4, 2.5))
        N = int(rng.integers(1, 4))
        got = space_integral(Morse(G, L, N))
        assert got == pytest.approx(closed_form_morse_integral(G, L, N),
                                    rel=1e-8, abs=1e-8)


def test_space_integral_matches_gaussmix_closed_form():
    w = GaussianMix([(2.0, 0.7), (-1.2, 1.4)], 3)
    assert space_integral(w) == pytest.approx(w.space_integral(), rel=1e-8)


def test_no_certificate_at_positive_definite_morse_points():
    # W-hat = c_N [(1 + xi^2)^(-(N+1)/2) - G L^N (1 + L^2 xi^2)^(-(N+1)/2)]
    # is >= 0 on [0, inf) exactly when G L^N <= min(1, L^(N+1)): there every
    # measure has positive energy, whatever energy_grid says of a witness
    for N in (1, 2, 3):
        for L in (0.5, 1.5):
            for share in (0.97, 0.999):
                w = Morse(share * min(1.0, L ** (N + 1)) / L**N, L, N)
                for verdict in (integral_criterion(w, build_witness=True),
                                gaussian_criterion(w, build_witness=True),
                                fourier_criterion(w)):
                    assert verdict.outcome != HE, (w.label, verdict.criterion)


def test_space_integral_rejects_growing_or_heavy_tails():
    with pytest.raises(NotAbsolutelyIntegrable):
        space_integral(PowerLaw(2.0, 1.0, 1))
    # negative leading exponent still decays too slowly to integrate
    with pytest.raises(NotAbsolutelyIntegrable):
        space_integral(PowerLaw(-0.5, -0.9, 1))


def test_weighted_integral_closed_form_single_gaussian():
    # W = -exp(-s^2) in dimension 1: the p-weighted space integral is
    # -sqrt(pi / (1 + p^2))
    w = GaussianMix([(-1.0, 1.0)], 1)
    for p in (0.1, 1.0, 5.0):
        got = weighted_space_integral(w, p)
        assert got == pytest.approx(-math.sqrt(math.pi / (1.0 + p * p)),
                                    rel=1e-8)
    with pytest.raises(ValueError):
        weighted_space_integral(w, 0.0)


def test_weighted_integral_closed_form_mixture():
    terms = [(1.0, 0.5), (-0.4, 2.0)]
    w = GaussianMix(terms, 1)
    p = 0.8
    expect = sum(amp * math.sqrt(math.pi / (1.0 / width**2 + p * p))
                 for amp, width in terms)
    assert weighted_space_integral(w, p) == pytest.approx(expect, rel=1e-8)


def adaptive_weighted_integral(potential, p, quad_tol=1e-8):
    """Reference: the decade-by-decade adaptive quad with the same gates,
    one scalar quad call per segment, as radial integrals were computed
    before the fixed Gauss-Legendre rules."""
    n = potential.dimension

    def signed(r):
        return float(potential(r)) * math.exp(-(p * r) ** 2) * r ** (n - 1)

    def both(lo, hi):
        return (radial.segment(signed, lo, hi, quad_tol)[0],
                radial.segment(lambda r: abs(signed(r)), lo, hi,
                               quad_tol)[0])

    edges = radial.ORIGIN_EDGES
    near, masses = 0.0, []
    for upper, lower in zip(edges, edges[1:]):
        value, mass = both(lower, upper)
        near += value
        masses.append(sum(masses[-1:]) + mass)
    assert radial.origin_growth(masses) <= radial.ORIGIN_GROWTH
    far = 0.0
    for k in range(8):
        value, mass = both(10.0**k, 10.0 ** (k + 1))
        far += value
        if mass < max(quad_tol * 1e-2, 1e-12 * (1.0 + abs(far))):
            return unit_sphere_area(n) * (near + far)
    raise NotAbsolutelyIntegrable("reference tail did not converge")


def test_fixed_rules_agree_with_adaptive_quadrature():
    p_grid = [1e-3, 0.1, 1.0, 10.0, 1e3]
    problems = []
    for potential, _ in REGRESSION_CASES:
        scan = gaussian_criterion(potential, p_grid=p_grid,
                                  build_witness=False).details
        assert scan["p_values"] == [0.0] + p_grid
        single = [space_integral(potential)] + [
            weighted_space_integral(potential, p) for p in p_grid]
        for p, batched, alone in zip(scan["p_values"],
                                     scan["weighted_integrals"], single):
            if batched != alone:
                problems.append(f"{potential.label} p={p:g}: scan {batched!r} "
                                f"vs single {alone!r}")
            want = adaptive_weighted_integral(potential, p)
            for got in (batched, alone):
                if abs(got - want) > 1e-7 * (1.0 + abs(want)):
                    problems.append(f"{potential.label} p={p:g}: {got!r} "
                                    f"vs adaptive {want!r}")
    assert not problems, "\n".join(problems)


def gaussmix_weighted_closed_form(w, p, cutoff=0.0):
    """Integral of W(|x|) exp(-p^2 |x|^2) over |x| >= cutoff for a
    Gaussian mixture."""
    total = 0.0
    for amp, width in w.terms:
        c = 1.0 / width**2 + p * p
        tail = math.sqrt(math.pi) / (2.0 * math.sqrt(c)) * math.erfc(
            math.sqrt(c) * cutoff)
        radial_part = {1: tail,
                       2: math.exp(-c * cutoff**2) / (2.0 * c),
                       3: (cutoff * math.exp(-c * cutoff**2) + tail) / (2 * c)}
        total += amp * radial_part[w.dimension]
    return unit_sphere_area(w.dimension) * total


def test_gaussian_scan_matches_gaussmix_closed_form():
    for w, _ in REGRESSION_CASES:
        if not isinstance(w, GaussianMix):
            continue
        scan = gaussian_criterion(w, build_witness=False).details
        assert len(scan["p_values"]) == 201
        want = [gaussmix_weighted_closed_form(w, p) for p in scan["p_values"]]
        np.testing.assert_allclose(scan["weighted_integrals"], want,
                                   rtol=1e-10, atol=0.0, err_msg=w.label)


def test_gaussian_scan_drops_only_p_zero_for_heavy_tails(monkeypatch):
    # W ~ -2 r^-0.5 in the tail: the space integral diverges, every
    # Gaussian-weighted one converges
    w = PowerLaw(-0.5, -0.9, 1)
    calls = []
    monkeypatch.setattr(radial, "quad", lambda *args, **kwargs: (
        calls.append(args[1:3]) or quad(*args, **kwargs)))
    scan = gaussian_criterion(w, build_witness=False).details
    # r^-0.9 defeats the rule pair only on the floor [0, 1e-10], where
    # every factor is within 1e-14 of 1: all rows share one quad per part,
    # where each row used to make its own (402 calls)
    assert calls == [(0.0, 1e-10)] * 2
    assert "tail integral" in scan["p_zero_skipped"]
    assert scan["p_values"] == stability._default_p_grid().tolist()
    for k in (0, 100, 199):
        assert scan["weighted_integrals"][k] == pytest.approx(
            weighted_space_integral(w, scan["p_values"][k]), rel=1e-12)
    # the shared floor value is the unweighted integrand's, bit for bit
    parts = (radial.signed_part, radial.abs_part)
    read = stability._panels(w, stability.QUAD_TOL).integrals(
        parts, scales=[0.0, 1e3])
    values, failed = read(0.0, 1e-10)
    assert failed == {}
    assert values[:, 0].tolist() == values[:, 1].tolist() == [radial.segment(
        lambda r, part=part: part(w(r), r), 0.0, 1e-10,
        stability.QUAD_TOL)[0] for part in parts]


class CountingPotential:
    """Delegates to a potential, counting scalar and array W calls."""

    def __init__(self, inner):
        self.inner = inner
        self.scalar_calls = 0
        self.array_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, radii):
        if np.ndim(radii) == 0:
            self.scalar_calls += 1
        else:
            self.array_calls += 1
        return self.inner(radii)


def test_gaussian_scan_evaluates_w_only_as_arrays(monkeypatch):
    fallbacks, per_p = [], []
    segment = radial.segment
    monkeypatch.setattr(radial, "segment", lambda *args: (
        fallbacks.append(args[1:3]) or segment(*args)))
    weighted = stability.weighted_space_integral
    monkeypatch.setattr(stability, "weighted_space_integral", lambda *args: (
        per_p.append(args[1]) or weighted(*args)))
    # the second profile changes sign near r = 0.86
    for inner in (Morse(1.0, 2.0, 2), GaussianMix([(4.0, 2.0), (-7.0, 1.0)],
                                                   1)):
        potential = CountingPotential(inner)
        verdict = gaussian_criterion(potential, build_witness=False)
        assert verdict.outcome == HE
        assert potential.scalar_calls == 0
        assert 0 < potential.array_calls
        # the transform rows share the engine's nodes in the same way
        potential = CountingPotential(inner)
        fourier_criterion(potential)
        assert potential.scalar_calls == 0
    assert fallbacks == []
    assert per_p == []


def test_kinked_profile_integrates_exactly_on_its_knot_panels(monkeypatch):
    # the knots at r = 1 and 2 and the sign change at r = 0.5 are panel
    # edges, so every panel holds a linear piece and no segment goes to quad
    fallbacks = []
    segment = radial.segment
    monkeypatch.setattr(radial, "segment", lambda *args: (
        fallbacks.append(args[1:3]) or segment(*args)))
    w = Tabulated([0.0, 1.0, 2.0], [-1.0, 1.0, 0.0], 1)
    # 2 * (int_0^1 (2r - 1) dr + int_1^2 (2 - r) dr) = 1, to rounding
    assert space_integral(w) == pytest.approx(1.0, rel=0.0, abs=4e-16)
    assert fallbacks == []


def random_knots(n=200, top=10.0):
    """A Tabulated profile in N = 1 through ``n`` random values on evenly
    spaced knots over [0, top], the last value 0: about 100 kinks and 100
    sign changes."""
    knots = np.linspace(0.0, top, n)
    values = np.random.default_rng(0).normal(size=n)
    values[-1] = 0.0
    return Tabulated(knots, values, 1)


def piecewise_linear_transform(w, xi):
    """Closed form of 2 int_0^R W(r) cos(xi r) dr for a Tabulated profile
    in N = 1 whose first knot is 0 and whose last value is 0, summed piece
    by piece in extended precision."""
    r = w.knot_radii.astype(np.longdouble)
    v = w.knot_values.astype(np.longdouble)
    a, b = r[:-1], r[1:]
    slope = np.diff(v) / np.diff(r)
    out = []
    for f in np.asarray(xi, dtype=np.longdouble):
        if f == 0:
            out.append(np.sum((v[:-1] + v[1:]) * (b - a)))
            continue
        # int_a^b (v_a + slope (r - a)) cos(f r) dr
        body = (v[1:] * np.sin(f * b) - v[:-1] * np.sin(f * a)) / f
        body += slope * (np.cos(f * b) - np.cos(f * a)) / f**2
        out.append(2 * np.sum(body))
    return np.array(out, dtype=float)


def test_knots_are_panel_edges_and_sign_change_probes(recwarn, monkeypatch):
    # no kink lies inside a panel, so no rule pair disagrees: no quad call,
    # no IntegrationWarning, and sums exact to rounding
    calls = []
    monkeypatch.setattr(radial, "quad", lambda *args, **kwargs: (
        calls.append(args[1:3]) or quad(*args, **kwargs)))
    w = random_knots()
    v = w.knot_values
    exact = 2.0 * float(np.sum(0.5 * (v[:-1] + v[1:]) * np.diff(w.knot_radii)))
    assert abs(space_integral(w) - exact) <= 1e-12
    start = time.perf_counter()
    verdict = gaussian_criterion(w, build_witness=False)
    assert time.perf_counter() - start < 1.0
    assert verdict.numeric_value == pytest.approx(-0.23263047, abs=1e-8)
    xi = criterion_frequencies()
    assert 11.75 in xi
    got = radial_fourier_transform(w, xi)
    assert np.all(np.abs(got - piecewise_linear_transform(w, xi)) <= 1e-12)
    assert calls == []
    assert len(recwarn) == 0


def test_integral_criterion_three_outcomes():
    he = integral_criterion(Morse(1.0, 2.0, 2))
    assert he.outcome == "HE_satisfied"
    assert he.numeric_value == pytest.approx(-6.0 * math.pi, rel=1e-9)
    assert he.certificate is not None
    assert he.certificate.kind == "integral_value"

    stable = integral_criterion(GaussianMix([(1.0, 1.0)], 1))
    assert stable.outcome == "stable_indication"
    assert stable.numeric_value == pytest.approx(math.sqrt(math.pi),
                                                 rel=1e-9)
    assert stable.certificate is None

    border = integral_criterion(Morse(1.0, 1.0, 1))
    assert border.outcome == "inconclusive"
    assert abs(border.numeric_value) <= 1e-6


def test_integral_criterion_materializes_ball_density():
    verdict = integral_criterion(Morse(1.0, 2.0, 2), build_witness=True)
    cert = verdict.certificate
    assert cert.kind == "ball_density"
    assert cert.measure is not None
    assert cert.measure.total_mass == pytest.approx(1.0, abs=1e-12)
    assert cert.energy_report.value < 0.0
    # re-evaluating the stored density reproduces the certified energy
    again = energy_grid(Morse(1.0, 2.0, 2), cert.measure,
                        quad_mode="radial_fast")
    assert again.value == pytest.approx(cert.energy_report.value, rel=1e-9)


def test_gaussian_criterion_values_match_closed_form():
    w = GaussianMix([(-1.0, 1.0)], 1)
    verdict = gaussian_criterion(w, p_grid=[0.5, 1.0, 2.0],
                                 build_witness=False)
    assert verdict.outcome == "HE_satisfied"
    ps = verdict.details["p_values"]
    vals = verdict.details["weighted_integrals"]
    for p, v in zip(ps, vals):
        assert v == pytest.approx(-math.sqrt(math.pi / (1.0 + p * p)),
                                  rel=1e-8)


def test_gaussian_criterion_witness_energy_tracks_weighted_value():
    # the witness energy equals p^N / pi^{N/2} times the weighted integral
    # at the achieving p, up to grid truncation; for the single attractive
    # bump at p=1 both sides come to -1/sqrt(2)
    w = GaussianMix([(-1.0, 1.0)], 1)
    verdict = gaussian_criterion(w, p_grid=[1.0], build_witness=True)
    cert = verdict.certificate
    assert cert.kind == "gaussian_density"
    p = cert.info["p"]
    predicted = p / math.sqrt(math.pi) * weighted_space_integral(w, p)
    assert cert.energy_report.value == pytest.approx(predicted, rel=1e-2)
    assert cert.energy_report.value == pytest.approx(-1.0 / math.sqrt(2.0),
                                                     rel=1e-2)


def morse_fourier_transform(w, xi):
    """Closed form of the Morse transform: e^{-r/L} transforms to
    2L/(1+L^2 xi^2), 2 pi L^2/(1+L^2 xi^2)^{3/2} and 8 pi L^3/(1+L^2 xi^2)^2
    in N = 1, 2, 3."""
    def single(L):
        q = 1.0 + (L * xi) ** 2
        return {1: 2.0 * L / q, 2: 2.0 * math.pi * L**2 / q**1.5,
                3: 8.0 * math.pi * L**3 / q**2}[w.dimension]
    return single(1.0) - w.G * single(w.L)


def criterion_frequencies():
    """The frequencies fourier_criterion evaluates on its default grid."""
    grid = stability._default_xi_grid()
    return np.concatenate([grid, np.array([1.5, 2.0, 3.0]) * grid.max()])


def test_fourier_transform_matches_gaussmix_closed_form(monkeypatch):
    fallbacks = []
    segment = radial.segment
    monkeypatch.setattr(radial, "segment", lambda *args: (
        fallbacks.append(args[1:3]) or segment(*args)))
    xi = criterion_frequencies()
    for w in [w for w, _ in REGRESSION_CASES] + [Morse(0.5, 10.0, 2)]:
        want = (w.fourier_transform(xi) if isinstance(w, GaussianMix)
                else morse_fourier_transform(w, xi))
        np.testing.assert_allclose(radial_fourier_transform(w, xi), want,
                                   rtol=1e-12, atol=1e-13, err_msg=w.label)
    # every (row, segment) is read from the Filon panels
    assert fallbacks == []


def test_long_range_fourier_transforms_match_closed_form():
    # decay radii up to 131072: the panels follow exp(-r / L), whatever
    # the frequency
    xi = criterion_frequencies()
    for w in (Morse(0.5, 10.0, 1), Morse(0.5, 100.0, 1),
              Morse(0.5, 1000.0, 1), Morse(0.5, 100.0, 2),
              Morse(0.5, 100.0, 3)):
        want = morse_fourier_transform(w, xi)
        got = radial_fourier_transform(w, xi)
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want))), \
            w.label


def qawo_fourier_transform(potential, frequencies, quad_tol=1e-8):
    """Reference: one adaptive oscillatory-weighted quad (QAWO) per
    frequency over [0, R], as transforms were computed before the fixed
    rules.  N=1 is a cosine transform, N=3 a sine transform of W(r) r, and
    N=2 a cosine transform of the line projection of the profile, itself
    integrated on 400 fixed Gauss-Legendre nodes."""
    n = potential.dimension
    upper = stability._decay_radius(potential)
    x, w = np.polynomial.legendre.leggauss(200)
    split = min(1.0, upper / 2.0)
    nodes = np.concatenate([0.5 * split * (x + 1.0),
                            split + 0.5 * (upper - split) * (x + 1.0)])
    weights = np.concatenate([0.5 * split * w, 0.5 * (upper - split) * w])

    def projection(s):
        return 2.0 * float(np.dot(weights, potential(np.hypot(s, nodes))))

    def qawo(func, xi, weight):
        value, err = quad(func, 0.0, upper, weight=weight, wvar=xi,
                          limit=500, epsabs=quad_tol, epsrel=quad_tol)
        assert err <= max(quad_tol * 100, 5e-7 * (1.0 + abs(value)))
        return value

    out = []
    for xi in frequencies:
        if n == 1:
            out.append(2.0 * qawo(lambda r: float(potential(r)), xi, "cos"))
        elif n == 2:
            out.append(2.0 * qawo(projection, xi, "cos"))
        else:
            out.append(4.0 * math.pi / xi * qawo(
                lambda r: float(potential(r)) * r, xi, "sin"))
    return np.array(out)


def test_fourier_transform_agrees_with_adaptive_oscillatory_quadrature():
    # every third nonzero frequency, up to the last tail probe
    xi = criterion_frequencies()[1::3]
    problems = []
    for potential, _ in REGRESSION_CASES:
        got = radial_fourier_transform(potential, xi)
        want = qawo_fourier_transform(potential, xi)
        bad = np.abs(got - want) > 1e-9 * (1.0 + np.abs(want))
        problems += [f"{potential.label} xi={f:g}: {g!r} vs QAWO {v!r}"
                     for f, g, v in zip(xi[bad], got[bad], want[bad])]
    assert not problems, "\n".join(problems)


def test_sinc_kernel_matches_numpy_bit_for_bit():
    x = 10.0 ** np.random.default_rng(0).uniform(-18.0, 7.0, 200_000)
    want = np.sinc(x / math.pi)
    kernel = radial._FOURIER_KERNELS[3]
    assert np.array_equal(kernel(x), want)
    assert np.array_equal(kernel(x.reshape(400, 500)), want.reshape(400, 500))


def test_spherical_bessels_match_scipy():
    # the three branches (series, Miller's recurrence, upward recurrence)
    # and their joins at w = 1 and w = 20
    w = np.concatenate([np.geomspace(1e-30, 1e7, 20001),
                        np.nextafter([1.0, 20.0], 0.0), [1.0, 20.0]])
    want = spherical_jn(np.arange(20), w[:, None])
    envelope = np.minimum(1.0, 1.0 / w)[:, None]
    assert np.all(np.abs(radial._spherical_bessels(w) - want)
                  <= 1e-13 * envelope)


def test_fourier_panels_do_not_depend_on_the_frequency():
    # the panels are sized by W alone: a hundredfold faster grid costs no
    # W evaluation more
    xi = criterion_frequencies()[1:]
    counts = []
    for scale in (1.0, 100.0):
        w = RadiusRecording(1.0, 2.0, 3)
        radial_fourier_transform(w, scale * xi)
        counts.append(len(w.radii))
    assert counts[0] == counts[1]


def test_fourier_criterion_samples_its_panels_once(monkeypatch):
    builds, radii = [], []
    build = stability.Panels

    def recording(signed, *args):
        builds.append(args)
        return build(lambda r: radii.extend(r.tolist()) or signed(r), *args)

    monkeypatch.setattr(stability, "Panels", recording)
    verdict = fourier_criterion(GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1))
    # the grid, the tail probes and the polish share one set of nodes
    assert verdict.details["minimizing_xi"] not in verdict.details["xi_values"]
    assert len(builds) == 1
    assert len(radii) == len(set(radii)) > 0


class NodeRecording(GaussianMix):
    """GaussianMix profile that records every radius it is evaluated at,
    except while ``quiet``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.radii, self.quiet = [], False

    def _profile(self, radii):
        if not self.quiet:
            self.radii.extend(radii.ravel().tolist())
        return super()._profile(radii)


def test_fourier_criterion_reads_one_node_set(monkeypatch):
    # the W^2 gate, the space integral and the transform share one sampling
    # of W; sampled apart, they took 5,612 points for the first two and
    # 1,890 more for the transform.  The decay-radius probe, the witness
    # energies and the sign-change search are left out of the distinctness
    # check
    w = NodeRecording([(4.0, 2.0), (-7.0, 1.0)], 1)
    searched = []

    def quiet(fn):
        def wrapper(*args, **kwargs):
            w.quiet = True
            try:
                return fn(*args, **kwargs)
            finally:
                w.quiet = False
        return wrapper

    monkeypatch.setattr(stability, "_decay_radius",
                        quiet(stability._decay_radius))
    monkeypatch.setattr(stability, "energy_grid", quiet(stability.energy_grid))
    sign_changes = radial._sign_changes

    def counted(func, kinks):
        before = len(w.radii)
        out = sign_changes(func, kinks)
        searched.append(len(w.radii) - before)
        return out

    monkeypatch.setattr(radial, "_sign_changes", counted)
    verdict = fourier_criterion(w)
    assert verdict.outcome == HE
    assert len(searched) == 1
    nodes = w.radii[searched[0]:]
    assert len(nodes) == len(set(nodes)) > 0
    assert len(w.radii) < 5612 + 1890


def test_gaussian_factors_below_negligible_are_zero():
    x = np.linspace(0.0, 30.0, 3001)
    exact = np.exp(-np.square(x))
    got = radial._gaussian(x)
    small = exact < 1e-150
    assert small.any() and not small.all()
    assert np.all(got[small] == 0.0)
    assert np.array_equal(got[~small], exact[~small])


def dense_rule_sums(panels, parts, x):
    """The rule sums of every row over all nodes at once, exponentiating
    every (row, node) pair, as (2, segments, parts, rows)."""
    r, weights, values = (np.concatenate([a.ravel() for a in arrays])
                          for arrays in zip(*panels._rules))
    starts = np.concatenate([panels._starts * 10, (
        panels._edges.size - 1 + 2 * panels._starts) * 10])
    weighted = radial._flushed(np.stack([part(values, r) * weights
                                         for part in parts]))
    sums = np.add.reduceat(radial._gaussian(np.outer(x, r))[:, None]
                           * weighted, starts, axis=2)
    return sums.reshape(x.size, len(parts), 2, -1).transpose(2, 3, 1, 0)


def test_banded_rule_sums_equal_the_dense_sums_bit_for_bit():
    parts = (radial.signed_part, radial.abs_part)
    grid = stability._default_p_grid()
    unsorted = np.concatenate([[grid[150], 0.0],
                               np.random.default_rng(0).permutation(grid)])
    profiles = [w for w, _ in REGRESSION_CASES] + [
        PowerLaw(-0.5, -0.9, 1), PowerLaw(2.0, 1.0, 2)]
    for w in profiles:
        panels = stability._panels(w, stability.QUAD_TOL)
        for x in (np.concatenate([[0.0], grid]), unsorted):
            banded = panels._rule_sums(parts, x)
            dense = dense_rule_sums(panels, parts, x)
            assert np.array_equal(banded, dense, equal_nan=True), w.label
            assert np.array_equal(np.signbit(banded), np.signbit(dense)), \
                w.label


def test_the_band_edges_and_shifted_starts_keep_the_bits():
    # exp(-x^2) rounds to 1 up to x = 6.7e-9 and is flushed from 18.585
    x = np.linspace(0.0, radial._UNIT_BELOW, 200_001)
    assert np.all(radial._gaussian(np.concatenate([x, -x])) == 1.0)
    x = radial._ZERO_ABOVE + np.geomspace(1e-12, 1e3, 200_001)
    assert np.all(radial._gaussian(np.concatenate([
        [radial._ZERO_ABOVE], x, -x])) == 0.0)
    # a node sub-range summed with shifted starts gives the whole row's
    # segment sums
    panels = stability._panels(Morse(1.0, 2.0, 3), stability.QUAD_TOL)
    for r, weights, values, starts, _, _ in panels._runs:
        terms = radial._gaussian(np.outer([0.01, 0.7, 3.0], r)) * (
            values * weights)
        whole = np.add.reduceat(terms, starts, axis=1)
        for lo, hi in ((0, 4), (3, 11), (7, starts.size)):
            stop = starts[hi] if hi < starts.size else r.size
            band = np.add.reduceat(terms[:, starts[lo]:stop],
                                   starts[lo:hi] - starts[lo], axis=1)
            assert np.array_equal(band, whole[:, lo:hi])


def test_gaussian_scan_exponentiates_only_its_band(monkeypatch):
    w = Morse(0.25, 1.0, 1)
    panels = stability._panels(w, stability.QUAD_TOL)
    nodes = sum(run[0].size for run in panels._runs)
    counted, gaussian = [], radial._gaussian
    monkeypatch.setattr(radial, "_gaussian", lambda x: (
        counted.append(np.size(x)) or gaussian(x)))
    rows = []
    integrals = radial.Panels.integrals

    def counting(self, parts, scales=(0.0,)):
        rows.append(len(scales))
        return integrals(self, parts, scales)

    monkeypatch.setattr(radial.Panels, "integrals", counting)
    gaussian_criterion(w, build_witness=False)
    assert rows and sum(rows) >= 201
    assert sum(counted) < 0.7 * sum(rows) * nodes


def test_a_row_stopped_in_the_tail_falls_back_no_further(monkeypatch):
    # rules that never agree send every segment a row reads to the
    # fallback, which makes the origin piece converge and each row's
    # tail mass vanish at its decade stops[p]
    first_tail = radial._N_ORIGIN + 1
    stops = {0.02: 3, 0.3: 1}
    read = {p: set() for p in stops}

    def fallback(self, part, factor, x, s):
        read[x].add(s)
        if s < first_tail:
            return 10.0 ** (s - first_tail)
        return 1.0 if s < first_tail + stops[x] - 1 else 0.0

    monkeypatch.setattr(radial.Panels, "_fallback", fallback)
    w = Morse(1.0, 2.0, 2)
    _, masses, errors = stability._weighted(
        w, stability._panels(w, 1e-300), list(stops))
    assert errors == [None, None]
    assert [len(m) for m in masses] == list(stops.values())
    for p, n in stops.items():
        # p = 0.3 stops at 10, where its factors are still far from 0
        assert {s for s in read[p] if s >= first_tail} == set(
            range(first_tail, first_tail + n)), p


def test_one_row_readers_make_the_same_quad_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(radial, "quad", lambda *args, **kwargs: (
        calls.append(args[1:3]) or quad(*args, **kwargs)))
    # the singular floor of r^-0.9, then the divergent tail
    with pytest.raises(NotAbsolutelyIntegrable):
        space_integral(PowerLaw(-0.5, -0.9, 1))
    assert calls == [(0.0, 1e-10)] * 2
    calls.clear()
    # the growing tail's decade [1e3, 1e4] at this one p
    weighted_space_integral(PowerLaw(2.0, 1.0, 2), 10**-2.25)
    assert calls == [(1e3, 1e4)] * 2
    calls.clear()
    weighted_space_integral(PowerLaw(2.0, 1.0, 2), 10**-2.5)
    assert calls == []


def test_stable_indication_records_the_resolved_minimum():
    # below decision_tol the computed transform is rounding noise, so the
    # certificate's frequency is the closed form's minimizer above it
    xi = criterion_frequencies()
    for w in (GaussianMix([(1.0, 1.0)], 1), GaussianMix([(1.0, 1.0)], 2),
              GaussianMix([(1.0, 1.0), (-0.5, 1.0)], 1)):
        verdict = fourier_criterion(w)
        assert verdict.outcome == "stable_indication", w.label
        exact = w.fourier_transform(xi)
        resolved = np.abs(exact) > stability.DECISION_TOL
        low = np.argmin(exact[resolved])
        cert = verdict.certificate
        assert cert.info["xi"] == xi[resolved][low], w.label
        assert cert.info["resolved_max"] == xi[resolved].max(), w.label
        assert cert.certified_value == pytest.approx(exact[resolved][low],
                                                     rel=1e-9)
        # the verdict reports the resolved minimum, not the rounding noise
        # of the tail frequencies
        assert verdict.numeric_value == cert.certified_value > 0.0, w.label


def test_fourier_polish_finds_the_decay_radius_once(monkeypatch):
    calls = []
    decay_radius = stability._decay_radius

    def counting(potential):
        calls.append(potential.label)
        return decay_radius(potential)

    monkeypatch.setattr(stability, "_decay_radius", counting)
    w = GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1)
    verdict = fourier_criterion(w)
    xi_star = verdict.details["minimizing_xi"]
    assert xi_star not in verdict.details["xi_values"]  # it was polished
    assert len(calls) == 1
    # the shared radius and sign changes give the public transform's bits
    assert verdict.numeric_value == radial_fourier_transform(w, xi_star)


def test_only_radial_imports_scipy_integrate():
    source = Path(stability.__file__).parent
    importers = sorted(
        path.name for path in source.glob("*.py")
        if re.search(r"^\s*(from\s+scipy\.integrate\s+import|import\s+"
                     r"scipy\.integrate|from\s+scipy\s+import\s+.*\b"
                     r"integrate\b)", path.read_text(), re.MULTILINE))
    assert importers == ["radial.py"]


def test_w_is_integrated_only_on_the_radial_engine(monkeypatch):
    # the contact probe and the ball-radius search share the engine's
    # rules; neither runs an adaptive quad of its own on these profiles
    calls = []
    monkeypatch.setattr(radial, "quad", lambda *args, **kwargs: (
        calls.append(args[1:3]) or quad(*args, **kwargs)))
    for w in (Morse(1.0, 2.0, 1), Morse(1.0, 2.0, 2), Morse(1.0, 2.0, 3),
              GaussianMix([(2.0, 1.0), (-1.0, 2.0)], 2)):
        probe_hypotheses(w)
        verdict = integral_criterion(w, build_witness=True)
        assert verdict.certificate.kind == "ball_density"
    # its growing tail makes integral_criterion raise, so it is probed only
    probe_hypotheses(PowerLaw(2.0, -1.0, 3))
    assert calls == []


def test_fourier_transform_scalar_input_gives_scalar_output():
    w = GaussianMix([(1.0, 1.0)], 1)
    got = radial_fourier_transform(w, 2.0)
    assert np.asarray(got).shape == ()
    assert float(got) == pytest.approx(
        float(w.fourier_transform(np.array([2.0]))[0]), rel=1e-8)


def test_fourier_criterion_stable_for_positive_transform():
    verdict = fourier_criterion(GaussianMix([(1.0, 1.0)], 1))
    assert verdict.outcome == "stable_indication"
    assert verdict.certificate.kind == "transform_minimum"


def test_fourier_criterion_certifies_dip_with_modulated_density():
    w = GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1)
    verdict = fourier_criterion(w)
    assert verdict.outcome == "HE_satisfied"
    cert = verdict.certificate
    assert cert.kind == "modulated_density"
    assert cert.energy_report.value < 0.0
    # the dip sits near 1.42; the probed transform there is close to its
    # closed form
    xi_star = cert.info["xi"]
    assert 1.2 < xi_star < 1.7
    assert verdict.numeric_value == pytest.approx(
        float(w.fourier_transform(np.array([xi_star]))[0]), rel=1e-6)


def test_fourier_criterion_unverifiable_dip_stays_inconclusive():
    # same mixture in the plane: the transform dips below zero but no
    # witness verifies, so no verdict stronger than inconclusive is allowed
    verdict = fourier_criterion(GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 2))
    assert verdict.outcome == "inconclusive"
    assert verdict.certificate is None
    assert verdict.numeric_value < 0.0
    assert "witness_note" in verdict.details


def _count_radial_integrals(monkeypatch):
    """Records "panels" for each panel set built and, per row of the
    integrals read from one, "squared" when the integrand is W(r)^2
    r^{N-1} (the W^2 gate) and "signed" when it is W(r) r^{N-1} (the space
    integral is the row p = 0); the rows of |W| alone (the ball witness's
    masses) are not recorded."""
    calls = []
    build, integrals = stability.Panels, radial.Panels.integrals

    def building(*args):
        calls.append("panels")
        return build(*args)

    def counting(self, parts, *args, **kwargs):
        if parts[0] is radial.signed_part:
            calls.extend(["signed"] * len(kwargs.get("scales", [0.0])))
        elif parts[0] is not radial.abs_part:
            assert parts[0](-2.0, 1.0) == 4.0
            calls.append("squared")
        return integrals(self, parts, *args, **kwargs)

    monkeypatch.setattr(stability, "Panels", building)
    monkeypatch.setattr(radial.Panels, "integrals", counting)
    return calls


class RadiusRecording(Morse):
    """Morse profile that records every radius it is evaluated at."""

    def __init__(self, *args):
        super().__init__(*args)
        self.radii = []

    def _profile(self, radii):
        self.radii.extend(radii.tolist())
        return super()._profile(radii)


def test_space_integral_evaluates_each_radius_once():
    # the |W| masses come from the signed values at the same nodes
    w = RadiusRecording(1.0, 2.0, 2)
    assert space_integral(w) == pytest.approx(-6.0 * math.pi, rel=1e-9)
    assert len(w.radii) == len(set(w.radii))


def test_integral_criterion_integrates_once(monkeypatch):
    w = Morse(1.0, 2.0, 2)
    calls = _count_radial_integrals(monkeypatch)
    verdict = integral_criterion(w, build_witness=True)
    assert verdict.certificate.kind == "ball_density"
    assert calls == ["panels", "signed"]


def test_fourier_criterion_integrates_once(monkeypatch):
    w = GaussianMix([(1.0, 1.0), (-1.5, 2.0)], 1)
    calls = _count_radial_integrals(monkeypatch)
    fourier_criterion(w)
    assert calls == ["panels", "squared", "signed"]


def test_fourier_witnesses_built_only_when_evaluated(monkeypatch):
    counts = {"builds": 0, "evaluations": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gaussian_witness_density", "modulated_witness_density"):
        monkeypatch.setattr(stability, name,
                            counted(getattr(stability, name), "builds"))
    monkeypatch.setattr(stability, "energy_grid",
                        counted(stability.energy_grid, "evaluations"))
    verdict = fourier_criterion(GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1))
    assert verdict.outcome == HE
    assert 1 <= counts["builds"] <= counts["evaluations"]


def test_fourier_criterion_requires_square_integrability():
    with pytest.raises(NotSquareIntegrable):
        fourier_criterion(PowerLaw(2.0, 1.0, 1))


def test_check_ruc_holds_for_nonnegative_profiles():
    w = GaussianMix([(1.0, 1.0)], 1)
    config = PointCloudMeasure.empirical([[0.0], [0.5], [1.2]])
    result = check_ruc(w, config, B=0.0)
    assert result.holds
    assert result.n == 3


def test_check_ruc_detects_collapse_violation():
    w = GaussianMix([(-1.0, 1.0)], 1)
    pts = np.arange(8.0)[:, None] * 1e-6
    result = check_ruc(w, PointCloudMeasure.empirical(pts), B=1.0)
    # 28 pairs at W ~ -1 give about -0.4375, far below -1/8
    assert not result.holds
    assert result.value == pytest.approx(-28.0 / 64.0, rel=1e-4)
    assert result.bound == pytest.approx(-1.0 / 8.0)


def test_check_ruc_input_guards():
    w = GaussianMix([(1.0, 1.0)], 1)
    with pytest.raises(ValueError):
        check_ruc(w, PointCloudMeasure([[0.0], [1.0]], [0.3, 0.7]), B=1.0)
    with pytest.raises(ValueError):
        check_ruc(w, PointCloudMeasure.empirical([[0.0], [0.0]]), B=1.0)


def test_ruc_search_flags_catastrophic_attraction():
    verdict = ruc_search(Morse(2.0, 1.0, 1), n_list=(8, 16, 32),
                         seeds=(0, 1), optimizer_budget=300)
    assert verdict.outcome == "HE_satisfied"
    assert verdict.numeric_value < -0.01
    cert = verdict.certificate
    assert cert.kind == "point_configuration"
    assert cert.energy_report.value < 0.0
    # certified configuration re-evaluates to the stored energy
    again = energy_pointcloud(Morse(2.0, 1.0, 1), cert.measure)
    assert again.value == pytest.approx(cert.energy_report.value, rel=1e-12)


def test_ruc_search_needs_a_negative_certificate(monkeypatch):
    # a negative fitted asymptote alone does not make HE_satisfied: the
    # configuration's energy must re-evaluate negative too
    positive = energy_pointcloud(GaussianMix([(1.0, 1.0)], 1),
                                 PointCloudMeasure.empirical([[0.0], [1.0]]))
    monkeypatch.setattr(stability, "energy_pointcloud",
                        lambda *args, **kwargs: positive)
    verdict = ruc_search(Morse(2.0, 1.0, 1), n_list=(8, 16, 32),
                         seeds=(0, 1), optimizer_budget=300)
    assert verdict.numeric_value < -0.01
    assert verdict.outcome == "inconclusive"
    assert verdict.certificate is None
    assert "is not" in verdict.details["certificate_note"]


def test_ruc_search_certifies_the_energy_of_its_own_measure():
    # W(0) = 0.5 > 0: the best 8-atom configuration's pair sum is negative,
    # but its empirical measure's energy, diagonal included, is not, so
    # there is no certificate
    w = Morse(0.5, 1.5, 3)
    assert w.value_at_zero == 0.5
    verdict = ruc_search(w)
    assert verdict.numeric_value < -1e-3
    assert verdict.outcome == "inconclusive"
    assert verdict.certificate is None
    note = verdict.details["certificate_note"]
    assert "is not" in note
    assert float(note.split("energy ")[1].split()[0]) > 0.0


def test_integral_criterion_without_a_verified_ball_is_inconclusive(
        tmp_path, monkeypatch):
    # a negative integral alone does not make HE_satisfied with witnesses
    # on: a ball must verify, else the verdict is inconclusive, as in the
    # Gaussian and Fourier criteria, and the CLI writes it as a verdict
    positive = EnergyReport(1.0, 0.0, 0, "stub", "grid-radial_fast")
    monkeypatch.setattr(stability, "energy_grid",
                        lambda *args, **kwargs: positive)
    verdict = integral_criterion(Morse(1.0, 2.0, 2), build_witness=True)
    assert verdict.outcome == "inconclusive"
    assert verdict.numeric_value == pytest.approx(-6.0 * math.pi, rel=1e-9)
    assert verdict.certificate is None
    assert "no ball witness" in verdict.details["witness_note"]

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "command": "stability", "criteria": ["integral"],
        "potential": {"family": "morse", "G": 1.0, "L": 2.0,
                      "dimension": 2},
        "output_dir": str(tmp_path / "out")}))
    assert cli.main(["stability", "--config", str(config)]) == 0
    [entry] = json.loads(
        (tmp_path / "out" / "verdicts.json").read_text())["verdicts"]
    assert "skipped" not in entry
    assert entry["outcome"] == "inconclusive"
    assert entry["certificate"] is None
    assert entry["details"]["witness_note"] == verdict.details["witness_note"]


def test_gaussian_criterion_without_a_verified_gaussian_is_inconclusive(
        monkeypatch):
    # the scan minimum is negative, but no rung of the Gaussian ladder
    # verifies, so the verdict keeps the minimum and carries no certificate
    p_grid = [0.1, 0.2, 0.5, 1.0]
    w = Morse(1.0, 2.0, 2)
    scan = gaussian_criterion(w, p_grid, build_witness=False)
    assert scan.outcome == "HE_satisfied"
    tried = []
    positive = EnergyReport(1.0, 0.0, 0, "stub", "grid-radial_fast")

    def stub(potential, density, **kwargs):
        tried.append(density)
        return positive

    monkeypatch.setattr(stability, "energy_grid", stub)
    verdict = gaussian_criterion(w, p_grid)
    assert verdict.outcome == "inconclusive"
    assert verdict.certificate is None
    assert verdict.numeric_value == scan.numeric_value
    assert verdict.details["witness_note"] == ("no Gaussian witness "
                                               "verified negative energy")
    assert tried


def test_a_witness_whose_energy_fails_is_skipped_for_the_next_rung(
        monkeypatch):
    # the first ball's energy quadrature fails; the ladder goes on to the
    # next scale, whose certificate is the one an unpatched run computes
    w = Morse(1.0, 2.0, 2)
    plain = integral_criterion(w, build_witness=True)
    assert plain.certificate.info["n_scale"] == 4
    real, calls = stability.energy_grid, []

    def failing_first(potential, density, **kwargs):
        calls.append(density)
        if len(calls) == 1:
            raise QuadratureFailure("stub: first rung fails")
        return real(potential, density, **kwargs)

    monkeypatch.setattr(stability, "energy_grid", failing_first)
    verdict = integral_criterion(w, build_witness=True)
    assert verdict.outcome == "HE_satisfied"
    assert len(calls) == 2
    cert = verdict.certificate
    assert cert.info["n_scale"] == 8
    assert cert.measure is calls[1]
    assert cert.energy_report == real(w, calls[1], quad_mode="radial_fast")
    assert cert.certified_value == cert.energy_report.value < 0.0
    assert "witness_note" not in verdict.details


@pytest.mark.parametrize("w", [Morse(1.0, 2.0, 1), Morse(0.25, 1.0, 1)],
                         ids=["aggregating", "stable"])
def test_fourier_criterion_refuses_negative_frequencies(w):
    # the Filon rows are wrong at negative frequencies: Morse(1, 2, 1) read
    # -3593.9 at xi = -16 (0.00388 at +16) and certified HE_satisfied
    with pytest.raises(ValueError, match="frequencies must be nonnegative"):
        fourier_criterion(w, xi_grid=np.linspace(-16.0, 0.0, 65))


def test_ruc_search_bounded_for_weak_attraction():
    # with the default sizes and budget the fitted asymptote is tiny; a
    # truncated scan (fewer sizes, budget 300) drifts up to about 1e-3
    verdict = ruc_search(Morse(0.25, 1.0, 1))
    assert verdict.outcome == "stable_indication"
    assert abs(verdict.numeric_value) < 1e-3
    assert verdict.certificate is None


def test_ruc_search_more_budget_never_hurts():
    short = ruc_search(Morse(2.0, 1.0, 1), n_list=(8, 16), seeds=(0,),
                       optimizer_budget=40)
    long = ruc_search(Morse(2.0, 1.0, 1), n_list=(8, 16), seeds=(0,),
                      optimizer_budget=400)
    for a, b in zip(long.details["per_pair_minima"],
                    short.details["per_pair_minima"]):
        assert a <= b + 1e-12


def test_verdict_serialization():
    verdict = integral_criterion(Morse(1.0, 2.0, 2), build_witness=True)
    data = verdict.to_dict(certificate_path="certificate_integral.json")
    assert data["criterion"] == "integral"
    assert data["outcome"] == "HE_satisfied"
    assert data["certificate"]["kind"] == "ball_density"
    assert data["certificate_path"] == "certificate_integral.json"
    # json-safe: no numpy scalars or arrays anywhere
    import json
    json.dumps(data)


def test_regression_battery_outcomes(regression_verdicts):
    problems = []
    for potential, expected, verdicts in regression_verdicts:
        for name, want in zip(CRITERION_ORDER, expected):
            got = verdicts[name].outcome
            if got != want:
                problems.append(f"{potential.label} {name}: {got} != {want}")
    assert not problems, "\n".join(problems)


def test_regression_battery_certificates_are_sound(regression_verdicts):
    for potential, _, verdicts in regression_verdicts:
        for name in CRITERION_ORDER:
            verdict = verdicts[name]
            if verdict.outcome != HE:
                continue
            cert = verdict.certificate
            assert cert is not None, f"{potential.label} {name}"
            assert cert.measure is not None, f"{potential.label} {name}"
            assert cert.energy_report.value < 0.0, \
                f"{potential.label} {name}"


def test_regression_battery_verdicts_never_contradict(regression_verdicts):
    # a certified negative-energy measure must never coexist with a
    # stability indication from the transform criterion on the same
    # potential
    for potential, _, verdicts in regression_verdicts:
        has_witness = any(
            verdicts[name].outcome == HE
            and verdicts[name].certificate is not None
            and verdicts[name].certificate.measure is not None
            for name in CRITERION_ORDER)
        if has_witness:
            assert verdicts["fourier"].outcome != "stable_indication", \
                potential.label
