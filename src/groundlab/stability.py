"""Stability analysis: does some probability measure have nonpositive energy?

Four routes, each sufficient but not necessary, each producing a
:class:`StabilityVerdict`:

* :func:`integral_criterion` -- sign of the space integral of the potential.
* :func:`gaussian_criterion` -- sign of Gaussian-weighted space integrals,
  scanned over the concentration parameter; extends the integral test to
  profiles with heavy tails.
* :func:`fourier_criterion` -- sign scan of the radial Fourier transform;
  a negative minimum prompts construction of a frequency-concentrated
  density whose energy is then verified directly.
* :func:`check_ruc` / :func:`ruc_search` -- per-pair energy bounds over
  finite particle configurations, with an asymptotic fit in the particle
  count.

A verdict of ``HE_satisfied`` is always backed by a certificate: either a
certified negative integral/scan value, or an explicit measure whose energy
re-evaluates negative.  Every witness ladder (ball, Gaussian, modulated)
becomes its verdict on one path, :func:`_verified`, which builds the
candidates lazily and returns ``HE_satisfied`` with the first one whose
energy is negative, or else ``inconclusive`` with a ``witness_note`` in its
details.  Every witness energy comes from
:func:`groundlab.energy.energy_grid`, the one grid-energy path, and every
polish of a scan minimum (the Gaussian near-zero polish, the transform
minimum) from :func:`groundlab.potentials._polished`, the one scalar
minimizer.
``stable_indication`` records the scanned domain and never claims a proof.
Every radial integral of a criterion call reads one panel set of W(r)
r^{N-1} (:class:`groundlab.radial.Panels`): the space integral is the row
p = 0 of the Gaussian-weighted scan, whose rows and polish all read the
same samples; the ball witness reads its |W| masses between powers of two
from the space integral's; and :func:`fourier_criterion` reads its W^2
gate, its space integral and its Filon transform, with the kernels cos,
J_0 and sin(x)/x of dimensions 1, 2 and 3, from one sampling, every
frequency and the polish included.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .energy import EnergyReport, energy_grid, energy_pointcloud
from .errors import (NotAbsolutelyIntegrable, NotSquareIntegrable,
                     OptimizerStalled, QuadratureFailure)
from .geometry import pair_distances, unit_sphere_area
from .measures import (PointCloudMeasure, gaussian_witness_density,
                       modulated_witness_density, uniform_ball_density)
from .potentials import RadialPotential, _locate_infimum, _polished
from .radial import BOUNDS, Panels, abs_part, gated, signed_part

__all__ = [
    "Certificate",
    "StabilityVerdict",
    "RucCheck",
    "space_integral",
    "weighted_space_integral",
    "radial_fourier_transform",
    "integral_criterion",
    "gaussian_criterion",
    "fourier_criterion",
    "check_ruc",
    "ruc_search",
]

QUAD_TOL = 1e-8
DECISION_TOL = 1e-6

_BALL_CELL_CAP = {1: 4096, 2: 512, 3: 64}
_BALL_SCALES = (4, 8, 16, 32)
# the ball witness reads the |W| mass between consecutive powers of two
_BALL_RADII = [2.0**k for k in range(25)]
# largest radius the doubling scan of _decay_radius reaches
_DECAY_RADIUS_CAP = 1e5
# ruc_search certifies only a fitted asymptote below -_CATASTROPHIC_TOL
_CATASTROPHIC_TOL = 1e-3


@dataclass(frozen=True)
class Certificate:
    """Evidence backing a verdict.

    kind is one of 'integral_value', 'weighted_minimum',
    'transform_minimum', 'ball_density', 'gaussian_density',
    'modulated_density', 'point_configuration'.  measure and energy_report
    are present for the materialized kinds; certified_value is the decisive
    number (integral, weighted minimum, transform minimum, or the verified
    energy).
    """

    kind: str
    certified_value: float
    measure: object = None
    energy_report: EnergyReport | None = None
    info: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {"kind": self.kind, "certified_value": self.certified_value,
               "has_measure": self.measure is not None}
        if self.energy_report is not None:
            out["energy"] = asdict(self.energy_report)
        if self.info:
            out["info"] = dict(self.info)
        return out


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one criterion run.

    outcome is 'HE_satisfied', 'stable_indication' or 'inconclusive';
    numeric_value is the decisive quantity (integral value, minimum over
    the weight scan, minimum of the transform where it is resolved, or the
    fitted per-pair asymptote).
    """

    criterion: str
    outcome: str
    numeric_value: float
    certificate: Certificate | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self, certificate_path: str | None = None) -> dict:
        return {
            "criterion": self.criterion,
            "outcome": self.outcome,
            "numeric_value": self.numeric_value,
            "certificate_path": certificate_path,
            "certificate": (None if self.certificate is None
                            else self.certificate.summary()),
            "details": _plain(self.details),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# radial integrals of the profile


def _panels(potential, quad_tol, cuts=()):
    """The panel set of W(r) r^{N-1} over BOUNDS and the radii ``cuts``,
    cut at the potential's kinks."""
    return Panels(lambda r: potential(r) * r ** (potential.dimension - 1),
                  np.union1d(BOUNDS, cuts), quad_tol, potential.kinks)


def _weighted(potential, panels, p_values):
    """``row(k)``: S_{N-1} int_0^inf W(r) exp(-p^2 r^2) r^{N-1} dr on
    ``panels`` for p = p_values[k], and tail_masses, where tail_masses[j]
    integrates the weighted |W| r^{N-1} over [10**j, 10**(j+1)]; it raises
    what the gates or the fallback quadrature raise.  p = 0 gives the space
    integral, and a lone p is the row p of the scan, bit for bit.  The
    Gaussian factors are positive, so the sign changes of W, panel edges,
    are the kinks of every row's absolute value."""
    read = panels.integrals((signed_part, abs_part), scales=p_values)
    area = unit_sphere_area(potential.dimension)

    def row(k):
        value, masses = gated(lambda lo, hi: read(k, lo, hi),
                              panels.quad_tol)
        return area * value, masses

    return row


def space_integral(potential: RadialPotential,
                   quad_tol: float = QUAD_TOL) -> float:
    """Integral of W(|x|) over R^N, i.e. S_{N-1} int_0^inf W(r) r^{N-1} dr.

    Raises NotAbsolutelyIntegrable when |W| fails to integrate near the
    origin or in the tail.
    """
    return _weighted(potential, _panels(potential, quad_tol), [0.0])(0)[0]


def weighted_space_integral(potential: RadialPotential, p: float,
                            quad_tol: float = QUAD_TOL) -> float:
    """Integral of W(|x|) exp(-p^2 |x|^2) over R^N for p > 0.

    The Gaussian factor tames any tail, so only origin integrability is
    required.
    """
    if p <= 0:
        raise ValueError("p must be > 0; use space_integral for p = 0")
    return _weighted(potential, _panels(potential, quad_tol), [p])(0)[0]


# ---------------------------------------------------------------------------
# witness verification


def _verified(potential, criterion, value, details, candidates, note):
    """The verdict of a witness ladder: ``HE_satisfied`` with the
    certificate of the first candidate density whose energy re-evaluates
    negative, else ``inconclusive`` with ``note`` as the ``witness_note``
    of ``details``; ``value`` is the verdict's numeric_value either way.

    ``candidates`` yields (kind, build, info); ``build()`` makes the
    density, so each one is built only when its turn comes.  A candidate
    whose energy quadrature fails is skipped for the next one.
    """
    for kind, build, info in candidates:
        density = build()
        try:
            report = energy_grid(potential, density, quad_mode="radial_fast")
        except QuadratureFailure:
            continue
        if report.value < 0:
            certificate = Certificate(kind=kind, certified_value=report.value,
                                      measure=density, energy_report=report,
                                      info=info)
            return StabilityVerdict(criterion, "HE_satisfied", value,
                                    certificate, details)
    details["witness_note"] = note
    return StabilityVerdict(criterion, "inconclusive", value, None, details)


# ---------------------------------------------------------------------------
# integral criterion and its ball witness


def _profile_scale(potential) -> float:
    """Length scale of the profile's structure: the radius of its infimum,
    clipped to a sane band."""
    _, radius = _locate_infimum(potential)
    return float(np.clip(radius, 0.25, 4.0))


def _ball_density(potential, radius, scale):
    """Uniform ball density with cells about a quarter of the profile
    scale wide, capped per dimension."""
    h_target = scale / 4.0
    cap = _BALL_CELL_CAP[potential.dimension]
    cells = int(min(cap, max(16, math.ceil(radius / h_target))))
    return uniform_ball_density(radius, potential.dimension, cells)


def _choose_ball_radius(potential, value, tail_masses, panels):
    """Smallest power-of-two radius R whose exterior holds at most a
    quarter of |value| worth of |W| mass, or 2**24 if none up to 2**23
    does before the quadrature of a shell fails; ``tail_masses`` are the
    space integral's per-decade |W| r^{N-1} masses beyond radius 1, and
    ``head`` the mass over [1, R], read from ``panels``."""
    read = panels.integrals((abs_part,))
    area = unit_sphere_area(potential.dimension)
    total, head = sum(tail_masses), 0.0
    with suppress(QuadratureFailure):
        for radius, outer in zip(_BALL_RADII, _BALL_RADII[1:]):
            if area * max(total - head, 0.0) <= abs(value) / 4:
                return radius
            head += read(0, radius, outer)[0]
    return _BALL_RADII[-1]


def integral_criterion(potential: RadialPotential,
                       quad_tol: float = QUAD_TOL,
                       decision_tol: float = DECISION_TOL,
                       build_witness: bool = False) -> StabilityVerdict:
    """Decide by the sign of the space integral of the potential.

    Negative integral means the spread-out uniform ball has negative
    energy, so a nonpositive-energy measure exists.  Positive integral is
    an indication only.  ``build_witness`` additionally materializes the
    ball density and verifies its energy through the energy module; when
    no ball verifies negative, the verdict is inconclusive, with a
    ``witness_note`` and no certificate.

    Raises NotAbsolutelyIntegrable when |W| is not integrable over R^N.
    """
    panels = _panels(potential, quad_tol, _BALL_RADII)
    value, tail_masses = _weighted(potential, panels, [0.0])(0)
    details = {"quad_tol": quad_tol, "decision_tol": decision_tol,
               "potential": potential.label}

    if value < -decision_tol and not build_witness:
        return StabilityVerdict("integral", "HE_satisfied", value,
                                Certificate(kind="integral_value",
                                            certified_value=value), details)
    if value < -decision_tol:
        R = _choose_ball_radius(potential, value, tail_masses, panels)
        details["witness_R"] = R
        scale = _profile_scale(potential)
        return _verified(potential, "integral", value, details, (
            ("ball_density",
             lambda radius=float(n_scale * R): _ball_density(
                 potential, radius, scale),
             {"R": R, "n_scale": n_scale, "integral_value": value})
            for n_scale in _BALL_SCALES),
            f"no ball witness verified negative energy at n_scale "
            f"{_BALL_SCALES}")
    if value > decision_tol:
        details["scanned"] = "space integral over R^N"
        return StabilityVerdict("integral", "stable_indication", value,
                                None, details)
    return StabilityVerdict("integral", "inconclusive", value, None,
                            details)


# ---------------------------------------------------------------------------
# Gaussian-weighted criterion


def _default_p_grid() -> np.ndarray:
    return np.logspace(-3.0, 3.0, 200)


def gaussian_criterion(potential: RadialPotential,
                       p_grid: Sequence[float] | None = None,
                       quad_tol: float = QUAD_TOL,
                       decision_tol: float = DECISION_TOL,
                       build_witness: bool = True) -> StabilityVerdict:
    """Scan Gaussian-weighted space integrals over concentration widths.

    A negative value at any p certifies a nonpositive-energy measure: the
    Gaussian density with exponent -2 p^2 |x|^2 realizes it.  The p = 0
    member (the plain space integral) joins the scan whenever the profile
    is absolutely integrable.  With ``build_witness`` the Gaussian witness
    is rasterized and its energy re-verified; without it the certificate
    records the minimizing p and value.  A minimum within 10 decision_tol
    of zero is first polished between p / 4 and 4 p (at most the grid's
    largest p) by :func:`groundlab.potentials._polished`.
    """
    grid = np.asarray(_default_p_grid() if p_grid is None else p_grid,
                      dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("p_grid must be nonempty with strictly positive "
                         "entries")

    details: dict = {"quad_tol": quad_tol, "decision_tol": decision_tol,
                     "potential": potential.label}
    if potential.tail_class == "H3a":
        details["advisory"] = ("profile grows at infinity; criterion "
                              "hypotheses unmet, verdict advisory")

    # p = 0, the whole grid and the polish are weighed on one set of nodes
    p_values = [0.0] + grid.tolist()
    panels = _panels(potential, quad_tol)
    row = _weighted(potential, panels, p_values)
    entries = []
    for k, p in enumerate(p_values):
        try:
            entries.append((p, row(k)[0]))
        except NotAbsolutelyIntegrable as exc:
            if p > 0.0:
                raise
            details["p_zero_skipped"] = str(exc)

    values = np.array([v for _, v in entries])
    best_idx = int(np.argmin(values))
    best_p, best_value = entries[best_idx]

    # near-zero minima get a local polish before the verdict is read off
    if abs(best_value) <= 10 * decision_tol and best_p > 0:
        best_p, best_value = _polished(
            lambda q: _weighted(potential, panels, [q])(0)[0], best_p / 4.0,
            min(best_p * 4.0, float(grid.max())), 1e-10, best_p, best_value)

    details["p_values"] = [p for p, _ in entries]
    details["weighted_integrals"] = [v for _, v in entries]

    if best_value < -decision_tol and not build_witness:
        return StabilityVerdict("gaussian_weighted", "HE_satisfied",
                                best_value, Certificate(
                                    kind="weighted_minimum",
                                    certified_value=best_value,
                                    info={"p": best_p}), details)
    if best_value < -decision_tol:
        # wide Gaussians (tiny p) rasterize poorly, so try the most
        # negative entry with p >= 0.05 before the scan minimum
        negative = [(v, p) for p, v in entries
                    if p >= 0.05 and v < -decision_tol]
        ladder = [min(negative)[1]] if negative else []
        if best_p > 0 and best_p not in ladder:
            ladder.append(best_p)
        return _verified(potential, "gaussian_weighted", best_value, details, (
            ("gaussian_density",
             lambda p=p: gaussian_witness_density(p, potential.dimension),
             {"p": p, "weighted_integral": best_value})
            for p in ladder), "no Gaussian witness verified negative energy")
    if best_value > decision_tol and bool(np.all(values > decision_tol)):
        details["scanned"] = (f"{len(entries)} weighted integrals, "
                             f"p in [{min(p for p, _ in entries):g}, "
                             f"{max(p for p, _ in entries):g}]")
        return StabilityVerdict("gaussian_weighted", "stable_indication",
                                best_value, None, details)
    return StabilityVerdict("gaussian_weighted", "inconclusive", best_value,
                            None, details)


# ---------------------------------------------------------------------------
# Fourier sign criterion


def _decay_radius(potential) -> float:
    """Radius beyond which |W| is negligible, found by doubling scan up to
    ``_DECAY_RADIUS_CAP``."""
    probe = np.logspace(-3, 0, 32)
    base = float(np.max(np.abs(potential(probe)))) + 1.0
    r = 1.0
    while r < _DECAY_RADIUS_CAP:
        window = np.linspace(r, 2 * r, 64)
        if float(np.max(np.abs(potential(window)))) < 1e-15 * base:
            return 2.0 * r
        r *= 2.0
    return _DECAY_RADIUS_CAP


def _fourier_panels(potential, quad_tol):
    """The panel set of W(r) r^{N-1} with the decay radius as one more
    bound, and the transform at positive frequencies, truncated there, as a
    function of an array of them."""
    n = potential.dimension
    upper = _decay_radius(potential)
    panels = _panels(potential, quad_tol, [upper])
    integrals = panels.transform(n, upper)
    return panels, lambda xi: unit_sphere_area(n) * integrals(xi)


def radial_fourier_transform(potential: RadialPotential,
                             frequencies,
                             quad_tol: float = QUAD_TOL) -> np.ndarray:
    """Fourier transform of x -> W(|x|) on R^N, evaluated at radial
    frequencies (convention: integral of W(|x|) exp(-i xi.x) dx).

    FT(xi) = S_{N-1} int_0^R W(r) r^{N-1} K_N(xi r) dr with K_1 = cos,
    K_2 = J_0 and K_3(x) = sin(x) / x, truncated at the radius R beyond
    which |W| is negligible.  Every frequency reads one panel set of W,
    sized by W and not by the frequency: the nonzero ones are integrated by
    the Filon quadrature of :meth:`groundlab.radial.Panels.transform`, and
    the zero frequency is the space integral on the same panels.
    """
    xi = np.asarray(frequencies, dtype=float)
    flat = np.atleast_1d(xi)
    if np.any(flat < 0):
        raise ValueError("frequencies must be nonnegative")
    out = np.empty(flat.shape)
    zero = flat == 0.0
    panels, transform_at = _fourier_panels(potential, quad_tol)
    if zero.any():
        out[zero] = _weighted(potential, panels, [0.0])(0)[0]
    if not zero.all():
        out[~zero] = transform_at(flat[~zero])
    return float(out[0]) if xi.ndim == 0 else out


def _default_xi_grid() -> np.ndarray:
    return np.linspace(0.0, 16.0, 65)


def fourier_criterion(potential: RadialPotential,
                      xi_grid: Sequence[float] | None = None,
                      quad_tol: float = QUAD_TOL,
                      decision_tol: float = DECISION_TOL) -> StabilityVerdict:
    """Scan the sign of the radial Fourier transform.

    An everywhere-positive transform means every density has positive
    energy (no minimizer exists); that is reported as stable_indication
    over the scanned frequencies; its numeric_value and its certificate
    hold the minimum over the frequencies where the transform exceeds
    decision_tol, and the certificate also its frequency ``xi`` and the
    largest of them, ``resolved_max``.  A negative minimum is only trusted
    once a concentrated-in-frequency density built at the minimizing
    frequency re-evaluates to negative energy; otherwise the verdict stays
    inconclusive, because a negative transform value alone does not bound
    the nonnegative-density energies.  A negative minimum is first polished
    between its grid neighbours by :func:`groundlab.potentials._polished`.

    Raises ValueError when a frequency of ``xi_grid`` is negative,
    NotSquareIntegrable when W^2 fails to integrate, and
    QuadratureFailure when a fallback quadrature of the transform fails.
    """
    n = potential.dimension
    # the W^2 gate, the space integral and the transform read one panel set
    panels, transform_at = _fourier_panels(potential, quad_tol)
    read = panels.integrals((lambda values, r: values * values
                             / r ** (n - 1),))
    try:
        # W^2 r^{N-1} is its own absolute value
        gated(lambda lo, hi: 2 * read(0, lo, hi), quad_tol)
    except NotAbsolutelyIntegrable as exc:
        raise NotSquareIntegrable(f"{potential.label}: W^2 is not "
                                  f"integrable ({exc})") from exc

    grid = np.asarray(_default_xi_grid() if xi_grid is None else xi_grid,
                      dtype=float)
    if grid.size == 0:
        raise ValueError("xi_grid must be nonempty")
    if np.any(grid < 0):
        raise ValueError("frequencies must be nonnegative")
    grid = np.unique(grid)
    top = float(grid.max()) if grid.max() > 0 else 1.0
    tails = np.array([1.5 * top, 2.0 * top, 3.0 * top])

    try:
        integral = _weighted(potential, panels, [0.0])(0)[0]
    except NotAbsolutelyIntegrable:
        integral = None
        grid = grid[grid > 0]

    frequencies = np.concatenate([grid, tails])
    # the transform at zero frequency is the space integral computed above
    zero = frequencies == 0.0
    transform = np.empty(frequencies.shape)
    transform[zero] = integral
    transform[~zero] = transform_at(frequencies[~zero])

    details: dict = {
        "quad_tol": quad_tol, "decision_tol": decision_tol,
        "potential": potential.label,
        "xi_values": frequencies.tolist(),
        "transform": transform.tolist(),
    }
    if integral is None:
        details["xi_zero_skipped"] = "profile not absolutely integrable"

    best_idx = int(np.argmin(transform))
    best_xi = float(frequencies[best_idx])
    best_value = float(transform[best_idx])

    if best_value < -decision_tol:
        step = float(np.median(np.diff(grid))) if grid.size > 1 else 0.5
        if best_xi > 0:
            best_xi, best_value = _polished(
                lambda f: float(transform_at(np.array([f]))[0]),
                max(best_xi - step, 1e-6), best_xi + step, 1e-6, best_xi,
                best_value)
        # a wide Gaussian near zero frequency; elsewhere a Gaussian
        # envelope modulated at best_xi concentrates the spectrum there
        if best_xi < 0.05:
            candidates = (
                ("gaussian_density",
                 lambda p=p: gaussian_witness_density(p, n),
                 {"p": p, "transform_minimum": best_value})
                for p in (0.2, 0.1, 0.05))
        else:
            candidates = (
                ("modulated_density",
                 lambda p=p: modulated_witness_density(p, best_xi, n),
                 {"p": p, "xi": best_xi, "transform_minimum": best_value})
                for p in (best_xi / d for d in (12.0, 20.0, 8.0)))
        details["minimizing_xi"] = best_xi
        return _verified(potential, "fourier", best_value, details,
                         candidates, "transform minimum is negative but no "
                         "concentrated density verified negative energy")

    # the transform of any decaying profile falls below every positive
    # threshold at the tail probes, so "positive everywhere" is read as:
    # nowhere meaningfully negative, and genuinely positive somewhere
    if best_value > -decision_tol and float(np.max(transform)) > decision_tol:
        details["scanned"] = (f"transform on {frequencies.size} "
                             f"frequencies up to {frequencies.max():g}")
        # the minimum is taken only where the transform is resolved, above
        # decision_tol; elsewhere it is rounding noise of the quadrature
        resolved = np.flatnonzero(np.abs(transform) > decision_tol)
        low = resolved[np.argmin(transform[resolved])]
        certificate = Certificate(
            kind="transform_minimum", certified_value=float(transform[low]),
            info={"xi": float(frequencies[low]),
                  "resolved_max": float(frequencies[resolved].max()),
                  "scan_max": float(frequencies.max())})
        return StabilityVerdict("fourier", "stable_indication",
                                certificate.certified_value, certificate,
                                details)
    return StabilityVerdict("fourier", "inconclusive", best_value, None,
                            details)


# ---------------------------------------------------------------------------
# per-pair configuration bounds


@dataclass(frozen=True)
class RucCheck:
    """Result of one per-pair bound check: holds iff value >= bound."""

    holds: bool
    value: float
    bound: float
    n: int


def check_ruc(potential: RadialPotential, config: PointCloudMeasure,
              B: float) -> RucCheck:
    """Check (1/n^2) sum_{i<j} W(|x_i - x_j|) >= -B/n for one
    configuration of distinct, equally weighted points."""
    n = config.size
    if n < 2:
        raise ValueError("configuration needs at least two points")
    if not np.allclose(config.weights, config.weights[0], rtol=0.0,
                       atol=1e-12):
        raise ValueError("per-pair bound is defined for equal weights")
    distances = pair_distances(config.points)
    if np.any(distances == 0.0):
        raise ValueError("points must be distinct")
    value = float(np.sum(potential(distances))) / n**2
    bound = -B / n
    return RucCheck(holds=bool(value >= bound), value=value, bound=bound,
                    n=n)


def ruc_search(potential: RadialPotential,
               n_list: Sequence[int] = (8, 16, 32, 64),
               seeds: Sequence[int] = (0, 1, 2),
               optimizer_budget: int = 400) -> StabilityVerdict:
    """Estimate the asymptote of minimal per-pair energies in n.

    For each n the per-pair energy (1/n^2) sum_{i<j} W is minimized by
    multi-start descent (the starts of one n descend together as one
    stack, each with the trace ``minimize_particles`` gives it); the
    minima m(n) are fitted to c + d/n.  A bounded sequence (m(n) >= -B/n,
    i.e. c near 0) indicates stability; m(n) approaching a negative
    constant (c below -``_CATASTROPHIC_TOL``, -1e-3) certifies a
    negative-energy empirical measure, provided the best configuration's
    energy is negative; otherwise the verdict is inconclusive.  For W
    finite at contact that energy is the empirical measure's own, its
    self-interaction diagonal W(0)/n included, so the certificate states
    the energy of the measure it carries.

    Verdicts for profiles singular at contact are advisory (recorded in
    details): the per-pair form ignores the diagonal that the continuum
    energy of an atom carries, and their certificate's energy leaves it
    out.
    """
    from .groundstate import _cycled_starts, _descend

    n_values = sorted(set(int(n) for n in n_list))
    if len(n_values) < 2:
        raise ValueError("n_list needs at least two distinct sizes")
    if not seeds:
        raise ValueError("seeds must be nonempty")

    details: dict = {"n_list": n_values, "seeds": list(seeds),
                     "optimizer_budget": optimizer_budget,
                     "catastrophic_tol": _CATASTROPHIC_TOL,
                     "potential": potential.label}
    if not math.isfinite(potential.value_at_zero):
        details["advisory"] = ("profile is singular at contact; per-pair "
                              "verdict is advisory")

    minima = []
    best_overall = (math.inf, None)
    all_stalled = True
    for n in n_values:
        best = math.inf
        for trace in _descend(n, _cycled_starts(potential, seeds),
                              optimizer_budget):
            if isinstance(trace, Exception):
                raise trace
            if trace.iterations > 0 or trace.converged:
                all_stalled = False
            per_pair = trace.final_energy / 2.0
            if per_pair < best:
                best = per_pair
                if per_pair < best_overall[0]:
                    best_overall = (per_pair, trace.final_config)
        minima.append(best)
    if all_stalled:
        raise OptimizerStalled(
            f"descent made no progress on any start within "
            f"{optimizer_budget} iterations")

    inverse_n = np.array([1.0 / n for n in n_values])
    coeffs = np.polyfit(inverse_n, np.array(minima), 1)
    d_fit, c_fit = float(coeffs[0]), float(coeffs[1])
    details["per_pair_minima"] = minima
    details["fit_c"] = c_fit
    details["fit_d"] = d_fit

    if c_fit < -_CATASTROPHIC_TOL:
        config = best_overall[1]
        cloud = PointCloudMeasure.empirical(config)
        # the energy of the stated measure; a point cloud's diagonal is
        # +inf for W singular at contact, so that advisory case drops it
        finite_contact = math.isfinite(potential.value_at_zero)
        report = energy_pointcloud(potential, cloud,
                                   include_diagonal=finite_contact)
        if not finite_contact:
            details["certificate_note"] = ("energy reported without the "
                                           "self-interaction diagonal")
        if not report.value < 0:
            # the fit alone certifies nothing
            details["certificate_note"] = (
                f"fitted asymptote is negative but the best configuration's "
                f"energy {report.value:.6g} is not")
            return StabilityVerdict("ruc_search", "inconclusive", c_fit,
                                    None, details)
        certificate = Certificate(
            kind="point_configuration", certified_value=report.value,
            measure=cloud, energy_report=report,
            info={"n": cloud.size, "per_pair_minimum": min(minima)})
        return StabilityVerdict("ruc_search", "HE_satisfied", c_fit,
                                certificate, details)
    details["scanned"] = (f"n in {n_values}, {len(seeds)} starts each, "
                         f"budget {optimizer_budget}")
    return StabilityVerdict("ruc_search", "stable_indication", c_fit, None,
                            details)
