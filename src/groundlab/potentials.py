"""Radial pair-interaction potentials and structural probes.

A potential here is a radial profile W: [0, inf) -> R union {+inf} evaluated
on pair distances.  Four families are provided:

* :class:`PowerLaw` -- attractive/repulsive power tails ``r**a/a - r**r/r``,
* :class:`Morse` -- ``exp(-r) - G*exp(-r/L)``,
* :class:`GaussianMix` -- sums of Gaussian bumps ``A*exp(-(r/w)**2)``,
* :class:`Tabulated` -- piecewise-linear profiles from sampled data.

:func:`probe_hypotheses` audits a profile numerically: local integrability of
``|W(|x|)|`` near the origin, the behaviour of the tail (growth to +inf,
decay to 0, or neither) and the infimum of the profile over (0, inf).  Those
three facts drive which stability criteria downstream modules may apply.
The contact integrals are |W| r^{N-1} masses between the origin cutoffs,
computed by :mod:`groundlab.radial`; this module calls no quadrature.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import radial
from .errors import NonDifferentiable, QuadratureFailure
from .geometry import check_dimension, unit_sphere_area

__all__ = [
    "RadialPotential",
    "PowerLaw",
    "Morse",
    "GaussianMix",
    "Tabulated",
    "HypothesisReport",
    "probe_hypotheses",
]

_TAIL_PROBE_RADII = (1e2, 1e3, 1e4, 1e5, 1e6)
_TAIL_DECAY_TOL = 1e-8

_INFIMUM_GRID_SPAN = (1e-8, 1e8)
_INFIMUM_GRID_POINTS = 10_000


class RadialPotential:
    """Base class: a radial profile with optional derivative model.

    Subclasses set ``family`` and implement ``_profile`` (vectorised) plus,
    when differentiable, ``_profile_derivative``.

    The descent engine evaluates the consecutive starts of a stack in
    runs, one W call per energy evaluation and one W and dW/dr call per
    state.  A run's potentials share the key ``_run_key(self)``, and
    ``_run_profiles(potentials)``, given one potential per row, returns
    the W and the (W, dW/dr) evaluators of (rows, pairs) radii, row k by
    potential k.  The default is a run of one potential (its key is the
    potential), evaluated by its checked ``__call__`` and ``derivative``
    on the flattened rows.  Morse and GaussianMix define run forms in
    their own class bodies: every potential of the family (GaussianMix
    with as many terms) joins the run, which evaluates parameter columns
    with the same body as the profiles (``_terms``, ``_sums``), so each
    row is bit for bit its potential's checked calls.  The engine looks
    the forms up on the exact type, falling back to this default, so a
    subclass that overrides a profile, or a proxy, keeps its checked
    calls; it uses a family's forms only on radii clamped at 1e-10, where
    the checks of ``__call__`` and ``derivative`` could not refuse a
    radius.

    Attributes:
        dimension: ambient dimension N of the space the profile acts on
            (1, 2 or 3; distances are Euclidean).
        kinks: radii where the profile or its slope jumps, an empty tuple
            for the smooth families; the radial integrals cut their panels
            there and probe for sign changes between them.
    """

    family = "abstract"
    differentiable = False
    kinks = ()

    def __init__(self, dimension: int):
        self.dimension = check_dimension(dimension)

    # -- evaluation ------------------------------------------------------

    def _profile(self, radii: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _profile_derivative(self, radii: np.ndarray) -> np.ndarray:
        raise NonDifferentiable(
            f"{self.family} potential has no derivative model")

    def __call__(self, radii):
        """Evaluate W at one radius or an array of radii (values may be +inf)."""
        arr = np.asarray(radii, dtype=float)
        if np.count_nonzero(arr < 0):
            raise ValueError("radii must be nonnegative")
        out = self._profile(arr.reshape(-1) if arr.ndim == 0 else arr)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def derivative(self, radii):
        """Evaluate dW/dr at strictly positive radii."""
        arr = np.asarray(radii, dtype=float)
        if np.count_nonzero(arr <= 0):
            raise ValueError("derivative is evaluated at radii > 0")
        out = self._profile_derivative(arr.reshape(-1) if arr.ndim == 0
                                       else arr)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _run_key(self):
        return self

    @staticmethod
    def _run_profiles(potentials):
        potential = potentials[0]

        def values(radii):
            return potential(radii.reshape(-1)).reshape(radii.shape)

        return values, lambda radii: (values(radii), potential.derivative(
            radii.reshape(-1)).reshape(radii.shape))

    # -- structure -------------------------------------------------------

    @property
    def value_at_zero(self) -> float:
        """W(0); +inf for profiles singular at contact."""
        return float(self(0.0))

    @property
    def tail_class(self):
        """Closed-form tail behaviour if known: 'H3a', 'H3b' or None."""
        return None

    @property
    def label(self) -> str:
        return f"{self.family}(N={self.dimension})"

    def __repr__(self):
        return self.label


class PowerLaw(RadialPotential):
    """W(s) = s**a / a - s**r / r with -N < r < a and a, r nonzero.

    The ``a`` term dominates the tail (growth for a > 0), the ``r`` term
    dominates near contact (W(0) = +inf when r < 0).  Exponent zero is
    rejected because the profile divides by the exponent.
    """

    family = "powerlaw"
    differentiable = True

    def __init__(self, a: float, r: float, dimension: int):
        super().__init__(dimension)
        a = float(a)
        r = float(r)
        if not (-self.dimension < r < a):
            raise ValueError(
                f"powerlaw exponents must satisfy -N < r < a, "
                f"got a={a}, r={r}, N={self.dimension}")
        if a == 0.0 or r == 0.0:
            raise ValueError("powerlaw exponents must be nonzero")
        self.a = a
        self.r = r

    def _profile(self, radii):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = radii ** self.a
            out /= self.a
            repulsion = radii ** self.r
            repulsion /= self.r
            out -= repulsion
        at_zero = radii == 0.0
        if np.any(at_zero):
            out[at_zero] = math.inf if self.r < 0 else 0.0
        return out

    def _profile_derivative(self, radii):
        out = radii ** (self.a - 1.0)
        out -= radii ** (self.r - 1.0)
        return out

    @property
    def value_at_zero(self):
        return math.inf if self.r < 0 else 0.0

    @property
    def tail_class(self):
        return "H3a" if self.a > 0 else "H3b"

    @property
    def label(self):
        return f"powerlaw(a={self.a:g},r={self.r:g},N={self.dimension})"


class Morse(RadialPotential):
    """W(s) = exp(-s) - G * exp(-s/L) with G >= 0 and L > 0.

    Unit-range repulsion against attraction of strength G and range L.  The
    space integral of W over R^N is S_{N-1} * Gamma(N) * (1 - G * L**N), so
    the sign of 1 - G * L**N separates the aggregating regime from the
    spreading one.
    """

    family = "morse"
    differentiable = True

    def __init__(self, G: float, L: float, dimension: int):
        super().__init__(dimension)
        G = float(G)
        L = float(L)
        if G < 0:
            raise ValueError(f"morse strength G must be >= 0, got {G}")
        if L <= 0:
            raise ValueError(f"morse range L must be > 0, got {L}")
        self.G = G
        self.L = L

    def _profile(self, radii):
        return self._terms(radii, self.G, self.L)

    def _profile_derivative(self, radii):
        return self._terms(radii, self.G, self.L, self.G / self.L,
                           values=False)

    def _run_key(self):
        return None

    @staticmethod
    def _run_profiles(potentials):
        G, L, ratio = np.array([(w.G, w.L, w.G / w.L)
                                for w in potentials]).T[:, :, None]
        return (lambda radii: Morse._terms(radii, G, L),
                lambda radii: Morse._terms(radii, G, L, ratio))

    @staticmethod
    def _terms(radii, G, L, ratio=None, values=True):
        """W = exp(-s) - G * exp(-s / L) at ``radii``; with ``ratio``
        (G / L) also dW/dr = (G / L) * exp(-s / L) - exp(-s) from the same
        two exponentials, or dW/dr alone if ``values`` is False.  The
        parameters are floats, or (rows, 1) columns of (rows, pairs)
        radii, one potential per row: broadcasting makes the same
        operations element by element.  The work is done in two arrays,
        so a large evaluation holds two temporaries, not four."""
        minus = np.negative(radii)
        out = np.exp(minus)
        attraction = np.divide(minus, L, out=minus)
        np.exp(attraction, out=attraction)
        if ratio is None:
            attraction *= G
            out -= attraction
            return out
        if not values:
            attraction *= ratio
            attraction -= out
            return attraction
        slope = attraction * ratio
        slope -= out
        attraction *= G
        out -= attraction
        return out, slope

    @property
    def value_at_zero(self):
        return 1.0 - self.G

    @property
    def tail_class(self):
        return "H3b"

    @property
    def label(self):
        return f"morse(G={self.G:g},L={self.L:g},N={self.dimension})"


class GaussianMix(RadialPotential):
    """W(s) = sum_k A_k * exp(-(s/w_k)**2) for terms (A_k, w_k), w_k > 0."""

    family = "gaussmix"
    differentiable = True

    def __init__(self, terms: Sequence[tuple], dimension: int):
        super().__init__(dimension)
        cleaned = [(float(amp), float(width)) for amp, width in terms]
        if not cleaned:
            raise ValueError("gaussmix needs at least one (amplitude, width) term")
        for _, width in cleaned:
            if width <= 0:
                raise ValueError(f"gaussmix widths must be > 0, got {width}")
        self.terms = tuple(cleaned)

    def _profile(self, radii):
        return self._sums(radii, self._columns())

    def _profile_derivative(self, radii):
        return self._sums(radii, self._columns(), values=False, slopes=True)

    def _columns(self):
        """(amplitude, width, width**2) per term."""
        return [(amp, width, width**2) for amp, width in self.terms]

    def _run_key(self):
        return len(self.terms)

    @staticmethod
    def _run_profiles(potentials):
        # one (amplitude, width, width**2) triple of (rows, 1) columns per
        # term; a run's potentials have as many terms, their key
        terms = np.array([w._columns() for w in potentials]).transpose(
            1, 2, 0)[..., None]
        return (lambda radii: GaussianMix._sums(radii, terms),
                lambda radii: GaussianMix._sums(radii, terms, slopes=True))

    @staticmethod
    def _sums(radii, terms, values=True, slopes=False):
        """W at ``radii``, with ``slopes`` also dW/dr from the same bumps,
        or dW/dr alone if ``values`` is False: one bump per (amplitude,
        width, width**2) term.  The parameters are floats, or (rows, 1)
        columns of (rows, pairs) radii, one potential per row:
        broadcasting makes the same operations element by element."""
        out = np.zeros_like(radii) if values else None
        derivative = np.zeros_like(radii) if slopes else None
        for amp, width, square in terms:
            bump = GaussianMix._bump(radii, width)
            if slopes:
                slope = -2.0 * radii
                slope /= square
                slope *= amp
                slope *= bump
                derivative += slope
            if values:
                bump *= amp
                out += bump
        if not slopes:
            return out
        return (out, derivative) if values else derivative

    @staticmethod
    def _bump(radii, width):
        """exp(-((radii / width) ** 2)), operation by operation in one
        array."""
        bump = radii / width
        bump **= 2
        np.negative(bump, out=bump)
        return np.exp(bump, out=bump)

    @property
    def value_at_zero(self):
        return float(sum(amp for amp, _ in self.terms))

    @property
    def tail_class(self):
        return "H3b"

    @property
    def label(self):
        body = ",".join(f"{a:g}:{w:g}" for a, w in self.terms)
        return f"gaussmix([{body}],N={self.dimension})"

    def space_integral(self) -> float:
        """Closed form of the integral of W(|x|) over R^N."""
        n = self.dimension
        return float(sum(amp * (math.sqrt(math.pi) * width) ** n
                         for amp, width in self.terms))

    def fourier_transform(self, frequencies):
        """Closed form of the Fourier transform (convention: integral of
        W(|x|) * exp(-i xi.x) dx)."""
        xi = np.asarray(frequencies, dtype=float)
        out = np.zeros_like(xi, dtype=float)
        for amp, width in self.terms:
            out += (amp * (math.sqrt(math.pi) * width) ** self.dimension
                    * np.exp(-(width**2) * xi**2 / 4.0))
        return out


class Tabulated(RadialPotential):
    """Piecewise-linear profile through (radius, value) knots.

    Below the first knot the profile is held constant at the first value;
    beyond the last knot it is identically zero.  No derivative model is
    attached, so particle descent refuses tabulated profiles.
    """

    family = "tabulated"
    differentiable = False

    def __init__(self, radii: Sequence[float], values: Sequence[float],
                 dimension: int):
        super().__init__(dimension)
        r = np.asarray(radii, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ValueError("tabulated profile needs matching 1-d arrays "
                             "with at least two knots")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ValueError("knot radii must be nonnegative and strictly "
                             "increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("knot values must be finite")
        self.knot_radii = r.copy()
        self.knot_values = v.copy()
        self.knot_radii.flags.writeable = False
        self.knot_values.flags.writeable = False
        # the profile is linear between its knots
        self.kinks = self.knot_radii

    def _profile(self, radii):
        return np.interp(radii, self.knot_radii, self.knot_values, right=0.0)

    @property
    def value_at_zero(self):
        return float(self._profile(np.array([0.0]))[0])

    @property
    def continuous_tail_junction(self) -> bool:
        """Whether the zero tail joins the last knot without a jump."""
        return bool(abs(self.knot_values[-1]) == 0.0)

    @property
    def label(self):
        return (f"tabulated({self.knot_radii.size} knots,"
                f"N={self.dimension})")


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural probes on one potential.

    Attributes:
        lower_semicontinuity: 'holds-by-construction' for the analytic
            families and for tabulated profiles whose zero tail joins
            continuously; 'not-checked' otherwise.
        local_integrability: 'holds' | 'fails' | 'inconclusive' for the
            integral of |W(|x|)| over the unit ball.
        local_integral: S_{N-1} * int_0^1 |W(r)| r**(N-1) dr at the tightest
            cutoff reached (meaningful when local_integrability == 'holds').
        decade_estimates: the nested-cutoff estimates backing the verdict.
        tail_class: 'H3a' (grows to +inf), 'H3b' (decays to 0) or 'neither'.
        tail_probes: (radius, W(radius)) pairs sampled in the far field.
        profile_infimum: inf of W over (0, inf) located on a log grid and
            polished; every probed value sits above it (up to tolerance).
        infimum_radius: radius at which the infimum estimate was found.
    """

    lower_semicontinuity: str
    local_integrability: str
    local_integral: float
    decade_estimates: tuple
    tail_class: str
    tail_probes: tuple
    profile_infimum: float
    infimum_radius: float


def _probe_tail(potential):
    """(tail class, far-field probes): the family's closed form when it
    has one, else the class read from the probes alone."""
    probes = tuple((r, float(potential(r))) for r in _TAIL_PROBE_RADII)
    if potential.tail_class:
        return potential.tail_class, probes
    if all(abs(v) < _TAIL_DECAY_TOL for _, v in probes):
        return "H3b", probes
    beyond = [v for r, v in probes if r >= 1e3]
    growing = all(b > a for a, b in zip(beyond, beyond[1:]))
    if growing and beyond[-1] > beyond[0] and beyond[-1] > 0:
        return "H3a", probes
    return "neither", probes


def _polished(objective, lo, hi, xatol, best_x, best_value):
    """(x, value) of the bounded ``minimize_scalar`` of ``objective`` over
    [lo, hi] to ``xatol``, kept only when it succeeds with a finite value
    below ``best_value``; otherwise, and when hi <= lo, (best_x,
    best_value).  Every scalar polish of groundlab runs here, and
    scipy.optimize is imported here, at the first polish, so a run that
    polishes nothing does not load it."""
    if not hi > lo:
        return best_x, best_value
    from scipy.optimize import minimize_scalar
    result = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                             options={"xatol": xatol})
    if (result.success and math.isfinite(result.fun)
            and result.fun < best_value):
        return float(result.x), float(result.fun)
    return best_x, best_value


def _locate_infimum(potential):
    """(value, radius) of the minimum of the profile over a log grid on
    (0, inf), polished by :func:`_polished` between the grid neighbours of
    the grid minimum."""
    lo, hi = _INFIMUM_GRID_SPAN
    grid = np.logspace(math.log10(lo), math.log10(hi), _INFIMUM_GRID_POINTS)
    values = potential(grid)
    finite = np.where(np.isfinite(values), values, math.inf)
    idx = int(np.argmin(finite))
    left = float(grid[max(idx - 1, 0)])
    right = float(grid[min(idx + 1, grid.size - 1)])
    best_r, best_v = _polished(lambda r: float(potential(r)), left, right,
                               1e-12, float(grid[idx]), float(finite[idx]))
    return best_v, best_r


def probe_hypotheses(potential: RadialPotential,
                     quad_tol: float = 1e-8) -> HypothesisReport:
    """Audit a potential's structure: contact integrability, tail, infimum.

    Args:
        potential: profile to probe.
        quad_tol: tolerance of the radial quadrature near the origin.

    Returns:
        A :class:`HypothesisReport`.  Raises :class:`QuadratureFailure` only
        when the near-origin refinement cannot produce a single finite
        estimate.
    """
    n = potential.dimension
    edges = radial.ORIGIN_EDGES
    read = radial.Panels(lambda r: potential(r) * r ** (n - 1), edges[::-1],
                         quad_tol, potential.kinks).integrals(
                             (radial.abs_part,))
    # nested-cutoff estimates of int_cut^1 |W(r)| r**(N-1) dr; a segment
    # whose quadrature fails stops the refinement and leaves it unclean
    estimates, total = [], 0.0
    with suppress(QuadratureFailure):
        for hi, lo in zip(edges, edges[1:]):
            total += read(0, lo, hi)[0]
            estimates.append(total)
    if not estimates:
        raise QuadratureFailure(
            f"near-origin quadrature produced no estimate for "
            f"{potential.label}")

    area = unit_sphere_area(n)
    if len(estimates) < len(edges) - 1:
        verdict = "inconclusive"
    elif radial.origin_growth(estimates) > radial.ORIGIN_GROWTH:
        verdict = "fails"
    else:
        verdict = "holds"

    tail, probes = _probe_tail(potential)

    infimum, inf_radius = _locate_infimum(potential)

    lsc = "holds-by-construction"
    if isinstance(potential, Tabulated) and not potential.continuous_tail_junction:
        lsc = "not-checked"

    return HypothesisReport(
        lower_semicontinuity=lsc,
        local_integrability=verdict,
        local_integral=area * estimates[-1],
        decade_estimates=tuple(area * e for e in estimates),
        tail_class=tail,
        tail_probes=probes,
        profile_infimum=infimum,
        infimum_radius=inf_radius,
    )
