"""Decade-segmented radial integrals over (0, inf) with divergence gates.

The origin piece (0, 1] is cut at 1e-2 ... 1e-10 and declared divergent
when its absolute integral still grows by more than 10 % over the final
cutoff; the tail [1, inf) is cut into decades and declared divergent when
no decade up to radius 1e8 falls below the quadrature noise floor.  Each
segment is one adaptive ``scipy.integrate.quad`` call.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import NotAbsolutelyIntegrable, QuadratureFailure

__all__ = ["segment", "origin_growth", "radial_integral"]

# Cutoff edges of the origin piece, from 1 down to 1e-10.
ORIGIN_EDGES = (1.0,) + tuple(10.0 ** (-decade) for decade in range(2, 11))
ORIGIN_GROWTH = 0.10
_TAIL_MAX_DECADE = 8


def segment(func, lo, hi, quad_tol):
    """(value, error estimate) of the integral of func over [lo, hi];
    QuadratureFailure when quad raises or returns a non-finite value."""
    try:
        value, err = quad(func, lo, hi, limit=200, epsabs=quad_tol,
                          epsrel=quad_tol)
    except Exception as exc:
        raise QuadratureFailure(
            f"quadrature failed on [{lo:g}, {hi:g}]: {exc}") from exc
    if not math.isfinite(value):
        raise QuadratureFailure(
            f"quadrature returned a non-finite value on [{lo:g}, {hi:g}]")
    return value, err


def origin_growth(estimates) -> float:
    """Relative growth of the absolute origin integral over the final
    cutoff decade; above ORIGIN_GROWTH it is read as divergent."""
    prev, last = estimates[-2], estimates[-1]
    return (last - prev) / prev if prev > 0 else 0.0


def radial_integral(signed, quad_tol, absolute=None):
    """(integral of ``signed`` over (0, inf), tail_masses), where
    tail_masses[k] integrates ``absolute`` = |signed| over [10**k,
    10**(k+1)].  ``absolute=None`` means signed is nonnegative, so each
    segment is integrated once.  NotAbsolutelyIntegrable when a gate trips.
    """

    def both(lo, hi):
        value = segment(signed, lo, hi, quad_tol)[0]
        if absolute is None:
            return value, value
        return value, segment(absolute, lo, hi, quad_tol)[0]

    near = 0.0
    abs_total = 0.0
    abs_estimates = []
    for upper, lower in zip(ORIGIN_EDGES, ORIGIN_EDGES[1:]):
        value, mass = both(lower, upper)
        near += value
        abs_total += mass
        abs_estimates.append(abs_total)
    growth = origin_growth(abs_estimates)
    if growth > ORIGIN_GROWTH:
        raise NotAbsolutelyIntegrable(
            f"integral near the origin still grew {growth:.1%} over the "
            f"final cutoff decade")

    far = 0.0
    masses = []
    for k in range(_TAIL_MAX_DECADE):
        value, mass = both(10.0**k, 10.0 ** (k + 1))
        far += value
        masses.append(mass)
        if mass < max(quad_tol * 1e-2, 1e-12 * (1.0 + abs(far))):
            return near + far, masses
    raise NotAbsolutelyIntegrable(
        f"tail integral had not converged by radius 1e{_TAIL_MAX_DECADE}; "
        f"last decade contributed {masses[-1]:.3g}")
