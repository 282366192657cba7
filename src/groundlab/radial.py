"""Decade-segmented radial integrals over (0, inf) with divergence gates.

The origin piece (0, 1] is cut at 1e-2 ... 1e-10 and declared divergent
when its absolute integral still grows by more than 10 % over the final
cutoff; the tail [1, inf) is cut into decades and declared divergent when
no decade up to radius 1e8 falls below the quadrature noise floor.

Each of these 17 segments is split into log-graded panels, four per
decade, and a panel edge is added wherever the integrand changes sign, so
that its absolute value has no kink inside a panel.  The integrand is
evaluated once, as an array, on the nodes of an embedded pair of composite
Gauss-Legendre rules (10 and 20 nodes per panel).  The 20-node sum is the
segment's value and its distance from the 10-node sum the error estimate.
A segment whose two rules disagree by more than quad_tol * max(1, |value|)
is integrated again by one adaptive ``scipy.integrate.quad`` call
(:func:`segment`).  :func:`gaussian_integrals` weighs one integrand with
many Gaussian factors exp(-p^2 r^2) at once, as one matrix product over
the shared nodes; every row keeps its own gates and fallbacks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import GroundlabError, NotAbsolutelyIntegrable, QuadratureFailure

__all__ = ["segment", "origin_growth", "radial_integral",
           "gaussian_integrals"]

# Cutoff edges of the origin piece, from 1 down to 1e-10.
ORIGIN_EDGES = (1.0,) + tuple(10.0 ** (-decade) for decade in range(2, 11))
ORIGIN_GROWTH = 0.10
_TAIL_MAX_DECADE = 8

# Segment bounds in increasing radius, 1e-10 ... 1 ... 1e8: segments
# 0 .. _N_ORIGIN - 1 make up the origin piece, the rest the tail decades.
_BOUNDS = ORIGIN_EDGES[::-1] + tuple(10.0**k for k in
                                     range(1, _TAIL_MAX_DECADE + 1))
_N_ORIGIN = len(ORIGIN_EDGES) - 1
_N_SEGMENTS = len(_BOUNDS) - 1
_PANELS_PER_DECADE = 4
_NODES = 10                 # per panel in the low rule; twice that in the high
_PROBES_PER_DECADE = 32     # sign-change search grid
_BISECTIONS = 48            # shrinks a probe bracket below 1e-13 relative
_ROW_CHUNK = 64             # Gaussian factors formed at a time, ~1 MB
# Factors and weighted values below this are dropped before they are
# multiplied: two of them make a subnormal number, which the processor
# handles up to a hundred times slower, and a term this small moves no sum
# or gate.
_NEGLIGIBLE = 1e-150

# Log-graded panel edges over all segments, and the two Gauss-Legendre
# rules on [-1, 1].
_PANEL_EDGES = np.unique(np.concatenate([
    np.geomspace(lo, hi, 1 + round(_PANELS_PER_DECADE * math.log10(hi / lo)))
    for lo, hi in zip(_BOUNDS, _BOUNDS[1:])]))
_RULES = tuple(np.polynomial.legendre.leggauss(n)
               for n in (_NODES, 2 * _NODES))


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


def _sign_changes(func) -> np.ndarray:
    """Radii where the array function ``func`` changes sign, bracketed on a
    log grid over the segments and narrowed by bisection."""
    grid = np.geomspace(_BOUNDS[0], _BOUNDS[-1], 1 + round(
        _PROBES_PER_DECADE * math.log10(_BOUNDS[-1] / _BOUNDS[0])))
    sign = np.sign(func(grid))
    signed_at = np.flatnonzero(np.isfinite(sign) & (sign != 0))
    left, right = signed_at[:-1], signed_at[1:]
    flip = sign[left] != sign[right]
    lo, hi, lo_sign = grid[left[flip]], grid[right[flip]], sign[left[flip]]
    if lo.size == 0:
        return lo
    for _ in range(_BISECTIONS):
        mid = np.sqrt(lo * hi)
        same = np.sign(func(mid)) == lo_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi


def _rule_pair(func):
    """Nodes, weights and output column of both composite rules, in
    increasing column order.  Column s holds the low rule on segment s,
    column _N_SEGMENTS + s the high rule."""
    edges = np.union1d(_PANEL_EDGES, _sign_changes(func))
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    owner = np.searchsorted(_BOUNDS, edges[:-1], side="right") - 1
    nodes, weights, columns = [], [], []
    for offset, (x, w) in zip((0, _N_SEGMENTS), _RULES):
        nodes.append((lo + half * (x + 1.0)).ravel())
        weights.append((half * w).ravel())
        columns.append(np.repeat(offset + owner, x.size))
    return (np.concatenate(nodes), np.concatenate(weights),
            np.concatenate(columns))


def _flushed(a):
    return np.where(np.abs(a) < _NEGLIGIBLE, 0.0, a)


def _segment_sums(signed, absolute, p_values):
    """Array (rows, 4, segments) of the low- and high-rule sums of
    signed(r) exp(-p^2 r^2) and of the same with ``absolute``, one row per
    p; the factors are formed _ROW_CHUNK rows at a time."""
    r, w, column = _rule_pair(signed)
    values = signed(r)
    masses = values if absolute is None else absolute(r)
    weighted = _flushed(np.stack([values * w, masses * w]))
    starts = np.searchsorted(column, np.arange(2 * _N_SEGMENTS))
    p = np.asarray(p_values, dtype=float)
    sums = []
    for k in range(0, p.size, _ROW_CHUNK):
        exponents = np.square(np.outer(p[k:k + _ROW_CHUNK], r))
        factors = _flushed(np.exp(-exponents))
        sums.append(np.add.reduceat(factors[:, None, :] * weighted, starts,
                                    axis=2))
    return np.concatenate(sums).reshape(p.size, 4, _N_SEGMENTS)


def _gated(piece, quad_tol):
    """(integral, tail_masses) from ``piece(s)``, the (value, |value|
    mass) of segment s, with the origin-growth gate and the tail stopping
    rule; NotAbsolutelyIntegrable when a gate trips."""
    near = 0.0
    abs_total = 0.0
    abs_estimates = []
    for s in reversed(range(_N_ORIGIN)):
        value, mass = piece(s)
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
    for s in range(_N_ORIGIN, _N_SEGMENTS):
        value, mass = piece(s)
        far += value
        masses.append(mass)
        if mass < max(quad_tol * 1e-2, 1e-12 * (1.0 + abs(far))):
            return near + far, masses
    raise NotAbsolutelyIntegrable(
        f"tail integral had not converged by radius 1e{_TAIL_MAX_DECADE}; "
        f"last decade contributed {masses[-1]:.3g}")


def gaussian_integrals(signed, p_values, quad_tol, absolute=None):
    """For each p, (integral of signed(r) exp(-p^2 r^2) over (0, inf),
    tail_masses) as in :func:`radial_integral`, or the GroundlabError its
    gates or its fallback quadrature raised.

    ``signed`` and ``absolute`` take and return arrays; the fallback calls
    them with one radius.  The sign changes of ``signed`` are the panel
    edges of every row, since the Gaussian factors are positive.
    """
    sums = _segment_sums(signed, absolute, p_values)
    value_lo, value_hi, mass_lo, mass_hi = np.moveaxis(sums, 1, 0)
    agree = (np.isfinite(sums).all(axis=1)
             & (np.abs(value_hi - value_lo)
                <= quad_tol * np.maximum(1.0, np.abs(value_hi)))
             & (np.abs(mass_hi - mass_lo)
                <= quad_tol * np.maximum(1.0, np.abs(mass_hi))))

    rows = zip(np.asarray(p_values, dtype=float).tolist(), agree.tolist(),
               value_hi.tolist(), mass_hi.tolist())
    results = []
    for p, ok, values, masses in rows:
        def piece(s, p=p, ok=ok, values=values, masses=masses):
            if ok[s]:
                return values[s], masses[s]
            lo, hi = _BOUNDS[s], _BOUNDS[s + 1]
            value = segment(lambda r: math.exp(-(p * r) ** 2) * signed(r),
                            lo, hi, quad_tol)[0]
            if absolute is None:
                return value, value
            return value, segment(
                lambda r: math.exp(-(p * r) ** 2) * absolute(r), lo, hi,
                quad_tol)[0]

        try:
            results.append(_gated(piece, quad_tol))
        except GroundlabError as exc:
            results.append(exc)
    return results


def radial_integral(signed, quad_tol, absolute=None):
    """(integral of ``signed`` over (0, inf), tail_masses), where
    tail_masses[k] integrates ``absolute`` = |signed| over [10**k,
    10**(k+1)].  ``absolute=None`` means signed is nonnegative.  Both take
    and return arrays.  NotAbsolutelyIntegrable when a gate trips,
    QuadratureFailure when a fallback quadrature fails.
    """
    result = gaussian_integrals(signed, [0.0], quad_tol, absolute)[0]
    if isinstance(result, GroundlabError):
        raise result
    return result
