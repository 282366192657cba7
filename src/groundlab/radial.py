"""Decade-segmented radial integrals over (0, inf) with divergence gates.

The origin piece (0, 1] is cut at 1e-2 ... 1e-10 and declared divergent
when its absolute integral still grows by more than 10 % over the final
cutoff; the tail [1, inf) is cut into decades and declared divergent when
no decade up to radius 1e8 falls below the quadrature noise floor.  The
floor [0, 1e-10] below the last cutoff joins each value after the origin
gate; no gate and no tail mass reads it.

Each of these 18 segments is split into log-graded panels, four per
decade (the floor is one panel), and a panel edge is added wherever the
integrand changes sign, so that its absolute value has no kink inside a
panel.  The integrand is evaluated once, as an array, on the nodes of an
embedded pair of composite Gauss-Legendre rules (10 and 20 nodes per
panel).  The 20-node sum is the segment's value and its distance from the
10-node sum the error estimate.  The absolute value of the integrand is
taken from the same node values.

One engine, :func:`segment_reader`, forms the rule sums of every segment of
many integrals at once, each a row of factors over the shared nodes, a few
MB at a time.  Its reader returns one (row, segment) at a time, and only a
segment whose two rules disagree by more than quad_tol * max(1, |value|)
is integrated again, when it is read, by one adaptive
``scipy.integrate.quad`` call per integrand (:func:`segment`); a failure
raises there, so a caller that stops at it makes no further call.
:func:`gaussian_integrals` weighs with exp(-p^2 r^2) and reads every row
through the gates; :func:`kernel_integrals` weighs with an oscillating
kernel K(x r) over [0, upper], with no gate, one octave band of x in
(2^(b-1), 2^b] at a time, each on panels refined to at most half a period
of the band's fastest kernel; the contact probe and the ball-radius search
read per-segment |W| masses.  No other module calls ``quad``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import GroundlabError, NotAbsolutelyIntegrable, QuadratureFailure

__all__ = ["segment", "origin_growth", "sign_changes", "segment_reader",
           "gaussian_integrals", "kernel_integrals"]

# Cutoff edges of the origin piece, from 1 down to 1e-10.
ORIGIN_EDGES = (1.0,) + tuple(10.0 ** (-decade) for decade in range(2, 11))
ORIGIN_GROWTH = 0.10
_TAIL_MAX_DECADE = 8

# Segment bounds in increasing radius, 0, 1e-10 ... 1 ... 1e8: segment 0 is
# the floor [0, 1e-10], segments 1 .. _N_ORIGIN make up the origin piece,
# the rest the tail decades.
_BOUNDS = (0.0,) + ORIGIN_EDGES[::-1] + tuple(10.0**k for k in
                                              range(1, _TAIL_MAX_DECADE + 1))
_N_ORIGIN = len(ORIGIN_EDGES) - 1
_N_SEGMENTS = len(_BOUNDS) - 1
_PANELS_PER_DECADE = 4
_NODES = 10                 # per panel in the low rule; twice that in the high
_PROBES_PER_DECADE = 32     # sign-change search grid
_BISECTIONS = 48            # shrinks a probe bracket below 1e-13 relative
_CHUNK_ELEMENTS = 1 << 18   # nodes, or row factors, formed at a time: 2 MB
# Factors and weighted values below this are dropped before they are
# multiplied: two of them make a subnormal number, which the processor
# handles up to a hundred times slower, and a term this small moves no sum
# or gate.
_NEGLIGIBLE = 1e-150

# Log-graded panel edges over all segments (the floor is one panel), and the
# two Gauss-Legendre rules on [-1, 1].
_PANEL_EDGES = np.unique(np.concatenate([[0.0]] + [
    np.geomspace(lo, hi, 1 + round(_PANELS_PER_DECADE * math.log10(hi / lo)))
    for lo, hi in zip(_BOUNDS[1:], _BOUNDS[2:])]))
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


def sign_changes(func) -> np.ndarray:
    """Radii where the array function ``func`` changes sign, bracketed on a
    log grid from 1e-10 to 1e8 and narrowed by bisection."""
    grid = np.geomspace(_BOUNDS[1], _BOUNDS[-1], 1 + round(
        _PROBES_PER_DECADE * math.log10(_BOUNDS[-1] / _BOUNDS[1])))
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


def _rule_pair(edges, bounds):
    """Nodes, weights and output column of both composite rules on the
    panels between consecutive ``edges``, in increasing column order.
    Column s holds the low rule on segment [bounds[s], bounds[s + 1]],
    column len(bounds) - 1 + s the high rule."""
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    owner = np.searchsorted(bounds, edges[:-1], side="right") - 1
    nodes, weights, columns = [], [], []
    for offset, (x, w) in zip((0, len(bounds) - 1), _RULES):
        nodes.append((lo + half * (x + 1.0)).ravel())
        weights.append((half * w).ravel())
        columns.append(np.repeat(offset + owner, x.size))
    return (np.concatenate(nodes), np.concatenate(weights),
            np.concatenate(columns))


def _flushed(a):
    return np.where(np.abs(a) < _NEGLIGIBLE, 0.0, a)


def _segment_sums(signed, parts, factor, x, edges, bounds):
    """Array (rows, parts, 2, segments) of the low- and high-rule sums of
    part(signed(r)) factor(x r), one row per entry of the array ``x``, for
    each ufunc in ``parts``.  ``signed`` is evaluated once per node, and
    nodes and factors are formed _CHUNK_ELEMENTS at a time."""
    sums = np.zeros((x.size, len(parts), 2 * (len(bounds) - 1)))
    step = max(1, _CHUNK_ELEMENTS // (3 * _NODES))
    for first in range(0, edges.size - 1, step):
        r, w, column = _rule_pair(edges[first:first + step + 1], bounds)
        values = signed(r) * w
        weighted = _flushed(np.stack([part(values) for part in parts]))
        present, starts = np.unique(column, return_index=True)
        chunk = max(1, _CHUNK_ELEMENTS // r.size)
        for k in range(0, x.size, chunk):
            factors = factor(np.outer(x[k:k + chunk], r))
            sums[k:k + chunk, :, present] += np.add.reduceat(
                factors[:, None, :] * weighted, starts, axis=2)
    return sums.reshape(x.size, len(parts), 2, len(bounds) - 1)


def _gaussian(x):
    """exp(-x^2), with the factors below _NEGLIGIBLE flushed to zero; the
    kernels of :func:`kernel_integrals` never fall that low."""
    return _flushed(np.exp(-np.square(x)))


def segment_reader(signed, bounds, quad_tol, parts, factor=_gaussian,
                   scales=(0.0,), extra_edges=(), changes=None):
    """Reader ``read(row, s)`` of the integrals of part(signed(r)) factor(x r)
    over [bounds[s], bounds[s + 1]], one for each ufunc in ``parts``
    (np.positive: the signed integrand, np.abs: its absolute value), with x
    the entry ``row`` of ``scales``; by default the plain integrals.

    Panels are cut at the log-graded edges, the bounds, the sign changes of
    ``signed`` (``changes`` when given, else :func:`sign_changes`) and
    ``extra_edges``.  Every rule sum is formed here, with ``signed``
    evaluated once, as an array, on the nodes of both rules.  A read
    returns the 20-node sums when the two rules agree to
    quad_tol * max(1, |value|) on every part; otherwise it calls
    :func:`segment` once per part and raises its QuadratureFailure.
    """
    x = np.asarray(scales, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if changes is None:
        changes = sign_changes(signed)
    edges = np.concatenate([_PANEL_EDGES, changes, extra_edges])
    edges = np.union1d(edges[(edges > bounds[0]) & (edges < bounds[-1])],
                       bounds)
    sums = _segment_sums(signed, parts, factor, x, edges, bounds)
    low, high = sums[:, :, 0], sums[:, :, 1]
    agree = (np.isfinite(sums).all(axis=2)
             & (np.abs(high - low) <= quad_tol * np.maximum(1.0, np.abs(high))))
    agree, high = agree.all(axis=1).tolist(), high.tolist()

    def read(row, s):
        if agree[row][s]:
            return [part_sums[s] for part_sums in high[row]]
        return [segment(lambda r: factor(x[row] * r) * part(signed(r)),
                        bounds[s], bounds[s + 1], quad_tol)[0]
                for part in parts]

    return read


def _gated(piece, quad_tol):
    """(integral, tail_masses) from ``piece(s)``, the (value, |value|
    mass) of segment s, with the origin-growth gate and the tail stopping
    rule; NotAbsolutelyIntegrable when a gate trips.  The floor [0, 1e-10]
    joins the value after the gate and no gate reads it."""
    near = 0.0
    abs_total = 0.0
    abs_estimates = []
    for s in reversed(range(1, _N_ORIGIN + 1)):
        value, mass = piece(s)
        near += value
        abs_total += mass
        abs_estimates.append(abs_total)
    growth = origin_growth(abs_estimates)
    if growth > ORIGIN_GROWTH:
        raise NotAbsolutelyIntegrable(
            f"integral near the origin still grew {growth:.1%} over the "
            f"final cutoff decade")
    near += piece(0)[0]

    far = 0.0
    masses = []
    for s in range(_N_ORIGIN + 1, _N_SEGMENTS):
        value, mass = piece(s)
        far += value
        masses.append(mass)
        if mass < max(quad_tol * 1e-2, 1e-12 * (1.0 + abs(far))):
            return near + far, masses
    raise NotAbsolutelyIntegrable(
        f"tail integral had not converged by radius 1e{_TAIL_MAX_DECADE}; "
        f"last decade contributed {masses[-1]:.3g}")


def gaussian_integrals(signed, p_values, quad_tol):
    """For each p, (integral of signed(r) exp(-p^2 r^2) over (0, inf),
    tail_masses), where tail_masses[k] integrates the weighted |signed| over
    [10**k, 10**(k+1)]; or the GroundlabError its gates or its fallback
    quadrature raised.

    ``signed`` takes and returns arrays; the fallback calls it with one
    radius.  Its sign changes are the panel edges of every row, since the
    Gaussian factors are positive.
    """
    read = segment_reader(signed, _BOUNDS, quad_tol, (np.positive, np.abs),
                          scales=p_values)
    results = []
    for row in range(len(p_values)):
        try:
            results.append(_gated(lambda s, row=row: read(row, s), quad_tol))
        except GroundlabError as exc:
            results.append(exc)
    return results


def kernel_integrals(signed, kernel, scales, upper, quad_tol,
                     changes=None) -> np.ndarray:
    """Integral of signed(r) kernel(x r) over [0, upper] for each x > 0 in
    ``scales``, with no gate, from the floor, origin and tail segments of
    :func:`gaussian_integrals` cut at ``upper``; QuadratureFailure when a
    segment's fallback quadrature fails.

    The rows are grouped into octave bands, x in (2^(b-1), 2^b], and each
    band is integrated on its own panels, at most pi / max(x in band)
    wide: half a period of the band's fastest kernel, so a row costs in
    proportion to its own frequency.  The sign changes of ``signed``
    (``changes`` when given) are found once for every band.
    """
    x = np.asarray(scales, dtype=float)
    bounds = [b for b in _BOUNDS if b < upper] + [upper]
    if changes is None:
        changes = sign_changes(signed)
    band = np.ceil(np.log2(x))
    out = np.empty(x.size)
    for b in np.unique(band):
        rows = np.flatnonzero(band == b)
        uniform = np.linspace(0.0, upper, 1 + math.ceil(
            upper * float(x[rows].max()) / math.pi))
        read = segment_reader(signed, bounds, quad_tol, (np.positive,),
                              kernel, x[rows], uniform, changes)
        out[rows] = np.array([[read(k, s)[0] for s in range(len(bounds) - 1)]
                              for k in range(rows.size)]).sum(axis=1)
    return out
