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
through the gates; the contact probe and the ball-radius search read
per-segment |W| masses.

The Fourier transforms integrate against an oscillating kernel K(x r) over
[0, upper], with no gate, by Filon-Legendre quadrature
(:func:`kernel_integrals`).  The same log-graded panels and bounds are
bisected until the 20-node Legendre interpolant of the integrand resolves
it; the interpolant times e^{i x r} then integrates exactly, through
spherical Bessel functions of x times the panel's half-width.  The panels
are sized by W, not by the frequency, and are built once for every
frequency; the rule pair's check and its ``quad`` fallback are the ones
above.  No other module calls ``quad``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, y0

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
    """exp(-x^2), with the factors below _NEGLIGIBLE flushed to zero."""
    return _flushed(np.exp(-np.square(x)))


def segment_reader(signed, bounds, quad_tol, parts, factor=_gaussian,
                   scales=(0.0,)):
    """Reader ``read(row, s)`` of the integrals of part(signed(r)) factor(x r)
    over [bounds[s], bounds[s + 1]], one for each ufunc in ``parts``
    (np.positive: the signed integrand, np.abs: its absolute value), with x
    the entry ``row`` of ``scales``; by default the plain integrals.

    Panels are cut at the log-graded edges, the bounds and the sign changes
    of ``signed`` (:func:`sign_changes`).  Every rule sum is formed here,
    with ``signed`` evaluated once, as an array, on the nodes of both
    rules.  A read returns the 20-node sums when the two rules agree to
    quad_tol * max(1, |value|) on every part; otherwise it calls
    :func:`segment` once per part and raises its QuadratureFailure.
    """
    x = np.asarray(scales, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    edges = np.concatenate([_PANEL_EDGES, sign_changes(signed)])
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




def _sinc(x):
    """sin(x) / x for x > 0, bit for bit np.sinc(x / pi), on one buffer."""
    y = x / math.pi
    y *= math.pi
    out = np.sin(y)
    out /= y
    return out


# K_N(z): the radial kernel of the N-dimensional Fourier transform
_FOURIER_KERNELS = {1: np.cos, 2: j0, 3: _sinc}

# Filon panels: bisected until the Legendre coefficients of degree _NODES
# and up are at most _TAIL_TOL max|g|, small enough that the 10-node sums
# agree with the 20-node ones to the default quad_tol and no smooth profile
# falls back to quad; a kink or a jump stops after _SPLITS halvings and is
# left to the rule pair's check.  A J_0 panel whose left edge lies at
# x r >= _HANKEL_FROM takes the Hankel form
_TAIL_TOL = 1e-11
_SPLITS = 40
_HANKEL_FROM = 8.0
# terms of the power series of j_k, and the order Miller's recurrence
# starts from
_SERIES_TERMS = 10
_MILLER = 50
# Legendre coefficients of the interpolant through either rule's nodes, from
# the values there, and the factors 2 i^k that turn j_k(w) into the moment
# of P_k(t) e^{i w t} over [-1, 1]
_ANALYSIS = tuple((np.arange(t.size)[:, None] + 0.5)
                  * np.polynomial.legendre.legvander(t, t.size - 1).T * w
                  for t, w in _RULES)
_MOMENTS = 2.0 * 1j ** np.arange(2 * _NODES)


def _spherical_bessels(w):
    """j_k(w) for k < 20 and w > 0, one row per w, flushed below
    _NEGLIGIBLE: the power series below w = 1, Miller's downward recurrence
    from order _MILLER (scaled to j_0 or j_1, whichever is larger) below
    w = 20, the upward recurrence, stable for k < w, above."""
    k = np.arange(2 * _NODES)
    out = np.empty((w.size, k.size))
    small, large = w < 1.0, w >= k.size
    if small.any():
        x = w[small, None]
        term = np.ones((x.size, k.size))
        series = term.copy()
        for m in range(1, _SERIES_TERMS):
            term *= -0.5 * x * x / (m * (2 * k + 2 * m + 1))
            series += term
        series[:, 1:] *= np.cumprod(x / (2 * k[1:] + 1), axis=1)
        out[small] = series
    middle = ~small & ~large
    if middle.any():
        x = w[middle]
        downward = np.empty((k.size, x.size))
        above, j = np.zeros_like(x), np.full_like(x, 1e-300)
        for n in range(_MILLER, 0, -1):
            above, j = j, (2 * n + 1) / x * j - above
            if n <= k.size:
                downward[n - 1] = j
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        first = np.abs(j0) >= np.abs(j1)
        out[middle] = (downward * (np.where(first, j0, j1) / np.where(
            first, downward[0], downward[1]))).T
    if large.any():
        x = w[large]
        below = np.sin(x) / x
        j = (below - np.cos(x)) / x
        rows = [below, j]
        for n in k[1:-1]:
            below, j = j, (2 * n + 1) / x * j - below
            rows.append(j)
        out[large] = np.stack(rows, axis=1)
    return _flushed(out)


def _nodes(lo, hi, t):
    """The abscissae ``t`` on [-1, 1] mapped onto each panel [lo, hi], one
    row per panel."""
    return 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t


def _resolved(g, edges):
    """``edges`` with each panel bisected until the Legendre coefficients of
    degree _NODES and up of g's 20-node interpolant are at most
    _TAIL_TOL max|g|, and g at the 20 nodes of every panel.  A panel is
    bisected _SPLITS times at most, and a panel on which g is not finite
    not at all; the rule pair's check catches what either leaves."""
    t = _RULES[1][0]
    values = g(_nodes(edges[:-1], edges[1:], t))
    for _ in range(_SPLITS):
        scale = np.abs(values[np.isfinite(values)]).max(initial=0.0)
        tail = np.abs(values @ _ANALYSIS[1][_NODES:].T).max(axis=1)
        split = tail > _TAIL_TOL * scale
        if not split.any():
            break
        lo, hi = edges[:-1][split], edges[1:][split]
        mid = 0.5 * (lo + hi)
        halves = g(_nodes(np.stack([lo, mid], axis=1).ravel(),
                          np.stack([mid, hi], axis=1).ravel(), t))
        first = np.arange(split.size) + np.cumsum(split) - split
        merged = np.empty((values.shape[0] + mid.size, t.size))
        merged[first[~split]] = values[~split]
        merged[(first[split, None] + [0, 1]).ravel()] = halves
        edges, values = np.union1d(edges, mid), merged
    return edges, values


def kernel_integrals(signed, dimension, upper, quad_tol):
    """The integrals of signed(r) K_N(x r) over [0, upper], with K_N the
    radial kernel of the N-dimensional Fourier transform, N = ``dimension``
    (cos, J_0 and sin(x)/x), as a function of an array of x > 0; no gate.

    Everything that does not depend on x is built here, once: the log-graded
    panels and the segment bounds of :func:`gaussian_integrals` cut at
    ``upper``, bisected until the Legendre tail of W r^{N-1}'s 20-node
    interpolant is negligible (:func:`_resolved`), ``signed`` on the nodes of
    both rules and the Legendre coefficients of its interpolants.  Each
    kernel is Re[A(x r) e^{i x r}], with A = 1 for cos, -i / (x r) for
    sin(x)/x (the interpolant is then of W r^{N-1} / r, smooth at 0) and
    H_0^(1)(x r) e^{-i x r} for J_0 on panels beyond x r = _HANKEL_FROM,
    where J_0 is integrated by the plain rules.  On the panel of centre m
    and half-width h the interpolant sum_k c_k P_k times e^{i x r}
    integrates exactly to h e^{i x m} sum_k c_k 2 i^k j_k(x h), so the panels
    are sized by W, not by the frequency.  A (row, segment) whose 10- and
    20-node sums disagree by more than quad_tol * max(1, |value|) is
    integrated again by :func:`segment`, whose QuadratureFailure it raises.
    """
    kernel = _FOURIER_KERNELS[dimension]
    bounds = np.array([b for b in _BOUNDS if b < upper] + [upper])

    def g(r):
        values = signed(r.ravel()).reshape(r.shape)
        return _flushed(values / r if dimension == 3 else values)

    edges, high_values = _resolved(g, np.union1d(
        _PANEL_EDGES[_PANEL_EDGES < upper], bounds))
    lo, hi = edges[:-1], edges[1:]
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # per rule: nodes, weights, node values and the Legendre coefficients
    # of their interpolant, times 2 i^k
    rules = []
    for (t, w), analysis in zip(_RULES, _ANALYSIS):
        r = _nodes(lo, hi, t)
        values = high_values if t.size == high_values.shape[1] else g(r)
        rules.append((r, w, values, values @ analysis.T * _MOMENTS[:t.size]))
    starts = np.searchsorted(edges, bounds[:-1])

    def panel_sums(x):
        """(rows, 2, panels) low- and high-rule sums, one row per x."""
        # the (row, panel) pairs integrated through the moments; J_0 takes
        # the plain rules below x r = _HANKEL_FROM
        by_moments = (np.outer(x, lo) >= _HANKEL_FROM if dimension == 2
                      else np.ones((x.size, lo.size), dtype=bool))
        rows, cols = np.nonzero(by_moments)
        plain_rows, plain_cols = np.nonzero(~by_moments)
        j = _spherical_bessels(x[rows] * half[cols])
        phase = half[cols] * np.exp(1j * x[rows] * centre[cols])
        sums = np.empty((x.size, 2, lo.size))
        for rule, (r, w, values, coefficients) in enumerate(rules):
            k = w.size
            if dimension == 2:
                z = x[rows, None] * r[cols]
                hankel = (j0(z) + 1j * y0(z)) * np.exp(-1j * z)
                coefficients = ((values[cols] * hankel) @ _ANALYSIS[rule].T
                                * _MOMENTS[:k])
                plain = x[plain_rows, None] * r[plain_cols]
                sums[plain_rows, rule, plain_cols] = half[plain_cols] * (
                    (values[plain_cols] * j0(plain)) @ w)
            else:
                coefficients = coefficients[cols]
            filon = phase * np.einsum("ik,ik->i", coefficients, j[:, :k])
            sums[rows, rule, cols] = (filon.imag / x[rows] if dimension == 3
                                      else filon.real)
        return sums

    def integrals(scales):
        x = np.asarray(scales, dtype=float)
        sums = np.empty((x.size, 2, bounds.size - 1))
        step = max(1, _CHUNK_ELEMENTS // (2 * _NODES * lo.size))
        for first in range(0, x.size, step):
            sums[first:first + step] = np.add.reduceat(
                panel_sums(x[first:first + step]), starts, axis=2)
        low, high = sums[:, 0], sums[:, 1]
        agree = (np.isfinite(sums).all(axis=1)
                 & (np.abs(high - low)
                    <= quad_tol * np.maximum(1.0, np.abs(high))))
        for row, s in zip(*np.nonzero(~agree)):
            high[row, s] = segment(lambda r: kernel(x[row] * r) * signed(r),
                                   bounds[s], bounds[s + 1], quad_tol)[0]
        return high.sum(axis=1)

    return integrals
