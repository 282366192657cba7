"""Radial integrals of a profile over (0, inf), all read from one panel set.

Every radial integral of W is a row of factors over one sampling of the
integrand W(r) r^{N-1}, its panel set (:class:`Panels`).  The panels are
cut at log-graded edges, four per decade from 1e-10 to 1e8, at the bounds
the caller reads, at the sign changes of the integrand and at the
potential's kinks (``RadialPotential.kinks``), so that no panel holds a
kink of the integrand or of its absolute value.  Each panel but the floor
[0, 1e-10] is then bisected until the 20-node Legendre interpolant of the
integrand resolves it (:func:`_resolved`), and the integrand is evaluated
once, as an array, on the nodes of an embedded pair of composite
Gauss-Legendre rules (10 and 20 nodes per panel).

A row integrates part(W r^{N-1}) f(x r): the part is the integrand, its
absolute value or W^2 r^{N-1}, and the factor f, 1 at 0 and monotone on
[0, 1], is the Gaussian exp(-x^2) of the weighted scan (x = 0 gives the
plain integrals) or the radial kernel K_N of the N-dimensional Fourier
transform (cos, J_0 and sin(x)/x).  The Gaussian rows sum the rule nodes
(:meth:`Panels.integrals`), and exponentiate only their live band: the
segments where a factor is neither exactly 1 nor flushed to 0; the
transform rows integrate each panel's interpolant times e^{i x r} exactly
(Filon-Legendre, :meth:`Panels.transform`), so their panels are sized by
W and not by the frequency.  Rows are read as arrays: a read returns one
array over the rows per part.  Every row goes through one check: a
segment between two bounds whose 10- and 20-node sums disagree by more
than quad_tol * max(1, |value|) is integrated again, when a row still
reads it, by one adaptive ``scipy.integrate.quad`` call (:func:`segment`),
whose QuadratureFailure the read returns for that row; the rows whose
factor is within 1e-14 of 1 over the segment share that call, its failure
included.  scipy.integrate is imported only at the first call
(:func:`quad`), and no other module calls it.

The gates (:func:`gated`) read all rows at once over the segments between
BOUNDS, each row adding in the order it would alone: the origin piece
(0, 1] is cut at 1e-2 ... 1e-10 and declared divergent when its absolute
integral still grows by more than 10 % over the final cutoff; the tail
[1, inf) is cut into decades and declared divergent when no decade up to
radius 1e8 falls below the quadrature noise floor.  The floor [0, 1e-10]
joins each value after the origin gate; no gate and no tail mass reads
it.  A row that fails or trips a gate is read no further, and the gate
returns its exception for the caller to raise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, y0

from .errors import NotAbsolutelyIntegrable, QuadratureFailure

__all__ = ["BOUNDS", "Panels", "signed_part", "abs_part", "segment",
           "origin_growth", "gated"]

# Cutoff edges of the origin piece, from 1 down to 1e-10.
ORIGIN_EDGES = (1.0,) + tuple(10.0 ** (-decade) for decade in range(2, 11))
ORIGIN_GROWTH = 0.10
_TAIL_MAX_DECADE = 8

# Segment bounds of the gates in increasing radius, 0, 1e-10 ... 1 ... 1e8:
# segment 0 is the floor [0, 1e-10], segments 1 .. _N_ORIGIN make up the
# origin piece, the rest the tail decades.
BOUNDS = (0.0,) + ORIGIN_EDGES[::-1] + tuple(10.0**k for k in
                                             range(1, _TAIL_MAX_DECADE + 1))
_N_ORIGIN = len(ORIGIN_EDGES) - 1
_PANELS_PER_DECADE = 4
_NODES = 10                 # per panel in the low rule; twice that in the high
_PROBES_PER_DECADE = 32     # sign-change search grid
_BISECTIONS = 48            # shrinks a probe bracket below 1e-13 relative
_CHUNK_ELEMENTS = 1 << 18   # transform terms formed at a time: 2 MB
_ROWS = 16                  # Gaussian rows formed at a time
# _gaussian(x) is exactly 1 for |x| <= _UNIT_BELOW (exp(-x^2) rounds to 1
# below x = 6.7e-9) and exactly 0 for |x| >= _ZERO_ABOVE (it is flushed
# above x = 18.585)
_UNIT_BELOW = 5e-9
_ZERO_ABOVE = 18.6
# Factors and weighted values below this are dropped before they are
# multiplied: two of them make a subnormal number, which the processor
# handles up to a hundred times slower, and a term this small moves no sum
# or gate.
_NEGLIGIBLE = 1e-150
# A factor this close to 1 over a segment changes the integrand by less
# than quad's own tolerance, so the row shares the unweighted fallback.
_UNIT_TOL = 1e-14

# Log-graded panel edges over all segments (the floor is one panel), and the
# two Gauss-Legendre rules on [-1, 1].
_PANEL_EDGES = np.unique(np.concatenate([[0.0]] + [
    np.geomspace(lo, hi, 1 + round(_PANELS_PER_DECADE * math.log10(hi / lo)))
    for lo, hi in zip(BOUNDS[1:], BOUNDS[2:])]))
_RULES = tuple(np.polynomial.legendre.leggauss(n)
               for n in (_NODES, 2 * _NODES))


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call: no rule pair
    on the battery falls back, and a descent integrates nothing, so a run
    that never needs it does not load scipy.integrate."""
    from scipy.integrate import quad as adaptive_quad
    return adaptive_quad(*args, **kwargs)


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


def origin_growth(estimates):
    """Relative growth of the absolute origin integral over the final
    cutoff decade, per row of the arrays ``estimates`` (0 where the
    previous estimate is not positive); above ORIGIN_GROWTH it is read as
    divergent."""
    prev, last = np.asarray(estimates[-2]), np.asarray(estimates[-1])
    growth = np.zeros(prev.shape)
    np.divide(last - prev, prev, out=growth, where=prev > 0)
    return growth


def _sign_changes(func, kinks) -> np.ndarray:
    """Radii where the array function ``func`` changes sign, bracketed on a
    log grid from 1e-10 to 1e8 joined with the ``kinks``, clipped to it, and
    narrowed by bisection.  A profile linear between its kinks changes
    sign at most once between two of them, so every change is found."""
    lo, hi = BOUNDS[1], BOUNDS[-1]
    grid = np.union1d(np.geomspace(lo, hi, 1 + round(
        _PROBES_PER_DECADE * math.log10(hi / lo))), np.clip(kinks, lo, hi))
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


def _flushed(a):
    return np.where(np.abs(a) < _NEGLIGIBLE, 0.0, a)


def _gaussian(x):
    """exp(-x^2), with the factors below _NEGLIGIBLE flushed to zero."""
    return _flushed(np.exp(-np.square(x)))


def signed_part(values, r):
    """The integrand itself."""
    return values


def abs_part(values, r):
    """The integrand's absolute value."""
    return np.abs(values)


def _sinc(x):
    """sin(x) / x for x > 0, bit for bit np.sinc(x / pi), on one buffer."""
    y = x / math.pi
    y *= math.pi
    out = np.sin(y)
    out /= y
    return out


# K_N(z): the radial kernel of the N-dimensional Fourier transform
_FOURIER_KERNELS = {1: np.cos, 2: j0, 3: _sinc}

# Panels are bisected until the Legendre coefficients of degree _NODES and
# up are at most _TAIL_TOL max|g|, small enough that the 10-node sums agree
# with the 20-node ones to the default quad_tol and no smooth profile falls
# back to quad; a kink or a jump that is not an edge stops after _SPLITS
# halvings and is left to the rule pair's check.  A J_0 panel whose left
# edge lies at x r >= _HANKEL_FROM takes the Hankel form
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
    """``edges`` with each panel but the floor (the one starting at 0)
    bisected until the Legendre coefficients of degree _NODES and up of g's
    20-node interpolant are at most _TAIL_TOL max|g|, and g at the 20 nodes
    of every panel.  A panel is bisected _SPLITS times at most, and a panel
    on which g is not finite not at all; the rule pair's check catches what
    either leaves."""
    t = _RULES[1][0]
    values = g(_nodes(edges[:-1], edges[1:], t))
    for _ in range(_SPLITS):
        scale = np.abs(values[np.isfinite(values)]).max(initial=0.0)
        tail = np.abs(values @ _ANALYSIS[1][_NODES:].T).max(axis=1)
        split = (tail > _TAIL_TOL * scale) & (edges[:-1] > 0.0)
        if not split.any():
            break
        lo, hi = edges[:-1][split], edges[1:][split]
        mid = 0.5 * (lo + hi)
        halves = g(_nodes(np.stack([lo, mid], axis=1).ravel(),
                          np.stack([mid, hi], axis=1).ravel(), t))
        # each split panel's values give way to its two halves'
        values = values[np.repeat(np.arange(split.size), 1 + split)]
        values[np.repeat(split, 1 + split)] = halves
        edges = np.union1d(edges, mid)
    return edges, values


class Panels:
    """The panel set of one integrand ``signed(r)`` = W(r) r^{N-1} over
    [bounds[0], bounds[-1]], and the reader of every integral over it.

    The panels are cut at the log-graded edges, the ``bounds``, the sign
    changes of ``signed`` and the ``kinks``, and bisected by
    :func:`_resolved`; ``signed`` takes and returns arrays, and is
    evaluated on the nodes of both rules once, here.  The fallback calls it
    with one radius.
    """

    def __init__(self, signed, bounds, quad_tol, kinks=()):
        self.quad_tol, self._signed = quad_tol, signed
        self._bounds = [float(b) for b in bounds]
        self._index = {b: s for s, b in enumerate(self._bounds)}
        lo, hi = self._bounds[0], self._bounds[-1]
        edges = np.concatenate([_PANEL_EDGES, _sign_changes(signed, kinks),
                                kinks])
        edges = np.union1d(edges[(edges > lo) & (edges < hi)], self._bounds)

        def g(r):
            return _flushed(signed(r.ravel()).reshape(r.shape))

        edges, high = _resolved(g, edges)
        self._edges = edges
        self._starts = np.searchsorted(edges, self._bounds[:-1])
        # per rule: nodes and weights (one row per panel) and the integrand
        # at the nodes
        half = 0.5 * np.diff(edges)[:, None]
        self._rules = []
        for t, w in _RULES:
            r = _nodes(edges[:-1], edges[1:], t)
            values = high if t.size == high.shape[1] else g(r)
            self._rules.append((r, half * w, values))
        # per rule: the nodes, weights and values in one run, the first
        # node of each segment and the first and last radius there
        self._runs = []
        for r, w, values in self._rules:
            starts = self._starts * r.shape[1]
            r = r.ravel()
            self._runs.append((r, w.ravel(), values.ravel(), starts,
                               r[starts], r[np.append(starts[1:], r.size) - 1]))
        self._fallbacks = {}    # key: value or QuadratureFailure

    def integrals(self, parts, scales=(0.0,)):
        """Reader ``read(lo, hi, live)`` (:meth:`_reader`) of the integrals
        of part(signed(r), r) exp(-(x r)^2) over [lo, hi], two of the
        bounds, one row array per part in ``parts`` over the x in
        ``scales``; by default the plain integrals, from the rule sums of
        :meth:`_rule_sums`."""
        x = np.asarray(scales, dtype=float)
        return self._reader(self._rule_sums(parts, x), parts, _gaussian, x)

    def _rule_sums(self, parts, x):
        """(2, segments, parts, rows) low- and high-rule sums of
        part(signed(r), r) exp(-(x r)^2) over each segment, one row per x,
        formed _ROWS rows at a time.  In each group of rows and each rule,
        the leading segments, where every factor of the group is exactly 1
        (x r <= _UNIT_BELOW), take the sums of the integrand alone, and the
        trailing ones, where every factor is flushed (x r >= _ZERO_ABOVE),
        the sums of its product with 0, both formed once: what the whole
        row sums there, bit for bit.  Only the band between them is
        exponentiated, and np.add.reduceat sums it with shifted starts, so
        each segment keeps its summation order."""
        size = np.abs(x)
        sums = np.empty((2, self._starts.size, len(parts), x.size))
        for rule, (r, weights, values, starts, first_r, last_r) in enumerate(
                self._runs):
            weighted = _flushed(np.stack([part(values, r) * weights
                                          for part in parts]))
            ones = np.add.reduceat(weighted, starts, axis=1).T[:, :, None]
            zeros = np.add.reduceat(0.0 * weighted, starts, axis=1).T[
                :, :, None]
            for first in range(0, x.size, _ROWS):
                rows = slice(first, first + _ROWS)
                lead = np.count_nonzero(size[rows].max() * last_r
                                        <= _UNIT_BELOW)
                trail = starts.size - np.count_nonzero(
                    size[rows].min() * first_r >= _ZERO_ABOVE)
                sums[rule, :lead, :, rows] = ones[:lead]
                sums[rule, trail:, :, rows] = zeros[trail:]
                if lead < trail:
                    band = slice(starts[lead], starts[trail]
                                 if trail < starts.size else r.size)
                    factors = _gaussian(np.outer(x[rows], r[band]))
                    sums[rule, lead:trail, :, rows] = np.add.reduceat(
                        factors[:, None] * weighted[:, band],
                        starts[lead:trail] - band.start, axis=2).T
        return sums

    def transform(self, dimension, upper):
        """The integrals of signed(r) K_N(x r) over [0, upper], with K_N the
        radial kernel of the N-dimensional Fourier transform, N =
        ``dimension`` (cos, J_0 and sin(x)/x), as a function of an array of
        x > 0; no gate.  ``upper`` is one of the bounds, and 0 the first.

        Each kernel is Re[A(x r) e^{i x r}], with A = 1 for cos, -i / (x r)
        for sin(x)/x (the interpolant is then of signed(r) / r) and
        H_0^(1)(x r) e^{-i x r} for J_0 on panels beyond x r =
        _HANKEL_FROM, where J_0 is integrated by the plain rules.  On the
        panel of centre m and half-width h the interpolant sum_k c_k P_k
        times e^{i x r} integrates exactly to
        h e^{i x m} sum_k c_k 2 i^k j_k(x h).
        """
        kernel = _FOURIER_KERNELS[dimension]
        panels = int(np.searchsorted(self._edges, upper))
        lo, hi = self._edges[:panels], self._edges[1:panels + 1]
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # per rule: nodes, weights, node values and the Legendre
        # coefficients of their interpolant, times 2 i^k
        rules = []
        for (r, _, values), (t, w), analysis in zip(self._rules, _RULES,
                                                    _ANALYSIS):
            r = r[:panels]
            values = values[:panels] / (r if dimension == 3 else 1.0)
            rules.append((r, w, values,
                          values @ analysis.T * _MOMENTS[:t.size]))

        def panel_sums(x):
            """(rows, 2, panels) low- and high-rule sums, one row per x."""
            # the (row, panel) pairs integrated through the moments; J_0
            # takes the plain rules below x r = _HANKEL_FROM
            by_moments = (np.outer(x, lo) >= _HANKEL_FROM if dimension == 2
                          else np.ones((x.size, lo.size), dtype=bool))
            rows, cols = np.nonzero(by_moments)
            plain_rows, plain_cols = np.nonzero(~by_moments)
            j = _spherical_bessels(x[rows] * half[cols])
            phase = half[cols] * np.exp(1j * x[rows] * centre[cols])
            sums = np.empty((x.size, 2, lo.size))
            for rule, (r, w, values, coefficients) in enumerate(rules):
                if dimension == 2:
                    z = x[rows, None] * r[cols]
                    hankel = (j0(z) + 1j * y0(z)) * np.exp(-1j * z)
                    coefficients = ((values[cols] * hankel)
                                    @ _ANALYSIS[rule].T * _MOMENTS[:w.size])
                    plain = x[plain_rows, None] * r[plain_cols]
                    sums[plain_rows, rule, plain_cols] = half[plain_cols] * (
                        (values[plain_cols] * j0(plain)) @ w)
                else:
                    coefficients = coefficients[cols]
                filon = phase * np.einsum("ik,ik->i", coefficients,
                                          j[:, :w.size])
                sums[rows, rule, cols] = (filon.imag / x[rows]
                                          if dimension == 3 else filon.real)
            return sums

        def integrals(scales):
            x = np.asarray(scales, dtype=float)
            step = max(1, _CHUNK_ELEMENTS // (2 * _NODES * panels))
            sums = np.concatenate([panel_sums(x[first:first + step])
                                   for first in range(0, x.size, step)])
            segments = np.add.reduceat(
                sums, self._starts[self._starts < panels], axis=2)
            values, failed = self._reader(
                segments.transpose(1, 2, 0)[:, :, None], (signed_part,),
                kernel, x)(self._bounds[0], upper)
            if failed:
                raise failed[min(failed)]
            return values[0]

        return integrals

    def _reader(self, sums, parts, factor, x):
        """``read(lo, hi, live=None)``: (values, failed), with values[j] the
        integrals of parts[j](signed(r), r) factor(x r) over [lo, hi], two
        of the bounds, as an array over the rows x, from ``sums``, the
        (2, segments, parts, rows) low- and high-rule sums on the first
        segments.  A segment is read from the 20-node sum when the two
        rules agree to quad_tol * max(1, |value|), and otherwise from
        :func:`segment`, for the rows in the mask ``live`` (by default
        all) only; ``failed`` maps each row whose call raised to its
        QuadratureFailure, and the row reads NaN and nothing further."""
        low, high = sums
        disagree = ~(np.isfinite(low) & np.isfinite(high)
                     & (np.abs(high - low)
                        <= self.quad_tol * np.maximum(1.0, np.abs(high))))
        suspect = disagree.any(axis=(1, 2)).tolist()

        def read(lo, hi, live=None):
            out, failed = 0.0, {}
            for s in range(self._index[lo], self._index[hi]):
                values = high[s]
                if suspect[s]:
                    values = values.copy()
                    live = (np.ones(x.size, dtype=bool) if live is None
                            else live.copy())
                    for row, j in zip(*np.nonzero((disagree[s] & live).T)):
                        if not live[row]:
                            continue
                        try:
                            values[j, row] = self._fallback(
                                parts[j], factor, float(x[row]), s)
                        except QuadratureFailure as exc:
                            failed[int(row)], live[row] = exc, False
                out = out + values
            if failed:
                out[:, list(failed)] = np.nan
            return out, failed

        return read

    def _fallback(self, part, factor, x, s):
        """The integral of part(signed(r), r) factor(x r) over segment s by
        :func:`segment`, once per panel set.  Every factor is 1 at 0 and
        monotone on [0, 1], so where x r stays below 1 and the factor at the
        segment's end is within _UNIT_TOL of 1 (the floor of every p of the
        Gaussian scan, and p = 0 throughout), the rows share one call of
        the unweighted part per (segment, part), its failure included."""
        lo, hi = self._bounds[s], self._bounds[s + 1]
        if x * hi <= 1.0 and abs(factor(x * hi) - 1.0) <= _UNIT_TOL:
            factor, x = _gaussian, 0.0
        key = (s, part, factor, x)
        if key not in self._fallbacks:
            try:
                self._fallbacks[key] = segment(
                    lambda r: factor(x * r) * part(self._signed(r), r), lo,
                    hi, self.quad_tol)[0]
            except QuadratureFailure as exc:
                self._fallbacks[key] = exc
        if isinstance(self._fallbacks[key], QuadratureFailure):
            raise self._fallbacks[key]
        return self._fallbacks[key]


def gated(piece, rows, quad_tol):
    """(integrals, tail_masses, errors) over ``rows`` rows from
    ``piece(lo, hi, live)``: ((values, |value| masses), failed) over [lo,
    hi], two consecutive BOUNDS, each an array over the rows, where the
    rows outside the mask ``live`` need not be read and ``failed`` maps a
    row whose reading raised to its exception.  The origin-growth gate and
    the tail stopping rule apply to all rows at once, each row adding in
    the order it would alone, and a row is read no further once it has
    stopped, tripped a gate or failed.  integrals[k] is row k's value (NaN
    for a row with an error), tail_masses[k] its per-decade masses up to
    the decade it stopped at, and errors[k] the NotAbsolutelyIntegrable or
    QuadratureFailure it raised, or None.  The floor [0, 1e-10] joins each
    value after the gate and no gate reads it."""
    errors, live = [None] * rows, np.ones(rows, dtype=bool)

    def read(lo, hi):
        pair, failed = piece(lo, hi, live)
        for row, exc in failed.items():
            errors[row], live[row] = exc, False
        return pair

    # the rows read no further add what they read, without a warning, as
    # Python floats do; no result takes it
    with np.errstate(all="ignore"):
        # the origin piece's values and masses, and the sums one segment
        # before
        near = previous = np.zeros((2, rows))
        for s in reversed(range(1, _N_ORIGIN + 1)):
            previous, near = near, near + read(BOUNDS[s], BOUNDS[s + 1])
        growth = origin_growth([previous[1], near[1]])
        for row in np.flatnonzero(live & (growth > ORIGIN_GROWTH)):
            errors[row], live[row] = NotAbsolutelyIntegrable(
                f"integral near the origin still grew {growth[row]:.1%} "
                f"over the final cutoff decade"), False
        near = near[0] + read(BOUNDS[0], BOUNDS[1])[0]

        integrals, far, masses = np.full(rows, np.nan), 0.0, []
        decades = np.zeros(rows, dtype=int)
        for lo, hi in zip(BOUNDS[_N_ORIGIN + 1:], BOUNDS[_N_ORIGIN + 2:]):
            if not live.any():
                break
            value, mass = read(lo, hi)
            far = far + value
            masses.append(mass)
            decades += live
            stop = live & (mass < np.maximum(quad_tol * 1e-2,
                                             1e-12 * (1.0 + np.abs(far))))
            np.copyto(integrals, near + far, where=stop)
            live &= ~stop
    for row in np.flatnonzero(live):
        errors[row] = NotAbsolutelyIntegrable(
            f"tail integral had not converged by radius 1e{_TAIL_MAX_DECADE}; "
            f"last decade contributed {masses[-1][row]:.3g}")
    tail_masses = [row[:n] for row, n in zip(
        np.array(masses).reshape(len(masses), rows).T.tolist(),
        decades.tolist())]
    return integrals, tail_masses, errors
