"""Spans at groundlab's layer boundaries, recorded from outside the package.

:class:`Tracer` rebinds the module-level names through which one layer
calls another (``groundlab.stability.energy_grid``,
``groundlab.groundstate.minimize_particles``, ...) to timing wrappers, and
puts them back on :meth:`Tracer.restore`.  Each span keeps its name, start,
end, parent span and the id of the operation it belongs to; spans stay in
memory until :func:`layer_metrics` reduces them.  Potentials handed to the
package are wrapped in :class:`CountingPotential`, which counts W and dW/dr
evaluations without opening spans (there are millions of scalar calls).
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

# Span names.
CRITERIA = {"stability.integral": "integral",
            "stability.gaussian_weighted": "gaussian_weighted",
            "stability.fourier": "fourier",
            "stability.ruc_search": "ruc_search"}
CLI_COMMANDS = ("analyze", "stability", "minimize", "scan")


def _grid_note(args, kwargs, report):
    """Cells of the density and bytes of the arrays energy_grid allocates,
    computed from their sizes (cache traffic is not counted)."""
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    mode = args[2] if len(args) > 2 else kwargs.get("quad_mode", "direct")
    cells, dim = rho.values.size, rho.values.ndim
    if mode == "direct":
        nbytes = 8 * (2 * cells * cells + cells * dim)
    else:
        offsets = int(np.prod([2 * e - 1 for e in rho.values.shape]))
        nbytes = 8 * offsets * (dim + 3)
    return {"cells": cells, "bytes": nbytes, "value": report.value}


def _density_note(args, kwargs, density):
    return {"cells": density.values.size}


def _descent_note(args, kwargs, trace):
    return {"n": trace.n, "iterations": trace.iterations}


# (module, attribute, span name, note).  Each rebinding replaces the name
# the calling layer looks up at call time.
BOUNDARIES = (
    ("stability", "integral_criterion", "stability.integral", None),
    ("stability", "gaussian_criterion", "stability.gaussian_weighted", None),
    ("stability", "fourier_criterion", "stability.fourier", None),
    ("stability", "ruc_search", "stability.ruc_search", None),
    ("stability", "space_integral", "stability.space_integral", None),
    ("stability", "weighted_space_integral", "stability.weighted_integral",
     None),
    ("stability", "radial_fourier_transform", "stability.fourier_transform",
     None),
    ("stability", "uniform_ball_density", "measures.witness", _density_note),
    ("stability", "gaussian_witness_density", "measures.witness",
     _density_note),
    ("stability", "modulated_witness_density", "measures.witness",
     _density_note),
    ("stability", "energy_grid", "energy.grid", _grid_note),
    ("stability", "energy_pointcloud", "energy.pointcloud", None),
    ("groundstate", "minimize_particles", "groundstate.descent",
     _descent_note),
    ("groundstate", "classify_trace", "groundstate.classify", None),
    ("groundstate", "ground_state_scan", "groundstate.scan", None),
    ("cli", "probe_hypotheses", "potentials.probe", None),
    ("cli", "integral_criterion", "stability.integral", None),
    ("cli", "gaussian_criterion", "stability.gaussian_weighted", None),
    ("cli", "fourier_criterion", "stability.fourier", None),
    ("cli", "ruc_search", "stability.ruc_search", None),
    ("cli", "minimize_particles", "groundstate.descent", _descent_note),
    ("cli", "classify_trace", "groundstate.classify", None),
    ("cli", "ground_state_scan", "groundstate.scan", None),
)


class Span:
    """One call across a layer boundary.  w, s and d hold the potential's
    array-W, scalar-W and dW/dr call counts at the start and the end."""

    __slots__ = ("id", "parent", "op", "name", "start", "end", "note",
                 "w0", "s0", "d0", "w1", "s1", "d1")

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                "note": self.note, "w_array_calls": self.w1 - self.w0,
                "w_scalar_calls": self.s1 - self.s0,
                "dw_calls": self.d1 - self.d0}


class Tracer:
    """Collects spans and potential-evaluation counts for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None
        # potential counters
        self.w_calls = 0
        self.w_scalar = 0
        self.w_points = 0
        self.d_calls = 0
        self.busy = 0.0

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.id = len(self.spans)
            span.parent = self._stack[-1].id if self._stack else None
            span.op, span.name, span.note = self.op, name, None
            span.w0, span.s0, span.d0 = self._counts()
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                span.w1, span.s1, span.d1 = self._counts()
            if note is not None:
                span.note = note(args, kwargs, out)
            return out
        return traced

    def _counts(self):
        return self.w_calls - self.w_scalar, self.w_scalar, self.d_calls

    def operation(self, index, name, call):
        """Root span of one user-level call; its spans share ``index``."""
        wrapped = self.wrap(name, call)

        def run():
            self.op = index
            try:
                return wrapped()
            finally:
                self.op = None
        return run

    def potential(self, inner):
        return CountingPotential(inner, self)

    def install(self):
        from groundlab import cli, groundstate, stability

        modules = {"stability": stability, "groundstate": groundstate,
                   "cli": cli}
        for module, attr, name, note in BOUNDARIES:
            mod = modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, note))
        build = cli.build_potential
        self._saved.append((cli, "build_potential", build))
        cli.build_potential = lambda block: self.potential(build(block))

    def restore(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


class CountingPotential:
    """Delegates to a potential, counting each W and dW/dr evaluation."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return repr(self._inner)

    def __call__(self, radii):
        start = perf_counter()
        out = self._inner(radii)
        tracer = self._tracer
        tracer.busy += perf_counter() - start
        tracer.w_calls += 1
        size = np.size(radii)
        tracer.w_points += size
        if np.ndim(radii) == 0:
            tracer.w_scalar += 1
        return out

    def derivative(self, radii):
        start = perf_counter()
        out = self._inner.derivative(radii)
        tracer = self._tracer
        tracer.busy += perf_counter() - start
        tracer.d_calls += 1
        return out


def _self_time(span, children):
    return (span.end - span.start) - sum(c.end - c.start
                                         for c in children.get(span.id, ()))


def layer_metrics(tracer, op_names) -> dict:
    """Per-layer metrics from one traced pass.  ``op_names`` maps operation
    index to the workload's operation name (cli ops are 'cli <command>')."""
    spans = tracer.spans
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.end - s.start for s in named(name))

    def returned(name):
        # spans whose call raised carry no note
        return [s for s in named(name) if s.note is not None]

    m = {
        "potentials.calls": tracer.w_calls,
        "potentials.scalar_calls": tracer.w_scalar,
        "potentials.points": tracer.w_points,
        "potentials.busy_s": tracer.busy,
        "potentials.deriv_calls": tracer.d_calls,
        "potentials.probe_s": busy("potentials.probe"),
    }
    for key, name in (("space_integral", "stability.space_integral"),
                      ("weighted_integral", "stability.weighted_integral"),
                      ("fourier_transform", "stability.fourier_transform")):
        m[f"stability.{key}.calls"] = len(named(name))
        m[f"stability.{key}.busy_s"] = busy(name)
    for name, criterion in CRITERIA.items():
        m[f"stability.self_s.{criterion}"] = sum(
            _self_time(s, children) for s in named(name))

    # every energy_grid call the criteria make evaluates a witness
    grids = returned("energy.grid")
    verified = sum(1 for s in grids if s.note["value"] < 0)
    attempts = len(named("energy.grid"))
    m["stability.witness.attempts"] = attempts
    m["stability.witness.verified"] = verified
    m["stability.witness.useful_ratio"] = (verified / attempts if attempts
                                           else 0.0)
    witnesses = returned("measures.witness")
    m["measures.witness.builds"] = len(witnesses)
    m["measures.witness.busy_s"] = busy("measures.witness")
    m["measures.witness.cells"] = sum(s.note["cells"] for s in witnesses)
    m["energy.grid.calls"] = attempts
    m["energy.grid.busy_s"] = busy("energy.grid")
    m["energy.grid.cells_max"] = max((s.note["cells"] for s in grids),
                                     default=0)
    m["energy.grid.bytes_computed"] = sum(s.note["bytes"] for s in grids)
    m["energy.pointcloud.calls"] = len(named("energy.pointcloud"))
    m["energy.pointcloud.busy_s"] = busy("energy.pointcloud")

    descents = returned("groundstate.descent")
    iterations = sum(s.note["iterations"] for s in descents)
    # a trial step evaluates W alone; an accepted step evaluates W and
    # dW/dr; the start evaluates each twice.  W calls less dW/dr calls
    # therefore count the trial energy evaluations.
    trials = sum((s.w1 - s.w0) - (s.d1 - s.d0) for s in descents)
    m["groundstate.descents"] = len(descents)
    m["groundstate.iterations"] = iterations
    for n in (16, 64, 256):
        sized = [s for s in descents if s.note["n"] == n]
        its = sum(s.note["iterations"] for s in sized)
        m[f"groundstate.ms_per_iter.n{n}"] = (
            1e3 * sum(s.end - s.start for s in sized) / its if its else 0.0)
    m["groundstate.accept_ratio"] = iterations / trials if trials else 0.0
    m["groundstate.classify_busy_s"] = busy("groundstate.classify")

    roots = [s for s in spans if s.parent is None]
    cli_roots = [s for s in roots if op_names[s.op].startswith("cli ")]
    m["cli.self_s"] = sum(_self_time(s, children) for s in cli_roots)
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = sum(s.end - s.start for s in cli_roots
                                    if op_names[s.op] == f"cli {command}")
    return m
