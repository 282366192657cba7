"""The three benchmark workloads: their inputs, operations and output checks.

A workload is built once per process by :func:`build` from a seed.  It is a
list of operations, each one user-level call into groundlab, plus a check
that runs over the results of one pass after the pass has been timed.

Every call goes through the module attribute (``stability.gaussian_criterion``
rather than a name bound at import), so the tracer's rebinding of those
attributes reaches the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from groundlab import cli, energy, groundstate, stability
from groundlab.potentials import GaussianMix, Morse, PowerLaw

HE = "HE_satisfied"
ST = "stable_indication"
IN = "inconclusive"

CRITERIA = ("integral", "gaussian_weighted", "fourier")

# Copy of REGRESSION_CASES in tests/conftest.py: (family, parameters,
# dimension, expected (integral, gaussian_weighted, fourier) outcomes).
# selftest.py asserts that the two tables agree.
BATTERY_CASES = (
    ("morse", (1.0, 2.0), 1, (HE, HE, HE)),
    ("morse", (1.0, 2.0), 2, (HE, HE, HE)),
    ("morse", (1.0, 2.0), 3, (HE, HE, HE)),
    ("morse", (1.0, 1.0), 1, (IN, IN, IN)),
    ("morse", (0.25, 1.0), 1, (ST, ST, ST)),
    ("morse", (0.5, 1.0), 2, (ST, ST, ST)),
    ("morse", (2.0, 1.0), 1, (HE, HE, HE)),
    ("morse", (0.5, 1.5), 3, (HE, HE, HE)),
    ("gaussmix", ((1.0, 1.0),), 1, (ST, ST, ST)),
    ("gaussmix", ((1.0, 1.0),), 2, (ST, ST, ST)),
    ("gaussmix", ((-1.0, 1.0),), 1, (HE, HE, HE)),
    ("gaussmix", ((1.0, 1.0), (-1.5, 2.0)), 1, (HE, HE, HE)),
    ("gaussmix", ((4.0, 2.0), (-7.0, 1.0)), 1, (ST, HE, HE)),
    ("gaussmix", ((1.0, 0.5), (-0.2, 2.0)), 1, (ST, ST, ST)),
    ("gaussmix", ((2.0, 1.0), (-1.0, 2.0)), 2, (HE, HE, HE)),
    ("gaussmix", ((1.0, 1.0), (-0.3, 1.5)), 3, (HE, HE, HE)),
    ("gaussmix", ((-0.5, 1.2),), 2, (HE, HE, HE)),
    ("gaussmix", ((1.0, 1.0), (-0.5, 1.0)), 1, (ST, ST, ST)),
    ("gaussmix", ((4.0, 2.0), (-7.0, 1.0)), 2, (ST, HE, IN)),
    ("gaussmix", ((1.0, 1.0), (-1.0, 1.0)), 1, (IN, IN, IN)),
)

# All 60 battery calls take about 80 s on a 2-core x86 box, where timings
# swing by up to 2x within seconds; a run therefore repeats a short pass
# and averages.  A pass runs the three criteria over two cases (about 5 s):
# Morse(1,2,3), whose 3-d ball witness runs the 255^3 FFT and sets the
# peak memory, and Morse(0.25,1,1), stable for every criterion.  The
# Gaussian-weighted scan takes the largest share of the time, as in the
# full battery.
BATTERY_PASS = (2, 4)

# Descent profiles (family, parameters, dimension): Morse(1,2,N) is tight,
# Morse(0.5,1,2) vanishes, Morse(2,1,1) reaches every branch of the
# classifier, PowerLaw(2,1,2) has a growing tail and PowerLaw(2,-0.5,2) is
# singular at contact, so its distances are not clamped.
DESCENT_PROFILES = (
    ("morse", (1.0, 2.0), 1),
    ("morse", (1.0, 2.0), 2),
    ("morse", (1.0, 2.0), 3),
    ("morse", (0.5, 1.0), 2),
    ("morse", (2.0, 1.0), 1),
    ("powerlaw", (2.0, 1.0), 2),
    ("powerlaw", (2.0, -0.5), 2),
)
INIT_KINDS = ("lattice", "random_ball", "two_cluster")
DESCENT_MAX_ITER = 2000
# ruc_search runs on Morse(1,2,2) and Morse(0.5,1,2), indices into the above.
RUC_PROFILES = ((1, HE), (3, ST))

# The README's four command-line configs.
CLI_CONFIGS = {
    "analyze": {"command": "analyze",
                "potential": {"family": "powerlaw", "a": 2.0, "r": 1.0,
                              "dimension": 2}},
    "stability": {"command": "stability",
                  "potential": {"family": "morse", "G": 1.0, "L": 2.0,
                                "dimension": 2},
                  "criteria": ["integral", "gaussian_weighted", "fourier",
                               "ruc_search"]},
    "minimize": {"command": "minimize",
                 "potential": {"family": "powerlaw", "a": 2.0, "r": 1.0,
                               "dimension": 2},
                 "n": 16, "seeds": [0, 1, 2], "init": "random_ball",
                 "max_iter": 2000},
    "scan": {"command": "scan",
             "potential": {"family": "morse", "G": 1.0, "L": 1.0,
                           "dimension": 1},
             "grid": {"G": [0.25, 0.5, 1.0, 2.0], "L": [0.5, 1.0, 2.0]},
             "n": 16, "seeds": [0, 1, 2]},
}
CLI_EXPECTED_FILES = {
    "analyze": ("analysis.json",),
    "stability": ("verdicts.json",),
    "minimize": ("trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv",
                 "final_config.csv", "classification.json"),
    "scan": ("phase_table.csv", "scan_summary.json"),
}

# A check that fails on the current classifier and is reported as a
# finding: a trace that collapsed to a point is labelled 'vanishing'.
KNOWN_FINDINGS = ("collapsed-vanishing",)


@dataclass
class Op:
    """One user-level call: ``call()`` is timed, its result checked later."""

    name: str
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list
    # check(results) -> list of (op index, check id, message)
    check: Callable[[list], list]
    # labels(results) -> JSON-able outcome tags, compared across runs
    labels: Callable[[list], list]
    # written(results) -> (files, bytes) the pass wrote; cleanup(results)
    written: Callable[[list], tuple] = lambda results: (0, 0)
    cleanup: Callable[[list], None] = lambda results: None


def make_potential(family, params, dimension):
    if family == "morse":
        return Morse(*params, dimension)
    if family == "powerlaw":
        return PowerLaw(*params, dimension)
    return GaussianMix(params, dimension)


def build(name: str, seed: int, workdir: Path, wrap=lambda p: p,
          cases=None) -> Workload:
    """Inputs of one workload.  ``wrap`` is applied to every potential the
    benchmark hands in; ``cases`` replaces the battery case table."""
    if name == "battery":
        return _battery(seed, wrap, cases)
    if name == "descent":
        return _descent(seed, wrap)
    if name == "cli":
        return _cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# battery


def _battery(seed, wrap, cases):
    if cases is None:
        cases = [BATTERY_CASES[i] for i in BATTERY_PASS]
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    raw = [make_potential(f, p, d) for f, p, d, _ in cases]
    ops = []
    for potential in raw:
        handed = wrap(potential)
        ops += [
            Op(f"integral {potential.label}",
               lambda w=handed: stability.integral_criterion(
                   w, build_witness=True)),
            Op(f"gaussian_weighted {potential.label}",
               lambda w=handed: stability.gaussian_criterion(
                   w, build_witness=True)),
            Op(f"fourier {potential.label}",
               lambda w=handed: stability.fourier_criterion(w)),
        ]

    verified = {}

    def witness_energy(potential, measure):
        # passes rebuild byte-identical witnesses; evaluate each one once
        key = (potential.label, measure.values.shape, measure.cell_width,
               tuple(measure.origin),
               hashlib.sha1(measure.values.tobytes()).hexdigest())
        if key not in verified:
            verified[key] = energy.energy_grid(
                potential, measure, quad_mode="radial_fast").value
        return verified[key]

    def check(results):
        bad = []
        for k, ((_, _, _, expected), potential) in enumerate(zip(cases, raw)):
            verdicts = results[3 * k:3 * k + 3]
            witness = False
            for j, (criterion, want, verdict) in enumerate(
                    zip(CRITERIA, expected, verdicts)):
                idx = 3 * k + j
                if verdict is None:
                    continue
                if verdict.outcome != want:
                    bad.append((idx, "tag", f"{criterion} {potential.label}: "
                                f"{verdict.outcome}, expected {want}"))
                if verdict.outcome != HE:
                    continue
                measure = getattr(verdict.certificate, "measure", None)
                if measure is None:
                    bad.append((idx, "certificate", f"{criterion} "
                                f"{potential.label}: HE without a witness"))
                    continue
                witness = True
                value = witness_energy(potential, measure)
                if not value < 0:
                    bad.append((idx, "certificate", f"{criterion} "
                                f"{potential.label}: witness energy "
                                f"{value!r} re-evaluates >= 0"))
            fourier = verdicts[2]
            if witness and fourier is not None and fourier.outcome == ST:
                bad.append((3 * k + 2, "fourier-vs-witness",
                            f"{potential.label}: fourier says {ST} but a "
                            f"negative-energy witness exists"))
        return bad

    return Workload("battery", ops, check,
                    lambda results: [getattr(v, "outcome", None)
                                     for v in results])


# ---------------------------------------------------------------------------
# descent


def _descent_jobs():
    """(profile index, n, init, start offset) of one descent pass.

    Jobs that converge early take a number of iterations that depends on
    the start, so their times move with the seed.  Morse(2,1,1) never
    converges within 2000 iterations, so its jobs have fixed work: nine at
    n=16 hold the median call and three at n=64 the 90th percentile.  They
    are also where the classifier finding shows.  The other profiles run
    once each at n=16, the inits taken in turn; the n=256 job converges
    within about 50 iterations from two clusters.
    """
    fixed = 4  # Morse(2,1,1)
    jobs = [(p, 16, INIT_KINDS[p % 3], 0)
            for p in range(len(DESCENT_PROFILES)) if p != fixed]
    jobs += [(fixed, 16, init, k) for k in range(3) for init in INIT_KINDS]
    jobs += [(fixed, 64, init, 0) for init in INIT_KINDS]
    jobs.append((0, 256, "two_cluster", 0))
    return jobs


def _descend(potential, n, init, start):
    trace = groundstate.minimize_particles(
        potential, n, init=init, seed=start, max_iter=DESCENT_MAX_ITER)
    label, info = groundstate.classify_trace(trace, return_details=True)
    return trace, label, info.get("route")


def _descent(seed, wrap):
    raw = [make_potential(*profile) for profile in DESCENT_PROFILES]
    handed = [wrap(p) for p in raw]
    jobs = _descent_jobs()
    ops = [Op(f"descent {raw[p].label} n={n} {init} seed={seed + k}",
              lambda w=handed[p], n=n, init=init, k=k: _descend(
                  w, n, init, seed + k))
           for p, n, init, k in jobs]
    starts = (seed, seed + 1, seed + 2)
    ops += [Op(f"ruc_search {raw[p].label}",
               lambda w=handed[p]: stability.ruc_search(w, seeds=starts))
            for p, _ in RUC_PROFILES]

    def check(results):
        bad = []
        for idx, (op, (p, *_), result) in enumerate(zip(ops, jobs, results)):
            if result is None:
                continue
            trace, label, route = result
            where = op.name[len("descent "):]
            e = trace.energies
            if not (np.all(np.isfinite(e))
                    and np.all(np.isfinite(trace.final_config))):
                bad.append((idx, "finite", f"{where}: non-finite state"))
            elif np.any(np.diff(e) > 1e-12 * (1.0 + np.abs(e[:-1]))):
                bad.append((idx, "monotone", f"{where}: energy increased"))
            family, params, _ = DESCENT_PROFILES[p]
            vanishes = (family, params) == ("morse", (0.5, 1.0))
            if vanishes and label != "vanishing":
                bad.append((idx, "label", f"{where}: {label}, expected "
                            f"vanishing"))
            if family == "powerlaw" and label == "vanishing":
                bad.append((idx, "label", f"{where}: labelled vanishing"))
            q = trace.q90_radii
            if q[-1] < 1e-6 * q[0] and label == "vanishing":
                bad.append((idx, "collapsed-vanishing",
                            f"{where}: q90 radius {q[0]:.3g} -> {q[-1]:.3g} "
                            f"(energy {trace.final_energy:.6g}) labelled "
                            f"vanishing via {route}"))
        for k, (p, want) in enumerate(RUC_PROFILES):
            idx = len(jobs) + k
            if results[idx] is not None and results[idx].outcome != want:
                bad.append((idx, "tag", f"ruc_search {raw[p].label}: "
                            f"{results[idx].outcome}, expected {want}"))
        return bad

    def labels(results):
        return ([r and r[1] for r in results[:len(jobs)]]
                + [getattr(v, "outcome", None) for v in results[len(jobs):]])

    return Workload("descent", ops, check, labels)


# ---------------------------------------------------------------------------
# cli


def _cli(seed, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    order = list(CLI_CONFIGS)
    random.Random(seed).shuffle(order)
    counter = itertools.count()
    ops = []
    for sub in order:
        config = workdir / f"{sub}.json"
        config.write_text(json.dumps(CLI_CONFIGS[sub]))

        def call(sub=sub, config=config):
            out = workdir / f"{sub}-{next(counter)}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([sub, "--config", str(config),
                                 "--out", str(out)])
            return code, out
        ops.append(Op(f"cli {sub}", call))

    def check(results):
        bad = []
        for idx, (sub, result) in enumerate(zip(order, results)):
            if result is None:
                continue
            problem = _cli_problem(sub, *result)
            if problem:
                bad.append((idx, "cli", f"{sub}: {problem}"))
        return bad

    def labels(results):
        return [result and _cli_label(sub, result[1])
                for sub, result in zip(order, results)]

    def written(results):
        sizes = [output_size(r[1]) for r in results if r is not None]
        return sum(f for f, _ in sizes), sum(b for _, b in sizes)

    def cleanup(results):
        for r in results:
            if r is not None:
                shutil.rmtree(r[1], ignore_errors=True)

    return Workload("cli", ops, check, labels, written, cleanup)


def _cli_problem(sub, code, out: Path):
    if code != 0:
        return f"exit code {code}"
    missing = [f for f in CLI_EXPECTED_FILES[sub] if not (out / f).is_file()]
    if missing:
        return f"missing {missing}"
    label = _cli_label(sub, out)
    if sub == "analyze" and label != "H3a":
        return f"tail class {label}, expected H3a"
    if sub == "stability":
        verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
        if label != [HE] * 4:
            return f"verdicts {label}, expected four {HE}"
        for v in verdicts:
            path = v["certificate_path"]
            if path and not Path(path).exists():
                return f"certificate {path} not written"
    if sub == "minimize" and label != "tight":
        return f"classification {label}, expected tight"
    if sub == "scan":
        with (out / "phase_table.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 48:
            return f"{len(rows)} phase-table rows, expected 48"
        if any(row["error"] for row in rows):
            return "phase table has errors"
    return None


def _cli_label(sub, out: Path):
    try:
        return _read_label(sub, out)
    except (OSError, KeyError, ValueError):
        return None


def _read_label(sub, out: Path):
    if sub == "analyze":
        return json.loads((out / "analysis.json").read_text())[
            "report"]["tail_class"]
    if sub == "stability":
        return [v.get("outcome") for v in json.loads(
            (out / "verdicts.json").read_text())["verdicts"]]
    if sub == "minimize":
        return json.loads((out / "classification.json").read_text())[
            "classification"]
    with (out / "phase_table.csv").open() as fh:
        return [row["classification"] for row in csv.DictReader(fh)]


def output_size(out: Path):
    """(files, bytes) under one command's output directory."""
    files = [f for f in out.rglob("*") if f.is_file()]
    return len(files), sum(f.stat().st_size for f in files)
