"""Dump groundlab's user-visible outputs to JSON, or compare two dumps.

A refactor that must not change any number is checked by dumping the
outputs of two checkouts and comparing them:

    PYTHONPATH=<old>/src python3 tools/dump_outputs.py dump <old> old.json
    PYTHONPATH=<new>/src python3 tools/dump_outputs.py dump <new> new.json
    python3 tools/dump_outputs.py compare old.json new.json

``compare`` lists each non-numeric difference with both values, and
groups numeric ones (CSV cells included) by field, with their count and
largest absolute and relative deviation.  A list that is a strict prefix
of the other (a trace that stops earlier) takes one line: both lengths,
and whether the longer list's tail stays at the last shared value.  It
then prints one line per transformed profile, with the largest deviation
of its transform, |old - new| and |old - new| / (1 + |old|), zero
included.

A dump holds the verdicts of the three analytic criteria over
REGRESSION_CASES of ``<checkout>/tests/conftest.py`` (witnesses on, with a
hash of each certificate measure and, for a grid, whether it equals its
mirror image along each axis, so that ``compare`` lists a witness that
gains or loses that symmetry), ``probe_hypotheses`` of the same
potentials, ``radial_fourier_transform`` of the same potentials, of five
long-range Morse profiles (L up to 1000) and of a 200-knot random
``Tabulated`` profile (about 100 kinks and 100 sign changes) on
``fourier_criterion``'s default frequencies and tail probes, the
``space_integral`` of that profile, ``gaussian_criterion`` without a
witness on GAUSSIAN_SCANS (a skipped p = 0 with a shared floor fallback,
tail fallbacks, and an unsorted p grid), eight CLI runs (exit code, stdout and
every output file: JSON without its timestamp, CSV verbatim, others
hashed), and the jobs of
perfbench's ``descent`` workload with start seed 0: for each of the 19
``minimize_particles`` runs (max_iter 2000) its four trace arrays, final
configuration, a hash of its snapshots and its ``classify_trace`` label,
and the two ``ruc_search`` verdicts with their per-pair minima.  It also
holds, in N = 1, 2 and 3, for a random cloud, the rasterized unit ball,
the p = 1 Gaussian witness and an off-centre random grid, the size and
hash of two ``empirical_approximation`` runs each (APPROXIMATION_EPS),
and the ``box_mass`` of each grid in four random boxes.  A dump
takes 5-12 s on a 2-vCPU x86-64 box, 0.7 s of it in the measures, and
its peak RSS is 140-180 MB;
a checkout whose transforms cost decay radius x frequency (octave bands
or a fixed panel width) takes about 25 s more, most of it on
Morse(0.5, 1000, 1), and one whose panels are not cut at the knots about
0.5 s more on the tabulated profile, whose Gaussian-weighted scan is left
out: such a checkout takes about 50 s over it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

CLI_RUNS = {
    "analyze_powerlaw": {"command": "analyze", "potential": {
        "family": "powerlaw", "a": 2.0, "r": 1.0, "dimension": 2}},
    "analyze_morse": {"command": "analyze", "potential": {
        "family": "morse", "G": 1.0, "L": 2.0, "dimension": 2}},
    "stability_readme": {"command": "stability", "potential": {
        "family": "morse", "G": 1.0, "L": 2.0, "dimension": 2},
        "criteria": ["integral", "gaussian_weighted", "fourier",
                     "ruc_search"]},
    "stability_dip": {"command": "stability", "potential": {
        "family": "gaussmix", "terms": [[4.0, 2.0], [-7.0, 1.0]],
        "dimension": 1},
        "criteria": ["integral", "gaussian_weighted", "fourier"]},
    "stability_growing": {"command": "stability", "potential": {
        "family": "powerlaw", "a": 2.0, "r": 1.0, "dimension": 1}},
    "minimize_readme": {"command": "minimize", "potential": {
        "family": "powerlaw", "a": 2.0, "r": 1.0, "dimension": 2},
        "n": 16, "seeds": [0, 1, 2], "init": "random_ball",
        "max_iter": 2000},
    "scan_readme": {"command": "scan", "potential": {
        "family": "morse", "G": 1.0, "L": 1.0, "dimension": 1},
        "grid": {"G": [0.25, 0.5, 1.0, 2.0], "L": [0.5, 1.0, 2.0]},
        "n": 16, "seeds": [0, 1, 2]},
    # a grid stack that mixes profiles singular (r < 0) and finite at
    # contact, two dimensions, and cells whose potential is refused (r > a)
    "scan_mixed": {"command": "scan", "potential": {
        "family": "powerlaw", "a": 2.0, "r": 1.0, "dimension": 1},
        "grid": {"r": [-0.5, 0.5, 3.0], "dimension": [1, 2]},
        "n": 12, "seeds": [0, 1, 2]},
}

# (family, parameters, dimension) of the descent benchmark's profiles
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
# (profile index, n, init, seed): each profile but Morse(2,1,1) once at
# n = 16 with the inits in turn, Morse(2,1,1) from each init with three
# seeds at n = 16 and one at n = 64, Morse(1,2,1) at n = 256
DESCENT_JOBS = (
    [(p, 16, INIT_KINDS[p % 3], 0) for p in (0, 1, 2, 3, 5, 6)]
    + [(4, 16, init, k) for k in range(3) for init in INIT_KINDS]
    + [(4, 64, init, 0) for init in INIT_KINDS]
    + [(0, 256, "two_cluster", 0)])
RUC_PROFILES = (1, 3)  # Morse(1,2,2) and Morse(0.5,1,2)
# (G, L, dimension) of the long-range Morse profiles whose transforms are
# dumped besides the battery's
LONG_RANGE = ((0.5, 10.0, 1), (0.5, 100.0, 1), (0.5, 1000.0, 1),
              (0.5, 100.0, 2), (0.5, 100.0, 3))
# (family, parameters, dimension, p grid) of the Gaussian scans dumped
# without a witness: a heavy tail whose p = 0 is skipped and whose floor
# fallback every row shares, a growing profile whose tail decades fall
# back, and the default p grid in shuffled order (None: the default grid)
GAUSSIAN_SCANS = (
    ("powerlaw", (-0.5, -0.9), 1, None),
    ("powerlaw", (2.0, 1.0), 2, None),
    ("morse", (1.0, 2.0), 2, "shuffled"),
)
# knots and values of the kinked profile: values default_rng(0).normal on
# linspace(0, 10, 200), the last one 0
KINKED_KNOTS = 200
# fourier_criterion's default frequencies and its three tail probes
FREQUENCIES = np.concatenate([np.linspace(0.0, 16.0, 65), [24.0, 32.0, 48.0]])
# eps of the empirical approximations in each dimension
APPROXIMATION_EPS = {1: (0.1, 0.3), 2: (0.2, 0.5), 3: (0.6, 1.0)}


def _measure_hash(measure):
    if measure is None:
        return None
    digest = hashlib.sha1()
    for name in ("values", "cell_width", "origin", "points", "weights"):
        if hasattr(measure, name):
            digest.update(np.asarray(getattr(measure, name),
                                     dtype=float).tobytes())
    return digest.hexdigest()


def _mirror_exact(measure):
    """Per axis, whether a grid measure equals its mirror image bit for
    bit; None for a measure that is not a grid."""
    values = getattr(measure, "values", None)
    if values is None:
        return None
    return [bool(np.array_equal(values, np.flip(values, axis)))
            for axis in range(values.ndim)]


def _outcome(call):
    try:
        result = call()
    except Exception as exc:  # a raised error is an output too
        return {"raised": type(exc).__name__, "message": str(exc)}
    out = (result.to_dict() if hasattr(result, "to_dict")
           else dataclasses.asdict(result))
    if hasattr(result, "certificate"):
        measure = getattr(result.certificate, "measure", None)
        out["measure_sha1"] = _measure_hash(measure)
        out["measure_mirror_exact"] = _mirror_exact(measure)
    return out


def _cli_run(main, config):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cfg.json").write_text(json.dumps(config))
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main([config["command"], "--config",
                         str(work / "cfg.json"), "--out", str(out)])
        files = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.suffix == ".json":
                payload = json.loads(data)
                payload.get("metadata", {}).pop("timestamp", None)
                files[path.name] = json.loads(json.dumps(payload).replace(
                    str(out), "<out>"))
            elif path.suffix == ".csv":
                files[path.name] = data.decode().splitlines()
            else:
                files[path.name] = hashlib.sha1(data).hexdigest()
        return {"code": code,
                "stdout": stdout.getvalue().replace(str(out), "<out>"),
                "files": files}


def _descents():
    from groundlab import (Morse, PowerLaw, classify_trace,
                           minimize_particles, ruc_search)

    families = {"morse": Morse, "powerlaw": PowerLaw}
    profiles = [families[family](*params, dimension)
                for family, params, dimension in DESCENT_PROFILES]
    jobs = []
    for p, n, init, seed in DESCENT_JOBS:
        trace = minimize_particles(profiles[p], n, init=init, seed=seed,
                                   max_iter=2000)
        snapshots = hashlib.sha1()
        for k, config in trace.snapshots:
            snapshots.update(str(k).encode())
            snapshots.update(config.tobytes())
        jobs.append({
            "job": f"{profiles[p].label} n={n} {init} seed={seed}",
            "label": classify_trace(trace),
            "converged": trace.converged,
            "energies": trace.energies.tolist(),
            "q90_radii": trace.q90_radii.tolist(),
            "max_pair_distances": trace.max_pair_distances.tolist(),
            "step_sizes": trace.step_sizes.tolist(),
            "final_config": trace.final_config.tolist(),
            "snapshots_sha1": snapshots.hexdigest()})
    ruc = [_outcome(lambda: ruc_search(profiles[p], seeds=(0, 1, 2)))
           for p in RUC_PROFILES]
    return {"jobs": jobs, "ruc_search": ruc}


def _transforms(potentials):
    """The transform of each potential on FREQUENCIES, by label, or the
    error it raised."""
    from groundlab import radial_fourier_transform

    out = {}
    for w in potentials:
        try:
            out[w.label] = radial_fourier_transform(w, FREQUENCIES).tolist()
        except Exception as exc:
            out[w.label] = {"raised": type(exc).__name__,
                            "message": str(exc)}
    return out


def _kinked():
    from groundlab import Tabulated

    values = np.random.default_rng(0).normal(size=KINKED_KNOTS)
    values[-1] = 0.0
    return Tabulated(np.linspace(0.0, 10.0, KINKED_KNOTS), values, 1)


def _space_integral(w):
    from groundlab import space_integral

    try:
        return space_integral(w)
    except Exception as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}


def _gaussian_scans():
    """gaussian_criterion without a witness on GAUSSIAN_SCANS, by label:
    all of its weighted integrals."""
    from groundlab import Morse, PowerLaw, gaussian_criterion

    families = {"morse": Morse, "powerlaw": PowerLaw}
    out = {}
    for family, params, dimension, grid in GAUSSIAN_SCANS:
        w = families[family](*params, dimension)
        p_grid = (None if grid is None else np.random.default_rng(0)
                  .permutation(np.logspace(-3.0, 3.0, 200)))
        out[f"{w.label} p_grid={grid}"] = _outcome(
            lambda: gaussian_criterion(w, p_grid=p_grid, build_witness=False))
    return out


def _measures():
    """For each dimension, a random 200-atom cloud, the rasterized unit
    ball, the p = 1 Gaussian witness and a random grid whose origin is off
    centre: the size and hash of each empirical approximation at
    APPROXIMATION_EPS, and each grid's mass in four random boxes."""
    from groundlab import (GridDensity, PointCloudMeasure,
                           empirical_approximation, gaussian_witness_density,
                           uniform_ball_density)

    def approximation(target, eps):
        try:
            approx = empirical_approximation(target, eps, seed=0)
        except Exception as exc:
            return {"raised": type(exc).__name__, "message": str(exc)}
        return {"n": approx.size, "measure_sha1": _measure_hash(approx)}

    rng = np.random.default_rng(0)
    out = {}
    for dim, eps_values in APPROXIMATION_EPS.items():
        weights = rng.uniform(0.2, 1.0, 200)
        values = rng.uniform(size=(11,) * dim)
        targets = {
            "cloud": PointCloudMeasure(rng.normal(size=(200, dim)),
                                       weights / weights.sum()),
            "ball": uniform_ball_density(1.0, dim, 8),
            "gaussian": gaussian_witness_density(1.0, dim),
            "random_grid": GridDensity(rng.uniform(-1.5, -0.5, dim), 0.17,
                                       values / (values.sum() * 0.17**dim))}
        for name, target in targets.items():
            entry = {f"eps={eps}": approximation(target, eps)
                     for eps in eps_values}
            if isinstance(target, GridDensity):
                lower = rng.uniform(-1.5, 0.5, (4, dim))
                upper = lower + rng.uniform(0.2, 2.0, (4, dim))
                entry["box_masses"] = [target.box_mass(lo, hi)
                                       for lo, hi in zip(lower, upper)]
            out[f"{name} N={dim}"] = entry
    return out


def dump(root: Path) -> dict:
    sys.path.insert(0, str(root / "tests"))
    from conftest import REGRESSION_CASES

    from groundlab import (Morse, fourier_criterion, gaussian_criterion,
                           integral_criterion, probe_hypotheses)
    from groundlab.cli import main

    battery = [{
        "label": w.label,
        "integral": _outcome(lambda: integral_criterion(
            w, build_witness=True)),
        "gaussian": _outcome(lambda: gaussian_criterion(
            w, build_witness=True)),
        "fourier": _outcome(lambda: fourier_criterion(w)),
    } for w, _ in REGRESSION_CASES]
    probes = [_outcome(lambda: probe_hypotheses(w))
              for w, _ in REGRESSION_CASES]
    kinked = _kinked()
    transforms = _transforms([w for w, _ in REGRESSION_CASES]
                             + [Morse(*row) for row in LONG_RANGE] + [kinked])
    cli = {name: _cli_run(main, config) for name, config in CLI_RUNS.items()}
    return {"battery": battery, "probes": probes, "transforms": transforms,
            "space_integrals": {kinked.label: _space_integral(kinked)},
            "gaussian_scans": _gaussian_scans(), "cli": cli,
            "descent": _descents(), "measures": _measures()}


def differences(old, new, path=""):
    """Paths at which two dumps differ, with both values."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            out += differences(old.get(key, "<absent>"),
                               new.get(key, "<absent>"), f"{path}/{key}")
        return out
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return [d for k, (a, b) in enumerate(zip(old, new))
                for d in differences(a, b, f"{path}[{k}]")]
    return [] if old == new else [(path, old, new)]


def _cells(old, new, where):
    """Differences inside one pair of values: numeric ones as (field,
    |old - new|, relative deviation), the rest as None.  CSV lines, of one
    column or more, are split into cells; the field drops list indices and
    row numbers."""
    field = re.sub(r"\[\d+\]", "[]", where)
    if isinstance(old, str) and isinstance(new, str):
        a, b = old.split(","), new.split(",")
        numeric = all(isinstance(_float(v), float) for v in (old, new))
        if len(a) == len(b) and (len(a) > 1 or numeric):
            return [c for k, (x, y) in enumerate(zip(a, b)) if x != y
                    for c in _cells(_float(x), _float(y),
                                    f"{field} column {k}")]
    if all(type(v) in (int, float) for v in (old, new)):
        deviation = abs(old - new)
        return [(field, deviation, deviation / abs(old) if old else math.inf)]
    return [None]


def _float(text):
    try:
        return float(text)
    except ValueError:
        return text


def _prefix_line(where, old, new):
    """One line for two lists of which one is a strict prefix of the
    other, or None."""
    if not (isinstance(old, list) and isinstance(new, list)):
        return None
    short, long = sorted((old, new), key=len)
    if not short or len(short) == len(long) or long[:len(short)] != short:
        return None
    tail = "dropped" if short is new else "added"
    same = all(value == short[-1] for value in long[len(short):])
    return (f"{where}: {len(old)} -> {len(new)} entries, a prefix; the "
            f"{tail} tail {'equals' if same else 'differs from'} the last "
            f"kept value")


def summarize(found):
    """Lines grouping numeric differences by field, with their count and
    largest absolute and relative deviation; prefixes in one line each
    (:func:`_prefix_line`); other differences verbatim."""
    groups, lines = {}, []
    for where, old, new in found:
        line = _prefix_line(where, old, new)
        if line is not None:
            lines.append(line)
            continue
        for cell in _cells(old, new, where):
            if cell is None:
                lines.append(f"{where}\n  old: {old!r}\n  new: {new!r}")
                break
            count, largest, relative = groups.get(cell[0], (0, 0.0, 0.0))
            groups[cell[0]] = (count + 1, max(largest, cell[1]),
                               max(relative, cell[2]))
    for field, (count, largest, relative) in sorted(groups.items()):
        lines.append(f"{field}: {count} numbers moved, largest by "
                     f"{largest:.3g} (relative {relative:.3g})")
    return lines


def transform_deviations(old, new):
    """One line per profile whose transform both dumps hold: its largest
    deviation |old - new| and |old - new| / (1 + |old|) over the
    frequencies, zero included."""
    lines = []
    old, new = old.get("transforms", {}), new.get("transforms", {})
    for label in sorted(set(old) & set(new)):
        a, b = old[label], new[label]
        if not (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)):
            continue
        a, b = np.array(a), np.array(b)
        deviation = np.abs(a - b)
        lines.append(f"transform {label}: largest deviation "
                     f"{deviation.max():.3g}, relative to 1 + |old| "
                     f"{(deviation / (1.0 + np.abs(a))).max():.3g}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "dump":
        Path(argv[2]).write_text(json.dumps(dump(Path(argv[1])), indent=1,
                                            sort_keys=True))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        old, new = (json.loads(Path(path).read_text()) for path in argv[1:])
        found = differences(old, new)
        for line in summarize(found) + transform_deviations(old, new):
            print(line)
        print(f"{len(found)} differences")
        return 1 if found else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
