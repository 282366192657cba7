"""Dump groundlab's user-visible outputs to JSON, or compare two dumps.

A refactor that must not change any number is checked by dumping the
outputs of two checkouts and comparing them:

    PYTHONPATH=<old>/src python3 tools/dump_outputs.py dump <old> old.json
    PYTHONPATH=<new>/src python3 tools/dump_outputs.py dump <new> new.json
    python3 tools/dump_outputs.py compare old.json new.json

``compare`` lists each non-numeric difference with both values, and
groups numeric ones (CSV cells included) by field, with their count and
largest absolute and relative deviation.

A dump holds the verdicts of the three analytic criteria over
REGRESSION_CASES of ``<checkout>/tests/conftest.py`` (witnesses on, with a
hash of each certificate measure), ``probe_hypotheses`` of the same
potentials, seven CLI runs (exit code, stdout and every output file: JSON
without its timestamp, CSV verbatim, others hashed), and the jobs of
perfbench's ``descent`` workload with start seed 0: for each of the 19
``minimize_particles`` runs (max_iter 2000) its four trace arrays, final
configuration, a hash of its snapshots and its ``classify_trace`` label,
and the two ``ruc_search`` verdicts with their per-pair minima.  A dump
takes about 14 s on a 2-vCPU x86-64 box, and its peak RSS is about 190 MB.
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


def _measure_hash(measure):
    if measure is None:
        return None
    digest = hashlib.sha1()
    for name in ("values", "cell_width", "origin", "points", "weights"):
        if hasattr(measure, name):
            digest.update(np.asarray(getattr(measure, name),
                                     dtype=float).tobytes())
    return digest.hexdigest()


def _outcome(call):
    try:
        result = call()
    except Exception as exc:  # a raised error is an output too
        return {"raised": type(exc).__name__, "message": str(exc)}
    out = (result.to_dict() if hasattr(result, "to_dict")
           else dataclasses.asdict(result))
    if hasattr(result, "certificate"):
        out["measure_sha1"] = _measure_hash(
            getattr(result.certificate, "measure", None))
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


def dump(root: Path) -> dict:
    sys.path.insert(0, str(root / "tests"))
    from conftest import REGRESSION_CASES

    from groundlab import (fourier_criterion, gaussian_criterion,
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
    cli = {name: _cli_run(main, config) for name, config in CLI_RUNS.items()}
    return {"battery": battery, "probes": probes, "cli": cli,
            "descent": _descents()}


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
    |old - new|, relative deviation), the rest as None.  CSV lines are
    split into cells; the field drops list indices and row numbers."""
    field = re.sub(r"\[\d+\]", "[]", where)
    if isinstance(old, str) and isinstance(new, str) and "," in old:
        a, b = old.split(","), new.split(",")
        if len(a) == len(b):
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


def summarize(found):
    """Lines grouping numeric differences by field, with their count and
    largest absolute and relative deviation; other differences verbatim."""
    groups, lines = {}, []
    for where, old, new in found:
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


def main(argv):
    if len(argv) == 3 and argv[0] == "dump":
        Path(argv[2]).write_text(json.dumps(dump(Path(argv[1])), indent=1,
                                            sort_keys=True))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        found = differences(json.loads(Path(argv[1]).read_text()),
                            json.loads(Path(argv[2]).read_text()))
        for line in summarize(found):
            print(line)
        print(f"{len(found)} differences")
        return 1 if found else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
