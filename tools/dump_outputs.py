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
potentials, and seven CLI runs: exit code, stdout and every output file
(JSON without its timestamp, CSV verbatim, others hashed).  The battery
takes a few minutes and peaks near 1.2 GB (the 3-d ball witness).
"""

from __future__ import annotations

import contextlib
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
    out = result.to_dict()
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
    return {"battery": battery, "probes": probes, "cli": cli}


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
