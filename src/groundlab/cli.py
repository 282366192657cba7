"""Config-driven command line interface.

Four subcommands, each reading one JSON config file and writing
deterministic CSV/JSON reports into an output directory:

* ``analyze``   -- structural probes of a potential (integrability, tail,
  infimum).
* ``stability`` -- run every applicable stability criterion, write the
  verdict list plus any certificate measures.
* ``minimize``  -- multi-start particle descent with trace and
  classification files.
* ``scan``      -- phase table over a parameter grid.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 internal
invariant violation or any other unexpected error.  Outputs are
byte-identical across reruns of the same config except for the timestamp
inside each JSON metadata block.

Config keys and defaults (unknown keys are rejected):

    command       one of analyze | stability | minimize | scan (required)
    potential     family block (required); families:
                    {"family": "powerlaw", "a": ..., "r": ..., "dimension": N}
                    {"family": "morse", "G": ..., "L": ..., "dimension": N}
                    {"family": "gaussmix", "terms": [[amp, width], ...],
                     "dimension": N}
                    {"family": "tabulated", "radii": [...], "values": [...],
                     "dimension": N}
    output_dir    nonempty str, default "out" (the --out flag overrides)
    seeds         nonempty list of integers >= 0 (not booleans), default
                  [0]; --seed-override must be >= 0 too
    quad_tol      float > 0, default 1e-8
    decision_tol  float >= 0, default 1e-6
    stability:    criteria (list, subset of ["integral",
                  "gaussian_weighted", "fourier", "ruc_search"], default
                  all), p_grid (entries > 0), xi_grid (entries >= 0),
                  build_witness (true or false, default true), n_list
                  (at least two distinct sizes >= 2, default [8, 16, 32,
                  64]), optimizer_budget (>= 1, default 400)
    minimize:     n (default 16, must be >= 2), init (default
                  "random_ball"), max_iter (>= 1, default 500), grad_tol
                  (>= 0, default 1e-8)
    scan:         grid (required: {param: [values, ...]}, each param a key
                  of the potential's family other than "family"; the
                  potential block and the grid together give every key of
                  the family, and the block no other key), n
                  (default 16), max_iter (>= 1, default 400), grad_tol
                  (>= 0, default 1e-8), with_stability (true or false,
                  default true)
Numbers must be finite and are never booleans; n, max_iter and
optimizer_budget must be integers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from .errors import (ConfigError, DimensionUnsupported, GroundlabError,
                     InvariantViolation, NonDifferentiable,
                     NotAbsolutelyIntegrable,
                     NotSquareIntegrable, OptimizerStalled,
                     ParticleCollision, QuadratureFailure)
# minimize_particles is not called here, but stays bound: perfbench's
# tracer wraps cli.minimize_particles by name
from .groundstate import (_descend, classify_trace, ground_state_scan,
                          minimize_particles)  # noqa: F401
from .measures import GridDensity, PointCloudMeasure
from .potentials import (GaussianMix, Morse, PowerLaw, RadialPotential,
                         Tabulated, _probe_tail, probe_hypotheses)
from .stability import (fourier_criterion, gaussian_criterion,
                        integral_criterion, ruc_search)

__all__ = ["main", "build_potential", "load_config"]

_NUMERICAL_ERRORS = (QuadratureFailure, NotAbsolutelyIntegrable,
                     NotSquareIntegrable, OptimizerStalled, ParticleCollision,
                     NonDifferentiable)

_COMMON_KEYS = {"command", "potential", "output_dir", "seeds", "quad_tol",
                "decision_tol"}
_COMMAND_KEYS = {
    "analyze": set(),
    "stability": {"criteria", "p_grid", "xi_grid", "build_witness",
                  "n_list", "optimizer_budget"},
    "minimize": {"n", "init", "max_iter", "grad_tol"},
    "scan": {"grid", "n", "max_iter", "grad_tol", "with_stability"},
}
# each family's constructor and, in constructor order, the list depth of
# each parameter: a number, a list of numbers, or a list of
# [amplitude, width] pairs
_FAMILIES = {
    "powerlaw": (PowerLaw, {"a": 0, "r": 0, "dimension": 0}),
    "morse": (Morse, {"G": 0, "L": 0, "dimension": 0}),
    "gaussmix": (GaussianMix, {"terms": 2, "dimension": 0}),
    "tabulated": (Tabulated, {"radii": 1, "values": 1, "dimension": 0}),
}
_ALL_CRITERIA = ("integral", "gaussian_weighted", "fourier", "ruc_search")


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _family(block):
    """(constructor, parameter depths) of the potential block's family, or
    ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError("'potential' must be an object")
    family = block.get("family")
    if family not in _FAMILIES:
        raise ConfigError(
            f"'potential.family' must be one of {sorted(_FAMILIES)}, "
            f"got {family!r}")
    return _FAMILIES[family]


def _is_json_number(value) -> bool:
    """True for a JSON number that is finite as a float; booleans, numeric
    strings and the Infinity and NaN that json.loads accepts are not."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _check_parameter(key: str, depth: int, value, where: str):
    """ConfigError unless value is a potential parameter of the right
    shape: nested lists of JSON numbers, ``depth`` deep."""
    def numbers(v, depth):
        if depth == 0:
            return _is_json_number(v)
        return isinstance(v, list) and all(numbers(x, depth - 1) for x in v)

    if not numbers(value, depth):
        shape = ("a number", "a list of numbers",
                 "a list of [amplitude, width] number pairs")[depth]
        raise ConfigError(f"'{key}' in {where} must be {shape}, "
                          f"got {value!r}")


def build_potential(block) -> RadialPotential:
    """Construct a potential from its config block, strictly validated."""
    constructor, depths = _family(block)
    keys = {"family", *depths}
    _reject_unknown(block, keys, f"potential ({block['family']})")
    missing = sorted(keys - set(block))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in potential block")
    for key in sorted(depths):
        _check_parameter(key, depths[key], block[key], "the potential block")
    try:
        return constructor(*(block[key] for key in depths))
    except (ValueError, TypeError, DimensionUnsupported) as exc:
        raise ConfigError(f"invalid potential block: {exc}") from exc


def _number(raw: dict, key: str, default, kind=float, minimum=-math.inf,
            strict=False):
    """raw[key] (or default) as a ``kind`` that is >= minimum, or
    > minimum when ``strict``.  The value must be a finite JSON number:
    booleans and numeric strings are refused, and an int ``kind`` refuses
    numbers with a fractional part instead of truncating them."""
    value = raw.get(key, default)
    if not _is_json_number(value) or (kind is int and isinstance(value, float)
                                      and not value.is_integer()):
        raise ConfigError(f"'{key}' must be "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    number = kind(value)
    if number < minimum or strict and number == minimum:
        raise ConfigError(f"'{key}' must be a finite number "
                          f"{'>' if strict else '>='} {minimum:g}, "
                          f"got {value!r}")
    return number


def _grid(raw: dict, key: str, positive: bool):
    """Optional nonempty list of numbers, each > 0 (positive) or >= 0."""
    values = raw.get(key)
    if values is not None and not (isinstance(values, list) and values and all(
            _is_json_number(v) and (v > 0 or v == 0 and not positive)
            for v in values)):
        raise ConfigError(f"'{key}' must be a nonempty list of "
                          f"{'positive' if positive else 'nonnegative'} "
                          f"numbers, got {values!r}")
    return values


def _flag(raw: dict, key: str, default: bool) -> bool:
    """raw[key] (or default), which must be a JSON boolean."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read and validate a run config, filling documented defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    command = raw.get("command")
    if command not in _COMMAND_KEYS:
        raise ConfigError(
            f"'command' must be one of {sorted(_COMMAND_KEYS)}, "
            f"got {command!r}")
    _reject_unknown(raw, _COMMON_KEYS | _COMMAND_KEYS[command],
                    f"config (command {command})")
    if "potential" not in raw:
        raise ConfigError("missing key 'potential'")

    config = {
        "command": command,
        "potential": raw["potential"],
        "output_dir": raw.get("output_dir", "out"),
        "seeds": raw.get("seeds", [0]),
        "quad_tol": _number(raw, "quad_tol", 1e-8, minimum=0.0, strict=True),
        "decision_tol": _number(raw, "decision_tol", 1e-6, minimum=0.0),
    }
    if not (isinstance(config["output_dir"], str) and config["output_dir"]):
        raise ConfigError(f"'output_dir' must be a nonempty string, got "
                          f"{config['output_dir']!r}")
    seeds = config["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or not all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError(f"'seeds' must be a nonempty list of integers "
                          f">= 0, got {seeds!r}")

    if command == "stability":
        criteria = raw.get("criteria", list(_ALL_CRITERIA))
        if not (isinstance(criteria, list)
                and all(c in _ALL_CRITERIA for c in criteria)):
            raise ConfigError(f"'criteria' must be a list drawn from "
                              f"{list(_ALL_CRITERIA)}, got {criteria!r}")
        n_list = raw.get("n_list", [8, 16, 32, 64])
        if not (isinstance(n_list, list)
                and all(type(n) is int and n >= 2 for n in n_list)
                and len(set(n_list)) > 1):
            raise ConfigError(f"'n_list' must hold at least two distinct "
                              f"integer sizes >= 2, got {n_list!r}")
        config.update({
            "criteria": list(criteria),
            "p_grid": _grid(raw, "p_grid", positive=True),
            "xi_grid": _grid(raw, "xi_grid", positive=False),
            "build_witness": _flag(raw, "build_witness", True),
            "n_list": n_list,
            "optimizer_budget": _number(raw, "optimizer_budget", 400, int,
                                        minimum=1),
        })
    elif command == "minimize":
        config.update({
            "n": _number(raw, "n", 16, int, minimum=2),
            "init": raw.get("init", "random_ball"),
            "max_iter": _number(raw, "max_iter", 500, int, minimum=1),
            "grad_tol": _number(raw, "grad_tol", 1e-8, minimum=0.0),
        })
        if config["init"] not in ("lattice", "random_ball", "two_cluster"):
            raise ConfigError(
                f"'init' must be lattice, random_ball or two_cluster, "
                f"got {config['init']!r}")
    elif command == "scan":
        grid = raw.get("grid")
        if (not isinstance(grid, dict) or not grid
                or not all(isinstance(v, list) and v for v in grid.values())):
            raise ConfigError("'grid' must map parameter names to nonempty "
                              "value lists")
        base = raw["potential"]
        depths = _family(base)[1]
        family_keys = {"family", *depths}
        _reject_unknown(grid, family_keys - {"family"},
                        "scan grid (parameters of the potential's family)")
        _reject_unknown(base, family_keys, f"potential ({base['family']})")
        missing = sorted(family_keys - set(base) - set(grid))
        if missing:
            raise ConfigError(f"missing key(s) {missing} in potential block "
                              f"and scan grid")
        for key, values in grid.items():
            for value in values:
                _check_parameter(key, depths[key], value, "the scan grid")
        for key in sorted(base.keys() & depths.keys()):
            _check_parameter(key, depths[key], base[key],
                             "the potential block")
        config.update({
            "grid": grid,
            "n": _number(raw, "n", 16, int, minimum=2),
            "max_iter": _number(raw, "max_iter", 400, int, minimum=1),
            "grad_tol": _number(raw, "grad_tol", 1e-8, minimum=0.0),
            "with_stability": _flag(raw, "with_stability", True),
        })
    return config


def _metadata(config, args) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": config["command"],
        "seeds": config["seeds"],
        "seed_override": args.seed_override,
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(config, out_dir: Path, args) -> int:
    potential = build_potential(config["potential"])
    report = probe_hypotheses(potential, config["quad_tol"])
    payload = {
        "metadata": _metadata(config, args),
        "potential": potential.label,
        "report": asdict(report),
    }
    _write_json(out_dir / "analysis.json", payload)
    print(f"potential          {potential.label}")
    print(f"local integrability {report.local_integrability} "
          f"(integral {report.local_integral:.6g})")
    print(f"tail class         {report.tail_class}")
    print(f"profile infimum    {report.profile_infimum:.6g} "
          f"at r = {report.infimum_radius:.6g}")
    print(f"report written to  {out_dir / 'analysis.json'}")
    return 0


def _write_certificate(certificate, out_dir: Path, criterion: str):
    if certificate is None or certificate.measure is None:
        return None
    measure = certificate.measure
    if isinstance(measure, PointCloudMeasure):
        path = out_dir / f"certificate_{criterion}.csv"
        measure.to_csv(path)
        return str(path)
    if isinstance(measure, GridDensity):
        return str(measure.save(out_dir / f"certificate_{criterion}"))
    return None


def cmd_stability(config, out_dir: Path, args) -> int:
    potential = build_potential(config["potential"])
    grows = _probe_tail(potential)[0] == "H3a"

    precondition_misses = (NotAbsolutelyIntegrable, NotSquareIntegrable,
                          NonDifferentiable)
    entries = []
    failures = 0
    for criterion in config["criteria"]:
        skip_reason = None
        verdict = None
        try:
            if grows and criterion in ("integral", "gaussian_weighted"):
                skip_reason = ("profile grows at infinity; criterion "
                               "requires a tail decaying to zero")
            elif criterion == "integral":
                verdict = integral_criterion(
                    potential, config["quad_tol"], config["decision_tol"],
                    build_witness=config["build_witness"])
            elif criterion == "gaussian_weighted":
                verdict = gaussian_criterion(
                    potential, config["p_grid"], config["quad_tol"],
                    config["decision_tol"],
                    build_witness=config["build_witness"])
            elif criterion == "fourier":
                verdict = fourier_criterion(
                    potential, config["xi_grid"], config["quad_tol"],
                    config["decision_tol"])
            else:
                if not potential.differentiable:
                    skip_reason = ("configuration search needs a "
                                   "differentiable profile")
                else:
                    verdict = ruc_search(
                        potential, config["n_list"], config["seeds"],
                        config["optimizer_budget"])
        except _NUMERICAL_ERRORS as exc:
            skip_reason = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, precondition_misses):
                failures += 1

        if verdict is None:
            entries.append({"criterion": criterion, "skipped": skip_reason})
            print(f"{criterion:<18} skipped: {skip_reason}")
        else:
            cert_path = _write_certificate(verdict.certificate, out_dir,
                                           criterion)
            entries.append(verdict.to_dict(certificate_path=cert_path))
            print(f"{criterion:<18} {verdict.outcome:<18} "
                  f"value {verdict.numeric_value:.6g}")

    payload = {"metadata": _metadata(config, args),
               "potential": potential.label,
               "verdicts": entries}
    _write_json(out_dir / "verdicts.json", payload)
    if failures and failures == len(config["criteria"]):
        return 3
    return 0


def cmd_minimize(config, out_dir: Path, args) -> int:
    potential = build_potential(config["potential"])
    traces = _descend(potential, config["n"],
                      [(config["init"], seed) for seed in config["seeds"]],
                      config["max_iter"], config["grad_tol"])
    results = []
    for seed, trace in zip(config["seeds"], traces):
        if isinstance(trace, Exception):
            raise trace
        label, label_info = classify_trace(trace, return_details=True)
        trace.to_csv(out_dir / f"trace_seed{seed}.csv")
        results.append((trace.final_energy, seed, trace, label, label_info))
    results.sort(key=lambda item: (item[0], item[1]))
    best_energy, best_seed, best_trace, best_label, _ = results[0]

    cloud = PointCloudMeasure.empirical(best_trace.final_config)
    cloud.to_csv(out_dir / "final_config.csv")
    payload = {
        "metadata": _metadata(config, args),
        "potential": potential.label,
        "classification": best_label,
        "final_energy": best_energy,
        "best_seed": best_seed,
        "per_seed": [{"seed": seed, "classification": label,
                      "final_energy": energy,
                      "iterations": trace.iterations,
                      "converged": trace.converged,
                      "diagnostics": info}
                     for energy, seed, trace, label, info in sorted(
                         results, key=lambda item: item[1])],
    }
    _write_json(out_dir / "classification.json", payload)
    print(f"classification {best_label} (seed {best_seed}, "
          f"energy {best_energy:.6g})")
    return 0


def _param_product(grid: dict) -> list:
    names = sorted(grid)
    combos = [{}]
    for name in names:
        combos = [dict(c, **{name: v}) for c in combos for v in grid[name]]
    return combos


def cmd_scan(config, out_dir: Path, args) -> int:
    base = dict(config["potential"])
    for name in config["grid"]:
        base.pop(name, None)

    def factory(**params):
        return build_potential({**base, **params})

    param_list = _param_product(config["grid"])
    rows = ground_state_scan(
        factory, param_list, config["n"], config["seeds"],
        max_iter=config["max_iter"], grad_tol=config["grad_tol"],
        with_stability=config["with_stability"])

    names = sorted(config["grid"])
    header = names + ["seed", "classification", "best_energy",
                      "stability_outcome", "stability_value", "error"]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row.params.get(name, "")) for name in names]
        cells.append("" if row.seed is None else str(row.seed))
        cells.append(row.classification)
        cells.append("" if math.isnan(row.best_energy)
                     else _fmt(row.best_energy))
        cells.append(row.stability_outcome)
        cells.append("" if math.isnan(row.stability_value)
                     else _fmt(row.stability_value))
        cells.append(row.error.replace(",", ";"))
        lines.append(",".join(cells))
    (out_dir / "phase_table.csv").write_text("\n".join(lines) + "\n")

    aggregates = [
        {"params": row.params, "classification": row.classification,
         "best_energy": (None if math.isnan(row.best_energy)
                         else row.best_energy),
         "stability_outcome": row.stability_outcome}
        for row in rows if row.seed is None]
    payload = {"metadata": _metadata(config, args),
               "aggregates": aggregates}
    _write_json(out_dir / "scan_summary.json", payload)
    print(f"{len(param_list)} grid cells scanned; table in "
          f"{out_dir / 'phase_table.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundlab",
        description="Ground-state and stability experiments for radial "
                    "pair potentials.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("analyze", "stability", "minimize", "scan"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON run config")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides config)")
        cmd.add_argument("--seed-override", type=int, default=None,
                         help="replace the config's seed list")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config["command"] != args.subcommand:
            raise ConfigError(
                f"config 'command' is {config['command']!r} but the "
                f"subcommand given is {args.subcommand!r}")
        if args.seed_override is not None:
            if args.seed_override < 0:
                raise ConfigError(f"--seed-override must be >= 0, got "
                                  f"{args.seed_override}")
            config["seeds"] = [args.seed_override]
        out_dir = Path(args.out if args.out is not None
                       else config["output_dir"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir}: {exc}") from exc

        handler = {"analyze": cmd_analyze, "stability": cmd_stability,
                   "minimize": cmd_minimize, "scan": cmd_scan}[
                       config["command"]]
        return handler(config, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except GroundlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
