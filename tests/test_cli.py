import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import Cliff
from groundlab import (PointCloudMeasure, cli, gaussian_criterion, groundstate,
                       minimize_particles)
from groundlab.cli import main
from groundlab.errors import InvariantViolation, QuadratureFailure

MORSE_AGG = {"family": "morse", "G": 1.0, "L": 2.0, "dimension": 2}
POWERLAW = {"family": "powerlaw", "a": 2.0, "r": 1.0, "dimension": 1}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_json(path):
    return json.loads(path.read_text())


def test_analyze_writes_report(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG,
        "output_dir": str(tmp_path / "out")})
    assert main(["analyze", "--config", cfg]) == 0
    payload = load_json(tmp_path / "out" / "analysis.json")
    assert payload["report"]["tail_class"] == "H3b"
    assert payload["report"]["local_integrability"] == "holds"
    assert payload["potential"].startswith("morse")


def test_analyze_growing_tail(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": POWERLAW,
        "output_dir": str(tmp_path / "out")})
    assert main(["analyze", "--config", cfg]) == 0
    payload = load_json(tmp_path / "out" / "analysis.json")
    assert payload["report"]["tail_class"] == "H3a"


def test_invalid_json_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad)]) == 2


def test_unknown_keys_rejected_by_name(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG, "buget": 3})
    assert main(["analyze", "--config", cfg]) == 2
    assert "buget" in capsys.readouterr().err

    cfg = write_config(tmp_path, "cfg2.json", {
        "command": "analyze",
        "potential": {**MORSE_AGG, "strenght": 2.0}})
    assert main(["analyze", "--config", cfg]) == 2
    assert "strenght" in capsys.readouterr().err


def test_command_subcommand_mismatch(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG})
    assert main(["stability", "--config", cfg]) == 2


def test_uncreatable_output_directory_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG})
    occupied = tmp_path / "taken"
    occupied.write_text("a file, not a directory")
    for out in (occupied, occupied / "below"):
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        assert "output directory" in capsys.readouterr().err
    assert occupied.read_text() == "a file, not a directory"


def test_more_config_errors(tmp_path):
    missing = write_config(tmp_path, "a.json", {"command": "analyze"})
    assert main(["analyze", "--config", missing]) == 2
    bad_family = write_config(tmp_path, "b.json", {
        "command": "analyze", "potential": {"family": "yukawa"}})
    assert main(["analyze", "--config", bad_family]) == 2
    bad_seed = write_config(tmp_path, "c.json", {
        "command": "analyze", "potential": MORSE_AGG, "seeds": []})
    assert main(["analyze", "--config", bad_seed]) == 2
    small_n = write_config(tmp_path, "d.json", {
        "command": "minimize", "potential": MORSE_AGG, "n": 1})
    assert main(["minimize", "--config", small_n]) == 2
    bad_init = write_config(tmp_path, "e.json", {
        "command": "minimize", "potential": MORSE_AGG, "init": "ring"})
    assert main(["minimize", "--config", bad_init]) == 2
    bad_criteria = write_config(tmp_path, "f.json", {
        "command": "stability", "potential": MORSE_AGG,
        "criteria": ["integral", "entropy"]})
    assert main(["stability", "--config", bad_criteria]) == 2
    no_grid = write_config(tmp_path, "g.json", {
        "command": "scan", "potential": MORSE_AGG})
    assert main(["scan", "--config", no_grid]) == 2
    assert main(["analyze", "--config", str(tmp_path / "absent.json")]) == 2
    # malformed values are config errors too, not tracebacks
    malformed = [
        ("minimize", {"n": "abc"}),
        ("minimize", {"max_iter": float("inf")}),
        ("analyze", {"quad_tol": "x"}),
        ("stability", {"criteria": 5}),
        ("stability", {"p_grid": [-1]}),
        ("stability", {"xi_grid": [-1.0]}),
        ("stability", {"n_list": [8]}),
        ("stability", {"n_list": [1, 8]}),
        ("analyze", {"potential": {**MORSE_AGG, "dimension": "2"}}),
        # out-of-range values, which used to crash, fail numerically or
        # run an empty descent
        ("analyze", {"output_dir": 5}),
        ("analyze", {"output_dir": ""}),
        ("analyze", {"quad_tol": -1}),
        ("analyze", {"quad_tol": 0}),
        ("stability", {"decision_tol": -1e-6}),
        ("stability", {"optimizer_budget": 0}),
        ("minimize", {"max_iter": -5}),
        ("minimize", {"grad_tol": -1.0}),
        ("scan", {"grid": {"G": [1.0]}, "max_iter": 0}),
        ("scan", {"grid": {"G": [1.0]}, "grad_tol": -1.0}),
        # strings and booleans are not coerced: "false" would switch
        # witnesses on, and [true] would run seed 1
        ("stability", {"build_witness": "false"}),
        ("scan", {"grid": {"G": [1.0]}, "with_stability": "false"}),
        ("analyze", {"seeds": [True]}),
        ("analyze", {"quad_tol": True}),
        # negative seeds used to crash inside numpy's generator
        ("minimize", {"seeds": [-1]}),
        # integer keys are not truncated: 4.7 used to run n = 4 and true
        # one iteration
        ("minimize", {"n": 4.7}),
        ("minimize", {"max_iter": True}),
        ("scan", {"grid": {"G": [1.0]}, "n": 8.5}),
        ("stability", {"optimizer_budget": 10.5}),
        ("stability", {"optimizer_budget": False}),
        # numbers must be JSON numbers: numeric strings used to be converted
        ("minimize", {"n": "3"}),
        ("minimize", {"max_iter": "20"}),
        ("minimize", {"quad_tol": "1e-8"}),
        ("minimize", {"grad_tol": "0"}),
        ("stability", {"decision_tol": "1e-6"}),
        ("stability", {"optimizer_budget": "10"}),
        # potential parameters given as strings or booleans used to run,
        # "G": true as G = 1
        ("analyze", {"potential": {**MORSE_AGG, "G": "1"}}),
        ("analyze", {"potential": {**MORSE_AGG, "L": "2"}}),
        ("analyze", {"potential": {**MORSE_AGG, "G": True}}),
        ("analyze", {"potential": {**MORSE_AGG, "dimension": True}}),
        ("analyze", {"potential": {**POWERLAW, "a": "2"}}),
        ("analyze", {"potential": {**POWERLAW, "r": "1"}}),
        ("analyze", {"potential": {"family": "gaussmix", "dimension": 1,
                                   "terms": [["1", 1.0]]}}),
        ("analyze", {"potential": {"family": "gaussmix", "dimension": 1,
                                   "terms": [[1.0, True]]}}),
        ("analyze", {"potential": {"family": "tabulated", "dimension": 1,
                                   "radii": ["0", "1"],
                                   "values": [1.0, 0.0]}}),
        ("analyze", {"potential": {"family": "tabulated", "dimension": 1,
                                   "radii": [0.0, 1.0],
                                   "values": [1.0, "0"]}}),
        # so must scan grid values and the scanned potential's parameters,
        # which used to turn into rows labelled error
        ("scan", {"grid": {"G": ["0.5", "1"]}}),
        ("scan", {"grid": {"G": [0.5, True]}}),
        ("scan", {"grid": {"L": [1.0]},
                  "potential": {**MORSE_AGG, "G": "1"}}),
        # json.loads accepts Infinity and NaN: they used to crash, run, or
        # fail numerically, and a NaN scan cell was labelled
        ("stability", {"xi_grid": [math.inf]}),
        ("stability", {"p_grid": [math.inf]}),
        ("stability", {"potential": {**MORSE_AGG, "G": math.inf}}),
        ("scan", {"grid": {"G": [math.nan]}}),
        # an integer too large for a float used to crash on conversion
        ("analyze", {"potential": {**MORSE_AGG, "G": 10**400}}),
    ]
    for k, (command, extra) in enumerate(malformed):
        cfg = write_config(tmp_path, f"m{k}.json", {
            "command": command, "potential": MORSE_AGG, **extra})
        assert main([command, "--config", cfg]) == 2, extra
    negative_override = write_config(tmp_path, "h.json", {
        "command": "minimize", "potential": MORSE_AGG})
    assert main(["minimize", "--config", negative_override,
                 "--seed-override", "-1"]) == 2


# a small valid run of each subcommand, for the common-key test to spoil
_SMALL_RUNS = {
    "analyze": {},
    "stability": {"criteria": ["integral"], "build_witness": False},
    "minimize": {"n": 2, "max_iter": 1},
    "scan": {"grid": {"G": [1.0]}, "n": 2, "max_iter": 1,
             "with_stability": False},
}
# values each common key refuses: a boolean, a numeric string (a valid
# name for output_dir, which is given a number instead), a negative
# number, an empty list and Infinity
_REFUSED = {
    "quad_tol": [True, "1e-8", -1e-8, [], math.inf],
    "decision_tol": [False, "1e-6", -1e-6, [], math.inf],
    "seeds": [True, [True], "0", ["0"], -1, [-1], [], math.inf, [math.inf]],
    "output_dir": [True, 1, -1, [], math.inf],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_common_keys_refuse_malformed_values(tmp_path, capsys, command):
    out = tmp_path / "out"
    for key, values in _REFUSED.items():
        for k, value in enumerate(values):
            cfg = write_config(tmp_path, f"{key}{k}.json", {
                "command": command, "potential": MORSE_AGG,
                "output_dir": str(out), **_SMALL_RUNS[command], key: value})
            assert main([command, "--config", cfg]) == 2, (key, value)
            assert f"'{key}'" in capsys.readouterr().err, (key, value)
    # every run stopped at its config, before making the output directory
    assert not out.exists()


def test_integral_float_counts_as_an_integer(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize", "potential": POWERLAW, "n": 2.0,
        "max_iter": 50.0, "output_dir": str(out)})
    assert main(["minimize", "--config", cfg]) == 0
    assert PointCloudMeasure.from_csv(out / "final_config.csv").size == 2


def test_scan_grid_names_must_be_family_parameters(tmp_path, capsys):
    for k, (potential, grid) in enumerate([
            (MORSE_AGG, {"X": [1, 2]}),
            (MORSE_AGG, {"G": [1.0], "family": ["powerlaw"]}),
            ({"family": "yukawa", "G": 1.0}, {"G": [1.0]}),
            ({**MORSE_AGG, "X": 5}, {"G": [0.5]}),
            ({"family": "morse", "G": 1.0, "dimension": 1}, {"G": [0.5]})]):
        out = tmp_path / f"out{k}"
        cfg = write_config(tmp_path, f"s{k}.json", {
            "command": "scan", "potential": potential, "grid": grid,
            "output_dir": str(out)})
        assert main(["scan", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "phase_table.csv").exists()


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(config, out_dir, args):
        raise RuntimeError("handler bug\nsecond line")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG,
        "output_dir": str(tmp_path / "out")})
    assert main(["analyze", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "RuntimeError" in err and "handler bug" in err


def test_stability_writes_verdicts_and_certificate(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "stability", "potential": MORSE_AGG,
        "criteria": ["integral"], "output_dir": str(out)})
    assert main(["stability", "--config", cfg]) == 0
    payload = load_json(out / "verdicts.json")
    entry = payload["verdicts"][0]
    assert entry["criterion"] == "integral"
    assert entry["outcome"] == "HE_satisfied"
    assert entry["numeric_value"] == pytest.approx(-6.0 * math.pi, rel=1e-9)
    assert entry["certificate"]["kind"] == "ball_density"
    cert_path = entry["certificate_path"]
    assert cert_path is not None
    assert (out / "certificate_integral.json").exists()
    assert (out / "certificate_integral.csv").exists()


def test_stability_skips_inapplicable_criteria_for_growing_tail(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "stability", "potential": POWERLAW,
        "optimizer_budget": 200, "n_list": [8, 16],
        "output_dir": str(out)})
    assert main(["stability", "--config", cfg]) == 0
    payload = load_json(out / "verdicts.json")
    by_criterion = {}
    for entry in payload["verdicts"]:
        by_criterion[entry.get("criterion")] = entry
    assert "grows at infinity" in by_criterion["integral"]["skipped"]
    assert "grows at infinity" in by_criterion["gaussian_weighted"]["skipped"]
    assert "NotSquareIntegrable" in by_criterion["fourier"]["skipped"]
    # the configuration search still runs; two atoms at unit distance
    # already give negative energy for this profile
    assert by_criterion["ruc_search"]["outcome"] == "HE_satisfied"
    assert by_criterion["ruc_search"]["numeric_value"] < -0.01
    assert (out / "certificate_ruc_search.csv").exists()


def _failing(*args, **kwargs):
    raise QuadratureFailure("stub: quadrature failed")


@pytest.mark.parametrize("failing, code", [
    (("integral_criterion", "fourier_criterion"), 3),
    (("integral_criterion",), 0)], ids=["all-fail", "one-fails"])
def test_stability_exits_3_only_when_every_criterion_fails(
        tmp_path, capsys, monkeypatch, failing, code):
    for name in failing:
        monkeypatch.setattr(cli, name, _failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "stability", "potential": MORSE_AGG,
        "criteria": ["integral", "fourier"], "output_dir": str(out)})
    assert main(["stability", "--config", cfg]) == code
    stdout = capsys.readouterr().out
    entries = {entry["criterion"]: entry
               for entry in load_json(out / "verdicts.json")["verdicts"]}
    assert list(entries) == ["integral", "fourier"]
    for name in ("integral", "fourier"):
        if f"{name}_criterion" in failing:
            assert entries[name]["skipped"] == ("QuadratureFailure: stub: "
                                                "quadrature failed")
            assert f"{name:<18} skipped: QuadratureFailure" in stdout
        else:
            assert entries[name]["outcome"] == "HE_satisfied"


def test_stability_gaussian_weighted_entry_is_the_library_verdict(tmp_path):
    p_grid = [0.1, 0.3, 1.0, 3.0]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "stability", "potential": MORSE_AGG,
        "criteria": ["gaussian_weighted"], "p_grid": p_grid,
        "build_witness": False, "output_dir": str(out)})
    assert main(["stability", "--config", cfg]) == 0
    [entry] = load_json(out / "verdicts.json")["verdicts"]
    verdict = gaussian_criterion(cli.build_potential(MORSE_AGG), p_grid,
                                 build_witness=False)
    assert entry == json.loads(json.dumps(verdict.to_dict()))
    assert entry["outcome"] == "HE_satisfied"
    assert entry["certificate"]["kind"] == "weighted_minimum"
    assert entry["certificate_path"] is None


def test_minimize_reference_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize", "potential": POWERLAW, "n": 2,
        "seeds": [0, 1], "max_iter": 400, "output_dir": str(out)})
    assert main(["minimize", "--config", cfg]) == 0
    assert (out / "trace_seed0.csv").exists()
    assert (out / "trace_seed1.csv").exists()
    cloud = PointCloudMeasure.from_csv(out / "final_config.csv")
    assert cloud.size == 2
    gap = abs(cloud.points[0, 0] - cloud.points[1, 0])
    assert gap == pytest.approx(1.0, abs=1e-3)
    payload = load_json(out / "classification.json")
    assert payload["classification"] in ("tight", "vanishing", "dichotomy",
                                         "undecided")
    assert len(payload["per_seed"]) == 2
    assert payload["final_energy"] == pytest.approx(-0.25, abs=1e-6)


def test_minimize_tabulated_profile_is_a_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize",
        "potential": {"family": "tabulated", "radii": [0.0, 1.0],
                      "values": [1.0, 0.0], "dimension": 1},
        "output_dir": str(tmp_path / "out")})
    assert main(["minimize", "--config", cfg]) == 3


def test_minimize_collision_exits_3_after_the_earlier_traces(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_potential",
                        lambda block: Cliff(1.0, 2.0, 2))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize", "potential": MORSE_AGG, "n": 8,
        "init": "two_cluster", "seeds": [3, 0, 4], "max_iter": 400,
        "output_dir": str(out)})
    # seed 3 runs to the end, seed 0 collides; seed 4's trace is not
    # written, as it was not when the seeds ran one after another
    assert main(["minimize", "--config", cfg]) == 3
    assert sorted(path.name for path in out.iterdir()) == [
        "trace_seed3.csv"]
    minimize_particles(Cliff(1.0, 2.0, 2), 8, init="two_cluster", seed=3,
                       max_iter=400).to_csv(tmp_path / "alone.csv")
    assert ((out / "trace_seed3.csv").read_text()
            == (tmp_path / "alone.csv").read_text())


def test_minimize_invariant_violation_exits_4(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("recentring changed the energy")

    monkeypatch.setattr(groundstate, "_descend_stack", broken)
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize", "potential": POWERLAW, "n": 4,
        "seeds": [0, 1], "output_dir": str(tmp_path / "out")})
    assert main(["minimize", "--config", cfg]) == 4


def test_seed_override_replaces_seed_list(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "minimize", "potential": POWERLAW, "n": 2,
        "seeds": [0, 1], "max_iter": 200, "output_dir": str(out)})
    assert main(["minimize", "--config", cfg, "--seed-override", "7"]) == 0
    assert (out / "trace_seed7.csv").exists()
    assert not (out / "trace_seed0.csv").exists()


def test_scan_phase_table(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "scan",
        "potential": {"family": "morse", "G": 1.0, "L": 1.0,
                      "dimension": 1},
        "grid": {"G": [0.25, 2.0]}, "n": 8, "seeds": [0, 1],
        "max_iter": 300, "output_dir": str(out)})
    assert main(["scan", "--config", cfg]) == 0
    lines = (out / "phase_table.csv").read_text().splitlines()
    assert lines[0] == ("G,seed,classification,best_energy,"
                       "stability_outcome,stability_value,error")
    assert len(lines) == 7  # 2 cells x (2 seeds + aggregate)
    payload = load_json(out / "scan_summary.json")
    agg = {entry["params"]["G"]: entry for entry in payload["aggregates"]}
    assert agg[0.25]["classification"] == "vanishing"
    assert agg[0.25]["stability_outcome"] == "stable_indication"
    assert agg[2.0]["classification"] == "tight"
    assert agg[2.0]["stability_outcome"] == "HE_satisfied"


def test_scan_records_cell_errors_without_stopping(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "scan",
        "potential": {"family": "morse", "G": 1.0, "L": 1.0,
                      "dimension": 1},
        "grid": {"G": [0.5, -3.0]}, "n": 6, "seeds": [0],
        "max_iter": 100, "with_stability": False,
        "output_dir": str(out)})
    assert main(["scan", "--config", cfg]) == 0
    rows = (out / "phase_table.csv").read_text().splitlines()[1:]
    error_rows = [r for r in rows if ",error," in r]
    assert len(error_rows) == 1
    assert "-3" in error_rows[0]
    # the valid cell still produced its aggregate
    assert any(r.startswith("0.5,,") for r in rows)


def test_outputs_deterministic_up_to_timestamp(tmp_path):
    runs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = write_config(tmp_path, f"cfg_{tag}.json", {
            "command": "minimize", "potential": POWERLAW, "n": 4,
            "seeds": [0], "max_iter": 200, "output_dir": str(out)})
        assert main(["minimize", "--config", cfg]) == 0
        runs.append(out)
    first, second = runs
    assert (first / "trace_seed0.csv").read_bytes() == \
        (second / "trace_seed0.csv").read_bytes()
    assert (first / "final_config.csv").read_bytes() == \
        (second / "final_config.csv").read_bytes()
    a = load_json(first / "classification.json")
    b = load_json(second / "classification.json")
    a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "command": "analyze", "potential": MORSE_AGG,
        "output_dir": str(tmp_path / "out")})
    proc = subprocess.run(
        [sys.executable, "-m", "groundlab", "analyze", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tail class" in proc.stdout
