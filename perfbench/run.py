"""groundlab benchmark: one command, each workload in its own fresh process.

    python3 perfbench/run.py --workload {battery,descent,cli,all}
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics of each workload
(setup_s, wall_s, op_s.p50, op_s.p90, fail_frac, peak_rss_mb) with units
and sample counts.  With ``--trace 1`` it runs one untraced and one traced
pass plus the layer probes, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record with
provenance, findings and (for traced runs) spans goes to
``perfbench/results/``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("battery", "descent", "cli")
SETUP_SAMPLES = 5
# a workload's run must end within 180 s; its workers share this budget
BUDGET_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# worker.reference_time() on an x86-64 box at 2.1 GHz in its fast spells
REFERENCE_S = 0.009


class BenchError(Exception):
    pass


def _slowdown(reference):
    """How much slower than nominal the machine ran: the mean time of the
    reference loop sampled through the run, over its nominal time.  The
    mean (not the median) because the speed switches between two levels
    and the mean follows the share of time spent at each."""
    return statistics.fmean(reference) / REFERENCE_S


def _per_call(run):
    """Each call's mean time over the run's passes, every time divided by
    the slowdown measured around that call.  The speed switches within
    seconds, so a slowdown taken next to each call follows it more
    closely than one averaged over the run."""
    refs = run["op_references"]
    return [statistics.fmean(t * REFERENCE_S / r
                             for t, r in zip(times, refs[name]))
            for name, times in run["op_latencies"].items()]


def _percentile(values, q):
    """Linear interpolation between the closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.deadline = None
        self.env = dict(os.environ, **THREAD_PINS,
                        TMPDIR=str(RESULTS / "tmp"))

    def worker(self, mode, workload, seconds=0.0):
        out = RESULTS / f"{workload}-{mode}-{os.getpid()}.json"
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time budget spent before {workload} {mode}")
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(self.seed),
               "--seconds", str(seconds), "--out", str(out)]
        try:
            proc = subprocess.run(cmd, env=self.env, timeout=left,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} exceeded the time budget")
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{workload} {mode} worker failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def untraced(self, workload):
        run = self.worker("run", workload, self.seconds)
        setups = [run] + [self.worker("setup", workload)
                          for _ in range(SETUP_SAMPLES - 1)]
        slow = _slowdown(run["reference"])
        per_call = _per_call(run)
        passes = len(run["walls"])
        calls = f"{len(per_call)} calls, mean of {passes} passes each"
        metrics = {
            "setup_s": (statistics.median(
                s["setup_s"] / _slowdown(s["setup_reference"])
                for s in setups), "s",
                f"median of {len(setups)} fresh processes"),
            "wall_s": (sum(per_call), "s",
                       f"one pass, mean of {passes}"),
            "op_s.p50": (_percentile(per_call, 0.5), "s", calls),
            "op_s.p90": (_percentile(per_call, 0.9), "s", calls),
            "peak_rss_mb": (run["peak_rss_mb"], "MB",
                            "workload process, through its first pass"),
        }
        shown = {
            "fail_frac": (run["failed"] / run["attempted"], "ratio",
                          f"{run['failed']}/{run['attempted']} calls of a "
                          f"pass, each failed if it failed in any pass"),
            "slowdown": (slow, "ratio", "mean reference loop time / "
                         f"{REFERENCE_S * 1e3:g} ms; each call's time above "
                         f"is divided by the slowdown around it"),
            "raw.wall_s": (statistics.median(run["walls"]), "s",
                           f"median of {passes} passes as measured"),
            "raw.setup_s": (statistics.median(s["setup_s"] for s in setups),
                            "s", "as measured"),
        }
        return run, metrics, shown

    def traced(self, workload):
        plain = self.worker("run", workload)
        traced = self.worker("traced", workload)
        probes = self.worker("probes", workload)
        layers = dict(traced.pop("layers"))
        layers.update(probes["layers"])
        layers["probe.slowdown"] = _slowdown(probes["reference"])
        slow = _slowdown(traced["reference"])
        layers["trace.slowdown"] = slow
        # one pass each: scaled by the pass's mean reference time, which
        # varies less between single passes than the per-call scaling
        layers["trace.overhead_s"] = (
            traced["walls"][0] / slow
            - plain["walls"][0] / _slowdown(plain["reference"]))
        if traced["labels"] != plain["labels"]:
            traced["unexpected"].append(
                "traced and untraced runs gave different outcome tags")
        return traced, layers


def _report(workload, seed, trace, run, metrics, shown):
    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"(closed loop, 1 client)")
    rows = dict(metrics, **shown)
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    for msg in run["findings"]:
        print(f"  finding: {msg}")
    for msg in run["unexpected"]:
        print(f"  FAILED: {msg}")
    prov = dict(run["provenance"], git_commit=_git_commit())
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    record = {"workload": workload, "trace": trace, "provenance": prov,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in rows.items()},
              "attempted": run["attempted"], "failed": run["failed"],
              "findings": run["findings"], "unexpected": run["unexpected"],
              "op_latencies": run.get("op_latencies"),
              "op_references": run.get("op_references"),
              "latencies": run.get("latencies"),
              "reference": run.get("reference")}
    spans = run.pop("spans", None)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "groundlab" / "__init__.py").is_file():
        sys.exit(f"groundlab source not found under {ROOT / 'src'}")
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args.seed, args.seconds)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for workload in selected:
            runner.deadline = time.monotonic() + BUDGET_S
            if args.trace:
                run, layers = runner.traced(workload)
                missing = sorted(set(per_layer) - set(layers))
                if missing:
                    raise BenchError(f"per-layer metrics not measured: "
                                     f"{missing}")
                metrics = {k: (layers[k], unit, "traced pass")
                           for k, unit in per_layer.items()}
                shown = {}
            else:
                run, metrics, shown = runner.untraced(workload)
            _report(workload, args.seed, args.trace, run, metrics, shown)
            correct = correct and not run["unexpected"]
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = "" if len(selected) == 1 else f"{workload}."
            out.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()})
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
