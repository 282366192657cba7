"""One workload in one fresh process: set up, run passes, check, report.

Run by run.py, never by hand:

    python3 perfbench/worker.py --mode {setup,run,traced,probes}
        --workload NAME --seed N --seconds S --out RESULT.json

``setup`` only imports groundlab and builds the inputs.  ``run`` repeats
whole passes in a closed loop (one client; the next call starts when the
previous one has returned) while another pass still fits in ``--seconds``.
``traced`` runs one pass with the tracer installed.  ``probes`` times each
layer on fixed inputs.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.spatial.distance import pdist  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SAMPLES_AFTER_SETUP = 20


def reference_time():
    """Time of a fixed piece of numpy work that does not touch groundlab.

    It mixes what the workloads spend their time on: numpy calls on single
    floats (the quadrature callbacks), distances and sums over a few dozen
    points (the descent) and a transform of a larger array (the witness
    energies).  Taken before every timed call, its times track how fast the
    machine runs during the run, which on a shared box changes by up to 2x.
    The speed switches within tens of milliseconds, so the work is done
    three times over (about 9 ms) to average over several switches.
    """
    start = perf_counter()
    for _repeat in range(3):
        for value in _REFERENCE_VALUES:
            arr = np.asarray(value, dtype=float)
            if np.any(arr < 0):
                raise ValueError
            float(np.exp(-np.atleast_1d(arr))[0])
        for _ in range(25):
            d = pdist(_REFERENCE_POINTS)
            float(np.sum(np.exp(-d)))
        np.fft.rfft(_REFERENCE_SIGNAL)
    return perf_counter() - start


_REFERENCE_VALUES = [0.004 * k for k in range(250)]
_REFERENCE_POINTS = np.stack([np.cos(np.arange(64.0)),
                              np.sin(2.0 * np.arange(64.0))], axis=1)
_REFERENCE_SIGNAL = np.sin(0.01 * np.arange(1 << 15))


def _import_groundlab():
    """Import groundlab from this checkout's source tree and nowhere else."""
    src = ROOT / "src"
    if not (src / "groundlab" / "__init__.py").is_file():
        sys.exit(f"groundlab source not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import workloads
    return workloads


def run_pass(workload, tracer=None):
    """Call every operation once, in order, timing each call and the
    reference loop before it and after the last call, so that every call
    is bracketed by two reference samples.  Returns (wall, latencies,
    results, errors, reference times); the wall is the sum of the calls'
    times, and there is one more reference time than there are calls."""
    calls = [op.call if tracer is None
             else tracer.operation(i, op.name, op.call)
             for i, op in enumerate(workload.ops)]
    results, latencies, errors, reference = [], [], [], []
    for i, call in enumerate(calls):
        reference.append(reference_time())
        begin = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raised error is a failed operation
            result = None
            errors.append((i, "raised", f"{workload.ops[i].name}: "
                           f"{type(exc).__name__}: {exc}"))
        latencies.append(perf_counter() - begin)
        results.append(result)
    reference.append(reference_time())
    return sum(latencies), latencies, results, errors, reference


def check_pass(workloads, workload, results, errors):
    """(failed op indices, unexpected failures, findings) of one pass."""
    problems = errors + workload.check(results)
    failed = {i for i, _, _ in problems}
    unexpected = [msg for _, kind, msg in problems
                  if kind not in workloads.KNOWN_FINDINGS]
    findings = [msg for _, kind, msg in problems
                if kind in workloads.KNOWN_FINDINGS]
    return failed, unexpected, findings


def provenance(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "traced", "probes"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workloads = _import_groundlab()
    workdir = Path(args.out).parent / f"work-{os.getpid()}"
    out = {"workload": args.workload, "mode": args.mode}

    if args.mode == "probes":
        import probes
        out["layers"], out["reference"] = probes.run(reference_time)
    else:
        tracer = None
        wrap = lambda p: p  # noqa: E731
        if args.mode == "traced":
            from tracing import Tracer
            tracer = Tracer()
            wrap = tracer.potential
        workload = workloads.build(args.workload, args.seed, workdir, wrap)
        out["setup_s"] = perf_counter() - _T0
        out["setup_reference"] = [reference_time() for _ in
                                  range(REFERENCE_SAMPLES_AFTER_SETUP)]
        if args.mode != "setup":
            out.update(_measure(workloads, workload, tracer, args.seconds))
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    out["provenance"] = provenance(args.seed)
    Path(args.out).write_text(json.dumps(out))
    shutil.rmtree(workdir, ignore_errors=True)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workloads, workload, tracer, seconds):
    walls, latencies, unexpected, findings = [], [], [], []
    by_op, speed_by_op = {}, {}
    reference, failed = [], set()
    files = nbytes = 0
    labels = None
    begin = perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            wall, lat, results, errors, ref = run_pass(workload, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if not walls:
            # later passes add allocator slack to the high-water mark, so
            # the peak is read once, after the first pass
            peak = _peak_rss_mb()
        bad, surprises, found = check_pass(workloads, workload, results,
                                           errors)
        pass_labels = workload.labels(results)
        if labels is None:
            labels = pass_labels
        elif pass_labels != labels:
            surprises.append("outcome tags differ between passes")
        written = workload.written(results)
        files, nbytes = files + written[0], nbytes + written[1]
        workload.cleanup(results)
        walls.append(wall)
        latencies += lat
        reference += ref
        for op, t, before, after in zip(workload.ops, lat, ref, ref[1:]):
            by_op.setdefault(op.name, []).append(t)
            # the machine's speed during the call: the geometric mean of
            # the reference times just before and just after it
            speed_by_op.setdefault(op.name, []).append(
                (before * after) ** 0.5)
        # every pass repeats the same calls on the same inputs, so a call
        # is counted once however many passes the run fits, and fails if
        # it failed in any pass
        failed |= bad
        unexpected += [m for m in surprises if m not in unexpected]
        findings += [m for m in found if m not in findings]
        # checks are memoized across passes, so the next pass should take
        # about this one's timed wall
        if tracer is not None or perf_counter() - begin + wall > seconds:
            break
    out = {"peak_rss_mb": peak,
           "walls": walls, "latencies": latencies,
           "attempted": len(workload.ops), "failed": len(failed),
           "unexpected": unexpected, "findings": findings,
           "labels": labels, "op_latencies": by_op,
           "op_references": speed_by_op, "reference": reference}
    if tracer is not None:
        import tracing
        names = {i: op.name for i, op in enumerate(workload.ops)}
        layers = tracing.layer_metrics(tracer, names)
        layers["cli.files_written"] = files
        layers["cli.bytes_written"] = nbytes
        out["layers"] = layers
        out["spans"] = [s.to_dict() for s in tracer.spans]
    return out


if __name__ == "__main__":
    main()
