"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. The benchmark's copy of the battery matches REGRESSION_CASES in
   tests/conftest.py.
2. A planted wrong expected tag is counted as a failure, so the checks
   are not vacuous.
3. Traced and untraced passes give identical outcome tags, and the tracer
   puts every rebound name back.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

workloads = worker._import_groundlab()
import tracing  # noqa: E402
from groundlab import cli, groundstate, stability  # noqa: E402

HE, ST, IN = workloads.HE, workloads.ST, workloads.IN
# Morse(1,1,1) is identically zero: three cheap, inconclusive calls
ZERO_CASE = ("morse", (1.0, 1.0), 1, (IN, IN, IN))


def _params(potential):
    if potential.family == "morse":
        return (potential.G, potential.L)
    if potential.family == "powerlaw":
        return (potential.a, potential.r)
    return potential.terms


def test_case_table_matches_conftest():
    spec = importlib.util.spec_from_file_location(
        "battery_conftest", worker.ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    theirs = [(p.family, _params(p), p.dimension, tuple(expected))
              for p, expected in conftest.REGRESSION_CASES]
    assert list(workloads.BATTERY_CASES) == theirs


def _failures(workload):
    _, _, results, errors, _ = worker.run_pass(workload)
    failed, unexpected, _ = worker.check_pass(workloads, workload, results,
                                              errors)
    return failed, unexpected


def test_planted_wrong_tag_is_a_failure():
    good = workloads.build("battery", 0, HERE, cases=[ZERO_CASE])
    assert _failures(good) == (set(), [])
    planted = ("morse", (1.0, 1.0), 1, (HE, IN, IN))
    bad = workloads.build("battery", 0, HERE, cases=[planted])
    failed, unexpected = _failures(bad)
    assert failed == {0}, failed
    assert len(unexpected) == 1 and "expected HE_satisfied" in unexpected[0]


def test_traced_and_untraced_tags_agree(workdir):
    originals = {(mod, name): getattr(mod, name)
                 for mod in (stability, groundstate, cli)
                 for name in dir(mod) if not name.startswith("__")}
    for name, cases in (("battery", [ZERO_CASE]), ("cli", None)):
        plain = workloads.build(name, 3, workdir / "plain", cases=cases)
        _, _, results, errors, _ = worker.run_pass(plain)
        assert not errors, errors
        expected = plain.labels(results)

        tracer = tracing.Tracer()
        traced = workloads.build(name, 3, workdir / "traced",
                                 wrap=tracer.potential, cases=cases)
        tracer.install()
        try:
            _, _, results, errors, _ = worker.run_pass(traced, tracer)
        finally:
            tracer.restore()
        assert not errors, errors
        assert traced.labels(results) == expected
        assert tracer.w_calls > 0
        assert {s.name for s in tracer.spans} >= {
            "stability.integral", "stability.gaussian_weighted",
            "stability.fourier"}
    for (mod, name), value in originals.items():
        assert getattr(mod, name) is value, f"{mod.__name__}.{name}"


def main():
    workdir = HERE / "results" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        test_case_table_matches_conftest()
        print("ok  case table matches tests/conftest.py")
        test_planted_wrong_tag_is_a_failure()
        print("ok  planted wrong tag counts as a failure")
        test_traced_and_untraced_tags_agree(workdir)
        print("ok  traced and untraced tags agree; names restored")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
