"""The names the benchmark's tracer rebinds must stay on the package.

``perfbench/tracing.py`` replaces module attributes of groundlab (the
criteria, the radial integrals, the witness builders, energy_grid, the
descent) with timing wrappers; a refactor that renames or drops one of
them would break the traced benchmark run without failing any other test.
The file is loaded read-only.
"""

import importlib
import importlib.util
from pathlib import Path

from groundlab import Morse, energy_grid, uniform_ball_density

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_boundaries_resolve_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attribute, _, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(f"groundlab.{module}")
        assert callable(getattr(owner, attribute, None)), (module, attribute)
    assert callable(importlib.import_module("groundlab.cli").build_potential)

    # the benchmark re-verifies every witness in this mode
    rho = uniform_ball_density(8.0, 1, 64)
    report = energy_grid(Morse(1.0, 2.0, 1), rho, quad_mode="radial_fast")
    assert report.mode == "grid-radial_fast"
