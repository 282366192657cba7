"""Shared fixtures: the criterion regression battery and result reporting.

The battery pairs each potential with the outcome tags all three analytic
criteria are expected to produce.  Expected tags were each checked by hand
against the closed-form space integrals, weighted integrals and transforms
of the two families before being frozen here.
"""

import math
from contextlib import contextmanager

import pytest

from groundlab import (GaussianMix, Morse, fourier_criterion,
                       gaussian_criterion, integral_criterion)

HE = "HE_satisfied"
ST = "stable_indication"
IN = "inconclusive"



class Cliff(Morse):
    """Morse whose profile drops to -inf beyond ``edge``: a descent whose
    pairs reach that far takes the step and collides.  Morse(1, 2, 2) at
    n = 8 collides from two_cluster starts 0, 1, 2 and 5 at iteration 11,
    and not from the other inits or two_cluster starts 3 and 4."""

    edge = 8.0

    def _profile(self, radii):
        out = super()._profile(radii)
        out[radii > self.edge] = -math.inf
        return out


# (potential, (integral, gaussian_weighted, fourier) expected outcomes)
REGRESSION_CASES = [
    (Morse(1.0, 2.0, 1), (HE, HE, HE)),
    (Morse(1.0, 2.0, 2), (HE, HE, HE)),
    (Morse(1.0, 2.0, 3), (HE, HE, HE)),
    (Morse(1.0, 1.0, 1), (IN, IN, IN)),      # profile identically zero
    (Morse(0.25, 1.0, 1), (ST, ST, ST)),
    (Morse(0.5, 1.0, 2), (ST, ST, ST)),
    (Morse(2.0, 1.0, 1), (HE, HE, HE)),      # pure attraction -exp(-s)
    (Morse(0.5, 1.5, 3), (HE, HE, HE)),
    (GaussianMix([(1.0, 1.0)], 1), (ST, ST, ST)),
    (GaussianMix([(1.0, 1.0)], 2), (ST, ST, ST)),
    (GaussianMix([(-1.0, 1.0)], 1), (HE, HE, HE)),
    (GaussianMix([(1.0, 1.0), (-1.5, 2.0)], 1), (HE, HE, HE)),
    # positive space integral but a negative transform dip at moderate
    # frequency; the modulated witness certifies the fourier verdict
    (GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 1), (ST, HE, HE)),
    (GaussianMix([(1.0, 0.5), (-0.2, 2.0)], 1), (ST, ST, ST)),
    (GaussianMix([(2.0, 1.0), (-1.0, 2.0)], 2), (HE, HE, HE)),
    (GaussianMix([(1.0, 1.0), (-0.3, 1.5)], 3), (HE, HE, HE)),
    (GaussianMix([(-0.5, 1.2)], 2), (HE, HE, HE)),
    (GaussianMix([(1.0, 1.0), (-0.5, 1.0)], 1), (ST, ST, ST)),
    # same mixture as the 1-d dip case but in the plane, where the deeper
    # dip defeats the modulated witness: fourier must stay inconclusive
    (GaussianMix([(4.0, 2.0), (-7.0, 1.0)], 2), (ST, HE, IN)),
    (GaussianMix([(1.0, 1.0), (-1.0, 1.0)], 1), (IN, IN, IN)),
]

CRITERION_ORDER = ("integral", "gaussian_weighted", "fourier")


@pytest.fixture(scope="session")
def regression_verdicts():
    """All three criteria, witness construction on, over the battery."""
    out = []
    for potential, expected in REGRESSION_CASES:
        verdicts = {
            "integral": integral_criterion(potential, build_witness=True),
            "gaussian_weighted": gaussian_criterion(potential,
                                                    build_witness=True),
            "fourier": fourier_criterion(potential),
        }
        out.append((potential, expected, verdicts))
    return out


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary

ACCEPTANCE_LINES = []


@contextmanager
def criterion_report(number, label):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number:02d} FAIL  {label}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number:02d} PASS  {label}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
