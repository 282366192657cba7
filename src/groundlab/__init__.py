"""Numerical laboratory for ground states of radial pair-interaction
energies.

The package studies the interaction energy of a probability measure with
itself under a radial pair potential: which potentials admit a
nonpositive-energy measure, which are stable, and what particle
minimizers look like.  See the module docstrings of
:mod:`groundlab.potentials`, :mod:`groundlab.radial`,
:mod:`groundlab.measures`, :mod:`groundlab.energy`,
:mod:`groundlab.stability` and :mod:`groundlab.groundstate` for details,
and :mod:`groundlab.cli` for the command-line frontend.
"""

from .energy import EnergyReport, bilinear_form, energy_grid, energy_pointcloud
from .errors import (ConfigError, DimensionUnsupported, GroundlabError,
                     InvariantViolation, NonDifferentiable,
                     NotAbsolutelyIntegrable, NotSquareIntegrable,
                     OptimizerStalled, ParticleCollision, QuadratureFailure)
from .geometry import unit_ball_volume, unit_sphere_area
from .groundstate import (MinimizationTrace, ScanRow, classify_trace,
                          ground_state_scan, minimize_particles)
from .measures import (GridDensity, PointCloudMeasure, combine,
                       empirical_approximation, gaussian_witness_density,
                       levy_prokhorov_upper, modulated_witness_density,
                       uniform_ball_density)
from .potentials import (GaussianMix, HypothesisReport, Morse, PowerLaw,
                         RadialPotential, Tabulated, probe_hypotheses)
from .stability import (Certificate, RucCheck, StabilityVerdict, check_ruc,
                        fourier_criterion, gaussian_criterion,
                        integral_criterion, radial_fourier_transform,
                        ruc_search, space_integral, weighted_space_integral)

__version__ = "0.1.0"

__all__ = [
    "EnergyReport", "bilinear_form", "energy_grid", "energy_pointcloud",
    "ConfigError", "DimensionUnsupported", "GroundlabError",
    "InvariantViolation",
    "NonDifferentiable", "NotAbsolutelyIntegrable", "NotSquareIntegrable",
    "OptimizerStalled", "ParticleCollision", "QuadratureFailure",
    "unit_ball_volume", "unit_sphere_area",
    "MinimizationTrace", "ScanRow", "classify_trace", "ground_state_scan",
    "minimize_particles",
    "GridDensity", "PointCloudMeasure", "combine",
    "empirical_approximation", "gaussian_witness_density",
    "levy_prokhorov_upper", "modulated_witness_density",
    "uniform_ball_density",
    "GaussianMix", "HypothesisReport", "Morse", "PowerLaw",
    "RadialPotential", "Tabulated", "probe_hypotheses",
    "Certificate", "RucCheck", "StabilityVerdict", "check_ruc",
    "fourier_criterion", "gaussian_criterion", "integral_criterion",
    "radial_fourier_transform", "ruc_search", "space_integral",
    "weighted_space_integral",
    "__version__",
]
