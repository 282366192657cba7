"""Exception types shared across the package."""


class GroundlabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(GroundlabError):
    """A run configuration is malformed or inconsistent."""


class QuadratureFailure(GroundlabError):
    """An adaptive quadrature did not reach the requested tolerance."""


class NotAbsolutelyIntegrable(GroundlabError):
    """The potential profile is not absolutely integrable over all of space."""


class NotSquareIntegrable(GroundlabError):
    """The potential profile is not square integrable over all of space."""


class DimensionUnsupported(GroundlabError):
    """The requested ambient dimension is outside the supported range."""


class NonDifferentiable(GroundlabError):
    """The potential carries no derivative model."""


class ParticleCollision(GroundlabError):
    """Two particles became numerically coincident despite the separation
    clamp."""


class OptimizerStalled(GroundlabError):
    """Local descent made no progress within its iteration budget."""


class InvariantViolation(GroundlabError):
    """An internal consistency check failed; indicates a bug, not bad input."""
