"""Exception taxonomy shared by all modules."""


class CocycleLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CocycleLabError):
    """Input outside the mathematical domain of an operation."""


class NotEllipticError(DomainError):
    """Operation requires |tr A| < 2 with a safety margin."""


class NumericOverflowError(CocycleLabError):
    """A Moebius image or matrix entry left the representable range."""


class ValidationError(CocycleLabError):
    """A descriptor or config violates a structural invariant."""


class ProjectionError(ValidationError):
    """Two tower stages do not sit in one covering chain."""


class IntegrationFailureError(CocycleLabError):
    """A piece propagator could not meet its error target."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ResolutionError(CocycleLabError):
    """A scan exhausted its evaluation budget; retry with a finer grid."""


class NormalFormBreakdownError(CocycleLabError):
    """An intermediate normal-form stage lost ellipticity."""

    def __init__(self, stage, message=None):
        super().__init__(message or f"ellipticity lost at normal-form stage {stage}")
        self.stage = stage


class RealizationError(CocycleLabError):
    """A tower stage could not be realized within its bounds."""


class PipelineCollapseError(CocycleLabError):
    """Every grid energy was excluded at some cascade step."""

    def __init__(self, step, message=None):
        super().__init__(message or f"all energies excluded at cascade step {step}")
        self.step = step


class UsageError(CocycleLabError):
    """Bad command line or malformed descriptor (CLI exit code 2)."""
