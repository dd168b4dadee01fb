"""Exception taxonomy shared by all modules."""

from contextlib import contextmanager


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


@contextmanager
def reading(what: str):
    """Report a lookup or conversion failure while reading ``what`` from a
    descriptor as a one-line ``ValidationError``."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what}: missing field {exc}") from None
    except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from None


class ProjectionError(ValidationError):
    """Two tower stages do not sit in one covering chain."""


class IntegrationFailureError(CocycleLabError):
    """A piece propagator could not meet its error target."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ResolutionError(CocycleLabError):
    """A scan exhausted its evaluation budget, or a root bracket failed
    (no sign change, a NaN value, or no convergence); retry with a finer
    grid."""


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
