"""Exception hierarchy shared across the package, and the one check of a count."""

from numbers import Integral


class SubgaussError(Exception):
    """Base class for all errors raised by this package."""


class SingularCovariance(SubgaussError):
    """Covariance matrix is singular (or numerically indistinguishable from it)."""


class BoundViolation(SubgaussError):
    """A certified analytic bound was exceeded beyond numerical tolerance."""


class InsufficientSamples(SubgaussError):
    """Too few samples for the requested estimator."""


class GridTooWide(SubgaussError):
    """MGF evaluation grid would overflow exp() for the given samples."""


class DomainError(SubgaussError):
    """Argument outside the mathematical domain of the operation."""


class DimensionTooSmall(SubgaussError):
    """Matrix dimension too small for the requested partition."""


class SchemaError(SubgaussError):
    """Config document has an unknown or malformed key."""


class ValidationError(SubgaussError):
    """Config or argument value violates a documented precondition."""


def check_count(name: str, value, least: int) -> None:
    """Raise ValidationError unless value is an int or numpy integer >= least, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value!r}")


class IoError(SubgaussError):
    """Filesystem problem while emitting reports (unwritable, would overwrite)."""
