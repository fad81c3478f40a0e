"""Numerical laboratory for subgaussian concentration of bounded maps of Gaussians."""

from .errors import (
    BoundViolation,
    DimensionTooSmall,
    DomainError,
    GridTooWide,
    InsufficientSamples,
    IoError,
    SchemaError,
    SingularCovariance,
    SubgaussError,
    ValidationError,
)
from .gaussian_core import (
    CovarianceSpec,
    condition_number,
    sample_gaussian,
)
from .nonlinearity import (
    BoundedMap,
    get_map,
)
from .psi2_estimation import (
    Psi2Estimate,
    psi2_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "BoundedMap",
    "CovarianceSpec",
    "DimensionTooSmall",
    "DomainError",
    "GridTooWide",
    "InsufficientSamples",
    "IoError",
    "Psi2Estimate",
    "SchemaError",
    "SingularCovariance",
    "SubgaussError",
    "ValidationError",
    "condition_number",
    "get_map",
    "psi2_scalar",
    "sample_gaussian",
    "__version__",
]
