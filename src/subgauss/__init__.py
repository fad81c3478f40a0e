"""Numerical laboratory for subgaussian concentration of bounded maps of Gaussians."""

from .errors import (
    BoundViolation,
    DimensionTooSmall,
    DomainError,
    GridTooWide,
    InsufficientSamples,
    IoError,
    QuadratureNonConvergence,
    SchemaError,
    SingularCovariance,
    SubgaussError,
    ValidationError,
)
from .gaussian_core import (
    CovarianceSpec,
    CovarianceSplit,
    condition_number,
    sample_gaussian,
    sample_split_gaussian,
    split_covariance,
)
from .nonlinearity import (
    BoundedMap,
    get_map,
    lipschitz_certificate,
    smoothed_mean,
    smoothed_mean_derivative,
)
from .psi2_estimation import (
    Psi2Estimate,
    mgf_sigma,
    psi2_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "BoundedMap",
    "CovarianceSpec",
    "CovarianceSplit",
    "DimensionTooSmall",
    "DomainError",
    "GridTooWide",
    "InsufficientSamples",
    "IoError",
    "Psi2Estimate",
    "QuadratureNonConvergence",
    "SchemaError",
    "SingularCovariance",
    "SubgaussError",
    "ValidationError",
    "condition_number",
    "get_map",
    "lipschitz_certificate",
    "mgf_sigma",
    "psi2_scalar",
    "sample_gaussian",
    "sample_split_gaussian",
    "smoothed_mean",
    "smoothed_mean_derivative",
    "split_covariance",
    "__version__",
]
