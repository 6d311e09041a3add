"""Exception types shared across the package."""


class ClusterNullError(Exception):
    """Base class for all package errors."""


class DomainError(ClusterNullError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class RankDeficientError(ClusterNullError):
    """Interferer direction matrix is numerically rank deficient."""


class DegenerateRealizationError(ClusterNullError):
    """Sampled deployment fails the typical-cluster preconditions; resample."""
