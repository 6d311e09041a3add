"""Exception types shared across the package."""


class ClusterNullError(Exception):
    """Base class for all package errors."""


class DomainError(ClusterNullError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class RankDeficientError(ClusterNullError):
    """Interferer direction matrix is numerically rank deficient."""


class ZeroVectorError(ClusterNullError, ValueError):
    """A direction was requested for an (almost) zero vector."""


class InsufficientBudgetError(ClusterNullError, ValueError):
    """Feedback budget too small for the requested allocation."""


class BudgetExceededError(ClusterNullError, ValueError):
    """Requested codebook size above the explicit-codebook cap."""


class DegenerateRealizationError(ClusterNullError):
    """Sampled deployment fails the typical-cluster preconditions; resample."""
