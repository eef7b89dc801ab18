"""Exception types shared across the package."""

__all__ = ["SpectralHomotopyError", "EvaluationError", "MembershipError",
           "FactorizationError", "SolverError", "ConfigError"]


class SpectralHomotopyError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(SpectralHomotopyError):
    """A transfer function could not be evaluated at the requested point."""


class MembershipError(SpectralHomotopyError):
    """An input lies outside the set an operation requires.

    Raised for parameters outside the stable factor set, matrices whose
    induced density is not positive on the unit circle, priors that are
    not minimum phase, and covariances that are not attainable.
    """


class FactorizationError(SpectralHomotopyError):
    """A matrix factorization failed (non positive definite, indefinite block)."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SolverError(SpectralHomotopyError):
    """An iterative solver failed to converge or hit a safeguard floor.

    ``history`` lists ``(t, dt, reason)`` for each failed step of a
    continuation run (see continuation.run_continuation); it is empty for
    every other failure, whose message gives the value that failed.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(SpectralHomotopyError):
    """A run configuration is invalid; message contains the offending field path."""
