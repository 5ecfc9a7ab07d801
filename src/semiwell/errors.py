"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerances.

    Newton on the concave band residual converges from its fixed start, so
    this indicates an internal bug or a pathological configuration.
    """
