"""Exception types shared across the library."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(RuntimeError):
    """A tolerance could not be met.  Carries the best available estimate."""

    def __init__(self, message, best_estimate=None, err_est=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.err_est = err_est


class DivergenceError(ValueError):
    """The requested spectral sum does not converge."""
