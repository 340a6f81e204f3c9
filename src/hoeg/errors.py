"""Exception types shared across the solver stack."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class CapabilityError(RuntimeError):
    """The requested feature needs derivative information that is unavailable."""


class ConvergenceError(RuntimeError):
    """An iterative subsolver failed to reach its tolerance.

    Carries the best residual seen so the caller can decide whether the
    partial answer is usable.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSampleError(ValueError):
    """Every drawn sample was skipped, leaving nothing to estimate from."""
