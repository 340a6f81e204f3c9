"""Exception types shared across the solver stack, and one check per kind of public value.

Every check raises a ValueError whose message names the argument.
"""

import math

import numpy as np

SUPPORTED_ORDERS = (1, 2)


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


def check_order(p) -> None:
    """Raise ValueError unless p is an integer (not a bool) among the SUPPORTED_ORDERS."""
    if p not in SUPPORTED_ORDERS or isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"order p = {p!r} is not supported (have {SUPPORTED_ORDERS})")


def check_real(x, name: str, low=None, positive: bool = False) -> None:
    """Raise ValueError unless x is a finite int or float (not a bool), > 0 if ``positive``, >= ``low`` if given."""
    if x.__class__ is not float:  # a float skips the type tests: on per-call paths the check is a range test
        if isinstance(x, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not the bool {x}")
        if not isinstance(x, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        if isinstance(x, int) and abs(x) >= 2**1024 - 2**970:  # compares as finite, but rounds to inf as a float
            raise ValueError(f"{name} must be finite, got an integer of {x.bit_length()} bits")
    if positive:
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x}")
    elif low is not None:
        if not low <= x < math.inf:
            raise ValueError(f"{name} must be finite and >= {low}")
    elif not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be finite, got {x}")


def check_count(n, name: str, positive: bool = True) -> int:
    """n as an int, which cannot wrap; a ValueError unless it is an integer, not a bool, > 0 if ``positive`` else >= 0."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < (1 if positive else 0):
        raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} integer, got {n!r}")
    return int(n)


def check_array(value, name: str, shape=None) -> np.ndarray:
    """``value`` as floats; a ValueError unless it holds ints and floats only (no cast drops an
    imaginary part), with ``shape`` if given."""
    try:
        real = np.asarray(value).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        real = False
    if not real:
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    array = np.asarray(value, dtype=float)
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, problem needs {shape}")
    return array
