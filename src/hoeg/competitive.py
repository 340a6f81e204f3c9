"""The field the iteration and the certificates follow: F, or F preconditioned through the mixed Hessian.

F_alpha(z) solves M u = F(z) with M = [[I, a*B], [-a*B^T, I]] and
B = grad_xy f(z).  M is the identity plus a real skew-symmetric matrix, so
its symmetric part is I and the solve is always well posed; in particular
F_alpha and F share their zero set exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError
from .problems import (ProblemSpec, _per_point, central_difference, eval_jacobian, eval_operator,
                       operator_rows)


@dataclass(frozen=True)
class OperatorMode:
    """Which field the solver follows: F when alpha is None, F_alpha for a value (0 included)."""

    alpha: Optional[float] = None

    def __post_init__(self):
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")

    @classmethod
    def standard(cls) -> "OperatorMode":
        return cls()

    @classmethod
    def competitive(cls, alpha: float) -> "OperatorMode":
        return cls(float(alpha))


def block_matrix(B: np.ndarray, alpha: float) -> np.ndarray:
    """M = [[I, alpha B], [-alpha B^T, I]] for one mixed Hessian B, or for a stack of them.

    ``B`` has shape (d_x, d_y) or (n, d_x, d_y); M has shape (d, d) or (n, d, d).
    """
    d_x, d_y = B.shape[-2:]
    d = d_x + d_y
    M = np.eye(d) if B.ndim == 2 else np.tile(np.eye(d), (len(B), 1, 1))
    M[..., :d_x, d_x:] = alpha * B
    M[..., d_x:, :d_x] = -alpha * B.swapaxes(-1, -2)
    return M


class Operator:
    """F of a problem, or F_alpha when the mode sets alpha, at a point, at rows, and its Jacobian."""

    def __init__(self, problem: ProblemSpec, mode: Optional[OperatorMode] = None):
        self.problem = problem
        self.alpha = None if mode is None else mode.alpha
        if self.alpha is not None and problem.mixed_hessian is None:
            raise CapabilityError(f"{problem.name!r} has no mixed Hessian; competitive mode unavailable")

    def at(self, z) -> np.ndarray:
        """The field at one point; F_alpha is one (d, d) solve."""
        problem = self.problem
        F = eval_operator(problem, z)
        if self.alpha is None:
            return F
        B = np.asarray(problem.mixed_hessian(np.asarray(z, dtype=float)), dtype=float)
        if B.shape != (problem.d_x, problem.d_y):
            raise ValueError(f"mixed Hessian of {problem.name!r} has shape {B.shape}")
        return np.linalg.solve(block_matrix(B, self.alpha), F)

    def rows(self, Z: np.ndarray) -> np.ndarray:
        """The field at each row of an (n, d) array, each row bit-identical to ``at``.

        F_alpha is one solve on the (n, d, d) stack of block matrices; LAPACK
        factors each matrix as it would alone.
        """
        problem = self.problem
        F = operator_rows(problem, Z)
        if self.alpha is None:
            return F
        B = _per_point(problem.mixed_hessian, Z, (problem.d_x, problem.d_y),
                       f"mixed Hessian of {problem.name!r}")
        return np.linalg.solve(block_matrix(B, self.alpha), F[..., None])[..., 0]

    def jacobian(self, z) -> np.ndarray:
        """Jacobian of the field; F_alpha has no analytic third derivatives, so it is differenced."""
        if self.alpha is None:
            return eval_jacobian(self.problem, z)
        return central_difference(self.at, np.asarray(z, dtype=float))
