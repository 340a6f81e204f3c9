"""The competitive operator: F preconditioned through the mixed Hessian.

F_alpha(z) solves M u = F(z) with M = [[I, a*B], [-a*B^T, I]] and
B = grad_xy f(z).  M is the identity plus a real skew-symmetric matrix, so
its symmetric part is I and the solve is always well posed; in particular
F_alpha and F share their zero set exactly.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .errors import CapabilityError
from .problems import OperatorMode, ProblemSpec, central_difference, eval_jacobian, eval_operator


def check_competitive(problem: ProblemSpec, alpha: float) -> float:
    """Validate that F_alpha exists for the problem; returns alpha as a float."""
    if problem.mixed_hessian is None:
        raise CapabilityError(f"{problem.name!r} has no mixed Hessian; competitive mode unavailable")
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    return float(alpha)


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


def eval_f_alpha(problem: ProblemSpec, z, alpha: float) -> np.ndarray:
    """Evaluate the competitive operator at z: the solution u of M u = F(z)."""
    alpha = check_competitive(problem, alpha)
    z = np.asarray(z, dtype=float)
    B = np.asarray(problem.mixed_hessian(z), dtype=float)
    if B.shape != (problem.d_x, problem.d_y):
        raise ValueError(f"mixed Hessian of {problem.name!r} has shape {B.shape}")
    return np.linalg.solve(block_matrix(B, alpha), eval_operator(problem, z))


def f_alpha_jacobian(problem: ProblemSpec, z, alpha: float) -> np.ndarray:
    """Central-difference Jacobian of the competitive operator."""
    z = np.asarray(z, dtype=float)
    return central_difference(lambda zz: eval_f_alpha(problem, zz, alpha), z)


def resolve_operator(problem: ProblemSpec,
                     mode: Optional[OperatorMode] = None) -> Tuple[Callable, Callable]:
    """Field and Jacobian callables of the operator mode: F by default, F_alpha when competitive."""
    if mode is None or mode.kind == "standard":
        return (
            lambda z: eval_operator(problem, z),
            lambda z: eval_jacobian(problem, z),
        )
    alpha = mode.alpha
    # no analytic third derivatives: the competitive Jacobian is differenced
    return (
        lambda z: eval_f_alpha(problem, z, alpha),
        lambda z: f_alpha_jacobian(problem, z, alpha),
    )

