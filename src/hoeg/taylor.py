"""Truncated and regularized Taylor models of the operator at a base point.

The order-p model keeps derivatives of F up to order p-1 and adds the
regularizer (2 L_p / p!) ||d||^(p-1) d, whose root defines the extragradient
half-step.  Orders 1 and 2 are supported; anything higher would need
third-derivative tensors the problem library does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError
from .problems import ProblemSpec, eval_jacobian, eval_operator

SUPPORTED_ORDERS = (1, 2)


@dataclass(frozen=True)
class TaylorModel:
    order_p: int
    base: np.ndarray
    f_at_base: np.ndarray
    jacobian_at_base: Optional[np.ndarray] = None
    lipschitz: float = 1.0

    def __post_init__(self):
        if self.order_p not in SUPPORTED_ORDERS:
            raise CapabilityError(f"order {self.order_p} not supported (have {SUPPORTED_ORDERS})")
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "f_at_base", np.asarray(self.f_at_base, dtype=float))
        if self.order_p >= 2:
            if self.jacobian_at_base is None:
                raise CapabilityError("order 2 model needs the Jacobian at the base point")
            object.__setattr__(self, "jacobian_at_base", np.asarray(self.jacobian_at_base, dtype=float))
        elif self.jacobian_at_base is not None:
            raise ValueError("order 1 model carries no Jacobian")
        if not self.lipschitz >= 0:
            raise ValueError("lipschitz constant must be >= 0")


def taylor_model(problem: ProblemSpec, z_a, order_p: int, lipschitz: float) -> TaylorModel:
    """Build the order-p model of the problem operator centered at z_a."""
    z_a = np.asarray(z_a, dtype=float)
    jac = eval_jacobian(problem, z_a) if order_p >= 2 else None
    return TaylorModel(order_p, z_a, eval_operator(problem, z_a), jac, lipschitz)


def tau(model: TaylorModel, z_b) -> np.ndarray:
    """Degree-(p-1) Taylor expansion of F at z_b around the model base."""
    z_b = np.asarray(z_b, dtype=float)
    if model.order_p == 1:
        return model.f_at_base.copy()
    return model.f_at_base + model.jacobian_at_base @ (z_b - model.base)


def phi(model: TaylorModel, z_b) -> np.ndarray:
    """Regularized model tau + (2 L_p / p!) ||d||^(p-1) d with d = z_b - base."""
    z_b = np.asarray(z_b, dtype=float)
    d = z_b - model.base
    coef = 2.0 * model.lipschitz / math.factorial(model.order_p)
    if model.order_p == 1:
        reg = coef * d
    else:
        reg = coef * np.linalg.norm(d) ** (model.order_p - 1) * d
    return tau(model, z_b) + reg
