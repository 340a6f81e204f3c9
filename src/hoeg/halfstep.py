"""Half-step subproblem solvers: roots of the regularized Taylor model.

Order 1 has the closed form z' = z_k - F(z_k) / (2 L1).  Order 2 reduces to a
scalar root-find: parametrize d(r) = -(J + L2 r I)^{-1} F and locate the
radius r with ||d(r)|| = r, bracketing by geometric expansion and bisecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class HalfStepResult:
    z_half: np.ndarray
    displacement_norm: float
    residual_norm: float
    iterations_used: int


def solve_half_step_p1(F_k, L1: float, z_k) -> HalfStepResult:
    """Closed-form order-1 half-step z' = z_k - F_k / (2 L1)."""
    if not L1 > 0:
        raise ValueError("L1 must be positive")
    F_k = np.asarray(F_k, dtype=float)
    z_k = np.asarray(z_k, dtype=float)
    d = -F_k / (2.0 * L1)
    residual = float(np.linalg.norm(F_k + 2.0 * L1 * d))
    return HalfStepResult(z_k + d, float(np.linalg.norm(d)), residual, 0)


def solve_half_step_p2(F_k, J_k, L2: float, z_k, tol: float = 1e-10, max_iter: int = 200) -> HalfStepResult:
    """Order-2 half-step: solve F_k + J_k d + L2 ||d|| d = 0 for d."""
    if not L2 > 0:
        raise ValueError("L2 must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    F_k = np.asarray(F_k, dtype=float)
    J_k = np.asarray(J_k, dtype=float)
    z_k = np.asarray(z_k, dtype=float)
    norm_F = float(np.linalg.norm(F_k))
    if norm_F == 0.0:
        return HalfStepResult(z_k.copy(), 0.0, 0.0, 0)

    eye = np.eye(len(z_k))
    scale = tol * max(1.0, norm_F)
    evals = 0

    def displacement(r: float) -> np.ndarray:
        nonlocal evals
        evals += 1
        try:
            return np.linalg.solve(J_k + L2 * r * eye, -F_k)
        except np.linalg.LinAlgError:
            # isolated singular radius: nudge and retry once
            r = r + 1e-12 * (1.0 + r)
            return np.linalg.solve(J_k + L2 * r * eye, -F_k)

    def gap(r: float) -> float:
        return float(np.linalg.norm(displacement(r))) - r

    def residual_at(r: float):
        d = displacement(r)
        res = float(np.linalg.norm(F_k + J_k @ d + L2 * np.linalg.norm(d) * d))
        return res, d

    # Expand until the gap changes sign; g(0) = ||J^{-1} F|| >= 0 anchors the left end.
    lo = 0.0
    hi = norm_F / L2 + 1e-12
    expansions = 0
    while gap(hi) > 0 and expansions < 60:
        lo = hi
        hi *= 2.0
        expansions += 1

    best_res, best_d = math.inf, None
    steps = 0
    while steps < max_iter:
        steps += 1
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(hi, 1e-300):
            res, d = residual_at(0.5 * (lo + hi))
            if res < best_res:
                best_res, best_d = res, d
            if res <= scale or hi - lo <= 4e-16 * hi:
                break

    if best_res > scale:
        # damped fixed point on the radius as a fallback
        r = max(0.5 * (lo + hi), 1e-300)
        for _ in range(200):
            steps += 1
            r = 0.5 * (r + float(np.linalg.norm(displacement(r))))
            res, d = residual_at(r)
            if res < best_res:
                best_res, best_d = res, d
            if res <= scale:
                break

    if best_d is None or best_res > scale:
        raise ConvergenceError(
            f"half-step radius search stalled (residual {best_res:.3e} > {scale:.3e})",
            residual=best_res,
        )
    return HalfStepResult(z_k + best_d, float(np.linalg.norm(best_d)), best_res, steps + expansions)
