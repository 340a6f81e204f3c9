"""Half-step subproblem solvers: roots of the regularized Taylor model.

Order 1 has the closed form z' = z_k - F(z_k) / (2 L1).  Order 2 reduces to a
scalar root-find on the step radius: with d(r) = -(J + L2 r I)^{-1} F, find a
radius r where the gap g(r) = ||d(r)|| - r vanishes.  The radius grid
hi0 * 2^k, hi0 = ||F|| / L2 + 1e-12, is doubled up to its first sign change
of g; grid points below a lower bound r_lo, where g > 0 is certain, are
skipped without a solve.  Inside that bracket a safeguarded Newton iteration
(the secular-equation method of trust-region and cubic-regularisation
solvers) takes over, falling back to bisection whenever a Newton step leaves
the bracket or a trial radius makes J + L2 r I singular.

The returned radius is a sign-change root of g in the first doubling
bracket.  It is the unique root when the symmetric part of J is positive
semidefinite, since then ||d(r)|| decreases in r; for other J the bracket
may hold several roots and any one of them may be returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

MAX_DOUBLINGS = 60   # grid points hi0 * 2^k, k <= 60, tried for a sign change
GAP_RTOL = 1e-10     # accepted radii satisfy | ||d|| - r | <= GAP_RTOL * r


def _norm(v: np.ndarray) -> float:
    """Euclidean norm that stays positive for entries below 1e-154, whose squares underflow."""
    return math.hypot(*v)


@dataclass(frozen=True)
class HalfStepResult:
    """A half-step and its certificate.

    ``iterations_used`` counts the linear solves the half-step made (0 for
    the closed-form order-1 step).
    """

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
    g = F_k + 2.0 * L1 * d
    return HalfStepResult(z_k + d, math.sqrt(d @ d), math.sqrt(g @ g), 0)


def solve_half_step_p2(F_k, J_k, L2: float, z_k, tol: float = 1e-10, max_iter: int = 200) -> HalfStepResult:
    """Order-2 half-step: solve F_k + J_k d + L2 ||d|| d = 0 for d.

    Stops once the model residual is <= tol * max(1, ||F_k||) and r is pinned
    to 1e-10 r, by the gap | ||d|| - r | or by the width of the bracket around
    r.  Raises ConvergenceError, carrying the last model
    residual, when no sign change of the gap appears within 60 doublings,
    when the gap is not finite, or when max_iter Newton/bisection trials do
    not meet the stopping rule.
    """
    if not L2 > 0:
        raise ValueError("L2 must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    F_k = np.asarray(F_k, dtype=float)
    J_k = np.asarray(J_k, dtype=float)
    z_k = np.asarray(z_k, dtype=float)
    norm_F = _norm(F_k)
    if norm_F == 0.0:
        return HalfStepResult(z_k.copy(), 0.0, 0.0, 0)

    eye = np.eye(len(z_k))
    scale = tol * max(1.0, norm_F)
    solves = 0

    def shifted_solve(r: float, rhs: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return np.linalg.solve(J_k + L2 * r * eye, rhs)

    def residual_of(d) -> float:
        if d is None:
            return math.inf
        return _norm(F_k + J_k @ d + L2 * _norm(d) * d)

    def accepted(residual: float, gap: float, r: float) -> bool:
        # the gap test alone can be out of reach when J + L2 r I is badly
        # conditioned; a bracket pinned to GAP_RTOL * r locates r as well
        return residual <= scale and min(abs(gap), hi - lo) <= GAP_RTOL * r

    def trial(r: float):
        """(d(r), ||d(r)||); d is None at a singular radius, where ||d|| counts as +inf."""
        try:
            d = shifted_solve(r, -F_k)
        except np.linalg.LinAlgError:
            return None, math.inf
        norm_d = _norm(d)
        if not math.isfinite(norm_d):
            raise ConvergenceError(f"half-step radius gap is not finite at r = {r:.3e}",
                                   residual=math.inf)
        return d, norm_d

    # Below r_lo, ||d(r)|| >= ||F|| / (||J||_F + L2 r) > r, so the gap is
    # positive without a solve.  r_lo is the positive root of
    # L2 r^2 + ||J||_F r - ||F|| = 0, written without cancellation.
    norm_J = float(np.linalg.norm(J_k))
    r_lo = 2.0 * norm_F / (norm_J + math.sqrt(norm_J**2 + 4.0 * L2 * norm_F))
    lo, hi = 0.0, norm_F / L2 + 1e-12
    d = None
    for _ in range(MAX_DOUBLINGS + 1):
        if not hi < r_lo:
            d, norm_d = trial(hi)
            if norm_d <= hi:
                break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError(f"half-step radius gap kept its sign over {MAX_DOUBLINGS} doublings",
                               residual=residual_of(d))

    # Safeguarded Newton on g(r) = ||d|| - r, with g' = d.d'/||d|| - 1 and
    # d' = -L2 (J + L2 r I)^{-1} d.  It starts from r_lo when that lies inside
    # the bracket (g is often convex, so Newton then approaches from the left)
    # and otherwise from hi.  A step that leaves the bracket, or that is not
    # half as long as the step before it, is replaced by a bisection step,
    # geometric once lo > 0 so that roots far below hi are reached quickly.
    d_lo, d_hi = None, d
    r = hi
    if lo < r_lo < hi:
        r = r_lo
        d, norm_d = trial(r)
    last_move = math.inf
    for _ in range(max_iter):
        step = math.nan
        if d is not None and norm_d > 0.0:   # d underflows to 0 only for subnormal F
            residual = residual_of(d)
            if accepted(residual, norm_d - r, r):
                return HalfStepResult(z_k + d, norm_d, residual, solves)
            # r - g/g' written as (r s - ||d||) / (s - 1), s = d.d'/||d||, so a
            # root far below r does not cancel away
            s = -L2 * float(d @ shifted_solve(r, d / norm_d))
            if s != 1.0:
                step = (r * s - norm_d) / (s - 1.0)
        if norm_d > r:
            lo, d_lo = r, d
        else:
            hi, d_hi = r, d
        if not (lo < step < hi and abs(step - r) <= 0.5 * last_move):
            step = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        if not lo < step < hi:
            break   # the bracket has shrunk to adjacent doubles
        last_move, r = abs(step - r), step
        d, norm_d = trial(r)

    # A root where g is steep can fall between two adjacent doubles, so that
    # neither end meets the stopping rule.  On the chord d = d_lo + t (d_hi - d_lo),
    # r = lo + t (hi - lo) the model residual is L2 t (1-t) (hi - lo) ||d_hi - d_lo||
    # once ||d|| = r, and ||d|| - r is convex in t, so bisect t for its one root.
    if d_lo is not None:
        t_lo, t_hi = 0.0, 1.0
        for _ in range(53):
            t = 0.5 * (t_lo + t_hi)
            d, r = d_lo + t * (d_hi - d_lo), lo + t * (hi - lo)
            norm_d = _norm(d)
            t_lo, t_hi = (t, t_hi) if norm_d > r else (t_lo, t)
    residual = residual_of(d)
    if accepted(residual, norm_d - r, r):
        return HalfStepResult(z_k + d, norm_d, residual, solves)
    raise ConvergenceError(f"half-step radius search stopped after {solves} solves "
                           f"(residual {residual:.3e}, tolerance {scale:.3e})", residual=residual)
