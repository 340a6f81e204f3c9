"""The higher-order extragradient iteration.

Each round solves the order-p regularized model for the half-step, sets the
step size lambda_k = 0.5 * r^(1-p) from the displacement radius r, and takes
the closed-form full step z_{k+1} = z_k - (p! lambda_k / (2 L_p)) F(z_half).
The returned point is the recorded half-step iterate with the smallest
operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .competitive import resolve_operator
from .errors import ConvergenceError, NumericError
from .halfstep import solve_half_step_p1, solve_half_step_p2
from .problems import OperatorMode, ProblemSpec

TERM_BUDGET = "budget_exhausted"
TERM_EPSILON = "epsilon_reached"
TERM_STATIONARY = "exact_stationary"
TERM_SUBPROBLEM = "subproblem_failure"
TERM_NUMERIC = "numeric_failure"


@dataclass(frozen=True)
class SolverConfig:
    order_p: int
    lipschitz: float
    max_iterations: int
    z0: np.ndarray
    operator_mode: OperatorMode = field(default_factory=OperatorMode.standard)
    subproblem_tol: float = 1e-10
    subproblem_max_iter: int = 200
    stop_norm: float = 0.0

    def __post_init__(self):
        if self.order_p not in (1, 2):
            raise ValueError("order_p must be 1 or 2")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.subproblem_tol > 0 and self.stop_norm >= 0):
            raise ValueError("tolerances must be positive (stop_norm may be 0 to disable)")
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=float))


@dataclass(frozen=True)
class IterateRecord:
    k: int
    z: np.ndarray
    z_half: np.ndarray
    lambda_k: float
    displacement_norm: float
    op_norm_half: float
    subproblem_residual: float
    subproblem_iters: int


@dataclass(frozen=True)
class TrajectoryLog:
    records: List[IterateRecord]
    z_out: np.ndarray
    out_index: int
    termination: str

    def running_min_sq(self) -> np.ndarray:
        """Running minimum of ||F(z_half)||^2 over the records."""
        return np.minimum.accumulate(np.array([rec.op_norm_half for rec in self.records]) ** 2)


def select_output(records: List[IterateRecord]) -> Tuple[np.ndarray, int]:
    """Half-step iterate with minimal operator norm; first index wins ties."""
    if not records:
        raise ValueError("no records to select from")
    idx = min(range(len(records)), key=lambda i: (records[i].op_norm_half, i))
    return records[idx].z_half, idx


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as NumericError
def run(problem: ProblemSpec, config: SolverConfig) -> TrajectoryLog:
    """Run the iteration for k = 0..K and return the full trajectory.

    A ``ConvergenceError`` or ``NumericError`` after the first record ends the
    run with termination ``subproblem_failure`` or ``numeric_failure`` and
    keeps the records reached; before it, the error propagates.
    """
    operator, jacobian = resolve_operator(problem, config.operator_mode)
    p = config.order_p
    L = config.lipschitz
    full_step_coef = math.factorial(p) / (2.0 * L)

    z = config.z0.copy()
    if z.shape != (problem.d,):
        raise ValueError(f"z0 has shape {z.shape}, problem needs ({problem.d},)")
    records: List[IterateRecord] = []
    termination = TERM_BUDGET

    for k in range(config.max_iterations + 1):
        try:
            if not np.isfinite(z).all():
                raise NumericError(f"non-finite iterate at k={k}")
            F_k = operator(z)
            if p == 1:
                half = solve_half_step_p1(F_k, L, z)
            else:
                half = solve_half_step_p2(
                    F_k, jacobian(z), L, z, config.subproblem_tol, config.subproblem_max_iter
                )
            F_half = operator(half.z_half)
        except (ConvergenceError, NumericError) as exc:
            if not records:
                raise
            termination = TERM_SUBPROBLEM if isinstance(exc, ConvergenceError) else TERM_NUMERIC
            break
        r = half.displacement_norm
        op_norm = math.sqrt(F_half @ F_half)
        # step size 0.5 * r^(1-p); r = 0 means z is an exact stationary point,
        # where lambda is 0.5 for p=1 and conventionally 0 otherwise (its
        # limit contribution vanishes)
        lam = 0.5 * r ** (1 - p) if r > 0.0 or p == 1 else 0.0
        records.append(IterateRecord(k, z.copy(), half.z_half, lam, r, op_norm,
                                     half.residual_norm, half.iterations_used))
        if r == 0.0:
            termination = TERM_STATIONARY
            break
        if config.stop_norm > 0 and op_norm <= config.stop_norm:
            termination = TERM_EPSILON
            break
        z = z - (full_step_coef * lam) * F_half

    z_out, out_index = select_output(records)
    return TrajectoryLog(records, z_out, out_index, termination)


def detect_cycling(log: TrajectoryLog, window: int, threshold: float) -> bool:
    """Heuristic orbit detector over the trailing window of iterates.

    Flags a cycle when the operator norm stays above the threshold while the
    iterates revisit earlier neighborhoods: the smallest distance between
    non-adjacent window members falls under 10% of the window's spread.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    tail = log.records[-window:]
    if len(tail) < 2:
        return False
    if min(rec.op_norm_half for rec in tail) <= threshold:
        return False
    pts = np.stack([rec.z for rec in tail])
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    n = len(tail)
    idx = np.arange(n)
    nonadjacent = np.abs(idx[:, None] - idx[None, :]) >= 2
    spread = float(dists.max())
    if spread == 0.0:
        return False
    return float(dists[nonadjacent].min()) < 0.1 * spread
