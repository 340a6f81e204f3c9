"""The higher-order extragradient iteration.

Each round solves the order-p regularized model for the half-step, sets the
step size lambda_k = 0.5 * r^(1-p) from the displacement radius r, and takes
the closed-form full step z_{k+1} = z_k - (p! lambda_k / (2 L_p)) F(z_half).
The returned point is the recorded half-step iterate with the smallest
operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .competitive import Operator, OperatorMode
from .errors import ConvergenceError, NumericError
from .halfstep import check_order, solve_half_step_p1, solve_half_step_p2, vector_norm
from .problems import ProblemSpec

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
    operator_mode: OperatorMode = OperatorMode()
    stop_norm: float = 0.0

    def __post_init__(self):
        check_order(self.order_p)
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.stop_norm >= 0:
            raise ValueError("stop_norm must be >= 0 (0 disables it)")
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
        with np.errstate(over="ignore"):  # a diverged run's norms square to inf
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
    operator = Operator(problem, config.operator_mode)
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
            F_k = operator.at(z)
            if p == 1:
                half = solve_half_step_p1(F_k, L, z)
            else:
                half = solve_half_step_p2(F_k, operator.jacobian(z), L, z)
            F_half = operator.at(half.z_half)
        except (ConvergenceError, NumericError) as exc:
            if not records:
                raise
            termination = TERM_SUBPROBLEM if isinstance(exc, ConvergenceError) else TERM_NUMERIC
            break
        r = half.displacement_norm
        op_norm = vector_norm(F_half)
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
