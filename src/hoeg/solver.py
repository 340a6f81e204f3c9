"""The higher-order extragradient iteration.

Each round solves the order-p regularized model for the half-step, sets the
step size lambda_k = 0.5 * r^(1-p) from the displacement radius r, and takes
the closed-form full step z_{k+1} = z_k - (p! lambda_k / (2 L_p)) F(z_half).
The returned point is the recorded half-step iterate with the smallest
operator norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

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


class RecordView(Sequence):
    """The rows of a ``TrajectoryLog`` as ``IterateRecord``s, each built when it is read.

    Nothing is cached: holding the view costs nothing beyond the log's columns.
    """

    __slots__ = ("_log",)

    def __init__(self, log: "TrajectoryLog"):
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        k = range(len(self))[index]  # counts negative indices from the end; IndexError past it
        if isinstance(k, range):
            return [self[i] for i in k]
        log = self._log
        return IterateRecord(k, log.z[k].copy(), log.z_half[k].copy(), float(log.lambda_k[k]),
                             float(log.displacement_norm[k]), float(log.op_norm_half[k]),
                             float(log.subproblem_residual[k]), int(log.subproblem_iters[k]))


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """The run in columns: row k holds iterate k.

    ``z`` and ``z_half`` have shape (n, d); the other columns have shape (n,).
    ``failure_residual`` is the residual a ``ConvergenceError`` carried when
    the termination is ``subproblem_failure``, else None.
    """

    z: np.ndarray
    z_half: np.ndarray
    lambda_k: np.ndarray
    displacement_norm: np.ndarray
    op_norm_half: np.ndarray
    subproblem_residual: np.ndarray
    subproblem_iters: np.ndarray
    z_out: np.ndarray
    out_index: int
    termination: str
    failure_residual: Optional[float] = None

    def __len__(self) -> int:
        return len(self.op_norm_half)

    @property
    def records(self) -> RecordView:
        return RecordView(self)

    def running_min_sq(self) -> np.ndarray:
        """Running minimum of ||F(z_half)||^2 over the records."""
        with np.errstate(over="ignore"):  # a diverged run's norms square to inf
            return np.minimum.accumulate(self.op_norm_half ** 2)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as NumericError
def run(problem: ProblemSpec, config: SolverConfig) -> TrajectoryLog:
    """Run the iteration for k = 0..K and return the full trajectory.

    A ``ConvergenceError`` or ``NumericError`` after the first record ends the
    run with termination ``subproblem_failure`` or ``numeric_failure`` and
    keeps the records reached; before it, the error propagates.  Once
    z_{k+1} has the bytes of z_k, every later record repeats record k (the
    iteration is a pure function of z), so the remaining rows are filled
    from row k without being computed.  The output is the half-step with the
    smallest operator norm, the first one on ties.
    """
    operator = Operator(problem, config.operator_mode)
    p = config.order_p
    L = config.lipschitz
    full_step_coef = math.factorial(p) / (2.0 * L)

    z = config.z0.copy()
    if z.shape != (problem.d,):
        raise ValueError(f"z0 has shape {z.shape}, problem needs ({problem.d},)")
    budget = config.max_iterations + 1
    zs = np.empty((budget, problem.d))
    z_halves = np.empty((budget, problem.d))
    lams, radii, op_norms, residuals = (np.empty(budget) for _ in range(4))
    iters = np.empty(budget, dtype=np.int64)
    columns = (zs, z_halves, lams, radii, op_norms, residuals, iters)
    n = 0
    termination = TERM_BUDGET
    failure_residual = None

    for k in range(budget):
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
            if k == 0:
                raise
            if isinstance(exc, ConvergenceError):
                termination, failure_residual = TERM_SUBPROBLEM, exc.residual
            else:
                termination = TERM_NUMERIC
            break
        r = half.displacement_norm
        op_norm = vector_norm(F_half)
        # step size 0.5 * r^(1-p); r = 0 means z is an exact stationary point,
        # where lambda is 0.5 for p=1 and conventionally 0 otherwise (its
        # limit contribution vanishes)
        lam = 0.5 * r ** (1 - p) if r > 0.0 or p == 1 else 0.0
        zs[k] = z
        z_halves[k] = half.z_half
        lams[k], radii[k], op_norms[k] = lam, r, op_norm
        residuals[k], iters[k] = half.residual_norm, half.iterations_used
        n = k + 1
        if r == 0.0:
            termination = TERM_STATIONARY
            break
        if config.stop_norm > 0 and op_norm <= config.stop_norm:
            termination = TERM_EPSILON
            break
        z_next = z - (full_step_coef * lam) * F_half
        if z_next.tobytes() == z.tobytes():  # bytes, since -0.0 == 0.0
            for column in columns:
                column[n:] = column[k]
            n = budget
            break
        z = z_next

    out_index = int(np.argmin(op_norms[:n]))
    z_out = z_halves[out_index].copy()
    if n < budget:
        columns = tuple(column[:n].copy() for column in columns)
    return TrajectoryLog(*columns, z_out, out_index, termination, failure_residual)


def detect_cycling(log: TrajectoryLog, window: int, threshold: float) -> bool:
    """Heuristic orbit detector over the trailing window of iterates.

    Flags a cycle when the operator norm stays above the threshold while the
    iterates revisit earlier neighborhoods: the smallest distance between
    non-adjacent window members falls under 10% of the window's spread.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    pts = log.z[-window:]
    n = len(pts)
    if n < 2:
        return False
    if log.op_norm_half[-window:].min() <= threshold:
        return False
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    idx = np.arange(n)
    nonadjacent = np.abs(idx[:, None] - idx[None, :]) >= 2
    spread = float(dists.max())
    if spread == 0.0:
        return False
    return float(dists[nonadjacent].min()) < 0.1 * spread
