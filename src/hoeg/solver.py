"""The higher-order extragradient iteration.

Each round solves the order-p regularized model for the half-step, sets the
step size lambda_k = 0.5 * r^(1-p) from the displacement radius r, and takes
the closed-form full step z_{k+1} = z_k - (p! lambda_k / (2 L_p)) F(z_half).
The returned point is the recorded half-step iterate with the smallest
operator norm.  A run stops early at an exactly stationary point, on a
failure, or once its half-steps have been still to roundoff for FLOOR_ROWS
rows.

The iterate is Python floats from z0 to the last row, written to the columns
_CHUNK rows at a time: at d = 2 a numpy call costs more than its arithmetic, and
a BLAS product's bits depend on the kernel, so on F a run makes no BLAS call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NumericError, check_array, check_count, check_order, check_real
from .halfstep import _FLOAT_MIN, solve_half_step_p1, solve_half_step_p2
from .problems import Operator, OperatorMode, ProblemSpec

TERM_BUDGET = "budget_exhausted"
TERM_STATIONARY = "exact_stationary"
TERM_SUBPROBLEM = "subproblem_failure"
TERM_NUMERIC = "numeric_failure"
TERM_FLOOR = "roundoff_floor"

CYCLE_WINDOW = 500      # detect_cycling looks at this many trailing iterates
CYCLE_THRESHOLD = 1e-3  # a window whose operator norm dips to this is not a cycle
FLOOR_ROWS = 50         # run stops after this many consecutive rows of a still z_half
FLOOR_TOL = 4.0 * float(np.finfo(float).eps)  # a coordinate is still if it moves by <= this share of itself
_CHUNK = 256            # rows held as Python floats before they are written to the columns


@dataclass(frozen=True)
class SolverConfig:
    order_p: int
    lipschitz: float
    max_iterations: int
    z0: np.ndarray
    operator_mode: OperatorMode = OperatorMode()

    def __post_init__(self):
        check_order(self.order_p)
        check_real(self.lipschitz, "lipschitz", positive=True)
        object.__setattr__(self, "max_iterations", check_count(self.max_iterations, "max_iterations"))
        object.__setattr__(self, "z0", check_array(self.z0, "z0"))


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
    """The run of ``config`` on ``problem`` in columns: row k holds iterate k.

    ``z`` and ``z_half`` have shape (n, d); the other columns have shape (n,).
    ``failure_residual`` is the residual a ``ConvergenceError`` carried when
    the termination is ``subproblem_failure``, else None.
    """

    problem: ProblemSpec
    config: SolverConfig
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
    """Run the iteration for k = 0..K and return the trajectory.

    A ``ConvergenceError`` or ``NumericError`` after the first record ends the
    run with termination ``subproblem_failure`` or ``numeric_failure`` and
    keeps the records reached; before it, the error propagates.  Once
    z_{k+1} has the bytes of z_k, every later record repeats record k (the
    iteration is a pure function of z), so the remaining rows are filled
    from row k without being computed.  The output is the half-step with the
    smallest operator norm, the first one on ties.

    A run can reach z* to within roundoff without any iterate repeating: at
    p = 2 the full step (1/L_2)(0.5/r) F(z_half) stays of order 1e-10 while
    ||F|| and r both sit at their floors.  So a row counts as still when
    every coordinate of z_half moved by at most ``FLOOR_TOL`` times that
    coordinate's previous value, and after ``FLOOR_ROWS`` consecutive still
    rows the run stops with termination ``roundoff_floor`` and keeps the
    rows reached.  The test is per coordinate, so a coordinate that still
    shrinks geometrically towards 0 keeps the run going.  The fixed-point
    fill is checked first.
    """
    operator = Operator(problem, config.operator_mode)
    p = config.order_p
    L = float(config.lipschitz)
    full_step_coef = math.factorial(p) / (2.0 * L)

    z = check_array(config.z0, "z0", (problem.d,)).tolist()
    budget = config.max_iterations + 1
    columns = (np.empty((budget, problem.d)), np.empty((budget, problem.d)),
               *(np.empty(budget) for _ in range(4)), np.empty(budget, dtype=np.int64))
    rows, n = [], 0   # (z, z_half, lambda, r, ||F(z_half)||, residual, iterations) of the iterates from row n
    still_rows, last_z_half = 0, None
    termination = TERM_BUDGET
    failure_residual = None

    for k in range(budget):
        if len(rows) == _CHUNK:
            n = _store(rows, columns, n)
        try:
            if not all(map(math.isfinite, z)):
                raise NumericError(f"non-finite iterate at k={k}")
            F_k = operator._field(np.array(z))
            if p == 1:
                half = solve_half_step_p1(F_k, L, z)
            else:
                half = solve_half_step_p2(F_k, operator.jacobian(np.array(z)).tolist(), L, z)
            r = half.displacement_norm
            if p > 1 and 0.0 < r < _FLOAT_MIN:  # below the normal range, 1/r can pass the float range
                raise NumericError(f"subnormal half-step radius {r!r} at k={k}: its step size overflows")
            F_half = operator._field(np.array(half.z_half))
        except (ConvergenceError, NumericError) as exc:
            if k == 0:
                raise
            if isinstance(exc, ConvergenceError):
                termination, failure_residual = TERM_SUBPROBLEM, exc.residual
            else:
                termination = TERM_NUMERIC
            break
        # step size 0.5 * r^(1-p); r = 0 means z is an exact stationary point,
        # where lambda is 0.5 for p=1 and conventionally 0 otherwise (its
        # limit contribution vanishes)
        lam = 0.5 * r ** (1 - p) if r > 0.0 or p == 1 else 0.0
        rows.append((z, half.z_half, lam, r, math.hypot(*F_half), half.residual_norm, half.iterations_used))
        if r == 0.0:
            termination = TERM_STATIONARY
            break
        step = full_step_coef * lam
        z_next = [a - step * f for a, f in zip(z, F_half)]
        if z_next == z and np.array(z_next).tobytes() == np.array(z).tobytes():  # bytes, since -0.0 == 0.0
            n = _store(rows, columns, n)
            for column in columns:
                column[n:] = column[n - 1]
            n = budget
            break
        still = k > 0 and all(abs(a - b) <= FLOOR_TOL * abs(b) for a, b in zip(half.z_half, last_z_half))
        still_rows, last_z_half = (still_rows + 1 if still else 0), half.z_half
        if still_rows == FLOOR_ROWS:
            termination = TERM_FLOOR
            break
        z = z_next

    n = _store(rows, columns, n)
    out_index = int(np.argmin(columns[4][:n]))
    z_out = columns[1][out_index].copy()
    if n < budget:
        columns = tuple(column[:n].copy() for column in columns)
    return TrajectoryLog(problem, config, *columns, z_out, out_index, termination, failure_residual)


def _store(rows: list, columns: tuple, n: int) -> int:
    """Write ``rows`` into ``columns`` from row n and empty it; returns the row after them."""
    for column, values in zip(columns, zip(*rows)):
        column[n:n + len(rows)] = values
    n += len(rows)
    rows.clear()
    return n


def detect_cycling(log: TrajectoryLog) -> bool:
    """Heuristic orbit detector over the last CYCLE_WINDOW iterates.

    Flags a cycle when the operator norm stays above CYCLE_THRESHOLD while the
    iterates revisit earlier neighborhoods: the smallest distance between
    non-adjacent window members falls under 10% of the window's spread.  A
    log of fewer than 3 rows has no non-adjacent pair and is not a cycle.
    """
    pts = log.z[-CYCLE_WINDOW:]
    n = len(pts)
    if n < 3:
        return False
    if log.op_norm_half[-CYCLE_WINDOW:].min() <= CYCLE_THRESHOLD:
        return False
    dists = np.sqrt(np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2))  # numpy's norm, bit for bit
    idx = np.arange(n)
    nonadjacent = np.abs(idx[:, None] - idx[None, :]) >= 2
    spread = float(dists.max())
    if spread == 0.0:
        return False
    return float(dists[nonadjacent].min()) < 0.1 * spread
