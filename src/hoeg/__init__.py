"""Higher-order extragradient solvers for structured min-max problems.

The package bundles the order-1 and order-2 extragradient iteration, its
continuous-time flow, the competitive preconditioned operator, and a
sampling-based certification suite for the assumptions the convergence
guarantees rest on.
"""

from .certify import (
    CertReport,
    certify_problem,
    check_half_step_norm_bound,
    check_potential_inequality,
    check_rho_threshold,
    estimate_q_rho,
    estimate_weak_mvi_rho,
    fit_rate,
)
from .competitive import Operator, OperatorMode
from .dynamics import (
    ContinuousConfig,
    ContinuousLog,
    check_energy_bound,
    normalized_field,
    resolvent_solve,
    simulate,
)
from .errors import (
    CapabilityError,
    ConvergenceError,
    DegenerateSampleError,
    NumericError,
)
from .halfstep import HalfStepResult, solve_half_step_p1, solve_half_step_p2
from .problems import ProblemSpec, builtin, eval_jacobian, eval_operator, problem_names
from .solver import (
    IterateRecord,
    SolverConfig,
    TrajectoryLog,
    detect_cycling,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CertReport",
    "ContinuousConfig",
    "ContinuousLog",
    "ConvergenceError",
    "DegenerateSampleError",
    "HalfStepResult",
    "IterateRecord",
    "NumericError",
    "Operator",
    "OperatorMode",
    "ProblemSpec",
    "SolverConfig",
    "TrajectoryLog",
    "builtin",
    "certify_problem",
    "check_energy_bound",
    "check_half_step_norm_bound",
    "check_potential_inequality",
    "check_rho_threshold",
    "detect_cycling",
    "estimate_q_rho",
    "estimate_weak_mvi_rho",
    "eval_jacobian",
    "eval_operator",
    "fit_rate",
    "normalized_field",
    "problem_names",
    "resolvent_solve",
    "run",
    "simulate",
    "solve_half_step_p1",
    "solve_half_step_p2",
]
