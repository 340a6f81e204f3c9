"""Higher-order extragradient solvers for structured min-max problems.

The package bundles the order-1 and order-2 extragradient iteration, its
continuous-time flow, the competitive preconditioned operator, and a
sampling-based certification suite for the assumptions the convergence
guarantees rest on.
"""

from .certify import (
    CertReport,
    certify_problem,
    check_energy_bound,
    check_half_step_norm_bound,
    check_potential_inequality,
    check_rho_threshold,
    fit_rate,
)
from .dynamics import ContinuousConfig, ContinuousLog, simulate
from .errors import (
    CapabilityError,
    ConvergenceError,
    DegenerateSampleError,
    NumericError,
)
from .problems import Operator, OperatorMode, ProblemSpec, builtin, problem_names
from .solver import SolverConfig, TrajectoryLog, detect_cycling, run

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CertReport",
    "ContinuousConfig",
    "ContinuousLog",
    "ConvergenceError",
    "DegenerateSampleError",
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
    "fit_rate",
    "problem_names",
    "run",
    "simulate",
]
