"""Continuous-time limit of the extragradient flow.

The trajectory follows the differential-algebraic system

    s'(t) = -G_p(z(t)),   v(t) = z0 + s(t),   z(t) = v(t) - G_p(z(t)),

with the normalized field G_p(z) = F(z) / ||F(z)||^(1-1/p).  Eliminating s
gives the explicit ODE v' = R(v) - v, where R is the resolvent of G_p; that
form is integrated with fixed-step classical Runge-Kutta so logs are exactly
reproducible.  R is computed by Newton's method on the Jacobian of G_p with
Armijo step halving; a resolvent that fails ends the log at ``failed_at``.

Every resolvent solve after the first is an Euler-predictor /
Newton-corrector step along the solution path z(v) = R(v) (Allgower & Georg,
*Numerical Continuation Methods*, ch. 2).  Its tangent is
dz/dv = (I + dG_p(z))^-1, the inverse P of the Newton matrix, so a solve at v
starts from z' + P (v - v'), where (v', z') is the previous solve and P comes
from the latest Newton step of any solve.  Newton then corrects from there
under the same stop rule, so every logged point still meets it.  On a linear
field at p = 1 the predictor is exact: the first solve takes the only
Jacobian, and z carries rounding error only, not the stop rule's 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NumericError
from .problems import ProblemSpec, eval_jacobian, eval_operator


@dataclass(frozen=True)
class ContinuousConfig:
    order_p: int
    t_end: float
    dt: float
    z0: np.ndarray
    resolvent_tol: float = 1e-10
    norm_floor: float = 1e-12

    def __post_init__(self):
        if self.order_p not in (1, 2):
            raise ValueError("order_p must be 1 or 2")
        if not (self.t_end > 0 and 0 < self.dt <= self.t_end):
            raise ValueError("need 0 < dt <= t_end")
        if not self.resolvent_tol > 0:
            raise ValueError("resolvent_tol must be positive")
        if self.norm_floor < 0:
            raise ValueError("norm_floor must be >= 0")
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=float))


@dataclass(frozen=True)
class ContinuousLog:
    order_p: int
    dt: float
    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    s: np.ndarray
    op_norm: np.ndarray
    energy: np.ndarray            # ||s(t)||^2
    running_integral: np.ndarray  # trapezoid integral of ||F(z)||^(2/p)
    failed_at: Optional[float] = None


@dataclass(frozen=True)
class EnergyReport:
    integral_bound: float
    integral_ok: bool
    integral_first_violation: Optional[float]
    integral_margin: float
    rate_ok: bool
    rate_first_violation: Optional[float]
    rate_margin: float
    slack: float


def normalized_field(F_z, p: int, norm_floor: float = 1e-12) -> np.ndarray:
    """F / max(||F||, floor)^(1-1/p); order 1 returns the field unchanged."""
    if p < 1:
        raise ValueError("order must be >= 1")
    F_z = np.asarray(F_z, dtype=float)
    if p == 1:
        return F_z
    norm = float(np.linalg.norm(F_z))
    return F_z / max(norm, norm_floor) ** (1.0 - 1.0 / p)


@dataclass
class _Path:
    """What ``simulate`` carries between resolvent calls for the tangent predictor.

    ``v`` and ``z`` are the input and output of the last resolvent call, and
    ``P`` is the inverse Newton matrix of the latest Newton step of any call.
    """

    v: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None


@np.errstate(over="ignore", invalid="ignore")  # overflow at a far trial point fails the step test
def resolvent_solve(v, problem: ProblemSpec, p: int, tol: float = 1e-10,
                    norm_floor: float = 1e-12, z_init=None, *, path: Optional[_Path] = None) -> np.ndarray:
    """Solve z + G_p(z) = v by Newton's method from v, or from a warm start.

    The Newton matrix is M = I + (J - a F (F^T J) / n^2) / n^a with J from
    ``eval_jacobian``, a = 1 - 1/p and n = max(||F||, norm_floor); below the
    floor the F F^T term drops.  Each step forms P = M^-1 and takes
    dz = -P h, halved until h = z + G_p(z) - v meets
    ||h(z + t dz)|| <= (1 - 1e-4 t) ||h(z)||.  The call returns as soon as
    ||h|| <= tol * max(1, ||v||), which may be at the start.

    ``path`` is the caller's record of the solution path z(v) = R(v).  Once
    it holds a previous solve (v', z') and a P, the solve starts from the
    tangent (Euler) predictor z' + P (v - v'), since dz/dv = M^-1; if F is
    not finite there it starts from ``z_init`` instead.  The call stores its
    v, its z and the P of its last Newton step back into ``path``.

    A singular Newton matrix, a step rejected down to t = 2^-29, or 500 steps
    raise ``ConvergenceError`` with the residual reached; a non-finite F
    raises ``NumericError``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    v = np.asarray(v, dtype=float)
    scale = tol * max(1.0, math.sqrt(v @ v))
    a = 1.0 - 1.0 / p

    def residual(z, F):
        # h = z + G_p(z) - v and ||h||; G_1 is F itself
        h = z + F - v if p == 1 else z + normalized_field(F, p, norm_floor) - v
        return h, math.sqrt(h @ h)

    F = None
    if path is not None and path.P is not None and path.z is not None:
        z = path.z + path.P @ (v - path.v)
        try:
            F = eval_operator(problem, z)
        except NumericError:
            pass  # F is not finite at the predicted start: start from z_init
    if F is None:
        z = v.copy() if z_init is None else np.asarray(z_init, dtype=float).copy()
        F = eval_operator(problem, z)
    h, r = residual(z, F)
    for _ in range(500):
        if r <= scale:
            if path is not None:
                path.v, path.z = v, z
            return z
        jac = eval_jacobian(problem, z)
        if p > 1:
            norm = math.sqrt(F @ F)
            if norm > norm_floor:
                jac = jac - a * np.outer(F, F @ jac) / norm**2
            jac = jac / max(norm, norm_floor) ** a
        try:
            P = np.linalg.inv(np.eye(z.size) + jac)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular resolvent Newton matrix (residual {r:.3e})",
                                   residual=r) from None
        if path is not None:
            path.P = P
        dz = -(P @ h)
        t = 1.0
        for _ in range(30):
            z_try = z + t * dz
            F_try = eval_operator(problem, z_try)
            h_try, r_try = residual(z_try, F_try)
            if r_try <= (1.0 - 1e-4 * t) * r:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"resolvent step rejected (residual {r:.3e})", residual=r)
        z, F, h, r = z_try, F_try, h_try, r_try
    raise ConvergenceError(f"resolvent stalled after 500 steps (residual {r:.3e})", residual=r)


def simulate(problem: ProblemSpec, config: ContinuousConfig) -> ContinuousLog:
    """Integrate the flow and log every step; v(0) = z0, so s(0) = 0."""
    p = config.order_p
    dt = config.dt
    tol = config.resolvent_tol
    floor = config.norm_floor
    n_steps = int(round(config.t_end / dt))
    path = _Path()

    def solve(vv, warm):
        return resolvent_solve(vv, problem, p, tol, floor, z_init=warm, path=path)

    def op_norm(z):
        F = eval_operator(problem, z)
        return math.sqrt(F @ F)

    v = config.z0.copy()
    ts, zs, vs, norms, integ = [], [], [], [], []
    failed_at = None
    z = solve(v, None)  # a failure here has nothing integrated yet, so it propagates

    ts.append(0.0)
    zs.append(z.copy())
    vs.append(v.copy())
    norms.append(op_norm(z))
    integ.append(0.0)

    for i in range(1, n_steps + 1):
        try:
            k1 = z - v
            v2 = v + 0.5 * dt * k1
            z2 = solve(v2, z)
            k2 = z2 - v2
            v3 = v + 0.5 * dt * k2
            z3 = solve(v3, z2)
            k3 = z3 - v3
            v4 = v + dt * k3
            z4 = solve(v4, z3)
            k4 = z4 - v4
            v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            z = solve(v, z4)
        except (ConvergenceError, NumericError):
            failed_at = i * dt
            break
        ts.append(i * dt)
        zs.append(z.copy())
        vs.append(v.copy())
        f = op_norm(z)
        integ.append(integ[-1] + 0.5 * dt * (norms[-1] ** (2.0 / p) + f ** (2.0 / p)))
        norms.append(f)

    t = np.array(ts)
    v_arr = np.stack(vs)
    s_arr = v_arr - config.z0
    return ContinuousLog(
        order_p=p,
        dt=dt,
        t=t,
        z=np.stack(zs),
        v=v_arr,
        s=s_arr,
        op_norm=np.array(norms),
        energy=np.einsum("ij,ij->i", s_arr, s_arr),
        running_integral=np.array(integ),
        failed_at=failed_at,
    )


def check_energy_bound(log: ContinuousLog, z_star, rho: float, D: float,
                       slack: Optional[float] = None) -> EnergyReport:
    """Check the flow's integral bound and the implied min-norm decay rate.

    The integral of ||F||^(2/p) is bounded by D^2 / (2 - rho) and therefore
    min_{s<=t} ||F(z(s))||^2 <= D^(2p) / ((2 - rho)^p t^p).  The slack
    defaults to the trapezoid discretization scale dt^2 * (1 + total).
    """
    if not rho < 2:
        raise ValueError("the bound needs rho < 2")
    z_star = np.asarray(z_star, dtype=float)
    dist0 = float(np.linalg.norm(log.v[0] - z_star))
    if D < dist0:
        raise ValueError(f"D={D} is below the initial distance {dist0}")
    p = log.order_p
    total = float(log.running_integral[-1])
    if slack is None:
        slack = max(1e-9, log.dt**2 * (1.0 + total))

    bound = D * D / (2.0 - rho)
    margins = bound + slack - log.running_integral
    int_ok = bool(np.all(margins >= 0))
    int_first = None if int_ok else float(log.t[int(np.argmax(margins < 0))])

    min_sq = np.minimum.accumulate(log.op_norm) ** 2
    t_pos = log.t[1:]
    rate_bound = D ** (2 * p) / ((2.0 - rho) ** p * t_pos**p)
    rate_margins = rate_bound + slack - min_sq[1:]
    rate_ok = bool(np.all(rate_margins >= 0))
    rate_first = None if rate_ok else float(t_pos[int(np.argmax(rate_margins < 0))])

    return EnergyReport(
        integral_bound=bound,
        integral_ok=int_ok,
        integral_first_violation=int_first,
        integral_margin=float(margins.min()),
        rate_ok=rate_ok,
        rate_first_violation=rate_first,
        rate_margin=float(rate_margins.min()),
        slack=float(slack),
    )
