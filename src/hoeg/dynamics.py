"""Continuous-time limit of the extragradient flow.

The trajectory follows the differential-algebraic system

    s'(t) = -G_p(z(t)),   v(t) = z0 + s(t),   z(t) = v(t) - G_p(z(t)),

with the normalized field G_p(z) = F(z) / ||F(z)||^(1-1/p).  Eliminating s
gives the explicit ODE v' = R(v) - v, where R is the resolvent of G_p; that
form is integrated with fixed-step classical Runge-Kutta so logs are exactly
reproducible.  R is computed by Newton's method on the Jacobian of G_p with
Armijo step halving; a resolvent that fails ends the log at ``failed_at``.

Every resolvent solve is an Euler-predictor / Newton-corrector step along
the solution path z(v) = R(v) (Allgower & Georg, *Numerical Continuation
Methods*, ch. 2).  Its tangent is dz/dv = (I + dG_p(z))^-1, the inverse P of
the Newton matrix, so a solve at v starts from z' - P (v' - v), where
(v', z') is the previous solve, (z0, z0) before the first, and P comes from
the latest Newton step of any solve, I before the first.  Newton then
corrects from there under the same stop rule, so every logged point still
meets it.  On a linear field at p = 1 the predictor is exact: the first
solve takes the only Jacobian, and z carries rounding error only, not the
stop rule's 1e-10.  So nearly every solve at p = 1 returns at its start,
and the fixed cost of a call sets the flow's speed: the RK4 stages, F at the
start and, at p = 1, h are Python floats (numpy's bits, elementwise), and
that start is accepted on a float norm 1e-9 inside the stop rule, or else
checked exactly with numpy.  numpy stays where BLAS sets the bits: P (v' - v), the
logged ||F||, G_p at p > 1 (where most starts take a Newton step) and the
Newton loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NumericError, check_array, check_order, check_real
from .halfstep import vector_norm
from .problems import Operator, ProblemSpec

RESOLVENT_TOL = 1e-10  # a resolvent solve stops at ||h|| <= RESOLVENT_TOL * max(1, ||v||)
NORM_FLOOR = 1e-12     # G_p divides by max(||F||, NORM_FLOOR)^(1-1/p)


@dataclass(frozen=True)
class ContinuousConfig:
    """A flow of order p from z0 over [0, t_end] in RK4 steps of dt.

    dt must divide t_end (to a relative 1e-9), so the last step ends at t_end;
    no dt above t_end does.
    Every resolvent solve uses the fixed ``RESOLVENT_TOL`` and ``NORM_FLOOR``.
    """

    order_p: int
    t_end: float
    dt: float
    z0: np.ndarray

    def __post_init__(self):
        check_order(self.order_p)
        check_real(self.t_end, "t_end", positive=True)
        check_real(self.dt, "dt", positive=True)
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"dt = {self.dt!r} does not divide t_end = {self.t_end!r}")
        object.__setattr__(self, "z0", check_array(self.z0, "z0"))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class ContinuousLog:
    """One row per logged step of the flow of ``config`` on ``problem``, from t = 0.

    ``running_integral`` is the trapezoid sum of ||F(z)||^(2/p) over the
    rows, added in sequence; ``failed_at`` is the time of the step whose
    resolvent failed, or None.
    """

    problem: ProblemSpec
    config: ContinuousConfig
    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    op_norm: np.ndarray
    energy: np.ndarray            # ||s(t)||^2 = ||v(t) - z0||^2
    running_integral: np.ndarray
    failed_at: Optional[float] = None


@np.errstate(over="ignore")  # vector_norm falls back to hypot where F @ F overflows
def normalized_field(F_z: np.ndarray, p: int) -> np.ndarray:
    """F / max(||F||, NORM_FLOOR)^(1-1/p); at order 1 the power is 1.0 and the division exact."""
    return F_z / max(vector_norm(F_z), NORM_FLOOR) ** (1.0 - 1.0 / p)


@dataclass
class _Path:
    """What ``simulate`` carries between resolvent calls for the tangent predictor.

    ``v`` and ``z`` are the input and output of the last resolvent call, and
    ``P`` is the inverse Newton matrix of the latest Newton step of any call;
    ``simulate`` seeds them with z0, z0 and I.
    """

    v: np.ndarray
    z: np.ndarray
    P: np.ndarray


def _within_tolerance(h: list, v: list) -> bool:
    """||h|| <= RESOLVENT_TOL * max(1, ||v||) less a 1e-9 margin, on floats: ``math.hypot`` is within
    an ulp of a norm at any scale and ``vector_norm`` within a few, so the stop rule then holds."""
    return math.hypot(*h) <= RESOLVENT_TOL * max(1.0, math.hypot(*v)) * (1.0 - 1e-9)


def resolvent_solve(v: np.ndarray, field: Operator, p: int, *, path: _Path) -> np.ndarray:
    """Solve z + G_p(z) = v by Newton's method from v, or from the caller's path.

    Internal to ``simulate``, which checked p, passes v as floats and holds
    numpy's over/invalid state.  F is ``field.at`` (at the start ``_floats``, the
    same F: ``field`` has no mode) and G_p its normalized form.  The Newton matrix is
    M = I + (J - a F (F^T J) / n^2) / n^a with J = ``field.jacobian``,
    a = 1 - 1/p and n = max(||F||, NORM_FLOOR); below the floor the F F^T
    term drops.  Each step forms P = M^-1 and takes
    dz = -P h, halved until h = z + G_p(z) - v meets
    ||h(z + t dz)|| <= (1 - 1e-4 t) ||h(z)||.  The call returns as soon as
    ||h|| <= RESOLVENT_TOL * max(1, ||v||), which may be at the start.  In
    ``simulate`` at p = 1 it nearly always is, so the fixed cost of a call sets
    its speed: F and h there are floats, accepted by ``_within_tolerance`` with
    a 1e-9 margin; a start it refuses is checked exactly, on arrays, as every
    start at p > 1 is.

    ``path`` is the caller's record of the solution path z(v) = R(v): a
    previous solve (v', z') and a P.  The solve starts from the tangent
    (Euler) predictor z' - P (v' - v), since dz/dv = M^-1, or from z' if F is
    not finite there.  The call stores its v, its z and the P of its last
    Newton step back into ``path``.

    A singular Newton matrix, a step rejected down to t = 2^-29, or 500 steps
    raise ``ConvergenceError`` with the residual reached; a non-finite F
    raises ``NumericError``.
    """
    # written so that a seeded start z' = v' = v keeps the sign of a zero coordinate
    z = path.z - path.P.dot(path.v - v)
    try:
        F = field._floats(z)
    except NumericError:  # F is not finite at the predicted start: start from z'
        z, F = path.z, field._floats(path.z)
    if p == 1:  # h = z + G_1(z) - v = z + F - v on floats, numpy's bits
        v_floats = v.tolist()
        h = [zi + fi - vi for zi, fi, vi in zip(z.tolist(), F, v_floats)]
        if _within_tolerance(h, v_floats):
            path.v, path.z = v, z
            return z
        F, h = np.array(F), np.array(h)
    else:  # G_p on an array, where BLAS sets the bits of ||F||
        F = np.array(F)
        h = z + normalized_field(F, p) - v
    scale = RESOLVENT_TOL * max(1.0, vector_norm(v))
    a = 1.0 - 1.0 / p
    r = vector_norm(h)
    for _ in range(500):
        if r <= scale:
            path.v, path.z = v, z
            return z
        jac = field.jacobian(z)
        if p > 1:
            norm = vector_norm(F)
            if norm > NORM_FLOOR:
                u = F / norm  # F F^T / n^2 is u u^T, whose parts stay finite where F @ F overflows
                jac = jac - a * np.outer(u, u @ jac)
            jac = jac / max(norm, NORM_FLOOR) ** a
        try:
            P = np.linalg.inv(np.eye(z.size) + jac)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular resolvent Newton matrix (residual {r:.3e})",
                                   residual=r) from None
        path.P = P
        dz = -(P @ h)
        t = 1.0
        for _ in range(30):
            z_try = z + t * dz
            F_try = field.at(z_try)
            h_try = z_try + F_try - v if p == 1 else z_try + normalized_field(F_try, p) - v
            r_try = vector_norm(h_try)
            if r_try <= (1.0 - 1e-4 * t) * r:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"resolvent step rejected (residual {r:.3e})", residual=r)
        z, F, h, r = z_try, F_try, h_try, r_try
    raise ConvergenceError(f"resolvent stalled after 500 steps (residual {r:.3e})", residual=r)


@np.errstate(over="ignore", invalid="ignore")  # an ||F|| past the float range logs inf, as run does
def simulate(problem: ProblemSpec, config: ContinuousConfig) -> ContinuousLog:
    """Integrate the flow and log every step; v(0) = z0, so s(0) = 0.

    Every resolvent solve starts from the previous one through one shared
    ``_Path``, seeded with v' = z' = z0 and P = I, so the first starts from
    z0.  The z, v and op_norm columns are allocated once for the
    ``n_steps + 1`` rows; a failed flow returns the rows it logged.
    """
    p = config.order_p
    dt = config.dt
    half, sixth = 0.5 * dt, dt / 6.0
    field = Operator(problem)
    v = check_array(config.z0, "z0", (problem.d,)).copy()
    path = _Path(v, v, np.eye(v.size))
    n = config.n_steps + 1
    zs, vs, norms = np.empty((n, v.size)), np.empty((n, v.size)), np.empty(n)
    failed_at = None
    z = resolvent_solve(v, field, p, path=path)  # a failure here has nothing integrated yet: it propagates
    zs[0], vs[0], norms[0] = z, v, vector_norm(field.at(z))
    v = v.tolist()  # the RK4 stages are floats, added elementwise as numpy adds arrays

    def slope(w):  # k = R(w) - w at a stage point w
        return [zi - wi for wi, zi in zip(w, resolvent_solve(np.array(w), field, p, path=path).tolist())]

    for i in range(1, n):
        try:
            k1 = [zi - vi for vi, zi in zip(v, z.tolist())]
            k2 = slope([vi + half * k for vi, k in zip(v, k1)])
            k3 = slope([vi + half * k for vi, k in zip(v, k2)])
            k4 = slope([vi + dt * k for vi, k in zip(v, k3)])
            v = [vi + sixth * (a + 2 * b + 2 * c + d) for vi, a, b, c, d in zip(v, k1, k2, k3, k4)]
            z = resolvent_solve(np.array(v), field, p, path=path)
        except (ConvergenceError, NumericError):
            failed_at = i * dt
            zs, vs, norms = zs[:i], vs[:i], norms[:i]
            break
        zs[i], vs[i], norms[i] = z, v, vector_norm(field.at(z))

    m = len(norms)
    s = vs - config.z0
    a = np.float_power(norms, 2.0 / p)  # the C pow, as a float ** is
    integral = np.zeros(m)
    np.cumsum(0.5 * dt * (a[:-1] + a[1:]), out=integral[1:])  # adds in sequence
    return ContinuousLog(
        problem=problem,
        config=config,
        t=np.arange(m) * dt,
        z=zs,
        v=vs,
        op_norm=norms,
        energy=np.einsum("ij,ij->i", s, s),
        running_integral=integral,
        failed_at=failed_at,
    )
