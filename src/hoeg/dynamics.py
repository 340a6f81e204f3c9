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
and the fixed cost of a call sets the flow's speed.  At d = 2 a BLAS or
LAPACK call costs more than its arithmetic, and its last bits depend on the
kernel, so the flow makes none: v, z, P and the RK4 stages are float lists,
norms are ``math.hypot`` and products index-order sums.  Every built-in is
2-D, so no size switch to LAPACK is made; P is one elimination with the d
columns of I, and at p = 2 the flow takes 1.0 of the numpy flow's time at
d = 3 and 2.6 at d = 8 (4.7 with one elimination per column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NumericError, check_array, check_order, check_real
from .halfstep import _mat_vec, _shifted_inverse
from .problems import Operator, ProblemSpec

RESOLVENT_TOL = 1e-10  # a resolvent solve stops at ||h|| <= RESOLVENT_TOL * max(1, ||v||)
NORM_FLOOR = 1e-12     # G_p divides by max(||F||, NORM_FLOOR)^(1-1/p)


@dataclass(frozen=True)
class ContinuousConfig:
    """A flow of order p from z0 over [0, t_end] in RK4 steps of dt.

    dt must divide t_end (to a relative 1e-9), so the last step ends at t_end;
    no dt above t_end does, and no t_end / dt past the float range does.
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
        if float(self.t_end) / float(self.dt) == math.inf:  # Python floats: numpy scalars would warn
            raise ValueError(f"t_end / dt = {self.t_end!r} / {self.dt!r} is past the float range: no step count")
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


def normalized_field(F: list, p: int) -> list:
    """F / max(||F||, NORM_FLOOR)^(1-1/p) on floats; at order 1 the power is 1.0 and the division exact."""
    scale = max(math.hypot(*F), NORM_FLOOR) ** (1.0 - 1.0 / p)
    return [f / scale for f in F]


def _predict(path: _Path, v: list) -> list:
    """z' - P (v' - v) with P (v' - v) as ``_mat_vec``; at d = 2 unrolled, the same operations, 22% faster per flow."""
    # z' - P w, not z' + P (v - v'), so that a seeded start z' = v' = v keeps the sign of a zero coordinate
    if len(v) == 2:
        (y0, y1), (u0, u1), ((p00, p01), (p10, p11)) = path.z, path.v, path.P
        w0, w1 = u0 - v[0], u1 - v[1]
        return [y0 - (p00 * w0 + p01 * w1), y1 - (p10 * w0 + p11 * w1)]
    return [y - s for y, s in zip(path.z, _mat_vec(path.P, [u - v_i for u, v_i in zip(path.v, v)]))]


@dataclass
class _Path:
    """The tangent predictor's state, as floats: the input v and output z of the last resolvent call, and
    the inverse Newton matrix P (a list of rows) of the latest Newton step; ``simulate`` seeds z0, z0, I."""

    v: list
    z: list
    P: list


def resolvent_solve(v: list, field: Operator, p: int, *, path: _Path) -> list:
    """Solve z + G_p(z) = v, on lists of floats, by Newton's method from the caller's path.

    Internal to ``simulate``, which checked p and holds numpy's over/invalid
    state.  F is ``field._floats`` (``field`` has no mode) and G_p its
    normalized form.  The Newton matrix is M = I + (J - a F (F^T J) / n^2) / n^a
    with J = ``field.jacobian``, a = 1 - 1/p and n = max(||F||, NORM_FLOOR);
    below the floor the F F^T term drops.  Each step forms P = M^-1 by
    ``_shifted_inverse`` and takes dz = -P h, halved until
    h = z + G_p(z) - v meets ||h(z + t dz)|| <= (1 - 1e-4 t) ||h(z)||.  The call
    returns once ||h|| <= RESOLVENT_TOL * max(1, ||v||), which may be at the start.

    ``path`` is the caller's record of the solution path z(v) = R(v): a
    previous solve (v', z') and a P.  The solve starts from the tangent
    (Euler) predictor z' - P (v' - v), since dz/dv = M^-1, or from z' if F is
    not finite there.  The call stores its v, its z and the P of its last
    Newton step back into ``path``.

    A singular Newton matrix, a step rejected down to t = 2^-29, or 500 steps
    raise ``ConvergenceError`` with the residual reached; a non-finite F
    raises ``NumericError``.
    """
    z = _predict(path, v)
    try:
        F = field._floats(np.array(z))
    except NumericError:  # F is not finite at the predicted start: start from z'
        z, F = path.z, field._floats(np.array(path.z))
    G = F if p == 1 else normalized_field(F, p)
    h = [zi + gi - vi for zi, gi, vi in zip(z, G, v)]
    scale = RESOLVENT_TOL * max(1.0, math.hypot(*v))
    a = 1.0 - 1.0 / p
    r = math.hypot(*h)
    for _ in range(500):
        if r <= scale:
            path.v, path.z = v, z
            return z
        jac = field.jacobian(np.array(z)).tolist()
        if p > 1:
            norm = math.hypot(*F)
            if norm > NORM_FLOOR:
                u = [f / norm for f in F]  # F F^T / n^2 is u u^T, whose parts stay finite where F . F overflows
                uJ = _mat_vec(list(zip(*jac)), u)
                jac = [[j - a * (u_i * c) for j, c in zip(row, uJ)] for u_i, row in zip(u, jac)]
            n_a = max(norm, NORM_FLOOR) ** a
            jac = [[j / n_a for j in row] for row in jac]
        P = _shifted_inverse(jac, 1.0)
        if P is None:
            raise ConvergenceError(f"singular resolvent Newton matrix (residual {r:.3e})", residual=r)
        path.P = P
        Ph = _mat_vec(path.P, h)  # dz = -P h
        t = 1.0
        for _ in range(30):
            z_try = [zi - t * x for zi, x in zip(z, Ph)]
            F_try = field._floats(np.array(z_try))
            G = F_try if p == 1 else normalized_field(F_try, p)
            h_try = [zi + gi - vi for zi, gi, vi in zip(z_try, G, v)]
            r_try = math.hypot(*h_try)
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
    v = check_array(config.z0, "z0", (problem.d,)).tolist()
    path = _Path(v, v, np.eye(problem.d).tolist())
    n = config.n_steps + 1
    zs, vs, norms = np.empty((n, problem.d)), np.empty((n, problem.d)), np.empty(n)
    failed_at = None
    z = resolvent_solve(v, field, p, path=path)  # a failure here has nothing integrated yet: it propagates
    zs[0], vs[0], norms[0] = z, v, math.hypot(*field._floats(np.array(z)))

    def slope(w):  # k = R(w) - w at a stage point w
        return [zi - wi for wi, zi in zip(w, resolvent_solve(w, field, p, path=path))]

    for i in range(1, n):
        try:
            k1 = [zi - vi for vi, zi in zip(v, z)]
            k2 = slope([vi + half * k for vi, k in zip(v, k1)])
            k3 = slope([vi + half * k for vi, k in zip(v, k2)])
            k4 = slope([vi + dt * k for vi, k in zip(v, k3)])
            v = [vi + sixth * (a + 2 * b + 2 * c + d) for vi, a, b, c, d in zip(v, k1, k2, k3, k4)]
            z = resolvent_solve(v, field, p, path=path)
        except (ConvergenceError, NumericError):
            failed_at = i * dt
            zs, vs, norms = zs[:i], vs[:i], norms[:i]
            break
        zs[i], vs[i], norms[i] = z, v, math.hypot(*field._floats(np.array(z)))

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
