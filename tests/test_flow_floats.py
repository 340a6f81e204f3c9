"""The flow on Python floats against the numpy flow it replaced.

`oracle_flow` is that flow: RK4 stages on arrays and a resolvent that forms
F, h, the norms, the tangent predictor and the Newton matrix's inverse with
numpy (BLAS dots, LAPACK's inverse).  `simulate` does all of it on floats:
`math.hypot` norms, index-order matrix-vector products and one elimination
for all columns of the inverse.  So its logs may differ from the oracle's in the last bits, and
must agree with it to FLOW_RTOL, with equal row counts and `failed_at`.
"""

import math
import struct
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (ContinuousConfig, ConvergenceError, NumericError, Operator, ProblemSpec, builtin, problem_names,
                  simulate)
from hoeg.dynamics import NORM_FLOOR, RESOLVENT_TOL, _Path, _predict, resolvent_solve


def vector_norm(v):
    """sqrt(v . v) by BLAS, or hypot where the sum of squares underflows the normal range or overflows:
    the norm of the numpy flow."""
    sq = v.dot(v)
    return math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(*v)


# |float - numpy| <= FLOW_RTOL * max(1, |numpy|) on every z, v and op_norm entry;
# the largest seen on the flows below is 1.3e-15 (the p = 1 benchmark flow to t = 5)
FLOW_RTOL = 1e-13


@np.errstate(over="ignore")
def oracle_normalized(F, p):
    return F / max(vector_norm(F), NORM_FLOOR) ** (1.0 - 1.0 / p)


def oracle_resolvent(v, field, p, path):
    scale = RESOLVENT_TOL * max(1.0, vector_norm(v))
    a = 1.0 - 1.0 / p
    z = path.z - path.P.dot(path.v - v)
    try:
        F = field.at(z)
    except NumericError:
        z, F = path.z, field.at(path.z)
    h = z + F - v if p == 1 else z + oracle_normalized(F, p) - v
    r = vector_norm(h)
    for _ in range(500):
        if r <= scale:
            path.v, path.z = v, z
            return z
        jac = field.jacobian(z)
        if p > 1:
            norm = vector_norm(F)
            if norm > NORM_FLOOR:
                u = F / norm
                jac = jac - a * np.outer(u, u @ jac)
            jac = jac / max(norm, NORM_FLOOR) ** a
        path.P = P = np.linalg.inv(np.eye(z.size) + jac)  # LinAlgError ends the flow
        dz = -(P @ h)
        t = 1.0
        for _ in range(30):
            z_try = z + t * dz
            F_try = field.at(z_try)
            h_try = z_try + F_try - v if p == 1 else z_try + oracle_normalized(F_try, p) - v
            r_try = vector_norm(h_try)
            if r_try <= (1.0 - 1e-4 * t) * r:
                break
            t *= 0.5
        else:
            raise ConvergenceError("rejected", residual=r)
        z, F, h, r = z_try, F_try, h_try, r_try
    raise ConvergenceError("stalled", residual=r)


@np.errstate(over="ignore", invalid="ignore")
def oracle_flow(problem, config):
    """The rows (z, v, ||F(z)||) and failed_at of the flow, every stage on arrays."""
    p, dt = config.order_p, config.dt
    half, sixth = 0.5 * dt, dt / 6.0
    field = Operator(problem)
    v = np.array(config.z0, dtype=float)
    path = SimpleNamespace(v=v, z=v, P=np.eye(v.size))
    z = oracle_resolvent(v, field, p, path)
    rows, failed_at = [(z, v, vector_norm(field.at(z)))], None
    for i in range(1, config.n_steps + 1):
        try:
            k1 = z - v
            v2 = v + half * k1
            k2 = oracle_resolvent(v2, field, p, path) - v2
            v3 = v + half * k2
            k3 = oracle_resolvent(v3, field, p, path) - v3
            v4 = v + dt * k3
            k4 = oracle_resolvent(v4, field, p, path) - v4
            v = v + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            z = oracle_resolvent(v, field, p, path)
        except (ConvergenceError, NumericError, np.linalg.LinAlgError):
            failed_at = i * dt
            break
        rows.append((z, v, vector_norm(field.at(z))))
    zs, vs, norms = zip(*rows)
    return np.array(zs), np.array(vs), np.array(norms), failed_at


def assert_close_to_the_numpy_flow(problem, config):
    log = simulate(problem, config)
    zs, vs, norms, failed_at = oracle_flow(problem, config)
    assert log.failed_at == failed_at
    for got, want in ((log.z, zs), (log.v, vs), (log.op_norm, norms)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= FLOW_RTOL * np.maximum(1.0, np.abs(want)))
    return log


@pytest.mark.parametrize("p, t_end, dt", [(1, 5.0, 1e-3), (2, 10.0, 1e-2)], ids=["p1", "p2"])
def test_the_benchmark_flows_match_the_numpy_flow(p, t_end, dt):
    # the benchmark's p=1 flow runs to t = 50; its first tenth keeps the suite short
    assert_close_to_the_numpy_flow(builtin("comonotone_toy"), ContinuousConfig(p, t_end, dt, np.array([1.0, 1.0])))


@pytest.mark.parametrize("name", problem_names())
@pytest.mark.parametrize("p", [1, 2])
def test_every_builtin_flow_matches_the_numpy_flow(name, p):
    assert_close_to_the_numpy_flow(builtin(name), ContinuousConfig(p, 2.0, 1e-2, np.array([1.0, 1.0])))


def test_a_failing_flow_matches_the_numpy_flow():
    # modified_forsaken from (-1, -1) fails at t = 1.9
    log = assert_close_to_the_numpy_flow(builtin("modified_forsaken"),
                                         ContinuousConfig(1, 5.0, 1e-2, np.array([-1.0, -1.0])))
    assert len(log.t) == 190


def oracle_predict(path, v):
    """z' - P (v' - v) by the loop: each entry of P (v' - v) the products of a row of P,
    added in index order from the first."""
    w = [u - v_i for u, v_i in zip(path.v, v)]
    out = []
    for y, row in zip(path.z, path.P):
        s = row[0] * w[0]
        for j in range(1, len(w)):
            s += row[j] * w[j]
        out.append(y - s)
    return out


def bits(values):
    return [struct.pack("<d", x) for x in values]


_SPECIAL = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, math.inf, -math.inf, math.nan))
_ENTRY = st.floats() | _SPECIAL


@st.composite
def _path_and_point(draw):
    """A path (v', z', P) and a point v at d = 2..5, of any floats, or v = v' as on a seeded path."""
    d = draw(st.integers(2, 5))
    vector = st.lists(_ENTRY, min_size=d, max_size=d)
    path = _Path(v=draw(vector), z=draw(vector), P=draw(st.lists(vector, min_size=d, max_size=d)))
    return path, (list(path.v) if draw(st.booleans()) else draw(vector))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_path_and_point())
def test_the_predictor_is_the_index_order_loop_bit_for_bit(path_and_point):
    # at d = 2 the unrolled predictor against the loop, signed zeros and NaN places included
    path, v = path_and_point
    assert bits(_predict(path, v)) == bits(oracle_predict(path, v))


def linear_problem_3d(A):
    """F(z) = A z on R^3 with d_x = 2, d_y = 1, and its Jacobian A."""
    A = np.array(A, dtype=float)
    return ProblemSpec(
        name="linear_3d", d_x=2, d_y=1,
        grad_x=lambda z: (A @ z)[:2], grad_y=lambda z: -(A @ z)[2:],
        operator_jacobian=lambda z: A,
    )


# symmetric part diag(0.5, 0.3, 0.2): monotone, with rotation in both planes
MONOTONE_3D = [[0.5, 1.0, 0.0], [-1.0, 0.3, 0.5], [0.0, -0.5, 0.2]]


@pytest.mark.parametrize("p", [1, 2])
def test_a_three_dimensional_flow_matches_the_numpy_flow(p):
    # d = 3 takes the loop mat-vec and the loop elimination, which no built-in reaches
    config = ContinuousConfig(p, 5.0, 1e-2, np.array([1.0, -0.5, 2.0]))
    log = assert_close_to_the_numpy_flow(linear_problem_3d(MONOTONE_3D), config)
    assert log.failed_at is None and len(log.t) == 501


def test_a_three_dimensional_linear_flow_matches_its_closed_form():
    # F = A z, so z(t) = exp(-t (I+A)^-1 A) (I+A)^-1 z0
    A, z0 = np.array(MONOTONE_3D), np.array([1.0, -0.5, 2.0])
    log = simulate(linear_problem_3d(A), ContinuousConfig(1, 5.0, 1e-2, z0))
    I = np.eye(3)
    w, V = np.linalg.eig(np.linalg.solve(I + A, A))
    z_start = np.linalg.solve(I + A, z0)
    for i in (0, 100, 250, 500):
        z_t = (V @ np.diag(np.exp(-log.t[i] * w)) @ np.linalg.inv(V)).real @ z_start
        assert np.linalg.norm(log.z[i] - z_t) <= 1e-8 * np.linalg.norm(z_t)


def test_a_singular_three_dimensional_newton_matrix_is_a_typed_failure():
    # I + A has two proportional rows; elimination meets an exactly zero pivot at the last column
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]) - np.eye(3)
    v = [1.0, 2.0, 2.0]
    with pytest.raises(ConvergenceError, match="singular") as singular:
        resolvent_solve(v, Operator(linear_problem_3d(A)), 1, path=_Path(v, v, np.eye(3).tolist()))
    F = A @ v
    assert singular.value.residual == math.hypot(*F.tolist())
