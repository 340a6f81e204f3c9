"""The flow's float fast path against the numpy-only flow it replaced.

`oracle_flow` is that flow: RK4 stages on arrays and a resolvent that forms
F, h and the stop test with numpy.  `simulate` computes the stages, h and the
accept-at-start test on Python floats, so its logs must equal the oracle's bit
for bit; `_within_tolerance` must accept only where the numpy test holds.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import ContinuousConfig, ConvergenceError, NumericError, Operator, builtin, problem_names, simulate
from hoeg.dynamics import NORM_FLOOR, RESOLVENT_TOL, _within_tolerance, normalized_field
from hoeg.halfstep import vector_norm


def oracle_resolvent(v, field, p, path):
    scale = RESOLVENT_TOL * max(1.0, vector_norm(v))
    a = 1.0 - 1.0 / p
    z = path.z - path.P.dot(path.v - v)
    try:
        F = field.at(z)
    except NumericError:
        z, F = path.z, field.at(path.z)
    h = z + F - v if p == 1 else z + normalized_field(F, p) - v
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
            h_try = z_try + F_try - v if p == 1 else z_try + normalized_field(F_try, p) - v
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


def assert_bit_identical(name, config):
    log = simulate(builtin(name), config)
    zs, vs, norms, failed_at = oracle_flow(builtin(name), config)
    assert log.failed_at == failed_at
    for got, want in ((log.z, zs), (log.v, vs), (log.op_norm, norms)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p, t_end, dt", [(1, 5.0, 1e-3), (2, 10.0, 1e-2)], ids=["p1", "p2"])
def test_the_benchmark_flows_match_the_numpy_flow_bit_for_bit(p, t_end, dt):
    # the benchmark's p=1 flow runs to t = 50; its first tenth keeps the suite short
    assert_bit_identical("comonotone_toy", ContinuousConfig(p, t_end, dt, np.array([1.0, 1.0])))


@pytest.mark.parametrize("name", problem_names())
@pytest.mark.parametrize("p", [1, 2])
def test_every_builtin_flow_matches_the_numpy_flow_bit_for_bit(name, p):
    assert_bit_identical(name, ContinuousConfig(p, 2.0, 1e-2, np.array([1.0, 1.0])))


def test_a_failing_flow_matches_the_numpy_flow_bit_for_bit():
    # modified_forsaken from (-1, -1) fails at t = 1.9
    assert_bit_identical("modified_forsaken", ContinuousConfig(1, 5.0, 1e-2, np.array([-1.0, -1.0])))


def _scaled(direction, norm):
    """The direction's entries scaled so that their norm is about ``norm``."""
    length = math.hypot(*direction)
    return [x * (norm / length) for x in direction] if length else direction


_ULPS = st.integers(-4, 4).map(lambda k: 1.0 + k * 2.0**-52)
_MAGNITUDE = st.sampled_from((0.0, 5e-324, 1e-310, 1e-160, 1e-3, 1.0, 3.0, 1e150, 1e154, 1e200, 1e308))


@st.composite
def _residual_and_point(draw):
    """h and v at d = 2..8: h's norm within a few ulps of RESOLVENT_TOL max(1, ||v||), or any size."""
    d = draw(st.integers(2, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    size = draw(_MAGNITUDE | st.floats(0.5, 2.0))  # at 1e308, ||v|| may overflow
    v = [x * size * draw(_ULPS) for x in draw(st.lists(unit, min_size=d, max_size=d))]
    if draw(st.booleans()):  # at the threshold, to within a few ulps of its norm
        bound = RESOLVENT_TOL * max(1.0, math.hypot(*v))
        h = _scaled(draw(st.lists(unit, min_size=d, max_size=d)), bound * draw(_ULPS))
    else:  # subnormal, overflowing and ordinary sums of squares
        h = _scaled(draw(st.lists(unit, min_size=d, max_size=d)), draw(_MAGNITUDE))
    return h, v


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_residual_and_point())
@np.errstate(over="ignore")  # v @ v may overflow, and vector_norm then takes hypot
def test_the_float_stop_rule_accepts_only_where_the_numpy_rule_holds(h_and_v):
    h, v = h_and_v
    norm_h, norm_v = vector_norm(np.array(h)), vector_norm(np.array(v))
    if _within_tolerance(h, v):
        assert norm_h <= RESOLVENT_TOL * max(1.0, norm_v)
    else:  # the margin is 1e-9: twice it inside the rule, the floats accept
        assert not norm_h <= RESOLVENT_TOL * max(1.0, norm_v) * (1.0 - 2e-9)
