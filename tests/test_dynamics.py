import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (
    ContinuousConfig,
    ContinuousLog,
    ConvergenceError,
    NumericError,
    ProblemSpec,
    builtin,
    check_energy_bound,
    eval_operator,
    normalized_field,
    resolvent_solve,
    simulate,
)
from hoeg.dynamics import _Path

GAMMA = -0.2
COMONO_RHO = -2 * GAMMA / (GAMMA**2 + 1)  # weak-MVI constant of the toy linear field


def zero_field_problem():
    return ProblemSpec(
        name="zero", d_x=1, d_y=1, f=lambda z: 0.0,
        grad_x=lambda z: np.zeros(1), grad_y=lambda z: np.zeros(1),
        z_star=np.zeros(2), sample_box=np.array([[-1, 1], [-1, 1]]),
    )


def linear_problem(A, analytic=True):
    """F(z) = A z on R^2, with its Jacobian A or, when not analytic, none."""
    A = np.array(A, dtype=float)
    return ProblemSpec(
        name="linear", d_x=1, d_y=1, f=lambda z: 0.0,
        grad_x=lambda z: (A @ z)[:1], grad_y=lambda z: -(A @ z)[1:],
        operator_jacobian=(lambda z: A) if analytic else None,
    )


class TestNormalizedField:
    def test_order1_passthrough(self):
        F = np.array([3.0, 4.0])
        assert np.array_equal(normalized_field(F, 1), F)

    def test_order2_divides_by_sqrt_norm(self):
        out = normalized_field(np.array([3.0, 4.0]), 2)
        assert np.allclose(out, np.array([3.0, 4.0]) / np.sqrt(5.0))

    def test_zero_field_maps_to_zero(self):
        for p in (1, 2):
            assert np.array_equal(normalized_field(np.zeros(2), p), np.zeros(2))


class TestResolvent:
    def test_identity_field_halves(self):
        z = resolvent_solve([2.0, 0.0], builtin("quadratic_monotone"), 1)
        assert np.allclose(z, [1.0, 0.0], atol=1e-9)

    def test_zero_field_is_identity_map(self):
        for p in (1, 2):
            z = resolvent_solve([0.3, -0.7], zero_field_problem(), p)
            assert np.allclose(z, [0.3, -0.7], atol=1e-12)

    def test_order2_square_root_equation(self):
        # on the first axis: z + sqrt(z) = 2 has the root z = 1
        z = resolvent_solve([2.0, 0.0], builtin("quadratic_monotone"), 2)
        assert np.allclose(z, [1.0, 0.0], atol=1e-8)

    def test_residual_recomputed_independently(self):
        p = builtin("comonotone_toy")
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-2, 2, 2)
            z = resolvent_solve(v, p, 1, tol=1e-10)
            res = np.linalg.norm(z + normalized_field(eval_operator(p, z), 1) - v)
            assert res <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_singular_newton_matrix_is_a_typed_failure(self):
        # F = -z makes I + J the zero matrix
        with pytest.raises(ConvergenceError, match="singular") as singular:
            resolvent_solve([3.0, 4.0], linear_problem(-np.eye(2)), 1)
        assert singular.value.residual == 5.0

    def test_overflowing_trial_point_is_a_typed_failure(self):
        # I + J is 1e-10 in its first entry, so the first trial lands where F overflows
        problem = ProblemSpec(
            name="steep", d_x=1, d_y=1, f=lambda z: 0.0,
            grad_x=lambda z: np.array([-(1 - 1e-10) * z[0] + z[0] ** 101]),
            grad_y=lambda z: -z[1:],
        )
        with pytest.raises(NumericError):
            resolvent_solve([0.5, 0.0], problem, 1)


# Random linear fields F = A z: A with arbitrary (often indefinite) symmetric
# part, and A = B B^T + skew with PSD symmetric part.
_entry = st.floats(-3.0, 3.0, allow_subnormal=False)
_matrices = st.tuples(_entry, _entry, _entry, _entry).map(lambda a: np.reshape(a, (2, 2)))
_monotone = st.tuples(_matrices, _entry).map(
    lambda m: m[0] @ m[0].T + m[1] * np.array([[0.0, 1.0], [-1.0, 0.0]]))
_points = st.tuples(*[st.floats(-10.0, 10.0, allow_subnormal=False)] * 2).map(np.array)
_property = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestResolventProperties:
    @_property
    @given(_monotone, _points)
    def test_order1_monotone_matches_linear_solve(self, A, v):
        z = resolvent_solve(v, linear_problem(A), 1)
        exact = np.linalg.solve(np.eye(2) + A, v)
        # ||(I + A)^-1|| <= 1, so the error is at most the residual tolerance
        assert np.linalg.norm(z - exact) <= 1e-9 * max(1.0, np.linalg.norm(v))

    @_property
    @given(st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
           st.floats(0.0, 2 * np.pi), st.floats(-3.0, 1.0).map(lambda e: 10.0**e))
    def test_order2_scaled_identity_matches_closed_form(self, c, angle, size):
        # z + sqrt(c) z / sqrt(||z||) = v gives z = s v / ||v|| with
        # sqrt(s) = (sqrt(c + 4 ||v||) - sqrt(c)) / 2, written without cancellation
        v = size * np.array([np.cos(angle), np.sin(angle)])
        s = (2 * size / (np.sqrt(c + 4 * size) + np.sqrt(c))) ** 2
        z = resolvent_solve(v, linear_problem(c * np.eye(2)), 2)
        assert np.linalg.norm(z - s * v / size) <= 1e-9 * max(1.0, size)

    @_property
    @given(_matrices, _points, st.sampled_from([1, 2]), st.booleans())
    def test_returned_point_meets_the_tolerance(self, A, v, p, analytic):
        problem = linear_problem(A, analytic)
        try:
            z = resolvent_solve(v, problem, p, tol=1e-10)
        except ConvergenceError as exc:
            assert np.isfinite(exc.residual)
            return
        residual = z + normalized_field(eval_operator(problem, z), p) - v
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(v))


class TestSimulate:
    def test_identity_field_matches_closed_form(self):
        # v' = -v/2, z = v/2: v(t) = exp(-t/2) v0
        log = simulate(builtin("quadratic_monotone"),
                       ContinuousConfig(order_p=1, t_end=2.0, dt=1e-3, z0=np.array([1.0, 0.0])))
        assert np.linalg.norm(log.v[-1] - np.exp(-1.0) * np.array([1.0, 0.0])) <= 1e-6
        assert np.allclose(log.z, log.v / 2.0, atol=1e-9)

    def test_zero_field_is_stationary(self):
        log = simulate(zero_field_problem(),
                       ContinuousConfig(order_p=1, t_end=1.0, dt=0.01, z0=np.array([0.4, 0.6])))
        assert np.allclose(log.z, [0.4, 0.6], atol=1e-12)

    def test_comonotone_norm_is_non_increasing(self):
        log = simulate(builtin("comonotone_toy"),
                       ContinuousConfig(order_p=1, t_end=50.0, dt=0.01, z0=np.array([1.0, 1.0])))
        assert np.all(np.diff(log.op_norm) <= 1e-9)

    def test_monotone_field_norm_is_non_increasing(self):
        log = simulate(builtin("quadratic_monotone"),
                       ContinuousConfig(order_p=1, t_end=10.0, dt=0.01, z0=np.array([1.0, 1.0])))
        assert np.all(np.diff(log.op_norm) <= 1e-9)

    def test_shift_variable_bookkeeping(self):
        log = simulate(builtin("comonotone_toy"),
                       ContinuousConfig(order_p=1, t_end=1.0, dt=0.01, z0=np.array([1.0, 1.0])))
        assert np.array_equal(log.s, log.v - np.array([1.0, 1.0]))
        assert log.energy[0] == 0.0
        assert np.all(np.diff(log.running_integral) >= 0.0)
        assert np.all(np.diff(log.t) > 0)

    def test_order2_comonotone_runs_to_the_end(self):
        log = simulate(builtin("comonotone_toy"),
                       ContinuousConfig(order_p=2, t_end=10.0, dt=1e-2, z0=np.array([1.0, 1.0])))
        assert log.failed_at is None
        assert len(log.t) == 1001

    def test_step_halving_is_fourth_order(self):
        p = builtin("comonotone_toy")
        ends = []
        for dt in (0.2, 0.1, 0.05):
            log = simulate(p, ContinuousConfig(order_p=1, t_end=4.0, dt=dt, z0=np.array([1.0, 1.0])))
            ends.append(log.z[-1])
        change1 = np.linalg.norm(ends[1] - ends[0])
        change2 = np.linalg.norm(ends[2] - ends[1])
        assert change2 <= change1 / 10.0


@pytest.fixture(scope="module")
def counted_toy_flow():
    """The order-1 comonotone_toy flow to t = 50 at dt = 1e-3, with its Jacobians counted."""
    toy = builtin("comonotone_toy")
    jacobians = []

    def jacobian(z):
        jacobians.append(1)
        return toy.operator_jacobian(z)

    counted = dataclasses.replace(toy, operator_jacobian=jacobian)
    log = simulate(counted, ContinuousConfig(order_p=1, t_end=50.0, dt=1e-3, z0=np.array([1.0, 1.0])))
    return log, len(jacobians)


class TestTangentPredictor:
    def test_linear_flow_matches_closed_form(self, counted_toy_flow):
        # F = A z, so z(t) = exp(-t (I+A)^-1 A) (I+A)^-1 z0 and op_norm = ||A z(t)||
        log, _ = counted_toy_flow
        A = np.array([[GAMMA, 1.0], [-1.0, GAMMA]])
        I = np.eye(2)
        w, V = np.linalg.eig(np.linalg.solve(I + A, A))
        z_start = np.linalg.solve(I + A, np.array([1.0, 1.0]))
        for t in (40.0, 50.0):
            z_t = (V @ np.diag(np.exp(-t * w)) @ np.linalg.inv(V)).real @ z_start
            exact = np.linalg.norm(A @ z_t)
            logged = log.op_norm[int(round(t / log.dt))]
            assert abs(logged - exact) <= 1e-3 * exact

    def test_linear_flow_takes_almost_no_jacobians(self, counted_toy_flow):
        # the first solve's Newton matrix is exact for the whole run; the
        # stop rule alone took one Jacobian per resolvent call, 78 842 in all
        log, jacobians = counted_toy_flow
        assert log.failed_at is None and len(log.t) == 50001
        assert jacobians <= 10

    def test_non_finite_predicted_start_falls_back_to_the_warm_start(self):
        # F = z inside the disc of radius 2 and not finite outside it.  A
        # stale P = 100 I predicts z' + 100 (v - v') = (20.5, 0), outside the disc.
        problem = ProblemSpec(
            name="disc", d_x=1, d_y=1, f=lambda z: 0.0,
            grad_x=lambda z: z[:1] if z @ z <= 4.0 else np.array([np.inf]),
            grad_y=lambda z: -z[1:],
            operator_jacobian=lambda z: np.eye(2),
        )
        path = _Path(v=np.array([1.0, 0.0]), z=np.array([0.5, 0.0]), P=100.0 * np.eye(2))
        v = np.array([1.2, 0.0])
        z = resolvent_solve(v, problem, 1, z_init=path.z, path=path)
        assert np.linalg.norm(z - v / 2.0) <= 1e-10
        assert path.z is z and np.array_equal(path.v, v)
        assert np.array_equal(path.P, 0.5 * np.eye(2))
        with pytest.raises(NumericError):
            resolvent_solve(v, problem, 1, z_init=np.array([20.5, 0.0]))


class TestEnergyBound:
    def test_identity_field_passes_with_margin(self):
        log = simulate(builtin("quadratic_monotone"),
                       ContinuousConfig(order_p=1, t_end=2.0, dt=1e-3, z0=np.array([1.0, 0.0])))
        report = check_energy_bound(log, np.zeros(2), rho=0.0, D=1.0)
        assert report.integral_ok and report.rate_ok
        # closed form: integral = (1 - e^{-t})/4, bound = 1/2
        assert report.integral_bound == pytest.approx(0.5)
        assert report.integral_margin == pytest.approx(0.5 - 0.25 * (1 - np.exp(-2.0)), abs=1e-4)

    def test_comonotone_toy_saturates_the_bound(self):
        # the linear field meets the integral bound with equality as t grows
        log = simulate(builtin("comonotone_toy"),
                       ContinuousConfig(order_p=1, t_end=50.0, dt=0.01, z0=np.array([1.0, 1.0])))
        report = check_energy_bound(log, np.zeros(2), rho=COMONO_RHO, D=np.sqrt(2.0))
        assert report.integral_ok and report.rate_ok
        assert report.integral_bound == pytest.approx(2.0 / (2.0 - COMONO_RHO))
        assert abs(log.running_integral[-1] - report.integral_bound) <= 1e-4

    def test_zero_field_trivially_passes(self):
        log = simulate(zero_field_problem(),
                       ContinuousConfig(order_p=1, t_end=1.0, dt=0.01, z0=np.array([0.5, 0.0])))
        report = check_energy_bound(log, np.zeros(2), rho=0.0, D=1.0)
        assert report.integral_ok and report.rate_ok

    def test_violation_is_reported_with_location(self):
        t = np.linspace(0.0, 1.0, 11)
        flat = np.tile(np.array([1.0, 0.0]), (11, 1))
        fake = ContinuousLog(
            order_p=1, dt=0.1, t=t, z=flat, v=flat, s=flat - flat[0],
            op_norm=np.ones(11), energy=np.zeros(11),
            running_integral=np.linspace(0.0, 10.0, 11),
        )
        report = check_energy_bound(fake, np.zeros(2), rho=0.0, D=1.5, slack=1e-9)
        assert not report.integral_ok
        assert report.integral_first_violation is not None
        assert report.integral_margin < 0

    def test_preconditions(self):
        log = simulate(zero_field_problem(),
                       ContinuousConfig(order_p=1, t_end=0.5, dt=0.1, z0=np.array([1.0, 0.0])))
        with pytest.raises(ValueError):
            check_energy_bound(log, np.zeros(2), rho=2.0, D=2.0)
        with pytest.raises(ValueError):
            check_energy_bound(log, np.zeros(2), rho=0.0, D=0.5)
