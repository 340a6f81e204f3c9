import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (
    CapabilityError,
    NumericError,
    Operator,
    OperatorMode,
    ProblemSpec,
    SolverConfig,
    builtin,
    certify_problem,
    run,
)
from hoeg.problems import FD_STEP, block_matrix
from test_problems import ALL_NAMES, _tall_block


def test_alpha_zero_is_the_plain_operator():
    for name in ("forsaken", "x2y", "bilinear"):
        p = builtin(name)
        z = np.array([0.7, -1.1])
        assert np.allclose(Operator(p, OperatorMode(0.0)).at(z), Operator(p).at(z), atol=1e-15)


def test_bilinear_hand_value():
    # g = (0, -1), M = [[1, 1], [-1, 1]] at alpha = 1
    p = builtin("bilinear")
    assert np.allclose(Operator(p, OperatorMode(1.0)).at([1.0, 0.0]), [0.5, -0.5])


def test_x2y_y_axis_is_fixed_for_all_alpha():
    p = builtin("x2y")
    for alpha in (0.0, 1.0, 10.0, 100.0):
        for y in (-2.0, 0.0, 1.0):
            assert np.allclose(Operator(p, OperatorMode(alpha)).at([0.0, y]), [0.0, 0.0])


def test_missing_mixed_hessian_is_capability_error():
    p = builtin("x2y")
    stripped = ProblemSpec(
        name="nohess", d_x=1, d_y=1, grad_x=p.grad_x, grad_y=p.grad_y,
        z_star=p.z_star, sample_box=p.sample_box,
    )
    with pytest.raises(CapabilityError):
        Operator(stripped, OperatorMode(1.0))
    with pytest.raises(CapabilityError):
        certify_problem(stripped, 1, q=2.0, n_samples=200, seed=0, mode=OperatorMode(1.0)).rho_hat_q


def test_alpha_alone_names_the_mode():
    assert OperatorMode() == OperatorMode.standard()
    assert OperatorMode(2) == OperatorMode.competitive(2.0)
    for alpha in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            OperatorMode(alpha)


def test_block_matrix_is_never_ill_conditioned():
    # M = I + alpha * skew, so its smallest singular value is at least 1
    rng = np.random.default_rng(7)
    for _ in range(100):
        d_x, d_y = rng.integers(1, 4, size=2)
        B = rng.uniform(-10, 10, size=(d_x, d_y))
        alpha = rng.uniform(0, 10)
        M = block_matrix(B[None], alpha)[0]
        assert np.array_equal(M - np.eye(d_x + d_y), -(M - np.eye(d_x + d_y)).T)
        assert np.linalg.svd(M, compute_uv=False).min() >= 1.0 - 1e-12


def test_block_matrix_of_a_stack_is_the_stack_of_block_matrices():
    rng = np.random.default_rng(8)
    B = rng.uniform(-10, 10, size=(5, 2, 3))
    stacked = block_matrix(B, 2.5)
    assert stacked.shape == (5, 5, 5)
    for M, b in zip(stacked, B):
        assert np.array_equal(M, block_matrix(b[None], 2.5)[0])


def test_small_alpha_limit():
    rng = np.random.default_rng(21)
    for name in ("forsaken", "modified_forsaken", "x2y", "bilinear"):
        p = builtin(name)
        for _ in range(5):
            z = rng.uniform(-1, 1, 2)
            fa_norm = np.linalg.norm(Operator(p, OperatorMode(1e-8)).at(z))
            gap = abs(fa_norm - np.linalg.norm(Operator(p).at(z)))
            assert gap <= 1e-6


def test_zero_sets_coincide():
    rng = np.random.default_rng(5)
    for name in ("forsaken", "modified_forsaken", "x2y"):
        p = builtin(name)
        assert np.linalg.norm(Operator(p, OperatorMode(10.0)).at(p.z_star)) <= 1e-6
        for _ in range(20):
            z = rng.uniform(-1.4, 1.4, 2)
            f_norm = np.linalg.norm(Operator(p).at(z))
            fa_norm = np.linalg.norm(Operator(p, OperatorMode(10.0)).at(z))
            if f_norm > 1e-6:
                assert fa_norm > 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["forsaken", "modified_forsaken", "x2y", "bilinear", "comonotone_toy"]),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 100.0))
def test_competitive_norm_is_within_the_block_matrix_bounds(name, x, y, alpha):
    # M = I + skew gives ||M u|| >= ||u||, so ||F_alpha|| <= ||F|| <= ||M|| ||F_alpha||:
    # F and F_alpha vanish together.  hypot keeps the norms of tiny fields from underflowing.
    p = builtin(name)
    z = np.array([x, y])
    M, F = block_matrix(p.mixed_hessian(z)[None], alpha)[0], Operator(p).at(z)
    f_norm = math.hypot(*F)
    fa_norm = math.hypot(*Operator(p, OperatorMode(alpha)).at(z))
    # subnormal results round to a multiple of math.ulp(0.0), not to a relative 1e-12
    slack = 8 * math.ulp(0.0)
    assert fa_norm <= f_norm * (1 + 1e-12) + slack
    assert f_norm <= np.linalg.norm(M, 2) * fa_norm * (1 + 1e-12) + slack


def test_differenced_jacobian_tracks_alpha_zero_limit():
    p = builtin("x2y")
    z = np.array([0.8, -0.4])
    assert np.allclose(Operator(p, OperatorMode(0.0)).jacobian(z),
                       [[2 * z[1], 2 * z[0]], [-2 * z[0], 0.0]], atol=1e-9)


def test_competitive_system_shapes():
    p = builtin("x2y")
    M = block_matrix(p.mixed_hessian(np.array([1.0, 1.0]))[None], 2.0)[0]
    assert M.shape == (2, 2)
    assert np.allclose(M, [[1.0, 4.0], [-4.0, 1.0]])


def test_a_non_finite_mixed_hessian_names_the_point():
    # F = (0.3, -0.5) there, but M u = F with an infinite B would solve to u = 0
    problem = dataclasses.replace(builtin("bilinear"), name="inf_hessian",
                                  mixed_hessian=lambda z: np.array([[np.inf if z[0] == 0.5 else 1.0]]))
    z = np.array([0.5, 0.3])
    assert np.array_equal(Operator(problem).at(z), [0.3, -0.5])
    operator = Operator(problem, OperatorMode(10))
    message = re.escape(f"non-finite mixed Hessian for 'inf_hessian' at {z}")
    with pytest.raises(NumericError, match=message):
        operator.at(z)
    with pytest.raises(NumericError, match=message):
        operator.rows(np.array([[0.1, 0.2], z, z]))
    with pytest.raises(NumericError, match=message):
        run(problem, SolverConfig(order_p=1, lipschitz=1.0, max_iterations=5, z0=z,
                                  operator_mode=OperatorMode(10)))


def central_difference(fn, z):
    """The Jacobian of fn at z by central differences with step FD_STEP, one column at a time.

    The oracle of ``Operator.jacobian``, which evaluates all 2d stencil points in one ``rows`` call.
    """
    d = z.size
    jac = np.empty((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = FD_STEP
        jac[:, j] = (fn(z + step) - fn(z - step)) / (2 * FD_STEP)
    return jac


@pytest.mark.parametrize("alpha", [None, 0.0, 10.0])
def test_a_differenced_jacobian_is_the_central_difference_of_the_field(alpha):
    for name in ALL_NAMES + ["tall_block"]:
        problem = _tall_block() if name == "tall_block" else builtin(name)
        if alpha is None:  # no analytic Jacobian: F is differenced too
            problem = dataclasses.replace(problem, name=name + "_fd", operator_jacobian=None)
        _check_differenced_jacobian(Operator(problem, OperatorMode(alpha)))


def _check_differenced_jacobian(operator):
    problem = operator.problem
    box = problem.sample_box
    points = np.random.default_rng(3).uniform(box[:, 0], box[:, 1], (20, problem.d))
    # signed zeros: z + 0.0 and z - 0.0 keep or drop the sign of a zero coordinate
    points = np.concatenate([points, [np.zeros(problem.d), -np.zeros(problem.d), 1e150 * points[0]]])
    with np.errstate(over="ignore", invalid="ignore"):  # as in run and simulate
        for z in points:
            try:
                want = central_difference(operator.at, z)
            except NumericError:
                with pytest.raises(NumericError):
                    operator.jacobian(z)
                continue
            if np.isfinite(want).all():
                assert operator.jacobian(z).tobytes() == want.tobytes()
            else:
                message = f"non-finite Jacobian for {problem.name!r} at {z}"
                with pytest.raises(NumericError, match=re.escape(message)):
                    operator.jacobian(z)


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_a_non_finite_stencil_point_is_a_numeric_error_naming_it(alpha):
    # F is finite at z and at z - FD_STEP e_0, and infinite at z + FD_STEP e_0
    cliff = ProblemSpec(name="cliff", d_x=1, d_y=1,
                        grad_x=lambda z: np.array([math.inf if z[0] > 0.5 else z[0]]),
                        grad_y=lambda z: np.array([z[1]]),
                        mixed_hessian=lambda z: np.array([[1.0]]))
    operator = Operator(cliff, OperatorMode(alpha))
    z = np.array([0.5, 0.25])
    assert np.isfinite(operator.at(z)).all()
    point = z + np.array([FD_STEP, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=re.escape(f"non-finite operator value for 'cliff' at {point}")):
        operator.jacobian(z)


def test_a_non_finite_f_is_named_before_a_non_finite_mixed_hessian_at_an_earlier_point():
    # the stencil is z + h e_0, z - h e_0, z + h e_1, z - h e_1; B is infinite at
    # the first point and F at the last, and rows checks F at every point before B
    ledge = ProblemSpec(name="ledge", d_x=1, d_y=1,
                        grad_x=lambda z: np.array([z[0]]),
                        grad_y=lambda z: np.array([math.inf if z[1] < 0.5 else z[1]]),
                        mixed_hessian=lambda z: np.array([[math.inf if z[0] > 0.5 else 1.0]]))
    operator = Operator(ledge, OperatorMode(10.0))
    z = np.array([0.5, 0.5])
    assert np.isfinite(operator.at(z)).all()
    point = z + np.array([0.0, -FD_STEP])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=re.escape(f"non-finite operator value for 'ledge' at {point}")):
        operator.jacobian(z)


@pytest.mark.parametrize("alpha", [None, 0.0])
def test_a_non_finite_differenced_jacobian_is_a_numeric_error(alpha):
    # F is finite at z +- FD_STEP, and its difference overflows
    steep = ProblemSpec(name="steep", d_x=1, d_y=1,
                        grad_x=lambda z: np.array([math.copysign(1e308, z[0])]),
                        grad_y=lambda z: np.array([0.0]),
                        mixed_hessian=lambda z: np.array([[0.0]]))
    operator = Operator(steep, OperatorMode(alpha))
    assert np.isfinite(operator.at([1e-5, 0.0])).all()
    # run and simulate evaluate Jacobians with overflow warnings off, as here
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite Jacobian for 'steep'"):
        operator.jacobian([0.0, 0.0])
