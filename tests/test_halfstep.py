import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hoeg import (
    ContinuousConfig,
    ConvergenceError,
    Operator,
    SolverConfig,
    builtin,
    certify_problem,
    check_rho_threshold,
    run,
)
from hoeg import halfstep
from hoeg.errors import SUPPORTED_ORDERS
from hoeg.halfstep import GAP_RTOL, MODEL_RTOL, solve_half_step_p1, solve_half_step_p2

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _model(F, J, L, p, d):
    """The regularized Taylor model F + J d + (2 L / p!) ||d||^(p-1) d that the half-step zeroes."""
    expansion = F if p == 1 else F + J @ d
    return expansion + (2.0 * L / math.factorial(p)) * np.linalg.norm(d) ** (p - 1) * d


def test_every_entry_point_checks_the_one_list_of_orders():
    assert SUPPORTED_ORDERS == (1, 2)
    problem, z0 = builtin("x2y"), np.array([1.0, 1.0])
    for p in (0, 3):
        for make in (lambda: SolverConfig(p, 1.0, 10, z0),
                     lambda: ContinuousConfig(p, 1.0, 0.1, z0),
                     lambda: certify_problem(problem, p, n_samples=10),
                     lambda: check_rho_threshold(0.1, p, 1.0)):
            with pytest.raises(ValueError, match=rf"order p = {p} is not supported \(have \(1, 2\)\)"):
                make()


# equal to a supported order but not integers: 2.0 would reach math.factorial,
# and True would run as order 1
_NOT_ORDERS = pytest.mark.parametrize("p", [2.0, True, np.float64(1.0)])


def _not_an_order(p):
    return pytest.raises(ValueError, match=re.escape(f"order p = {p!r} is not supported"))


@_NOT_ORDERS
def test_solver_config_takes_integer_orders_only(p):
    z0 = np.array([1.0, 1.0])
    with _not_an_order(p):
        SolverConfig(p, 1.0, 10, z0)
    assert SolverConfig(np.int64(2), 1.0, 10, z0).order_p == 2


@_NOT_ORDERS
def test_continuous_config_takes_integer_orders_only(p):
    z0 = np.array([1.0, 1.0])
    with _not_an_order(p):
        ContinuousConfig(p, 1.0, 0.1, z0)
    assert ContinuousConfig(np.int32(2), 1.0, 0.1, z0).order_p == 2


@_NOT_ORDERS
def test_certify_problem_takes_integer_orders_only(p):
    problem = builtin("x2y")
    with _not_an_order(p):
        certify_problem(problem, p, n_samples=10)
    assert certify_problem(problem, np.int64(1), n_samples=10).p == 1


@pytest.mark.parametrize("L", [math.inf, math.nan])
def test_every_lipschitz_check_needs_a_positive_finite_constant(L):
    # an infinite L_1 used to make the order-1 step exactly 0 and stop at z0 as "stationary"
    z = np.array([1.0, 1.0])
    for make in (lambda: SolverConfig(1, L, 10, z),
                 lambda: check_rho_threshold(0.0, 1, L)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            make()


@pytest.mark.parametrize("make, name", [
    (lambda z: SolverConfig(1, True, 5, z), "lipschitz"),
    (lambda z: check_rho_threshold(0.1, 1, True), "Lp"),
], ids=["SolverConfig", "check_rho_threshold"])
def test_a_bool_lipschitz_constant_is_rejected_by_name(make, name):
    # True passes 0 < L < inf and used to run as L = 1
    with pytest.raises(ValueError, match=f"^{name} must be a number, not the bool True$"):
        make(np.array([1.0, 1.0]))


def _as_in_run(solve, *args):
    """``solve(*args)`` under the floating-point state that ``run`` holds around its solvers."""
    with np.errstate(over="ignore", invalid="ignore"):
        return solve(*args)


class TestOrder1:
    def test_zero_field_stays_put(self):
        res = solve_half_step_p1([0.0, 0.0], 3.0, [1.0, -1.0])
        assert np.array_equal(res.z_half, [1.0, -1.0])
        assert res.displacement_norm == 0.0
        assert res.iterations_used == 0

    def test_identity_field(self):
        res = solve_half_step_p1([1.0, 0.0], 1.0, [1.0, 0.0])
        assert np.allclose(res.z_half, [0.5, 0.0])

    def test_modified_forsaken_from_origin(self):
        p = builtin("modified_forsaken")
        z = np.zeros(2)
        res = solve_half_step_p1(Operator(p).at(z).tolist(), 20.0, z.tolist())
        assert np.allclose(res.z_half, [0.0375, 0.0])

    def test_residual_certificate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.uniform(-2, 2, 2)
            F = rng.uniform(-5, 5, 2)
            L1 = 10 ** rng.uniform(-1, 2)
            res = solve_half_step_p1(F.tolist(), L1, z.tolist())
            step = np.array(res.z_half) - z
            assert np.linalg.norm(_model(F, None, L1, 1, step)) <= 1e-12 * max(1.0, np.linalg.norm(F))

    def test_a_field_whose_square_overflows_keeps_its_norm_silently(self):
        # F = z = (1e200, 1e200) gives d = -F / 2, whose sum of squares overflows;
        # hypot gives the norm, and no RuntimeWarning escapes run
        config = SolverConfig(1, 1.0, 1, np.array([1e200, 1e200]))
        log = run(builtin("quadratic_monotone"), config)
        assert log.displacement_norm[0] == math.hypot(5e199, 5e199)


class TestOrder2:
    def test_zero_field_stays_put(self):
        res = solve_half_step_p2([0.0, 0.0], np.eye(2).tolist(), 1.0, [2.0, 2.0])
        assert res.displacement_norm == 0.0
        assert np.array_equal(res.z_half, [2.0, 2.0])

    def test_scalar_golden_radius(self):
        # identity field on the first axis: 1 - r - r^2 = 0
        res = solve_half_step_p2([1.0, 0.0], np.eye(2).tolist(), 1.0, [0.0, 0.0])
        assert res.displacement_norm == pytest.approx(GOLDEN, abs=1e-9)
        assert res.z_half[0] == pytest.approx(-GOLDEN, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_a_jacobian_whose_squares_overflow_keeps_its_lower_radius_bound(self, scale):
        # ||J||_F overflowed to inf in np.linalg.norm, with a RuntimeWarning, and r_lo fell
        # to 0; the search then halved down from ||F|| / L2 and stopped after 201 solves
        res = _as_in_run(solve_half_step_p2, [1.0, 1.0], (scale * np.eye(2)).tolist(), 1.0, [0.0, 0.0])
        assert res.displacement_norm == pytest.approx(math.sqrt(2.0) / scale, rel=1e-12)
        assert res.residual_norm <= halfstep.MODEL_RTOL * math.sqrt(2.0)
        # 3 at 1e150; above ~1e154 the secular fit's a * a overflowed, and every
        # step bisected: 41 solves at 1e200 and 42 at 1e300
        assert res.iterations_used <= 3

    def test_rotation_radius(self):
        # skew J: ||d(r)||^2 = 1/(r^2+1), so r^4 + r^2 = 1
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = solve_half_step_p2([1.0, 0.0], J.tolist(), 1.0, [0.0, 0.0])
        assert res.displacement_norm == pytest.approx(np.sqrt(GOLDEN), abs=1e-9)

    def test_residual_certificate_random_operators(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            J = rng.uniform(-3, 3, size=(2, 2))
            F = rng.uniform(-2, 2, size=2)
            L2 = 10 ** rng.uniform(-0.5, 1.5)
            z = rng.uniform(-1, 1, size=2)
            res = solve_half_step_p2(F.tolist(), J.tolist(), L2, z.tolist())
            recomputed = np.linalg.norm(_model(F, J, L2, 2, np.array(res.z_half) - z))
            assert recomputed <= 1e-10 * max(1.0, np.linalg.norm(F)) * (1 + 1e-9)
            assert res.displacement_norm == pytest.approx(np.linalg.norm(np.array(res.z_half) - z), rel=1e-12)

    def test_singular_jacobian_at_origin(self):
        # J singular, regularization still yields a root
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        F = np.array([0.5, 0.5])
        res = solve_half_step_p2(F.tolist(), J.tolist(), 2.0, [0.0, 0.0])
        assert np.linalg.norm(_model(F, J, 2.0, 2, np.array(res.z_half))) <= 1e-10

    def test_failures_are_typed_and_carry_the_residual(self, monkeypatch):
        F, J = [1.0, 0.0], np.eye(2).tolist()
        monkeypatch.setattr(halfstep, "MAX_TRIALS", 1)
        with pytest.raises(ConvergenceError) as no_convergence:
            solve_half_step_p2(F, J, 1.0, [0.0, 0.0])
        monkeypatch.undo()
        assert 1e-10 < no_convergence.value.residual < np.inf

        with pytest.raises(ConvergenceError, match="not finite"):
            solve_half_step_p2([np.nan, 1.0], J, 1.0, [0.0, 0.0])

        # every trial radius singular: the solve gives its singular signal
        monkeypatch.setattr(halfstep, "_shifted_solve", lambda A, b, shift: None)
        with pytest.raises(ConvergenceError, match="60 doublings") as no_bracket:
            solve_half_step_p2(F, J, 1.0, [0.0, 0.0])
        assert no_bracket.value.residual == np.inf

    @pytest.mark.parametrize("F, J, pole", [
        ((2.0, 0.0), ((0.0, 0.0), (1e-6, -2.0)), 2.0),
        ((1.0, 1.7e-12), ((0.0, 1.0), (0.0, -1.0)), 1.0),
    ])
    def test_steep_root_between_adjacent_radii(self, F, J, pole):
        # J has eigenvalue -pole = -L2 * hi0 (up to 1e-12), and its weak coupling
        # puts the bracket's root within 1e-6 of that pole, where g jumps by
        # 2e-9 to 1e-4 between adjacent doubles; the chord between them solves the model
        F, J = np.array(F), np.array(J)
        res = solve_half_step_p2(F.tolist(), J.tolist(), 1.0, [0.0, 0.0])
        assert pole < res.displacement_norm < pole + 1e-6
        d = np.array(res.z_half)
        assert np.linalg.norm(F + J @ d + np.linalg.norm(d) * d) <= 1e-10
        # one solve per trial radius keeps the creep towards the pole under 60 solves
        assert res.iterations_used <= 60

    def test_a_root_beside_a_pole_is_pinned_by_its_bracket(self):
        # J + L2 r I is singular at r = 0.5, and the root sits 1.07e-7 above it,
        # where the gap moves by 2.9e-10 per double of r: no double has a gap
        # within GAP_RTOL r = 5e-11, and the returned one is within a double of the root
        F = np.array([0.0, 0.0, 0.5])
        J = np.array([[-0.5, 0.0, 1.192092896e-07], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        res = solve_half_step_p2(F.tolist(), J.tolist(), 1.0, [0.0] * 3)
        r, d = res.displacement_norm, np.array(res.z_half)
        assert 0.5 < r < 0.5 + 2e-7
        assert res.residual_norm <= MODEL_RTOL
        radius = -float((d / r) @ (F + J @ d)) / r
        assert GAP_RTOL * radius < abs(r - radius) <= _one_double_of_gap(J, 1.0, radius, d)

    def test_solve_count_on_modified_forsaken(self):
        # secular interpolation needs about 4 solves per half-step, one per
        # trial radius; bisection alone needs ~41
        config = SolverConfig(2, 50000.0, 300, np.array([0.5, -0.5]))
        log = run(builtin("modified_forsaken"), config)
        assert len(log.records) == 301
        assert np.mean([rec.subproblem_iters for rec in log.records]) <= 5

    def test_a_scalar_jacobian_takes_three_solves(self):
        # J = cI makes 1/||d(r)|| = (c + L2 r) / ||F|| exactly linear, so the
        # first interpolated radius is the root: hi, r_lo and that root
        res = solve_half_step_p2([3.0, 4.0], (2.0 * np.eye(2)).tolist(), 1.0, [0.0, 0.0])
        assert res.iterations_used == 3
        assert res.displacement_norm == pytest.approx(math.sqrt(6.0) - 1.0, rel=1e-12)


# Random order-2 models for the radius-root properties at d = 2..6: J with
# arbitrary (often indefinite) symmetric part, and J = B B^T + c S, S skew, with
# PSD symmetric part.  Subnormal entries carry too few digits for a 1e-10
# relative radius.
_coord = st.floats(-2.0, 2.0, allow_subnormal=False)
_entry = st.floats(-3.0, 3.0, allow_subnormal=False)
_lipschitz = st.floats(-0.5, 1.5).map(lambda e: 10.0**e)
_DIMS = pytest.mark.parametrize("d", range(2, 7))
_property = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# strategies are built once per size: building one per draw costs more than the draw
@functools.cache
def _vectors(d, elements=_coord):
    return st.lists(elements, min_size=d, max_size=d).map(np.array)


@functools.cache
def _matrices(d, elements=_entry):
    return st.lists(elements, min_size=d * d, max_size=d * d).map(lambda v: np.reshape(v, (d, d)))


@functools.cache
def _monotone(d):
    skew = np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)
    return st.tuples(_matrices(d), _entry).map(lambda m: m[0] @ m[0].T + m[1] * skew)


def _draw_model(data, d, matrices=_matrices):
    F = data.draw(_vectors(d), label="F")
    assume(np.any(F != 0.0))
    return F, data.draw(matrices(d), label="J"), data.draw(_lipschitz, label="L2")


def _norm(v):
    # np.linalg.norm squares the entries and returns 0 below ~1e-154
    return math.hypot(*v)


def _index_order(J, d):
    """J d with the products of each row added in index order from the first, as the half-step adds them."""
    sums = []
    for row in J.tolist():
        s = row[0] * d[0]
        for a, x in zip(row[1:], d[1:]):
            s += a * x
        sums.append(s)
    return np.array(sums)


def _gap(F, J, L2, r):
    """||d(r)|| - r, with a singular shift counting as a positive gap."""
    try:
        return _norm(np.linalg.solve(J + L2 * r * np.eye(len(F)), -F)) - r
    except np.linalg.LinAlgError:
        return np.inf


def _one_double_of_gap(J, L2, r, d):
    """How far the gap g = ||d(r)|| - r moves between r and its neighbouring double.

    d'(r) = -L2 (J + L2 r I)^{-1} d, so |g'(r)| <= L2 ||(J + L2 r I)^{-1} d|| + 1.
    Beside a pole of J + L2 r I the gap can move by more than GAP_RTOL r per
    double, and then no double meets the gap test: the bracket pins r instead.
    """
    return (L2 * _norm(np.linalg.solve(J + L2 * r * np.eye(len(d)), d)) + 1.0) * math.ulp(r)


def _first_doubling_bracket(F, J, L2):
    lo, hi = 0.0, _norm(F) / L2 + 1e-12
    while _gap(F, J, L2, hi) > 0:
        lo, hi = hi, 2.0 * hi
    return lo, hi


class TestOrder2RadiusRoot:
    @_DIMS
    @_property
    @given(data=st.data())
    def test_certificate_and_radius_gap(self, d, data):
        F, J, L2 = _draw_model(data, d)
        res = solve_half_step_p2(F.tolist(), J.tolist(), L2, [0.0] * d)
        step = np.array(res.z_half)
        norm_d = _norm(step)
        assert norm_d == res.displacement_norm
        residual = _norm(F + _index_order(J, step) + L2 * norm_d * step)
        assert residual == res.residual_norm <= 1e-10 * max(1.0, _norm(F))
        # the radius r with (J + L2 r I) step = -F, recovered up to its rounding error
        radius = -float((step / norm_d) @ (F + J @ step)) / (L2 * norm_d)
        rounding = 64 * np.finfo(float).eps * (
            _norm(F) + (np.linalg.norm(J) + L2 * norm_d) * norm_d) / (L2 * norm_d)
        if abs(norm_d - radius) > 1e-10 * radius + rounding:
            # beside a pole no double may meet the gap test, and the bracket pins r
            # (test_a_root_beside_a_pole_is_pinned_by_its_bracket); r is then within a double
            one_double = _one_double_of_gap(J, L2, radius, step)
            assert GAP_RTOL * radius < one_double and abs(norm_d - radius) <= one_double

    @_DIMS
    @_property
    @given(data=st.data())
    def test_root_lies_in_first_doubling_bracket(self, d, data):
        F, J, L2 = _draw_model(data, d)
        lo, hi = _first_doubling_bracket(F, J, L2)
        r = solve_half_step_p2(F.tolist(), J.tolist(), L2, [0.0] * d).displacement_norm
        assert lo * (1 - 2e-10) <= r <= hi * (1 + 2e-10)

    @_DIMS
    @_property
    @given(data=st.data())
    def test_monotone_root_matches_bisection_oracle(self, d, data):
        F, J, L2 = _draw_model(data, d, _monotone)
        # sym(J) PSD: ||d(r)|| <= ||F|| / (L2 r), so the unique root is below sqrt(||F|| / L2)
        lo, hi = 0.0, np.sqrt(_norm(F) / L2)
        while hi - lo > 1e-15 * hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if _gap(F, J, L2, mid) > 0 else (lo, mid)
        r = solve_half_step_p2(F.tolist(), J.tolist(), L2, [0.0] * d).displacement_norm
        assert r == pytest.approx(0.5 * (lo + hi), rel=1e-9)


# F = (1, 1) with J = cI: the root is known in closed form for every scale of L2 and c
_extreme_scales = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _scaled_identity_radius(norm_F, c, L2):
    """The root r of L2 r^2 + c r - ||F|| = 0, the half-step radius for J = cI, scaled to stay in range."""
    s = max(c, math.sqrt(L2) * math.sqrt(norm_F))
    return 2.0 * (norm_F / s) / (c / s + math.hypot(c / s, 2.0 * (math.sqrt(L2) * math.sqrt(norm_F) / s)))


def _check_scaled_identity_half_step(c, L2):
    F = np.array([1.0, 1.0])
    res = _as_in_run(solve_half_step_p2, F.tolist(), (c * np.eye(2)).tolist(), L2, [0.0, 0.0])
    d = np.array(res.z_half)
    r = _scaled_identity_radius(_norm(F), c, L2)
    assert abs(_norm(d) - r) <= GAP_RTOL * r
    assert _norm(F + c * d + L2 * _norm(d) * d) <= MODEL_RTOL * max(1.0, _norm(F))
    # 1/||d(r)|| is linear in r, so the first secular step is the root: hi, r_lo and that root
    assert res.iterations_used <= 3


@_extreme_scales
@given(st.floats(-300.0, math.log10(1.7e308)).map(lambda e: min(10.0**e, 1.7e308)))
@example(1e-300)
@example(1.7e308)  # 4 L2 ||F|| overflowed, r_lo fell to 0, and 201 solves ended in ConvergenceError
def test_the_half_step_meets_its_certificate_for_every_lipschitz_scale(L2):
    _check_scaled_identity_half_step(1.0, L2)


@_extreme_scales
@given(st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
@example(1e-300)
@example(1e300)  # the secular fit's a * a overflowed, and every step bisected: 42 solves
def test_the_half_step_meets_its_certificate_for_every_jacobian_scale(c):
    _check_scaled_identity_half_step(c, 1.0)


# The trial-radius solve against LAPACK's, for d = 1..8.
_SIZES = pytest.mark.parametrize("d", range(1, 9))
_kernel = settings(max_examples=50, deadline=None, derandomize=True, database=None)
_unit = st.floats(-1.0, 1.0, allow_subnormal=False)  # OpenBLAS scales by 1/pivot, inf at a subnormal pivot
# entries a Python float computation must survive without ZeroDivisionError or OverflowError
_extreme = st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 1e308, math.nan, math.inf, -math.inf, 0.0, -0.0])
_wild = st.one_of(_extreme, st.floats(-3.0, 3.0))
EPS = np.finfo(float).eps


@_SIZES
@_kernel
@given(data=st.data())
def test_shifted_solve_matches_lapack_within_its_error_bound(d, data):
    A = data.draw(_matrices(d, _unit), label="A")
    b = data.draw(_vectors(d, _unit), label="b")
    shift = data.draw(st.floats(-4.0, 4.0), label="shift")
    M = A + shift * np.eye(d)
    cond = np.linalg.cond(M)
    assume(cond < 1e8)
    x = halfstep._shifted_solve(A.tolist(), b.tolist(), shift)
    reference = np.linalg.solve(M, b)
    # Each solve's relative error is about 3 d eps cond times the pivot growth,
    # which partial pivoting keeps <= 2^(d-1); random systems give <= 1.6 eps cond
    bound = 2 * 3 * d * 2 ** (d - 1) * EPS * cond
    assert x is not None
    assert _norm(np.array(x) - reference) <= bound * _norm(reference)


@_SIZES
@_kernel
@given(data=st.data())
def test_an_exactly_zero_pivot_is_singular_here_and_in_lapack(d, data):
    A = data.draw(_matrices(d, _unit), label="A")
    b = data.draw(_vectors(d, _unit), label="b")
    k = data.draw(st.integers(0, d - 1), label="k")
    if data.draw(st.booleans(), label="column"):
        A[:, k] = 0.0   # column k never gets a nonzero entry: its pivot is exactly 0
    else:
        A[k, :] = 0.0   # row k stays 0 under elimination and ends as a 0 pivot
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, b)
    assert halfstep._shifted_solve(A.tolist(), b.tolist(), 0.0) is None


@_SIZES
@_kernel
@given(data=st.data())
def test_shifted_solve_survives_extreme_entries(d, data):
    # Python floats raise ZeroDivisionError on x / 0 and OverflowError in **,
    # where numpy gives inf or nan; the solve divides only by nonzero pivots
    A = data.draw(_matrices(d, _wild), label="A").tolist()
    b = data.draw(_vectors(d, _wild), label="b").tolist()
    x = halfstep._shifted_solve(A, b, data.draw(_wild, label="shift"))
    assert x is None or len(x) == d


@pytest.mark.parametrize("d", [2, 3, 6])
@_kernel
@given(data=st.data())
def test_extreme_entries_end_the_half_step_in_a_typed_error(d, data):
    F = data.draw(_vectors(d, _wild), label="F")
    J = data.draw(_matrices(d, _wild), label="J")
    L2 = data.draw(_lipschitz, label="L2")
    if not (np.isfinite(F).all() and np.isfinite(J).all()):
        with pytest.raises(ConvergenceError, match="not finite") as failure:
            solve_half_step_p2(F.tolist(), J.tolist(), L2, [0.0] * d)
        assert failure.value.residual == np.inf
        return
    # finite entries near the float range overflow numpy's norms and products
    # to inf, with a RuntimeWarning that is not the property under test
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            solve_half_step_p2(F.tolist(), J.tolist(), L2, [0.0] * d)
        except ConvergenceError:
            pass
