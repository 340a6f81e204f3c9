import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (
    DegenerateSampleError,
    NumericError,
    Operator,
    OperatorMode,
    ProblemSpec,
    SolverConfig,
    builtin,
    certify_problem,
    check_half_step_norm_bound,
    check_potential_inequality,
    check_rho_threshold,
    estimate_q_rho,
    estimate_weak_mvi_rho,
    eval_jacobian,
    eval_operator,
    fit_rate,
    problem_names,
    run,
)
from hoeg.certify import (
    POTENTIAL_COEF,
    SKIP_NORM,
    RhoScan,
    _comonotonicity,
    _evaluated_pairs,
    _rho_scan,
    _smoothness,
    decoupled_threshold_report,
    sample_pairs,
    sample_points,
)
from hoeg import certify as certify_module
from hoeg.solver import TrajectoryLog


def column_log(op_norms):
    """A log built from columns, with the given operator norms and placeholder rows."""
    n = len(op_norms)
    return TrajectoryLog(np.zeros((n, 2)), np.zeros((n, 2)), np.full(n, 0.5), np.ones(n),
                         np.asarray(op_norms, dtype=float), np.zeros(n), np.zeros(n, dtype=np.int64),
                         np.zeros(2), 0, "budget_exhausted")


def standard_run(name, p, L, z0, K, alpha=None):
    mode = OperatorMode.standard() if alpha is None else OperatorMode.competitive(alpha)
    return run(builtin(name), SolverConfig(p, L, K, np.array(z0), operator_mode=mode))


class TestRhoEstimates:
    def test_monotone_problems_have_nonpositive_rho(self):
        for name in ("quadratic_monotone", "bilinear"):
            p = builtin(name)
            assert estimate_weak_mvi_rho(p, p.z_star, 1, 5000, seed=7) <= 0.0

    def test_forsaken_standard_field_fails_threshold(self):
        p = builtin("forsaken")
        rho = estimate_weak_mvi_rho(p, p.z_star, 1, 20000, seed=7)
        assert rho > 0
        assert not check_rho_threshold(rho, 1, 20.0)

    def test_forsaken_competitive_field_satisfies_mvi(self):
        p = builtin("forsaken")
        for alpha in (2.0, 10.0):
            rho = estimate_weak_mvi_rho(p, p.z_star, 1, 20000, seed=7,
                                        mode=OperatorMode.competitive(alpha))
            assert rho <= 0.0

    def test_q_variant_reproduces_order_form_bitwise(self):
        p = builtin("modified_forsaken")
        for order in (1, 2):
            a = estimate_weak_mvi_rho(p, p.z_star, order, 3000, seed=3)
            b = estimate_q_rho(p, p.z_star, (order + 1) / order, 3000, seed=3)
            assert a == b

    def test_quadratic_q2_nonpositive(self):
        p = builtin("quadratic_monotone")
        assert estimate_q_rho(p, p.z_star, 2.0, 3000, seed=1) <= 0.0

    def test_monotone_in_sample_count(self):
        p = builtin("modified_forsaken")
        values = [estimate_weak_mvi_rho(p, p.z_star, 1, n, seed=11) for n in (500, 1000, 2000, 4000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_comonotone_toy_matches_analytic_constant(self):
        p = builtin("comonotone_toy")
        rho = estimate_weak_mvi_rho(p, p.z_star, 1, 2000, seed=0)
        assert rho == pytest.approx(2 * 0.2 / 1.04, abs=1e-12)

    def test_degenerate_when_field_is_zero(self):
        from hoeg import ProblemSpec
        zero = ProblemSpec(
            name="zero", d_x=1, d_y=1, f=lambda z: 0.0,
            grad_x=lambda z: np.zeros(1), grad_y=lambda z: np.zeros(1),
            z_star=np.zeros(2), sample_box=np.array([[-1, 1], [-1, 1]]),
        )
        with pytest.raises(DegenerateSampleError):
            estimate_weak_mvi_rho(zero, zero.z_star, 1, 100, seed=0)

    def test_mforsaken_sampler_matches_dense_grid(self):
        # brute-force oracle: 400x400 grid of the q=2 violation ratio
        p = builtin("modified_forsaken")
        z_star = p.z_star
        axis = np.linspace(-2.0, 2.0, 400)
        best = -np.inf
        for x in axis:
            for y in axis:
                z = np.array([x, y])
                F = eval_operator(p, z)
                norm = np.linalg.norm(F)
                if norm < 1e-10:
                    continue
                best = max(best, -2.0 * float(np.sum(F * (z - z_star))) / norm**2)
        sampled = estimate_q_rho(p, z_star, 2.0, 20000, seed=7)
        assert abs(sampled - best) <= 0.05 * abs(best)


class TestRhoThreshold:
    def test_order1_example(self):
        assert check_rho_threshold(0.9, 1, 1.0)  # threshold 15/16

    def test_order2_example(self):
        assert not check_rho_threshold(1.0, 2, 2.0)  # threshold (15/16) (2/2)^{3/2}

    def test_zero_rho_always_passes(self):
        for p in (1, 2, 3):
            for L in (0.1, 1.0, 1e5):
                assert check_rho_threshold(0.0, p, L)


class TestSmoothness:
    def test_identity_field_constant_is_one(self):
        p = builtin("quadratic_monotone")
        assert _smoothness(p, 1, _evaluated_pairs(p, 2000, seed=0)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_field_has_zero_second_order_constant(self):
        p = builtin("bilinear")
        assert _smoothness(p, 2, _evaluated_pairs(p, 2000, seed=0)) <= 1e-9

    def test_x2y_matches_pair_grid_oracle(self):
        # oracle: all ordered pairs from two offset lattices of 200 points each
        p = builtin("x2y")

        def lattice(n, offset):
            side = int(round(math.sqrt(n)))
            axis = np.linspace(-1.0, 1.0, side)
            pts = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
            return np.clip(pts + offset, -1.0, 1.0)

        A, B = lattice(200, 0.0), lattice(200, 1e-3)
        oracle = 0.0
        for a in A:
            Fa = eval_operator(p, a)
            for b in B:
                gap = np.linalg.norm(b - a)
                if gap < 1e-12:
                    continue
                oracle = max(oracle, np.linalg.norm(eval_operator(p, b) - Fa) / gap)
        sampled = _smoothness(p, 1, _evaluated_pairs(p, 4000, seed=5))
        assert abs(sampled - oracle) <= 0.1 * oracle


def test_comonotonicity_estimate_is_exact_on_the_toy():
    # the ratio is the same at every pair; short probe pairs add O(eps/gap) noise
    value = _comonotonicity(_evaluated_pairs(builtin("comonotone_toy"), 2000, seed=0))
    assert value == pytest.approx(-0.2 / 1.04, abs=1e-9)


class TestFitRate:
    def test_recovers_slope_minus_one(self):
        ks = np.arange(200)
        log = column_log(1.0 / np.sqrt(ks + 1.0))
        assert fit_rate(log) == pytest.approx(-1.0, abs=1e-6)

    def test_recovers_slope_minus_two(self):
        ks = np.arange(200)
        log = column_log(1.0 / (ks + 1.0))
        assert fit_rate(log) == pytest.approx(-2.0, abs=1e-6)

    def test_bilinear_beats_first_order_rate(self):
        log = standard_run("bilinear", 1, 1.0, (1.0, 0.0), 2000)
        assert fit_rate(log) <= -0.75

    def test_needs_enough_records(self):
        with pytest.raises(ValueError):
            fit_rate(column_log(np.ones(10)))


class TestPotentialInequality:
    def test_quadratic_every_prefix(self):
        p = builtin("quadratic_monotone")
        log = standard_run("quadratic_monotone", 1, 1.0, (1.0, 0.0), 100)
        report = check_potential_inequality(p, log, p.z_star, 1, 1.0)
        assert report.ok

    def test_modified_forsaken_every_prefix(self):
        p = builtin("modified_forsaken")
        log = standard_run("modified_forsaken", 1, 20.0, (0.5, -0.5), 2000)
        report = check_potential_inequality(p, log, p.z_star, 1, 20.0)
        assert report.ok

    def test_empty_log_vacuously_passes(self):
        p = builtin("quadratic_monotone")
        empty = column_log([])
        assert check_potential_inequality(p, empty, p.z_star, 1, 1.0).ok

    def test_coefficient_is_tight_on_the_identity_field(self):
        # the identity field consumes the entire ||z0 - z*||^2 budget in the
        # limit, so the margin shrinks to zero: the coefficient cannot grow
        assert POTENTIAL_COEF == 7.0 / 16.0
        p = builtin("quadratic_monotone")
        log = standard_run("quadratic_monotone", 1, 1.0, (1.0, 0.0), 150)
        report = check_potential_inequality(p, log, p.z_star, 1, 1.0)
        assert report.ok
        assert 0.0 <= report.min_margin <= 1e-6


def test_half_step_norm_bound_on_published_constants():
    log = standard_run("modified_forsaken", 2, 50000.0, (0.5, -0.5), 1000)
    assert check_half_step_norm_bound(log, 2, 50000.0).ok


def test_certify_report_roundtrip():
    report = certify_problem(builtin("quadratic_monotone"), 1, n_samples=2000, seed=7)
    assert report.rho_hat_p <= 0.0
    assert report.threshold_ok
    assert report.L_hat[1] == pytest.approx(1.0, abs=1e-9)
    payload = report.to_dict()
    assert payload["problem"] == "quadratic_monotone"
    assert payload["samples_used"] >= 1


def test_decoupled_report_fields():
    p = builtin("modified_forsaken")
    log = standard_run("modified_forsaken", 1, 20.0, (0.5, -0.5), 500)
    rho_q = estimate_q_rho(p, p.z_star, 2.0, 2000, seed=1)
    report = decoupled_threshold_report(p, log, 1, 2.0, 20.0, 20.0, rho_q)
    assert report["D"] > 0
    assert report["rho_hat_q"] > 0
    assert isinstance(report["ok"], bool)
    assert "threshold_reading" in report


def _quadratic(d_half):
    """Monotone quadratic 0.5 ||x||^2 - 0.5 ||y||^2 with d_x = d_y = d_half."""
    return ProblemSpec(
        name=f"quadratic_{2 * d_half}d", d_x=d_half, d_y=d_half,
        f=lambda z: 0.5 * float(z[:d_half] @ z[:d_half] - z[d_half:] @ z[d_half:]),
        grad_x=lambda z: z[:d_half].copy(),
        grad_y=lambda z: -z[d_half:],
        operator_jacobian=lambda z: np.eye(2 * d_half),
        z_star=np.zeros(2 * d_half),
        sample_box=np.tile([-1.0, 1.0], (2 * d_half, 1)),
    )


def test_certify_states_the_dimension_limit():
    # pairs draw two independent points per sample from the ten Halton bases
    with pytest.raises(ValueError, match=r"d <= 5, got d = 6"):
        certify_problem(_quadratic(3), 1, n_samples=200, seed=0)
    report = certify_problem(_quadratic(2), 1, n_samples=200, seed=0)
    assert report.rho_hat_p <= 0.0
    box = np.tile([-1.0, 1.0], (11, 1))
    with pytest.raises(ValueError, match=r"d <= 10, got d = 11"):
        sample_points(box, 10, seed=0)
    assert sample_points(box[:10], 10, seed=0).shape == (10, 10)


def _counting(problem):
    """The problem with grad_x (one per F evaluation) and operator_jacobian counted from 0."""
    calls = {"grad_x": 0, "operator_jacobian": 0}

    def counted(name):
        fn = getattr(problem, name)

        def call(z):
            calls[name] += 1
            return fn(z)
        return call

    counted_problem = dataclasses.replace(
        problem, **{name: counted(name) for name in calls if getattr(problem, name) is not None})
    calls.update(grad_x=0)  # ProblemSpec checks z_star with one evaluation
    return counted_problem, calls


def test_certify_validates_before_sampling():
    def certify(p=1, n_samples=200, q=None):
        return lambda problem: certify_problem(problem, p, q=q, n_samples=n_samples, seed=0)

    def q_rho(n_samples=200, q=2.0):
        return lambda problem: estimate_q_rho(problem, problem.z_star, q, n_samples, seed=0)

    def weak_mvi_rho(n_samples):
        return lambda problem: estimate_weak_mvi_rho(problem, problem.z_star, 1, n_samples, seed=0)

    boxless = dataclasses.replace(_quadratic(1), name="boxless", sample_box=None)
    cases = [
        (boxless, certify(), r"'boxless' has no sample_box"),
        (_quadratic(3), certify(), r"d <= 5, got d = 6"),
        (_quadratic(1), certify(p=0), r"order p = 0 is not supported \(have \(1, 2\)\)"),
        (_quadratic(1), certify(p=3), r"order p = 3 is not supported \(have \(1, 2\)\)"),
    ]
    for n_samples in (0, -5):
        message = f"n_samples must be a positive integer, got {n_samples}"
        cases += [(_quadratic(1), call(n_samples=n_samples), message) for call in (certify, q_rho)]
        cases.append((_quadratic(1), weak_mvi_rho(n_samples), message))
    for q in (math.nan, math.inf):
        cases += [(_quadratic(1), call(q=q), f"q must be finite, got {q}") for call in (certify, q_rho)]
    for problem, call, message in cases:
        problem, calls = _counting(problem)
        with pytest.raises(ValueError, match=message):
            call(problem)
        assert not any(calls.values())


def test_certify_needs_an_L_p_before_sampling():
    # no published L_2 and no analytic Jacobian to estimate one from
    problem, calls = _counting(dataclasses.replace(_quadratic(1), operator_jacobian=None))
    with pytest.raises(ValueError, match=r"no L_2 available for 'quadratic_2d'"):
        certify_problem(problem, 2, n_samples=200, seed=0)
    assert not any(calls.values())
    assert set(certify_problem(problem, 1, n_samples=200, seed=0).L_hat) == {1}


def test_weak_mvi_rho_checks_the_order():
    problem = builtin("x2y")
    with pytest.raises(ValueError, match=r"order p = 0 is not supported"):
        estimate_weak_mvi_rho(problem, problem.z_star, 0, 100, seed=0)


@pytest.mark.parametrize("n", [1000, 3000])
def test_certify_evaluates_each_pair_once(n):
    # two rho scans of n points, and F at both ends of m pairs shared by
    # L_1, L_2 and the comonotonicity constant; J only for L_2
    problem, calls = _counting(builtin("modified_forsaken"))
    certify_problem(problem, 1, n_samples=n, seed=0)
    m = max(200, n // 10)
    assert calls == {"grad_x": 2 * n + 2 * m, "operator_jacobian": m}


def test_certify_draws_the_scan_points_once(monkeypatch):
    # the two default-q scans read one draw of sample_points; each still evaluates F at all of it
    calls = {"sample_points": 0, "_rho_scan": 0}
    for name in calls:
        fn = getattr(certify_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(certify_module, name, counted)
    problem, f_calls = _counting(builtin("modified_forsaken"))
    certify_problem(problem, 1, n_samples=1000, seed=0)
    assert calls == {"sample_points": 1, "_rho_scan": 2}
    assert f_calls["grad_x"] == 2 * 1000 + 2 * 200


def test_a_non_finite_sample_names_the_first_such_point():
    problem, n, seed = builtin("modified_forsaken"), 500, 3
    points = sample_points(problem.sample_box, n, seed, problem.z_star)
    bad = [points[123], points[321]]
    grad_x = problem.grad_x

    def poisoned(z):
        return np.array([np.inf]) if any(np.array_equal(z, b) for b in bad) else grad_x(z)
    problem = dataclasses.replace(problem, grad_x=poisoned)
    with pytest.raises(NumericError, match=re.escape(f"'modified_forsaken' at {bad[0]}")):
        certify_problem(problem, 1, n_samples=n, seed=seed)


def test_a_gradient_block_of_the_wrong_shape_is_a_value_error():
    # F has d + 1 entries: a wrong split cannot hide in the total length
    problem = dataclasses.replace(builtin("x2y"), grad_y=lambda z: np.array([z[0] ** 2, 0.0]))
    with pytest.raises(ValueError, match=r"operator of 'x2y'"):
        certify_problem(problem, 1, n_samples=200, seed=0)


_property = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestHaltonPrefixStability:
    """The first m samples of a draw of n > m equal the m-sample draw with the same seed."""

    BOX = np.array([[-2.0, 2.0], [-1.0, 3.0]])

    @_property
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6), st.booleans())
    def test_sample_points(self, m, extra, seed, with_ball):
        z_star = np.array([0.3, 1.1]) if with_ball else None
        short = sample_points(self.BOX, m, seed, z_star)
        long = sample_points(self.BOX, m + extra, seed, z_star)
        assert np.array_equal(long[:m], short)

    @_property
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6))
    def test_sample_pairs(self, m, extra, seed):
        a_short, b_short = sample_pairs(self.BOX, m, seed)
        a_long, b_long = sample_pairs(self.BOX, m + extra, seed)
        assert np.array_equal(a_long[:m], a_short) and np.array_equal(b_long[:m], b_short)


def _scan_oracle(problem, z_star, q, n_samples, seed, mode=None):
    """The point-by-point rho scan that the array scan replaced, kept as its reference."""
    z_star = np.asarray(z_star, dtype=float)
    operator = Operator(problem, mode).at
    best, best_z, used = -np.inf, None, 0
    for z in sample_points(problem.sample_box, n_samples, seed, z_star):
        F = operator(z)
        norm = float(np.linalg.norm(F))
        if norm < SKIP_NORM:
            continue
        used += 1
        inner = float(np.sum(F * (z - z_star)))
        ratio = -2.0 * inner / norm**q
        if ratio > best:
            best, best_z = ratio, z
    return RhoScan(best, best_z, used)


def _smoothness_oracle(problem, p, n_pairs, seed):
    """The per-pair smoothness loop that the array estimate replaced."""
    a, b = sample_pairs(problem.sample_box, n_pairs, seed)
    best = 0.0
    for z_a, z_b in zip(a, b):
        gap = float(np.linalg.norm(z_b - z_a))
        if gap < 1e-12:
            continue
        expansion = eval_operator(problem, z_a)
        if p == 2:
            expansion = expansion + eval_jacobian(problem, z_a) @ (z_b - z_a)
        err = float(np.linalg.norm(eval_operator(problem, z_b) - expansion))
        best = max(best, err / gap**p)
    return math.factorial(p) * best


def _comonotonicity_oracle(problem, n_pairs, seed):
    """The per-pair comonotonicity loop that the array estimate replaced."""
    a, b = sample_pairs(problem.sample_box, n_pairs, seed)
    worst = np.inf
    for z_a, z_b in zip(a, b):
        dF = eval_operator(problem, z_a) - eval_operator(problem, z_b)
        denom = float(np.sum(dF * dF))
        if denom < SKIP_NORM**2:
            continue
        worst = min(worst, float(np.sum(dF * (z_a - z_b))) / denom)
    return worst


# bilinear's F is skew, so every standard ratio is exactly -0.0 and the first sample must win
_ORACLE_PROBLEMS = ("modified_forsaken", "forsaken", "x2y", "comonotone_toy", "bilinear")
_oracle_property = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestArrayEstimatesMatchThePointLoops:
    """The array estimators give bit-identical results to the per-point loops they replaced."""

    @_oracle_property
    @given(st.sampled_from(_ORACLE_PROBLEMS), st.integers(1, 1000), st.integers(0, 10**6),
           st.sampled_from([2.0, 1.5]) | st.floats(1.0, 3.0),
           st.none() | st.floats(0.01, 100.0))
    def test_rho_scan(self, name, n, seed, q, alpha):
        problem = builtin(name)
        mode = None if alpha is None else OperatorMode.competitive(alpha)
        oracle = _scan_oracle(problem, problem.z_star, q, n, seed, mode)
        points = sample_points(problem.sample_box, n, seed, problem.z_star)
        if oracle.samples_used == 0:
            with pytest.raises(DegenerateSampleError):
                _rho_scan(Operator(problem, mode), problem.z_star, q, points)
            return
        scan = _rho_scan(Operator(problem, mode), problem.z_star, q, points)
        assert scan.value == oracle.value
        assert np.array_equal(scan.worst_violator, oracle.worst_violator)
        assert scan.samples_used == oracle.samples_used

    @settings(_oracle_property, max_examples=30)
    @given(st.sampled_from(_ORACLE_PROBLEMS), st.integers(1, 600), st.integers(0, 10**6))
    def test_pair_estimates(self, name, n, seed):
        problem = builtin(name)
        pairs = _evaluated_pairs(problem, n, seed)
        for p in (1, 2):
            assert _smoothness(problem, p, pairs) == _smoothness_oracle(problem, p, n, seed)
        assert _comonotonicity(pairs) == _comonotonicity_oracle(problem, n, seed)


def _tall_block():
    """d_x = 2, d_y = 1: f = (x1^2 + x2^2 - y^2 + x1^2 y + x2 y^2) / 2, mixed Hessian (x1, y)^T."""
    return ProblemSpec(
        name="tall_block", d_x=2, d_y=1,
        f=lambda z: 0.5 * (z[0] ** 2 + z[1] ** 2 - z[2] ** 2 + z[0] ** 2 * z[2] + z[1] * z[2] ** 2),
        grad_x=lambda z: np.array([z[0] + z[0] * z[2], z[1] + 0.5 * z[2] ** 2]),
        grad_y=lambda z: np.array([-z[2] + 0.5 * z[0] ** 2 + z[1] * z[2]]),
        mixed_hessian=lambda z: np.array([[z[0]], [z[2]]]),
        z_star=np.zeros(3),
        sample_box=np.tile([-1.5, 1.5], (3, 1)),
    )


def test_competitive_scan_on_a_non_square_block_layout():
    # a transposed or misplaced block of the stacked M cannot show on the 1x1 built-ins
    problem, alpha, n, seed = _tall_block(), 3.0, 500, 4
    mode = OperatorMode.competitive(alpha)
    points = sample_points(problem.sample_box, n, seed, problem.z_star)
    rows = Operator(problem, mode).rows(points)
    assert rows.shape == (n, 3)
    for z, row in zip(points, rows):
        assert np.array_equal(row, Operator(problem, mode).at(z))
    # the standard rows split F into its (2, 1) blocks
    rows = Operator(problem, None).rows(points)
    assert rows.shape == (n, 3)
    for z, row in zip(points, rows):
        assert np.array_equal(row, eval_operator(problem, z))
    report = certify_problem(problem, 1, mode=mode, n_samples=n, seed=seed)
    oracle = _scan_oracle(problem, problem.z_star, 2.0, n, seed, mode)
    assert (report.rho_hat_p, report.samples_used) == (oracle.value, oracle.samples_used)
    assert np.array_equal(report.worst_violator, oracle.worst_violator)


@_oracle_property
@given(st.sampled_from(problem_names() + ["tall_block"]), st.none() | st.floats(0.0, 100.0),
       st.integers(1, 50), st.integers(0, 10**6))
def test_operator_rows_are_its_points_bit_for_bit(name, alpha, n, seed):
    problem = _tall_block() if name == "tall_block" else builtin(name)
    operator = Operator(problem, OperatorMode(alpha))
    box = problem.sample_box
    points = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], (n, problem.d))
    for z, row in zip(points, operator.rows(points)):
        assert row.tobytes() == operator.at(z).tobytes()
