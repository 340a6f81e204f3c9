import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    fit_rate,
    problem_names,
    run,
)
from hoeg.certify import (
    _BALL_TIER,
    _MAX_TIER,
    POTENTIAL_COEF,
    SKIP_NORM,
    PrefixReport,
    RhoScan,
    _comonotonicity,
    _evaluated_pairs,
    _halton_box,
    _rho_scan,
    _smoothness,
    decoupled_threshold_report,
    sample_pairs,
    sample_points,
)
from hoeg import certify as certify_module
from hoeg.solver import TrajectoryLog
from test_problems import _tall_block


def column_log(op_norms):
    """A log of quadratic_monotone built from columns, with the given operator norms and placeholder rows."""
    n = len(op_norms)
    return TrajectoryLog(builtin("quadratic_monotone"), SolverConfig(1, 1.0, max(n - 1, 1), np.zeros(2)),
                         np.zeros((n, 2)), np.zeros((n, 2)), np.full(n, 0.5), np.ones(n),
                         np.asarray(op_norms, dtype=float), np.zeros(n), np.zeros(n, dtype=np.int64),
                         np.zeros(2), 0, "budget_exhausted")


def standard_run(name, p, L, z0, K, alpha=None):
    mode = OperatorMode.standard() if alpha is None else OperatorMode.competitive(alpha)
    return run(builtin(name), SolverConfig(p, L, K, np.array(z0), operator_mode=mode))


class TestRhoEstimates:
    def test_monotone_problems_have_nonpositive_rho(self):
        for name in ("quadratic_monotone", "bilinear"):
            p = builtin(name)
            assert certify_problem(p, 1, q=2.0, n_samples=5000, seed=7).rho_hat_q <= 0.0

    def test_forsaken_standard_field_fails_threshold(self):
        p = builtin("forsaken")
        rho = certify_problem(p, 1, q=2.0, n_samples=20000, seed=7).rho_hat_q
        assert rho > 0
        assert not check_rho_threshold(rho, 1, 20.0)

    def test_forsaken_competitive_field_satisfies_mvi(self):
        p = builtin("forsaken")
        for alpha in (2.0, 10.0):
            rho = certify_problem(p, 1, q=2.0, n_samples=20000, seed=7,
                                  mode=OperatorMode.competitive(alpha)).rho_hat_q
            assert rho <= 0.0

    def test_quadratic_q2_nonpositive(self):
        p = builtin("quadratic_monotone")
        assert certify_problem(p, 1, q=2.0, n_samples=3000, seed=1).rho_hat_q <= 0.0

    def test_monotone_in_sample_count(self):
        p = builtin("modified_forsaken")
        values = [certify_problem(p, 1, q=2.0, n_samples=n, seed=11).rho_hat_q
                  for n in (500, 1000, 2000, 4000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_comonotone_toy_matches_analytic_constant(self):
        p = builtin("comonotone_toy")
        rho = certify_problem(p, 1, q=2.0, n_samples=2000, seed=0).rho_hat_q
        assert rho == pytest.approx(2 * 0.2 / 1.04, abs=1e-12)

    def test_degenerate_when_field_is_zero(self):
        from hoeg import ProblemSpec
        zero = ProblemSpec(
            name="zero", d_x=1, d_y=1,
            grad_x=lambda z: np.zeros(1), grad_y=lambda z: np.zeros(1),
            z_star=np.zeros(2), sample_box=np.array([[-1, 1], [-1, 1]]),
        )
        with pytest.raises(DegenerateSampleError):
            certify_problem(zero, 1, q=2.0, n_samples=100, seed=0).rho_hat_q

    def test_a_field_constant_off_z_star_has_a_rho_but_no_report(self):
        # the rho scan gives -2 max(-x) over the points; certify_problem also needs
        # a pair whose field difference reaches SKIP_NORM, and this field has none
        step = ProblemSpec(
            name="step", d_x=1, d_y=1,
            grad_x=lambda z: np.array([float(z.any())]), grad_y=lambda z: np.zeros(1),
            z_star=np.zeros(2), sample_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )
        points = sample_points(step.sample_box, 100, 0, step.z_star)
        scan = _rho_scan(Operator(step), step.z_star, 2.0, points)
        assert scan.value == float(np.max(-2.0 * points[points.any(axis=1), 0])) > 0
        with pytest.raises(DegenerateSampleError, match="no pair produced a usable field difference"):
            certify_problem(step, 1, q=2.0, n_samples=100, seed=0)

    def test_mforsaken_sampler_matches_dense_grid(self):
        # brute-force oracle: 400x400 grid of the q=2 violation ratio
        p = builtin("modified_forsaken")
        z_star = p.z_star
        axis = np.linspace(-2.0, 2.0, 400)
        best = -np.inf
        for x in axis:
            for y in axis:
                z = np.array([x, y])
                F = Operator(p).at(z)
                norm = np.linalg.norm(F)
                if norm < 1e-10:
                    continue
                best = max(best, -2.0 * float(np.sum(F * (z - z_star))) / norm**2)
        sampled = certify_problem(p, 1, q=2.0, n_samples=20000, seed=7).rho_hat_q
        assert abs(sampled - best) <= 0.05 * abs(best)


class TestRhoThreshold:
    def test_order1_example(self):
        assert check_rho_threshold(0.9, 1, 1.0)  # threshold 15/16

    def test_order2_example(self):
        assert not check_rho_threshold(1.0, 2, 2.0)  # threshold (15/16) (2/2)^{3/2}

    def test_zero_rho_always_passes(self):
        for p in (1, 2):  # the supported orders; p = 3 is a ValueError (test_halfstep)
            for L in (0.1, 1.0, 1e5):
                assert check_rho_threshold(0.0, p, L)

    def test_a_threshold_past_the_float_range_is_a_verdict(self):
        # (p! / L_p)^((p+1)/p) is a Python float power, which raised OverflowError
        for p, L in ((1, 1e-200), (2, 1e-300), (1, 5e-324), (1, np.float64(1e-310)), (2, np.float32(1e-30))):
            assert check_rho_threshold(0.1, p, L)
            assert check_rho_threshold(-1e308, p, L)
        assert not check_rho_threshold(0.1, 1, 10**400)  # and a huge one at 0
        assert not certify_module._below_threshold(math.inf, 1, 1e-200)
        assert not certify_module._below_threshold(math.nan, 1, 1e-200)
        tiny = dataclasses.replace(builtin("quadratic_monotone"), published_constants={1: 1e-200})
        report = certify_problem(tiny, 1, n_samples=200, seed=0)
        assert report.threshold_ok and report.threshold_Lp == 1e-200

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 2]), st.floats(-300.0, 300.0), st.floats(-300.0, 300.0), st.booleans())
    def test_the_verdict_is_the_log_space_comparison(self, p, log10_Lp, log10_rho, negative):
        Lp, rho = 10.0**log10_Lp, (-1.0 if negative else 1.0) * 10.0**log10_rho
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or underflow warning either
            verdict = check_rho_threshold(rho, p, Lp)
        assert verdict.__class__ is bool
        if rho <= 0.0:
            assert verdict
            return
        margin = math.log(15.0 / 16.0) + (p + 1) / p * math.log(math.factorial(p) / Lp) - math.log(rho)
        assume(abs(margin) > 1e-12)
        assert verdict == (margin >= 0.0)

    def test_a_report_from_numpy_constants_is_json(self):
        # threshold_ok was an np.bool_, which json.dumps rejects
        x2y = dataclasses.replace(builtin("x2y"), published_constants={1: np.float64(20.0), 2: np.float64(500.0)})
        report = certify_problem(x2y, 2, n_samples=500, seed=0)
        assert report.threshold_ok.__class__ is bool
        assert json.loads(json.dumps(report.to_dict()))["threshold_Lp"] == 500.0


class TestSmoothness:
    def test_identity_field_constant_is_one(self):
        p = builtin("quadratic_monotone")
        assert _smoothness(Operator(p), 1, _evaluated_pairs(Operator(p), 2000, seed=0)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_field_has_zero_second_order_constant(self):
        p = builtin("bilinear")
        assert _smoothness(Operator(p), 2, _evaluated_pairs(Operator(p), 2000, seed=0)) <= 1e-9

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
            Fa = Operator(p).at(a)
            for b in B:
                gap = np.linalg.norm(b - a)
                if gap < 1e-12:
                    continue
                oracle = max(oracle, np.linalg.norm(Operator(p).at(b) - Fa) / gap)
        sampled = _smoothness(Operator(p), 1, _evaluated_pairs(Operator(p), 4000, seed=5))
        assert abs(sampled - oracle) <= 0.1 * oracle


@pytest.mark.parametrize("name,order", [("x2y", 1), ("x2y", 2), ("modified_forsaken", 1), ("forsaken", 2)])
def test_model_error_bounded_by_sampled_constant(name, order):
    # remainder of the degree-(p-1) expansion stays below the sampled L_p
    p = builtin(name)
    L_hat = 1.05 * _smoothness(Operator(p), order, _evaluated_pairs(Operator(p), 4000, seed=5))
    rng = np.random.default_rng(17)
    lo, hi = p.sample_box[:, 0], p.sample_box[:, 1]
    fact = 1.0 if order == 1 else 2.0
    for _ in range(200):
        z_a = lo + (hi - lo) * rng.random(p.d)
        z_b = lo + (hi - lo) * rng.random(p.d)
        expansion = Operator(p).at(z_a)
        if order == 2:
            expansion = expansion + Operator(p).jacobian(z_a) @ (z_b - z_a)
        err = np.linalg.norm(Operator(p).at(z_b) - expansion)
        assert err <= (L_hat / fact) * np.linalg.norm(z_b - z_a) ** order + 1e-12


def test_comonotonicity_estimate_is_exact_on_the_toy():
    # the ratio is the same at every pair; short probe pairs add O(eps/gap) noise
    value = _comonotonicity(_evaluated_pairs(Operator(builtin("comonotone_toy")), 2000, seed=0))
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

    def test_a_square_that_overflows_in_the_fitted_half_is_a_value_error(self):
        # ||F|| stays near 1e156 on the bilinear run from (1e160, 1e160), so every square is inf
        log = run(builtin("bilinear"), SolverConfig(1, 1.0, 100, (1e160, 1e160)))
        assert np.isinf(log.running_min_sq()[50:]).all()
        with pytest.raises(ValueError, match="not finite"):
            fit_rate(log)


class TestPotentialInequality:
    def test_quadratic_every_prefix(self):
        log = standard_run("quadratic_monotone", 1, 1.0, (1.0, 0.0), 100)
        report = check_potential_inequality(log)
        assert report.ok

    def test_modified_forsaken_every_prefix(self):
        log = standard_run("modified_forsaken", 1, 20.0, (0.5, -0.5), 2000)
        report = check_potential_inequality(log)
        assert report.ok

    def test_empty_log_vacuously_passes(self):
        empty = column_log([])
        assert check_potential_inequality(empty).ok

    def test_coefficient_is_tight_on_the_identity_field(self):
        # the identity field consumes the entire ||z0 - z*||^2 budget in the
        # limit, so the margin shrinks to zero: the coefficient cannot grow
        assert POTENTIAL_COEF == 7.0 / 16.0
        log = standard_run("quadratic_monotone", 1, 1.0, (1.0, 0.0), 150)
        report = check_potential_inequality(log)
        assert report.ok
        assert 0.0 <= report.min_margin <= 1e-6


def test_half_step_norm_bound_on_published_constants():
    log = standard_run("modified_forsaken", 2, 50000.0, (0.5, -0.5), 1000)
    assert check_half_step_norm_bound(log).ok


def _potential_oracle(problem, log, z_star, p, Lp, mode=None):
    """The row-by-row potential check that the column check replaced, kept as its reference."""
    z_star = np.asarray(z_star, dtype=float)
    operator = Operator(problem, mode).at
    z0 = log.z[0]
    budget = float(np.sum((z_star - z0) ** 2))
    slack = 1e-8 * (1.0 + budget)
    coef = math.factorial(p) / Lp
    lhs = 0.0
    disp_sq = 0.0
    min_margin = math.inf
    first_violation = None
    rows = zip(log.z_half, log.lambda_k.tolist(), log.displacement_norm.tolist())
    for k, (z_half, lam, r) in enumerate(rows):
        F_half = operator(z_half)
        lhs += lam * coef * float(np.sum(F_half * (z_half - z_star)))
        disp_sq += r**2
        margin = (budget - POTENTIAL_COEF * disp_sq) - lhs
        if margin < min_margin:
            min_margin = margin
        if margin < -slack and first_violation is None:
            first_violation = k
    return first_violation is None, first_violation, min_margin, slack


def _half_step_bound_oracle(log, p, Lp):
    """The row-by-row half-step norm check that the column check replaced."""
    slack = 1e-8
    coef = 3.0 * Lp / math.factorial(p)
    min_margin = math.inf
    first_violation = None
    rows = zip(log.displacement_norm.tolist(), log.op_norm_half.tolist())
    for k, (r, op_norm) in enumerate(rows):
        bound = coef * r**p
        margin = bound - op_norm
        if margin < min_margin:
            min_margin = margin
        if margin < -slack * max(1.0, bound) and first_violation is None:
            first_violation = k
    return first_violation is None, first_violation, min_margin, slack


# (problem, p, Lp, z0, alpha) -> first violation of (half-step bound, potential); the runs
# at Lp/1000 violate, the others pass
_PREFIX_RUNS = {
    ("modified_forsaken", 1, 20.0, (0.5, -0.5), None): (None, None),
    ("modified_forsaken", 2, 50000.0, (0.5, -0.5), None): (None, None),
    ("forsaken", 1, 20.0, (-1.0, -1.0), 10.0): (None, None),
    ("forsaken", 2, 500.0, (-1.0, -1.0), 10.0): (None, None),
    ("modified_forsaken", 1, 0.02, (0.5, -0.5), None): (0, 0),
    ("modified_forsaken", 1, 0.02, (-1.0, -1.0), 10.0): (0, None),
    ("forsaken", 2, 0.5, (0.5, -0.5), None): (3, 1),
    ("x2y", 2, 0.5, (0.5, -0.5), None): (0, 264),
    ("x2y", 2, 0.5, (1.0, 1.0), 10.0): (None, 113),
    ("x2y", 2, 0.5, (0.5, -0.5), 10.0): (11, None),
}


@pytest.mark.parametrize("name, p, Lp, z0, alpha", list(_PREFIX_RUNS),
                         ids=[f"{name}-p{p}-L{Lp:g}-z{z0[0]:g},{z0[1]:g}-alpha{alpha}"
                              for name, p, Lp, z0, alpha in _PREFIX_RUNS])
def test_prefix_checks_match_the_row_loops(name, p, Lp, z0, alpha):
    problem = builtin(name)
    mode = OperatorMode(alpha)
    log = standard_run(name, p, Lp, z0, 400, alpha)
    reports = (check_half_step_norm_bound(log), check_potential_inequality(log))
    oracles = (_half_step_bound_oracle(log, p, Lp),
               _potential_oracle(problem, log, problem.z_star, p, Lp, mode))
    for report, oracle in zip(reports, oracles):
        assert report == PrefixReport(*oracle)
        assert report.min_margin.hex() == oracle[2].hex()  # == does not tell -0.0 from 0.0
    assert tuple(report.first_violation_k for report in reports) == _PREFIX_RUNS[name, p, Lp, z0, alpha]


def test_a_run_whose_squares_overflow_reports_its_violation():
    # the displacements grow past 1e154 before the run fails, so r^2 overflows
    log = standard_run("quadratic_monotone", 1, 0.001, (1.0, 0.0), 400)
    assert log.displacement_norm.max() > 1e155
    report = check_potential_inequality(log)
    assert (report.ok, report.first_violation_k, report.min_margin) == (False, 0, -math.inf)


def test_certify_report_roundtrip():
    report = certify_problem(builtin("quadratic_monotone"), 1, n_samples=2000, seed=7)
    assert report.rho_hat_p <= 0.0
    assert report.threshold_ok
    assert report.L_hat[1] == pytest.approx(1.0, abs=1e-9)
    payload = report.to_dict()
    assert payload["problem"] == "quadratic_monotone"
    assert payload["samples_used"] >= 1


def test_a_sampled_lipschitz_constant_that_overflows_is_a_numeric_error():
    # the pair differences of F = 1e300 (x, y) square past the float range, so the sampled L_1 is inf
    huge = ProblemSpec(
        name="huge", d_x=1, d_y=1, grad_x=lambda z: 1e300 * z[:1], grad_y=lambda z: -1e300 * z[1:],
        operator_jacobian=lambda z: 1e300 * np.eye(2), z_star=np.zeros(2),
        sample_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
    )
    with pytest.raises(NumericError, match=r"sampled L_1 of 'huge' is not finite"):
        certify_problem(huge, 1, n_samples=200, seed=0)


def test_decoupled_report_fields():
    p = builtin("modified_forsaken")
    log = standard_run("modified_forsaken", 1, 20.0, (0.5, -0.5), 500)
    report = decoupled_threshold_report(log, certify_problem(p, 1, q=2.0, n_samples=2000, seed=1))
    assert report["D"] > 0
    assert report["rho_hat_q"] > 0
    assert isinstance(report["ok"], bool)
    assert "threshold_reading" in report


def test_a_decoupled_threshold_past_the_float_range_is_inf():
    # (p!/L_p)^2 at L_p = 1e-200 was a float power that raised OverflowError
    log = standard_run("bilinear", 1, 1e-200, (0.5, -0.5), 1)
    report = decoupled_threshold_report(log, certify_problem(log.problem, 1, q=1.5, n_samples=200, seed=0))
    assert report["threshold"] == math.inf
    assert report["ok"] is True


def _quadratic(d_half):
    """Monotone quadratic 0.5 ||x||^2 - 0.5 ||y||^2 with d_x = d_y = d_half."""
    return ProblemSpec(
        name=f"quadratic_{2 * d_half}d", d_x=d_half, d_y=d_half,
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
        sample_points(box, 10, seed=0, z_star=np.zeros(11))
    assert sample_points(box[:10], 10, seed=0, z_star=np.zeros(10)).shape == (10, 10)


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
    def certify(p=1, n_samples=200, q=None, seed=0):
        return lambda problem: certify_problem(problem, p, q=q, n_samples=n_samples, seed=seed)

    boxless = dataclasses.replace(_quadratic(1), name="boxless", sample_box=None)
    cases = [
        (boxless, certify(), r"'boxless' has no sample_box"),
        (_quadratic(3), certify(), r"d <= 5, got d = 6"),
        (_quadratic(1), certify(p=0), r"order p = 0 is not supported \(have \(1, 2\)\)"),
        (_quadratic(1), certify(p=3), r"order p = 3 is not supported \(have \(1, 2\)\)"),
    ]
    # True used to reach the Halton sampler's bare TypeError
    for n_samples, rule in ((0, "a positive integer"), (-5, "a positive integer"), (True, "an integer")):
        message = f"n_samples must be {rule}, got {n_samples}"
        cases.append((_quadratic(1), certify(n_samples=n_samples), message))
    for q in (math.nan, math.inf):
        cases.append((_quadratic(1), certify(q=q), f"q must be finite, got {q}"))
    for seed, rule in ((-5, "a non-negative integer"), (2.5, "an integer")):  # numpy's own errors named no argument
        message = re.escape(f"seed must be {rule}, got {seed}")
        cases.append((_quadratic(1), certify(seed=seed), message))
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


def test_certify_evaluates_F_at_the_scan_points_twice_in_row_order():
    # the benchmark's self-check counts these: with q at its default, two
    # scans of n rows each over one draw of points, then both ends of the pairs
    problem, n, seed = builtin("modified_forsaken"), 1500, 0
    grad_x, calls = problem.grad_x, []

    def logged(z):
        calls.append(z.tobytes())
        return grad_x(z)
    problem = dataclasses.replace(problem, grad_x=logged)
    calls.clear()  # ProblemSpec checks z_star with one evaluation
    certify_problem(problem, 1, n_samples=n, seed=seed)
    points = sample_points(problem.sample_box, n, seed, problem.z_star)
    a, b = sample_pairs(problem.sample_box, max(200, n // 10), seed)
    assert calls == [z.tobytes() for rows in (points, points, a, b) for z in rows]


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
    # F has d + 1 entries: a wrong split cannot hide in the total length.  The
    # spec's own z_star check evaluates F through Operator.at, so it is the first to raise.
    with pytest.raises(ValueError, match=r"operator of 'x2y'"):
        problem = dataclasses.replace(builtin("x2y"), grad_y=lambda z: np.array([z[0] ** 2, 0.0]))
        certify_problem(problem, 1, n_samples=200, seed=0)


_property = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestHaltonPrefixStability:
    """The first m samples of a draw of n > m equal the m-sample draw with the same seed."""

    BOX = np.array([[-2.0, 2.0], [-1.0, 3.0]])

    @_property
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6))
    def test_sample_points(self, m, extra, seed):
        z_star = np.array([0.3, 1.1])
        short = sample_points(self.BOX, m, seed, z_star)
        long = sample_points(self.BOX, m + extra, seed, z_star)
        assert np.array_equal(long[:m], short)

    @_property
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6))
    def test_sample_pairs(self, m, extra, seed):
        a_short, b_short = sample_pairs(self.BOX, m, seed)
        a_long, b_long = sample_pairs(self.BOX, m + extra, seed)
        assert np.array_equal(a_long[:m], a_short) and np.array_equal(b_long[:m], b_short)


def _ball_offsets_loop(rng, count, d, base_radius, max_tier, radial):
    """The per-offset loop that the array scaling of ``_ball_offsets`` replaced, kept as its reference."""
    offsets = np.empty((count, d))
    for j in range(count):
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-300)
        offsets[j] = base_radius * 0.5 ** min(j // _BALL_TIER, max_tier) * radial(rng.random()) * direction
    return offsets


# n = 9 has no ball point and 10 has one; 6 500 passes the last tier of both samplers
@_property
@given(st.integers(1, 5), st.integers(0, 10**6),
       st.sampled_from([1, 9, 10, 33, 10 * _BALL_TIER * _MAX_TIER + 100]) | st.integers(1, 2000))
def test_samplers_are_the_per_offset_loop_bit_for_bit(d, seed, n):
    rng = np.random.default_rng(seed + 1)
    lo = rng.uniform(-3.0, 1.0, d)
    box = np.column_stack([lo, lo + rng.uniform(0.1, 5.0, d)])
    z_star = rng.uniform(box[:, 0], box[:, 1])
    width = float((box[:, 1] - box[:, 0]).max())

    points = _halton_box(box, n, seed)
    ball = np.arange(9, n, 10)
    points[ball] = z_star + _ball_offsets_loop(np.random.default_rng(seed), len(ball), d, 0.5 * width,
                                               _MAX_TIER, lambda u: u ** (1.0 / d))
    assert sample_points(box, n, seed, z_star).tobytes() == points.tobytes()

    pairs = _halton_box(box, n, seed, copies=2)
    a, b = pairs[:, :d], pairs[:, d:]
    short = np.arange(1, n, 2)
    b[short] = np.clip(a[short] + _ball_offsets_loop(np.random.default_rng(seed), len(short), d, 0.1 * width,
                                                     13, lambda u: 0.1 + 0.9 * u), box[:, 0], box[:, 1])
    a_new, b_new = sample_pairs(box, n, seed)
    assert a_new.tobytes() == a.tobytes() and b_new.tobytes() == b.tobytes()


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
        expansion = Operator(problem).at(z_a)
        if p == 2:
            expansion = expansion + Operator(problem).jacobian(z_a) @ (z_b - z_a)
        err = float(np.linalg.norm(Operator(problem).at(z_b) - expansion))
        best = max(best, err / gap**p)
    return math.factorial(p) * best


def _comonotonicity_oracle(problem, n_pairs, seed):
    """The per-pair comonotonicity loop that the array estimate replaced."""
    a, b = sample_pairs(problem.sample_box, n_pairs, seed)
    worst = np.inf
    for z_a, z_b in zip(a, b):
        dF = Operator(problem).at(z_a) - Operator(problem).at(z_b)
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
        pairs = _evaluated_pairs(Operator(problem), n, seed)
        for p in (1, 2):
            assert _smoothness(Operator(problem), p, pairs) == _smoothness_oracle(problem, p, n, seed)
        assert _comonotonicity(pairs) == _comonotonicity_oracle(problem, n, seed)


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
        assert np.array_equal(row, Operator(problem).at(z))
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
