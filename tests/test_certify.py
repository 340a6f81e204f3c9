import dataclasses
import math

import numpy as np
import pytest

from hoeg import (
    DegenerateSampleError,
    OperatorMode,
    ProblemSpec,
    SolverConfig,
    builtin,
    certify_problem,
    check_half_step_norm_bound,
    check_potential_inequality,
    check_rho_threshold,
    estimate_comonotonicity,
    estimate_q_rho,
    estimate_smoothness,
    estimate_weak_mvi_rho,
    eval_operator,
    fit_rate,
    run,
)
from hoeg.certify import POTENTIAL_COEF, decoupled_threshold_report, sample_points
from hoeg.solver import IterateRecord, TrajectoryLog


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
        assert estimate_smoothness(builtin("quadratic_monotone"), 1, 2000, seed=0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_field_has_zero_second_order_constant(self):
        assert estimate_smoothness(builtin("bilinear"), 2, 2000, seed=0) <= 1e-9

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
        sampled = estimate_smoothness(p, 1, 4000, seed=5)
        assert abs(sampled - oracle) <= 0.1 * oracle


def test_comonotonicity_estimate_is_exact_on_the_toy():
    # the ratio is the same at every pair; short probe pairs add O(eps/gap) noise
    value = estimate_comonotonicity(builtin("comonotone_toy"), 2000, seed=0)
    assert value == pytest.approx(-0.2 / 1.04, abs=1e-9)


class TestFitRate:
    @staticmethod
    def synthetic_log(op_norms):
        recs = [IterateRecord(k, np.zeros(2), np.zeros(2), 0.5, 1.0, float(v), 0.0, 0)
                for k, v in enumerate(op_norms)]
        return TrajectoryLog(recs, np.zeros(2), 0, "budget_exhausted")

    def test_recovers_slope_minus_one(self):
        ks = np.arange(200)
        log = self.synthetic_log(1.0 / np.sqrt(ks + 1.0))
        assert fit_rate(log) == pytest.approx(-1.0, abs=1e-6)

    def test_recovers_slope_minus_two(self):
        ks = np.arange(200)
        log = self.synthetic_log(1.0 / (ks + 1.0))
        assert fit_rate(log) == pytest.approx(-2.0, abs=1e-6)

    def test_bilinear_beats_first_order_rate(self):
        log = standard_run("bilinear", 1, 1.0, (1.0, 0.0), 2000)
        assert fit_rate(log) <= -0.75

    def test_needs_enough_records(self):
        with pytest.raises(ValueError):
            fit_rate(self.synthetic_log(np.ones(10)))


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
        empty = TrajectoryLog([], np.zeros(2), 0, "budget_exhausted")
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
    report = decoupled_threshold_report(p, log, 1, 2.0, 20.0, 20.0, n_samples=2000, seed=1)
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
    """The problem with grad_x wrapped to count F evaluations; the count starts at 0."""
    calls = []

    def grad_x(z):
        calls.append(1)
        return problem.grad_x(z)

    counted = dataclasses.replace(problem, grad_x=grad_x)
    calls.clear()  # ProblemSpec checks z_star with one evaluation
    return counted, calls


def test_certify_validates_before_sampling():
    problem, calls = _counting(dataclasses.replace(_quadratic(1), name="boxless", sample_box=None))
    with pytest.raises(ValueError, match=r"'boxless' has no sample_box"):
        certify_problem(problem, 1, n_samples=200, seed=0)
    assert not calls
    problem, calls = _counting(_quadratic(3))
    with pytest.raises(ValueError, match=r"d <= 5, got d = 6"):
        certify_problem(problem, 1, n_samples=200, seed=0)
    assert not calls

