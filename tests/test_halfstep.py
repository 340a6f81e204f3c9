import numpy as np
import pytest

from hoeg import (
    TaylorModel,
    builtin,
    eval_operator,
    phi,
    solve_half_step_p1,
    solve_half_step_p2,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class TestOrder1:
    def test_zero_field_stays_put(self):
        res = solve_half_step_p1(np.zeros(2), 3.0, np.array([1.0, -1.0]))
        assert np.array_equal(res.z_half, [1.0, -1.0])
        assert res.displacement_norm == 0.0
        assert res.iterations_used == 0

    def test_identity_field(self):
        res = solve_half_step_p1(np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]))
        assert np.allclose(res.z_half, [0.5, 0.0])

    def test_modified_forsaken_from_origin(self):
        p = builtin("modified_forsaken")
        z = np.zeros(2)
        res = solve_half_step_p1(eval_operator(p, z), 20.0, z)
        assert np.allclose(res.z_half, [0.0375, 0.0])

    def test_residual_certificate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.uniform(-2, 2, 2)
            F = rng.uniform(-5, 5, 2)
            L1 = 10 ** rng.uniform(-1, 2)
            res = solve_half_step_p1(F, L1, z)
            model = TaylorModel(1, z, F, lipschitz=L1)
            assert np.linalg.norm(phi(model, res.z_half)) <= 1e-12 * max(1.0, np.linalg.norm(F))

    def test_rejects_bad_lipschitz(self):
        with pytest.raises(ValueError):
            solve_half_step_p1(np.ones(2), 0.0, np.zeros(2))


class TestOrder2:
    def test_zero_field_stays_put(self):
        res = solve_half_step_p2(np.zeros(2), np.eye(2), 1.0, np.array([2.0, 2.0]))
        assert res.displacement_norm == 0.0
        assert np.array_equal(res.z_half, [2.0, 2.0])

    def test_scalar_golden_radius(self):
        # identity field on the first axis: 1 - r - r^2 = 0
        res = solve_half_step_p2(np.array([1.0, 0.0]), np.eye(2), 1.0, np.zeros(2))
        assert res.displacement_norm == pytest.approx(GOLDEN, abs=1e-9)
        assert res.z_half[0] == pytest.approx(-GOLDEN, abs=1e-9)

    def test_rotation_radius(self):
        # skew J: ||d(r)||^2 = 1/(r^2+1), so r^4 + r^2 = 1
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = solve_half_step_p2(np.array([1.0, 0.0]), J, 1.0, np.zeros(2))
        assert res.displacement_norm == pytest.approx(np.sqrt(GOLDEN), abs=1e-9)

    def test_residual_certificate_random_operators(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            J = rng.uniform(-3, 3, size=(2, 2))
            F = rng.uniform(-2, 2, size=2)
            L2 = 10 ** rng.uniform(-0.5, 1.5)
            z = rng.uniform(-1, 1, size=2)
            res = solve_half_step_p2(F, J, L2, z, tol=1e-10)
            model = TaylorModel(2, z, F, J, lipschitz=L2)
            recomputed = np.linalg.norm(phi(model, res.z_half))
            assert recomputed <= 1e-10 * max(1.0, np.linalg.norm(F)) * (1 + 1e-9)
            assert res.displacement_norm == pytest.approx(np.linalg.norm(res.z_half - z), rel=1e-12)

    def test_singular_jacobian_at_origin(self):
        # J singular, regularization still yields a root
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        F = np.array([0.5, 0.5])
        res = solve_half_step_p2(F, J, 2.0, np.zeros(2))
        model = TaylorModel(2, np.zeros(2), F, J, lipschitz=2.0)
        assert np.linalg.norm(phi(model, res.z_half)) <= 1e-10
