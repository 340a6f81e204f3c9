import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (
    CapabilityError,
    ProblemSpec,
    builtin,
    eval_f_alpha,
    eval_operator,
    f_alpha_jacobian,
    stationary_equivalence_check,
)
from hoeg.competitive import competitive_system


def test_alpha_zero_is_the_plain_operator():
    for name in ("forsaken", "x2y", "bilinear"):
        p = builtin(name)
        z = np.array([0.7, -1.1])
        assert np.allclose(eval_f_alpha(p, z, 0.0), eval_operator(p, z), atol=1e-15)


def test_bilinear_hand_value():
    # g = (0, -1), M = [[1, 1], [-1, 1]] at alpha = 1
    p = builtin("bilinear")
    assert np.allclose(eval_f_alpha(p, [1.0, 0.0], 1.0), [0.5, -0.5])


def test_x2y_y_axis_is_fixed_for_all_alpha():
    p = builtin("x2y")
    for alpha in (0.0, 1.0, 10.0, 100.0):
        for y in (-2.0, 0.0, 1.0):
            assert np.allclose(eval_f_alpha(p, [0.0, y], alpha), [0.0, 0.0])


def test_missing_mixed_hessian_is_capability_error():
    p = builtin("x2y")
    stripped = ProblemSpec(
        name="nohess", d_x=1, d_y=1, f=p.f, grad_x=p.grad_x, grad_y=p.grad_y,
        sample_box=p.sample_box,
    )
    with pytest.raises(CapabilityError):
        eval_f_alpha(stripped, [1.0, 1.0], 1.0)


def test_block_matrix_is_never_ill_conditioned():
    # M = I + alpha * skew, so its smallest singular value is at least 1
    rng = np.random.default_rng(7)
    for _ in range(100):
        d_x, d_y = rng.integers(1, 4, size=2)
        B = rng.uniform(-10, 10, size=(d_x, d_y))
        alpha = rng.uniform(0, 10)
        M = np.eye(d_x + d_y)
        M[:d_x, d_x:] = alpha * B
        M[d_x:, :d_x] = -alpha * B.T
        assert np.linalg.svd(M, compute_uv=False).min() >= 1.0 - 1e-12


def test_small_alpha_limit():
    rng = np.random.default_rng(21)
    for name in ("forsaken", "modified_forsaken", "x2y", "bilinear"):
        p = builtin(name)
        for _ in range(5):
            z = rng.uniform(-1, 1, 2)
            gap = abs(np.linalg.norm(eval_f_alpha(p, z, 1e-8)) - np.linalg.norm(eval_operator(p, z)))
            assert gap <= 1e-6


def test_zero_sets_coincide():
    rng = np.random.default_rng(5)
    for name in ("forsaken", "modified_forsaken", "x2y"):
        p = builtin(name)
        assert np.linalg.norm(eval_f_alpha(p, p.z_star, 10.0)) <= 1e-6
        for _ in range(20):
            z = rng.uniform(-1.4, 1.4, 2)
            f_norm = np.linalg.norm(eval_operator(p, z))
            fa_norm = np.linalg.norm(eval_f_alpha(p, z, 10.0))
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
    M, F = competitive_system(p, z, alpha)
    f_norm = math.hypot(*F)
    fa_norm = math.hypot(*eval_f_alpha(p, z, alpha))
    assert fa_norm <= f_norm * (1 + 1e-12)
    assert f_norm <= np.linalg.norm(M, 2) * fa_norm * (1 + 1e-12)


class TestStationaryEquivalence:
    def test_forsaken_stationary_point(self):
        p = builtin("forsaken")
        assert stationary_equivalence_check(p, p.z_star, 10.0, 1e-6)

    def test_x2y_axis_point(self):
        assert stationary_equivalence_check(builtin("x2y"), [0.0, 2.0], 7.0, 1e-8)

    def test_bilinear_nonstationary_point(self):
        assert stationary_equivalence_check(builtin("bilinear"), [1.0, 1.0], 1.0, 1e-8)


def test_differenced_jacobian_tracks_alpha_zero_limit():
    p = builtin("x2y")
    z = np.array([0.8, -0.4])
    assert np.allclose(f_alpha_jacobian(p, z, 0.0), [[2 * z[1], 2 * z[0]], [-2 * z[0], 0.0]], atol=1e-9)


def test_competitive_system_shapes():
    p = builtin("x2y")
    M, g = competitive_system(p, [1.0, 1.0], 2.0)
    assert M.shape == (2, 2)
    assert np.allclose(M, [[1.0, 4.0], [-4.0, 1.0]])
