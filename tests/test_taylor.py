"""The remainder of the degree-(p-1) Taylor expansion of F against the sampled L_p."""

import numpy as np
import pytest

from hoeg import Operator, builtin
from hoeg.certify import _evaluated_pairs, _smoothness


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
