"""The order-2 half-step's unrolled 2x2 solve against the elimination loop it replaced at d = 2.

``oracle_solve`` is that loop: Gaussian elimination with partial pivoting on
lists of Python floats, for any n.  ``halfstep._shifted_solve`` runs the same
operations in the same order on named floats when n = 2, so it must return the
oracle's bits, and None exactly where the oracle does.  A NaN compares by its
place, not its bytes, as in ``test_builtin_floats.py``.
"""

import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import builtin, halfstep, run
from hoeg.halfstep import _shifted_solve
from hoeg.recipes import RECIPES


def oracle_solve(A, b, shift):
    n = len(b)
    rows = [row + [b_i] for row, b_i in zip(A, b)]
    for i in range(n):
        rows[i][i] += shift
    for k in range(n):
        p, big = k, abs(rows[k][k])
        for i in range(k + 1, n):
            if abs(rows[i][k]) > big:
                p, big = i, abs(rows[i][k])
        top = rows[p]
        rows[p], rows[k] = rows[k], top
        if top[k] == 0.0:
            return None
        for row in rows[k + 1:]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [row[n] for row in rows]
    for k in range(n - 1, -1, -1):
        x[k] /= rows[k][k]
        for i in range(k):
            x[i] -= x[k] * rows[i][k]
    return x


def _bits(x):
    """The bytes of each entry, each NaN as one NaN; None stays None."""
    return None if x is None else ["nan" if math.isnan(v) else struct.pack("<d", v) for v in x]


def assert_matches_oracle(A, b, shift):
    A_before, b_before = [row[:] for row in A], b[:]
    got = _shifted_solve(A, b, shift)
    assert _bits(got) == _bits(oracle_solve(A, b, shift)), (A, b, shift)
    assert _bits(A[0] + A[1]) == _bits(A_before[0] + A_before[1]) and _bits(b) == _bits(b_before)
    return got


SPECIAL = [0.0, 5e-324, 2.2e-308, 1e-310, 0.5, 1.0, 3.0, 1e300, math.inf, math.nan]
SPECIAL = SPECIAL + [-v for v in SPECIAL]
entries = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=400, deadline=None)
@given(st.lists(entries, min_size=7, max_size=7))
def test_the_2x2_branch_gives_the_loops_bits(v):
    assert_matches_oracle([v[0:2], v[2:4]], v[4:6], v[6])


def test_the_2x2_branch_on_random_and_special_models():
    rng = random.Random(35)
    for _ in range(20000):
        v = [rng.choice(SPECIAL) if rng.random() < 0.3 else rng.uniform(-10, 10) * 10.0 ** rng.randint(-5, 5)
             for _ in range(7)]
        assert_matches_oracle([v[0:2], v[2:4]], v[4:6], v[6])


@pytest.mark.parametrize("A, shift", [
    ([[0.0, 1.0], [0.0, 2.0]], 0.0),      # the first pivot is 0: column 0 is zero
    ([[-2.0, 1.0], [-0.0, 2.0]], 2.0),    # ... once the shift cancels the diagonal
    ([[1.0, 2.0], [2.0, 4.0]], 0.0),      # the second pivot is 0: rank 1 after a swap
    ([[1.0, 2.0], [3.0, 6.0]], 0.0),
    ([[0.5, 1.0], [0.25, 0.5]], 0.0),     # ... without a swap
    ([[-0.0, 1.0], [0.0, 1.0]], 0.0),     # pivots of both signs of zero
])
def test_an_exactly_zero_pivot_is_none_at_either_step(A, shift):
    assert assert_matches_oracle(A, [1.0, 1.0], shift) is None


def test_a_tie_between_the_pivot_candidates_does_not_swap():
    # |a10| = |a00|: no swap, as idamax takes the first largest entry; the swapped order rounds otherwise
    A, b = [[3.0, 0.1], [-3.0, 0.7]], [0.3, 1.1]
    x = assert_matches_oracle(A, b, 0.0)
    assert _bits(x) != _bits(oracle_solve(A[::-1], b[::-1], 0.0))


def test_larger_systems_keep_the_loop():
    rng = random.Random(3)
    for n in (1, 3, 4):
        A = [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]
        b = [rng.gauss(0, 1) for _ in range(n)]
        assert _bits(_shifted_solve(A, b, 0.5)) == _bits(oracle_solve(A, b, 0.5))


ORDER_2_PRESETS = [(name, preset) for name, recipe in RECIPES.items()
                   for preset in recipe.runs if preset.order_p == 2]


def _run_bytes(preset):
    config = dataclasses.replace(preset.config(), max_iterations=300)
    log = run(builtin(preset.problem), config)
    columns = [f.name for f in dataclasses.fields(log) if isinstance(getattr(log, f.name), np.ndarray)]
    return ({name: getattr(log, name).tobytes() for name in columns}, log.termination, log.out_index,
            log.failure_residual)


def test_every_order_2_recipe_run_keeps_its_bits_under_the_loop(monkeypatch):
    assert len(ORDER_2_PRESETS) == 15
    shipped = [_run_bytes(preset) for _, preset in ORDER_2_PRESETS]
    calls = []

    def counted_oracle(A, b, shift):
        calls.append(len(b))
        return oracle_solve(A, b, shift)

    monkeypatch.setattr(halfstep, "_shifted_solve", counted_oracle)
    for (name, preset), want in zip(ORDER_2_PRESETS, shipped, strict=True):
        assert _run_bytes(preset) == want, (name, preset.label)
    assert calls and set(calls) == {2}
