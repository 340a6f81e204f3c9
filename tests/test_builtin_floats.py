"""The built-in problems' callables against the numpy-scalar callables they replaced.

The built-ins read the coordinates as Python floats and compute on them, and
re-evaluate on numpy scalars where a float power overflows.  ``ORACLE`` holds
the callables as they were, computing on ``z[i]``, a numpy scalar.  At every
point each built-in callable must give the oracle's dtype and bytes, or raise
its exception type and message, and it may raise no warning the oracle does
not (the float path raises fewer: numpy warns on an overflowing product or
inf - inf, floats do not).

A NaN compares by its place, not its bytes.  Where two NaNs of opposite sign
meet in one operation, or a power takes a negative NaN, a float operation and
a numpy scalar one may return NaNs of opposite sign; ``Operator`` raises on a
NaN, and numpy and Python print both as nan.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from hoeg import builtin, problem_names
from hoeg.certify import sample_points


def _h1(t):
    return t / 2 - 2 * t**3 + t**5


def _h2(t):
    return 0.5 - 6 * t**2 + 5 * t**4


def _coupled_well(shift):
    return (lambda z: np.array([z[1] - shift + _h1(z[0])]),
            lambda z: np.array([z[0] - _h1(z[1])]),
            lambda z: np.array([[1.0]]),
            lambda z: np.array([[_h2(z[0]), 1.0], [-1.0, _h2(z[1])]]))


_G = -0.2
# (grad_x, grad_y, mixed_hessian, operator_jacobian) of each built-in, on numpy scalars
ORACLE = {
    "forsaken": _coupled_well(0.45),
    "modified_forsaken": _coupled_well(1.5),
    "x2y": (lambda z: np.array([2 * z[0] * z[1]]),
            lambda z: np.array([z[0] ** 2]),
            lambda z: np.array([[2 * z[0]]]),
            lambda z: np.array([[2 * z[1], 2 * z[0]], [-2 * z[0], 0.0]])),
    "bilinear": (lambda z: np.array([z[1]]),
                 lambda z: np.array([z[0]]),
                 lambda z: np.array([[1.0]]),
                 lambda z: np.array([[0.0, 1.0], [-1.0, 0.0]])),
    "quadratic_monotone": (lambda z: np.array([z[0]]),
                           lambda z: np.array([-z[1]]),
                           lambda z: np.array([[0.0]]),
                           lambda z: np.eye(2)),
    "comonotone_toy": (lambda z: np.array([_G * z[0] + z[1]]),
                       lambda z: np.array([z[0] - _G * z[1]]),
                       lambda z: np.array([[1.0]]),
                       lambda z: np.array([[_G, 1.0], [-1.0, _G]])),
}
BLOCKS = ("grad_x", "grad_y", "mixed_hessian", "operator_jacobian")


def _finite_power(t, k):
    try:
        t**k
    except OverflowError:
        return False
    return True


def _overflow_edge(k):
    """The largest double t whose float power t**k does not overflow."""
    t = sys.float_info.max ** (1 / k)
    while _finite_power(math.nextafter(t, math.inf), k):
        t = math.nextafter(t, math.inf)
    while not _finite_power(t, k):
        t = math.nextafter(t, 0.0)
    return t


# each side of the edges of t**2 (1.3e154), t**3 (5.6e102), t**4 (1.3e77) and t**5 (4.5e61)
_EDGES = [s for t in map(_overflow_edge, (2, 3, 4, 5)) for s in (t, math.nextafter(t, math.inf))]
_SPECIAL = [0.0, 5e-324, 0.5, 1.5, 1e200, 1e300, math.nan, math.inf] + _EDGES
_SPECIAL = _SPECIAL + [-v for v in _SPECIAL]
# every pair of special values, so each sits beside a tiny, an ordinary, a huge and a non-finite one
SPECIAL_POINTS = np.array(list(itertools.product(_SPECIAL, repeat=2)))


def _outcome(fn, z):
    """(dtype, shape and bytes of fn(z), each NaN as one NaN, or its exception's type and message;
    the warnings it raises)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(z)
        except Exception as exc:  # compared by type and message, whatever it is
            result = (type(exc), str(exc))
        else:
            result = (value.dtype, value.shape, np.where(np.isnan(value), np.nan, value).tobytes())
    return result, {(w.category, str(w.message)) for w in caught}


def test_the_edges_are_where_floats_overflow_and_numpy_gives_inf():
    for k, (below, above) in zip((2, 3, 4, 5), zip(_EDGES[0::2], _EDGES[1::2])):
        assert math.isfinite(below**k)
        with np.errstate(over="ignore"):
            assert np.float64(above) ** k == math.inf
        with pytest.raises(OverflowError):
            above**k


@pytest.mark.parametrize("name", problem_names())
def test_each_callable_gives_the_numpy_scalar_bytes_and_no_new_warning(name):
    problem = builtin(name)
    points = np.concatenate([sample_points(problem.sample_box, 500, 0, problem.z_star), SPECIAL_POINTS])
    oracle_warned = False
    for block, oracle in zip(BLOCKS, ORACLE[name]):
        for z in points:
            want, want_warnings = _outcome(oracle, z)
            got, got_warnings = _outcome(getattr(problem, block), z)
            assert got == want, (block, z)
            assert got_warnings <= want_warnings, (block, z)
            oracle_warned |= any("overflow encountered in scalar power" in m for _, m in want_warnings)
    # the points reach the numpy fallback wherever a callable takes a power
    assert oracle_warned == (name in ("forsaken", "modified_forsaken", "x2y"))
