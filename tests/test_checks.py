"""One table over every public entry point and config field that takes a value.

Each row of a kind's table is (value, the exact message of the ValueError it
raises, or None when the value is valid).  Every invalid value must raise a
ValueError whose message names the argument; every valid one, numpy scalars
included, must be accepted.  The suite makes RuntimeWarnings errors, so a
complex value that numpy would cast with a ComplexWarning fails here.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeg import (
    ContinuousConfig,
    OperatorMode,
    SolverConfig,
    builtin,
    certify_problem,
    check_energy_bound,
    check_rho_threshold,
    run,
    simulate,
)

Z0 = np.array([1.0, 1.0])
X2Y = builtin("x2y")  # d_x = d_y = 1, z_star = 0
FORSAKEN = builtin("forsaken")  # F is not 0 at its first sample, so one sample is a scan
QUADRATIC = builtin("quadratic_monotone")

BOOL = "{name} must be a number, not the bool {value}"
NOT_REAL = "{name} must be a real number, got {value!r}"
NOT_INTEGER = "{name} must be an integer, got {value!r}"
NOT_ARRAY = "{name} must hold real numbers, got {value!r}"


def _reals(rule, out_of_range, valid):
    """The rows of a real argument: bools, non-reals, its ``out_of_range`` values and its ``valid`` ones."""
    return ([(value, BOOL) for value in (True, False, np.True_, np.False_)]
            + [(value, NOT_REAL) for value in (1 + 0j, 2j, np.complex128(2), "1", b"1", [1.0], np.array(2.0))]
            + [(value, rule) for value in out_of_range]
            + [(value, None) for value in valid])


NON_FINITE = (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"))
# Python ints past the float range: each compares as finite, and its first use as a float raised OverflowError
PAST_FLOATS = [(10**400, "{name} must be finite, got an integer of 1329 bits"),
               (-2**1024, "{name} must be finite, got an integer of 1025 bits")]
VALID = (np.float64(2.0), np.int64(3), np.float32(0.5), 2, 0.5)
POSITIVE = _reals("{name} must be positive and finite, got {value}",
                  (0, 0.0, -0.0, -1.0, -5, np.int64(-1), np.float64(0.0)) + NON_FINITE, VALID) + [(None, NOT_REAL)]
POSITIVE += PAST_FLOATS
FINITE = _reals("{name} must be finite, got {value}", NON_FINITE,
                VALID + (0, -1.0, np.float64(1.5), np.int64(1))) + PAST_FLOATS
NOT_NEGATIVE = _reals("{name} must be finite and >= 0", (-1.0, -1e-300, np.int64(-1)) + NON_FINITE,
                      VALID + (0, 0.0, -0.0)) + PAST_FLOATS


def _counts(rule, too_small, valid):
    """The rows of an integer argument: bools, non-integers, ``too_small`` values and ``valid`` ones."""
    return ([(value, NOT_INTEGER) for value in (True, False, np.True_, 1.5, 2.5, 3.0, np.float64(3.0),
                                                 "3", None, 1j, math.nan)]
            + [(value, rule) for value in too_small] + [(value, None) for value in valid])


COUNT = _counts("{name} must be a positive integer, got {value!r}", (0, -1, np.int64(0)),
                (1, 3, np.int64(3), np.int32(2), np.uint8(1)))
SEED = _counts("{name} must be a non-negative integer, got {value!r}", (-1, np.int64(-5)), (0, 7, np.int64(3)))
BLOCK = _counts("{name} must be a positive integer, got {value!r}", (0, -1), (1, np.int64(1), np.int32(1)))
ORDER = [(value, "order p = {value!r} is not supported (have (1, 2))")
         for value in (True, False, np.True_, 0, 3, -1, 2.0, np.float64(1.0), 1 + 0j, "1", None, math.nan)] + [
            (value, None) for value in (1, 2, np.int64(2), np.int32(1))]

# vectors of reals, before their length is known and after
NOT_REAL_ARRAYS = [(value, NOT_ARRAY) for value in (
    [1 + 1j, 1.0], np.array([1.0, 2.0], dtype=complex), ["a", "b"], "1,1", None, [True, False],
    np.array([True, False]), [[1.0], [1.0, 2.0]], [1.0, None], np.array([1.0, 2.0], dtype=object))]
ARRAY = NOT_REAL_ARRAYS + [(value, None) for value in (
    (1, 1), [1.0, 1.0], np.array([1, 1]), (np.float64(0.5), np.int64(1)), np.array([1.0, 1.0], dtype=np.float32))]
WRONG_LENGTH = [([1.0], "{name} has shape (1,), problem needs (2,)"),
                ([1.0, 1.0, 1.0], "{name} has shape (3,), problem needs (2,)"),
                ([[1.0, 1.0]], "{name} has shape (1, 2), problem needs (2,)"),
                (1.0, "{name} has shape (), problem needs (2,)")]
SHAPED = WRONG_LENGTH + [(value, None) for value in ((1, 1), np.array([1, 1]), [1.0, 1.0])]
Z_STAR = [row for row in NOT_REAL_ARRAYS if row[0] is not None] + WRONG_LENGTH + [  # None: no known z*
    (value, None) for value in (None, (0, 0), np.zeros(2, dtype=np.int64), [0.0, -0.0])]
BOX_RULE = "sample_box must give a finite, positive-width interval per coordinate"
BOX = ([(value, NOT_ARRAY) for value in ([[-1, 1], [-1j, 1]], [["a", "b"], ["c", "d"]], [[-1, 1], [-1]])]
       + [([[-1.0, 1.0]], "{name} has shape (1, 2), problem needs (2, 2)"),
          ([-1.0, 1.0, -1.0, 1.0], "{name} has shape (4,), problem needs (2, 2)")]
       + [(value, BOX_RULE) for value in ([[-math.inf, 1], [-1, 1]], [[-1, 1], [-1, math.inf]],
                                          [[math.nan, 1], [-1, 1]], [[1, -1], [-1, 1]], [[1, 1], [-1, 1]])]
       + [(value, None) for value in ([[-1, 1], [-2, 2]], np.array([[-1.0, 1.0], [0.0, 0.5]]))])


@functools.cache
def _flow_log():
    return simulate(builtin("comonotone_toy"), ContinuousConfig(1, 0.5, 0.5, Z0))


def _energy_rho():
    """FINITE, where a finite rho >= 2 breaks the bound's own rule."""
    return [(value, "the bound needs rho < 2" if rule is None and value >= 2 else rule) for value, rule in FINITE]


# (entry point or field, the call with the value in its place, the name the message carries, the rows)
TABLE = [
    ("SolverConfig.order_p", lambda v: SolverConfig(v, 1.0, 5, Z0), "p", ORDER),
    ("SolverConfig.lipschitz", lambda v: SolverConfig(1, v, 5, Z0), "lipschitz", POSITIVE),
    ("SolverConfig.max_iterations", lambda v: SolverConfig(1, 1.0, v, Z0), "max_iterations", COUNT),
    ("SolverConfig.z0", lambda v: SolverConfig(1, 1.0, 5, v), "z0", ARRAY),
    ("ContinuousConfig.order_p", lambda v: ContinuousConfig(v, 6.0, 0.5, Z0), "p", ORDER),
    ("ContinuousConfig.t_end", lambda v: ContinuousConfig(1, v, 0.5, Z0), "t_end", POSITIVE),
    ("ContinuousConfig.dt", lambda v: ContinuousConfig(1, 6.0, v, Z0), "dt", POSITIVE),
    ("ContinuousConfig.z0", lambda v: ContinuousConfig(1, 6.0, 0.5, v), "z0", ARRAY),
    ("ProblemSpec.d_x", lambda v: dataclasses.replace(X2Y, d_x=v), "d_x", BLOCK),
    ("ProblemSpec.d_y", lambda v: dataclasses.replace(X2Y, d_y=v), "d_y", BLOCK),
    ("ProblemSpec.z_star", lambda v: dataclasses.replace(X2Y, z_star=v), "z_star", Z_STAR),
    ("ProblemSpec.sample_box", lambda v: dataclasses.replace(X2Y, sample_box=v), "sample_box", BOX),
    ("OperatorMode.alpha", OperatorMode, "alpha", NOT_NEGATIVE + [(None, None)]),
    ("OperatorMode.competitive", OperatorMode.competitive, "alpha", NOT_NEGATIVE + [(None, NOT_REAL)]),
    ("certify_problem.p", lambda v: certify_problem(FORSAKEN, v, n_samples=1), "p", ORDER),
    ("certify_problem.q", lambda v: certify_problem(FORSAKEN, 1, q=v, n_samples=1), "q", FINITE + [(None, None)]),
    ("certify_problem.n_samples", lambda v: certify_problem(FORSAKEN, 1, n_samples=v), "n_samples", COUNT),
    ("certify_problem.seed", lambda v: certify_problem(FORSAKEN, 1, n_samples=1, seed=v), "seed", SEED),
    ("check_rho_threshold.rho", lambda v: check_rho_threshold(v, 1, 1.0), "rho", FINITE + [(None, NOT_REAL)]),
    ("check_rho_threshold.p", lambda v: check_rho_threshold(0.1, v, 1.0), "p", ORDER),
    ("check_rho_threshold.Lp", lambda v: check_rho_threshold(0.1, 1, v), "Lp", POSITIVE),
    ("check_energy_bound.rho", lambda v: check_energy_bound(_flow_log(), v), "rho",
     _energy_rho() + [(None, NOT_REAL)]),
    ("run.z0", lambda v: run(X2Y, SolverConfig(1, 20.0, 5, v)), "z0", SHAPED),
    ("simulate.z0", lambda v: simulate(QUADRATIC, ContinuousConfig(1, 0.5, 0.5, v)), "z0", SHAPED),
]


def _check(call, name, value, rule):
    """``call(value)`` is accepted when ``rule`` is None, else raises a ValueError with that message."""
    if rule is None:
        call(value)
        return
    with pytest.raises(ValueError) as error:
        call(value)
    assert str(error.value) == rule.format(name=name, value=value), value
    assert name in str(error.value)


@pytest.mark.parametrize("call, name, rows", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE])
def test_each_value_is_accepted_or_rejected_by_name(call, name, rows):
    assert any(rule is None for _, rule in rows) and any(rule is not None for _, rule in rows)
    for value, rule in rows:
        _check(call, name, value, rule)


def _entries(*labels):
    return [(call, name) for label, call, name, _ in TABLE if label in labels]


# entries where every valid value succeeds
POSITIVE_ENTRIES = _entries("SolverConfig.lipschitz", "check_rho_threshold.Lp") + [
    (lambda v: ContinuousConfig(1, v, v, Z0), "t_end")]
FLOATS = st.one_of(st.floats(), st.floats().map(np.float64), st.integers(-10**6, 10**6))


@settings(max_examples=60, deadline=None)
@given(FLOATS)
def test_a_positive_constant_is_accepted_exactly_when_positive_and_finite(x):
    rule = None if 0 < x < math.inf else "{name} must be positive and finite, got {value}"
    for call, name in POSITIVE_ENTRIES:
        _check(call, name, x, rule)


@settings(max_examples=60, deadline=None)
@given(FLOATS)
def test_rho_and_alpha_are_accepted_exactly_when_finite_and_in_range(x):
    finite = -math.inf < x < math.inf
    _check(lambda v: check_rho_threshold(v, 2, 3.0), "rho", x, None if finite else "{name} must be finite, got {value}")
    energy = "{name} must be finite, got {value}" if not finite else None if x < 2 else "the bound needs rho < 2"
    _check(lambda v: check_energy_bound(_flow_log(), v), "rho", x, energy)
    _check(OperatorMode, "alpha", x, None if finite and x >= 0 else "{name} must be finite and >= 0")


REAL_ENTRIES = POSITIVE_ENTRIES + _entries("check_rho_threshold.rho", "OperatorMode.alpha", "OperatorMode.competitive",
                                           "ContinuousConfig.dt")


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.complex_numbers(), st.complex_numbers().map(np.complex128)))
def test_a_complex_value_is_never_a_real_one(z):
    for call, name in REAL_ENTRIES:
        _check(call, name, z, NOT_REAL)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(), st.booleans()))
def test_a_count_is_a_positive_integer_and_nothing_else(n):
    integer = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    rule = NOT_INTEGER if not integer else None if n >= 1 else "{name} must be a positive integer, got {value!r}"
    _check(lambda v: SolverConfig(1, 1.0, v, Z0), "max_iterations", n, rule)


def test_the_largest_int_below_the_float_range_is_a_real_value():
    # 2**1024 - 2**970 is the least integer that float() rounds to inf, and raises on
    largest = 2**1024 - 2**970 - 1
    assert SolverConfig(1, largest, 5, Z0).lipschitz == largest
    assert OperatorMode.competitive(largest).alpha == float(largest)
    _check(lambda v: SolverConfig(1, v, 5, Z0), "lipschitz", largest + 1,
           "{name} must be finite, got an integer of 1024 bits")


def test_a_fixed_width_count_does_not_wrap():
    # np.int8(127) + 1 used to wrap to -128 rows, and np.uint8 sample counts to overflow in the sampler
    config = SolverConfig(1, 1.0, np.int8(127), Z0)
    assert type(config.max_iterations) is int and len(run(QUADRATIC, config)) <= 128
    assert SolverConfig(1, 1.0, np.int64(3), Z0).max_iterations == 3
    assert (certify_problem(FORSAKEN, 1, q=2.0, n_samples=np.uint8(200), seed=np.uint8(3)).rho_hat_q
            == certify_problem(FORSAKEN, 1, q=2.0, n_samples=200, seed=3).rho_hat_q)
