import dataclasses
import math
from collections import Counter
import re
import warnings
from functools import partial

import numpy as np
import pytest

from hoeg import (NumericError, Operator, OperatorMode, ProblemSpec, SolverConfig, builtin, certify_problem,
                  problem_names, run)
from hoeg.certify import sample_pairs
from hoeg.problems import _CHUNK, block_matrix

ALL_NAMES = ["bilinear", "comonotone_toy", "forsaken", "modified_forsaken", "quadratic_monotone", "x2y"]


def test_registry_names():
    assert problem_names() == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_each_builtin_call_returns_fresh_arrays(name):
    first, second = builtin(name), builtin(name)
    assert not np.shares_memory(first.z_star, second.z_star)
    assert not np.shares_memory(first.sample_box, second.sample_box)


def test_unknown_name_is_lookup_error():
    with pytest.raises(KeyError):
        builtin("no_such_problem")


def test_x2y_operator_values():
    p = builtin("x2y")
    assert np.allclose(Operator(p).at([0.0, 3.0]), [0.0, 0.0])
    assert np.allclose(Operator(p).at([1.0, 1.0]), [2.0, -1.0])


def test_modified_forsaken_operator_at_origin():
    p = builtin("modified_forsaken")
    assert np.allclose(Operator(p).at([0.0, 0.0]), [-1.5, 0.0])


def test_forsaken_operator_matches_hand_derivative():
    # grad_x f = (y - 0.45) + h'(x), grad_y f = x - h'(y), h'(t) = t/2 - 2t^3 + t^5
    p = builtin("forsaken")
    x, y = 0.3, -0.7
    h1 = lambda t: t / 2 - 2 * t**3 + t**5
    assert np.allclose(Operator(p).at([x, y]), [y - 0.45 + h1(x), h1(y) - x])


def test_jacobian_constants():
    assert np.allclose(Operator(builtin("bilinear")).jacobian([3.0, -2.0]), [[0, 1], [-1, 0]])
    assert np.allclose(Operator(builtin("quadratic_monotone")).jacobian([0.3, 0.8]), np.eye(2))
    assert np.allclose(Operator(builtin("x2y")).jacobian([1.0, 1.0]), [[2, 2], [-2, 0]])


def test_stationary_points_are_stationary():
    for name in ALL_NAMES:
        p = builtin(name)
        assert p.z_star is not None
        assert np.linalg.norm(Operator(p).at(p.z_star)) <= 1e-6


def test_finite_difference_matches_analytic_jacobian():
    rng = np.random.default_rng(42)
    for name in ALL_NAMES:
        p = builtin(name)
        stripped = ProblemSpec(
            name=p.name + "_fd", d_x=p.d_x, d_y=p.d_y,
            grad_x=p.grad_x, grad_y=p.grad_y, sample_box=p.sample_box,
        )
        lo, hi = p.sample_box[:, 0], p.sample_box[:, 1]
        for _ in range(100):
            z = lo + (hi - lo) * rng.random(p.d)
            analytic = Operator(p).jacobian(z)
            fd = Operator(stripped).jacobian(z)
            assert np.max(np.abs(fd - analytic)) <= 1e-5


def test_operator_is_deterministic():
    p = builtin("forsaken")
    z = np.array([0.123456, -0.654321])
    a = Operator(p).at(z)
    b = Operator(p).at(z)
    assert a.tobytes() == b.tobytes()


def test_dimension_mismatch_rejected():
    p = builtin("x2y")
    with pytest.raises(ValueError):
        Operator(p).at([1.0, 2.0, 3.0])


def test_non_finite_gradient_raises_numeric_error():
    bad = ProblemSpec(
        name="bad", d_x=1, d_y=1,
        grad_x=lambda z: np.array([1.0 / z[1]]) if z[1] != 0 else np.array([np.inf]),
        grad_y=lambda z: np.array([0.0]),
        sample_box=np.array([[-1, 1], [-1, 1]]),
    )
    with pytest.raises(NumericError):
        Operator(bad).at([1.0, 0.0])


def _concatenated_at(op, z):
    """``Operator.at`` in its np.concatenate + np.isfinite form, kept as the oracle of the faster check."""
    problem = op.problem
    z = np.asarray(z, dtype=float)
    F = np.concatenate([problem.grad_x(z), -problem.grad_y(z)])
    if not np.isfinite(F).all():
        raise NumericError(f"non-finite operator value for {problem.name!r} at {z}")
    if op.alpha is None:
        return F
    B = np.asarray(problem.mixed_hessian(z), dtype=float)
    if not np.isfinite(B).all():
        raise NumericError(f"non-finite mixed Hessian for {problem.name!r} at {z}")
    return np.linalg.solve(block_matrix(B[None], op.alpha)[0], F)


@pytest.mark.parametrize("alpha", [None, 10.0])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_at_is_bitwise_its_concatenate_and_isfinite_form(name, alpha):
    op = Operator(builtin(name), None if alpha is None else OperatorMode.competitive(alpha))
    rng = np.random.default_rng(7)
    # half in the sample boxes, half spread over magnitudes up to where F overflows
    points = np.concatenate([rng.uniform(-2.0, 2.0, (500, 2)),
                             rng.choice([-1.0, 1.0], (500, 2)) * 10.0 ** rng.uniform(-8.0, 160.0, (500, 2))])
    finite = []
    with np.errstate(over="ignore", invalid="ignore"):
        for z in points:
            try:
                want = _concatenated_at(op, z)
            except NumericError as exc:
                with pytest.raises(NumericError, match=re.escape(str(exc))):
                    op.at(z)
                continue
            assert op.at(z).tobytes() == want.tobytes()
            finite.append(z)
    rows = op.rows(np.array(finite))
    for z, row in zip(finite, rows):
        assert row.tobytes() == op.at(z).tobytes()


@pytest.mark.parametrize("block", ["grad_x", "grad_y"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_at_names_the_point_of_a_non_finite_block(block, bad):
    values = {"grad_x": np.array([1.0]), "grad_y": np.array([1.0]), block: np.array([bad])}
    problem = ProblemSpec(name="blocks", d_x=1, d_y=1,
                          grad_x=lambda z: values["grad_x"], grad_y=lambda z: values["grad_y"])
    z = np.array([0.25, -0.5])
    with pytest.raises(NumericError, match=re.escape(f"non-finite operator value for 'blocks' at {z}")):
        Operator(problem).at(z)


@pytest.mark.parametrize("F", [(1e308, -1e308), (1e308, 1e308), (-1.7e308, -1.7e308)])
def test_at_accepts_a_finite_F_whose_entries_sum_past_the_float_range(F):
    problem = ProblemSpec(name="huge", d_x=1, d_y=1,
                          grad_x=lambda z: np.array([F[0]]), grad_y=lambda z: np.array([-F[1]]))
    assert Operator(problem).at(np.zeros(2)).tolist() == list(F)


def _counting(problem, counts, monkeypatch):
    """``problem`` with its blocks, and numpy.linalg.solve, counting their calls into ``counts``."""
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    blocks = ("grad_x", "grad_y", "mixed_hessian")
    return dataclasses.replace(problem, **{b: counted(b, getattr(problem, b)) for b in blocks})


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_one_point_is_one_call_of_each_block_and_one_solve_for_f_alpha(alpha, monkeypatch):
    # the work counts the benchmark's self-check fixes: one grad_x call per F,
    # one mixed Hessian and one solve per F_alpha evaluation
    counts = Counter()
    problem = _counting(builtin("forsaken"), counts, monkeypatch)
    operator = Operator(problem, OperatorMode(alpha))
    points = np.random.default_rng(5).uniform(-1.5, 1.5, (7, 2))
    counts.clear()  # building the problem evaluated F at z_star
    for z in points:
        operator.at(z)
    n = len(points)
    f_alpha = {} if alpha is None else {"mixed_hessian": n, "solve": n}
    assert counts == Counter(grad_x=n, grad_y=n, **f_alpha)


@pytest.mark.parametrize("p", [1, 2])
def test_a_run_under_f_alpha_makes_the_fixed_number_of_calls(p, monkeypatch):
    # two F_alpha evaluations per row, and at p = 2 one Jacobian whose 2d = 4
    # stencil points are one ``rows`` call: 4 block calls and one stacked solve
    counts = Counter()
    problem = _counting(builtin("forsaken"), counts, monkeypatch)
    config = SolverConfig(order_p=p, lipschitz=20.0 if p == 1 else 500.0, max_iterations=30,
                          z0=np.array([-1.0, -1.0]), operator_mode=OperatorMode(10.0))
    counts.clear()
    n = len(run(problem, config))
    evals = 2 * n + (4 * n if p == 2 else 0)
    solves = 2 * n + (n if p == 2 else 0)
    assert counts == Counter(grad_x=evals, grad_y=evals, mixed_hessian=evals, solve=solves)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_operator_rows_are_the_pointwise_operator(name):
    p = builtin(name)
    points = np.random.default_rng(0).uniform(-2.0, 2.0, (50, p.d))
    rows = Operator(p).rows(points)
    assert rows.shape == (50, p.d)
    for z, row in zip(points, rows):
        assert np.array_equal(row, Operator(p).at(z))
    assert Operator(p).rows(points[:0]).shape == (0, p.d)
    with pytest.raises(ValueError, match="rows of length 2"):
        Operator(p).rows(points[0])


def test_comonotone_toy_constant():
    # F = gamma*I + rotation: <dF, dz> = gamma ||dz||^2, ||dF||^2 = (gamma^2+1) ||dz||^2
    p = builtin("comonotone_toy")
    rng = np.random.default_rng(0)
    gamma = -0.2
    expected = gamma / (gamma**2 + 1)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=(2, 2))
        dF = Operator(p).at(a) - Operator(p).at(b)
        ratio = np.dot(dF, a - b) / np.dot(dF, dF)
        assert ratio == pytest.approx(expected, abs=1e-12)


def test_published_constants():
    assert builtin("modified_forsaken").published_constants == {1: 20.0, 2: 50000.0}
    assert builtin("x2y").published_constants == {1: 20.0, 2: 500.0}


def _partial(fn, z, j):
    """Central difference of fn at z in coordinate j, with step 1e-5, as a column."""
    e = np.zeros(z.size)
    e[j] = 1e-5
    return ((fn(z + e) - fn(z - e)) / 2e-5)[:, None]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_derivative_blocks_are_those_of_one_saddle_function(name):
    # No f is given, so the blocks are checked against each other on a 9 x 9 grid of
    # the sample box: grad_xy f = d(grad_x)/dy = (d(grad_y)/dx)^T.  With symmetric
    # diagonal blocks, automatic at d_x = d_y = 1, that makes (grad_x, grad_y) the
    # gradient of some f.  Every built-in is polynomial of degree <= 5 on a box of
    # half-width <= 2; the largest deviation is 4e-11, against a tolerance of 1e-8.
    p = builtin(name)
    assert (p.d_x, p.d_y) == (1, 1)
    axes = [np.linspace(lo, hi, 9) for lo, hi in p.sample_box]
    for z in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, p.d):
        B = p.mixed_hessian(z)
        assert np.allclose(_partial(p.grad_x, z, 1), B, rtol=0.0, atol=1e-8)
        assert np.allclose(_partial(p.grad_y, z, 0).T, B, rtol=0.0, atol=1e-8)


_SHAPES = {"grad_x": (1,), "grad_y": (1,), "mixed_hessian": (1, 1), "operator_jacobian": (2, 2)}
_NAMES = {"grad_x": "the grad_x block of the operator", "grad_y": "the grad_y block of the operator",
          "mixed_hessian": "mixed Hessian", "operator_jacobian": "Jacobian"}


def _entry_points(name, block, fn, z):
    """(call, point): each entry point that first meets ``block``, here ``fn``, at ``point``.

    F's blocks are met at z by ``at``, ``rows`` and ``run`` under F and F_alpha
    (the mixed Hessian under F_alpha only); the operator Jacobian at z by
    ``jacobian`` and ``run`` at p = 2, and by certify's L_2 estimate at the
    start of its first pair.
    """
    blocks = {"grad_x": lambda z: z[:1], "grad_y": lambda z: -z[1:], block: fn}
    if block == "operator_jacobian":
        problem = ProblemSpec(name=name, d_x=1, d_y=1, **blocks, z_star=np.zeros(2),
                              sample_box=np.tile([-1.0, 1.0], (2, 1)))
        first_pair_start = sample_pairs(problem.sample_box, 200, 0)[0][0]
        return [(partial(Operator(problem).jacobian, z), z),
                (partial(run, problem, SolverConfig(2, 1.0, 3, z)), z),
                (partial(certify_problem, problem, 2, n_samples=200, seed=0), first_pair_start)]
    problem = ProblemSpec(name=name, d_x=1, d_y=1, **{"mixed_hessian": lambda z: np.ones((1, 1)), **blocks})
    calls = []
    for mode in [OperatorMode(1.0)] if block == "mixed_hessian" else [None, OperatorMode(1.0)]:
        operator = Operator(problem, mode)
        calls += [(partial(operator.at, z), z), (partial(operator.rows, np.stack([z, z])), z),
                  (partial(run, problem, SolverConfig(1, 1.0, 3, z, operator_mode=mode)), z)]
    return calls


_WRONG_SHAPE = {"grad_x": lambda z: z.copy(), "grad_y": lambda z: z.copy(),
                "mixed_hessian": lambda z: np.ones((1, 2)), "operator_jacobian": lambda z: np.eye(3)}


@pytest.mark.parametrize("block", sorted(_WRONG_SHAPE))
def test_at_and_rows_reject_a_block_of_the_wrong_shape_alike(block):
    # a grad_x of shape (2,) at d_x = 1 used to give a length-3 F from ``at``, and a
    # (3, 3) operator_jacobian a (3, 3) Jacobian from ``jacobian``; ``run`` then died
    # in a bare numpy broadcast error
    z = np.array([1.0, 2.0])
    for call, point in _entry_points("wrong", block, _WRONG_SHAPE[block], z):
        shape = _WRONG_SHAPE[block](point).shape
        message = f"{_NAMES[block]} of 'wrong' has shape {shape} at {point}, expected {_SHAPES[block]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("block", sorted(_SHAPES))
def test_at_and_rows_reject_a_complex_block_alike(block):
    # ``at`` used to die in math.isfinite with a bare TypeError, and ``rows`` and
    # ``jacobian`` kept the real part with a ComplexWarning
    z = np.array([1.0, 2.0])
    calls = _entry_points("complex", block, lambda z: np.full(_SHAPES[block], 1.0 + 1.0j), z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning escapes either
        for call, point in calls:
            with pytest.raises(ValueError, match=re.escape(f"{_NAMES[block]} of 'complex' is complex at {point}")):
                call()


def test_an_overflowing_differenced_jacobian_warns_nothing():
    # the difference of +-1e308 overflows: a NumericError naming the point, and no RuntimeWarning
    steep = ProblemSpec(name="steep", d_x=1, d_y=1,
                        grad_x=lambda z: np.array([math.copysign(1e308, z[0])]),
                        grad_y=lambda z: np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=re.escape("non-finite Jacobian for 'steep' at [0. 0.]")):
            Operator(steep).jacobian([0.0, 0.0])


def _tall_block():
    """d_x = 2, d_y = 1: f = (x1^2 + x2^2 - y^2 + x1^2 y + x2 y^2) / 2, mixed Hessian (x1, y)^T."""
    return ProblemSpec(
        name="tall_block", d_x=2, d_y=1,
        grad_x=lambda z: np.array([z[0] + z[0] * z[2], z[1] + 0.5 * z[2] ** 2]),
        grad_y=lambda z: np.array([-z[2] + 0.5 * z[0] ** 2 + z[1] * z[2]]),
        mixed_hessian=lambda z: np.array([[z[0]], [z[2]]]),
        z_star=np.zeros(3),
        sample_box=np.tile([-1.5, 1.5], (3, 1)),
    )


def _uniform_points(problem, n, seed):
    box = problem.sample_box
    return np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], (n, problem.d))


# ``rows`` stacks the values of _CHUNK rows at a time; these n sit on both sides of its boundaries
@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3000])
@pytest.mark.parametrize("alpha", [None, 10.0])
@pytest.mark.parametrize("name", ["forsaken", "tall_block"])
def test_rows_are_at_bit_for_bit_across_chunk_boundaries(name, alpha, n):
    problem = _tall_block() if name == "tall_block" else builtin(name)
    operator = Operator(problem, OperatorMode(alpha))
    points = _uniform_points(problem, n, seed=n)
    rows = operator.rows(points)
    assert rows.shape == (n, problem.d)
    for z, row in zip(points, rows):
        assert row.tobytes() == operator.at(z).tobytes()


_GOOD_BLOCKS = {"grad_x": lambda z: z[:1], "grad_y": lambda z: -z[1:], "mixed_hessian": lambda z: z[:1, None]}
# complex and of the wrong shape: the shape is named first, by ``at`` as by ``rows``
_BAD_VALUES = {"wrong shape": np.ones(2), "complex": np.array([1.0 + 1.0j]), "non-finite": np.array([np.nan]),
               "complex, wrong shape": np.array([1.0j, 1.0j])}


def _poisoned(block, bad_points, value):
    """A problem whose ``block`` gives ``value`` at each of ``bad_points`` and a good value elsewhere."""
    keys = {z.tobytes() for z in bad_points}
    good = _GOOD_BLOCKS[block]
    if block == "mixed_hessian" and value.ndim == 1:
        value = value[:, None]  # (2, 1) is the wrong shape of a (1, 1) block

    def fn(z):
        return value if z.tobytes() in keys else good(z)
    return ProblemSpec(name="chunked", d_x=1, d_y=1, **{**_GOOD_BLOCKS, block: fn})


@pytest.mark.parametrize("kind", sorted(_BAD_VALUES))
@pytest.mark.parametrize("block", sorted(_GOOD_BLOCKS))
def test_a_bad_value_in_the_second_chunk_is_named_as_at_names_it(block, kind):
    points = _uniform_points(builtin("bilinear"), 3000, seed=1)
    bad = points[_CHUNK + 476]
    operator = Operator(_poisoned(block, [bad], _BAD_VALUES[kind]),
                        OperatorMode(1.0 if block == "mixed_hessian" else None))
    with pytest.raises((ValueError, NumericError)) as at_error:
        operator.at(bad)
    assert str(bad) in str(at_error.value)
    with pytest.raises(type(at_error.value)) as rows_error:
        operator.rows(points)
    assert str(rows_error.value) == str(at_error.value)


def test_a_chunk_is_evaluated_before_it_is_checked():
    points = _uniform_points(builtin("bilinear"), 3000, seed=2)

    def operator(raising, wrong):
        def grad_x(z):
            if z.tobytes() == raising.tobytes():
                raise RuntimeError("grad_x failed")
            return np.ones(2) if z.tobytes() == wrong.tobytes() else z[:1]
        return Operator(ProblemSpec(name="chunked", d_x=1, d_y=1, grad_x=grad_x, grad_y=_GOOD_BLOCKS["grad_y"]))

    # in one chunk, the exception at a later row comes before a wrong shape at an earlier row
    with pytest.raises(RuntimeError, match="grad_x failed"):
        operator(points[_CHUNK + 900], points[_CHUNK + 100]).rows(points)
    # an earlier chunk is checked before the next one is evaluated
    wrong = points[_CHUNK - 1]
    with pytest.raises(ValueError, match=re.escape(f"has shape (2,) at {wrong}")):
        operator(points[_CHUNK + 900], wrong).rows(points)


def test_rows_calls_each_block_once_per_row_in_row_order():
    # the benchmark's self-check counts these calls: every grad_x in row
    # order, then every grad_y, then every mixed Hessian
    calls = []

    def logged(name, fn):
        def call(z):
            calls.append((name, z.tobytes()))
            return fn(z)
        return call
    problem = builtin("forsaken")
    names = ("grad_x", "grad_y", "mixed_hessian")
    problem = dataclasses.replace(problem, **{name: logged(name, getattr(problem, name)) for name in names})
    points = _uniform_points(problem, 2500, seed=3)
    calls.clear()  # ProblemSpec checks z_star with one evaluation
    Operator(problem, OperatorMode(10.0)).rows(points)
    assert calls == [(name, z.tobytes()) for name in names for z in points]
