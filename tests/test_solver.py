import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import hoeg.solver as solver_module
from hoeg import (
    ConvergenceError,
    NumericError,
    Operator,
    OperatorMode,
    ProblemSpec,
    SolverConfig,
    builtin,
    detect_cycling,
    run,
)
from hoeg.cli import _fmt
from hoeg.halfstep import solve_half_step_p1, solve_half_step_p2
from hoeg.recipes import GRID5, RECIPES

COLUMNS = ("z", "z_half", "lambda_k", "displacement_norm", "op_norm_half",
           "subproblem_residual", "subproblem_iters")
FLOAT_FIELDS = ("lambda_k", "displacement_norm", "op_norm_half", "subproblem_residual")


def config(p=1, L=1.0, K=100, z0=(1.0, 0.0), mode=None, **kw):
    return SolverConfig(
        order_p=p, lipschitz=L, max_iterations=K, z0=np.array(z0),
        operator_mode=mode or OperatorMode.standard(), **kw,
    )


def test_single_step_identity_field():
    log = run(builtin("quadratic_monotone"), config(K=1))
    first = log.records[0]
    assert np.allclose(first.z_half, [0.5, 0.0])
    assert first.lambda_k == 0.5
    assert np.allclose(log.records[1].z, [0.875, 0.0])


def test_stationary_start_terminates_immediately():
    for p in (1, 2):
        log = run(builtin("x2y"), config(p=p, L=1.0, K=50, z0=(0.0, 2.0)))
        assert log.termination == "exact_stationary"
        assert len(log.records) == 1
        assert np.array_equal(log.z_out, [0.0, 2.0])
        assert log.records[0].lambda_k == (0.5 if p == 1 else 0.0)


def test_tiny_fields_keep_their_norms():
    # squared norms below the smallest normal double lose digits or underflow
    # to 0; at p = 1 the bilinear start then looked exactly stationary
    for name, p, z0 in (("bilinear", 1, (1e-170, 0.0)), ("x2y", 2, (1e-80, 1e-80))):
        problem = builtin(name)
        log = run(problem, config(p=p, L=1.0, K=50, z0=z0))
        assert log.termination == "budget_exhausted"
        first = log.records[0]
        assert first.op_norm_half == math.hypot(*Operator(problem).at(first.z_half)) > 0.0


def test_the_log_carries_the_config_it_was_run_with():
    cfg = config(K=3)
    assert run(builtin("bilinear"), cfg).config is cfg


def test_the_log_carries_the_problem_it_ran_on():
    problem = builtin("bilinear")
    assert run(problem, config(K=3)).problem is problem


def test_modified_forsaken_reaches_stationary_point():
    p = builtin("modified_forsaken")
    log = run(p, config(p=1, L=20.0, K=5000, z0=(0.5, -0.5)))
    assert np.linalg.norm(log.z_out - p.z_star) <= 1e-2


def test_record_count_is_budget_plus_one():
    log = run(builtin("bilinear"), config(K=100))
    assert len(log.records) == 101
    assert log.termination == "budget_exhausted"


def test_order1_step_relations_hold_exactly():
    p = builtin("modified_forsaken")
    log = run(p, config(p=1, L=20.0, K=50, z0=(0.5, -0.5)))
    for rec, nxt in zip(log.records, log.records[1:]):
        F_k = Operator(p).at(rec.z)
        assert np.array_equal(rec.z_half, rec.z - F_k / 40.0)
        F_half = Operator(p).at(rec.z_half)
        assert np.array_equal(nxt.z, rec.z - F_half / 80.0)
        assert rec.lambda_k == 0.5


def test_order2_step_relations_hold_exactly():
    p = builtin("modified_forsaken")
    L = 50000.0
    log = run(p, config(p=2, L=L, K=50, z0=(0.5, -0.5)))
    for rec, nxt in zip(log.records, log.records[1:]):
        assert rec.displacement_norm > 0.0
        assert rec.lambda_k == 0.5 / rec.displacement_norm
        F_half = Operator(p).at(rec.z_half)
        assert np.array_equal(nxt.z, rec.z - (2.0 / (2.0 * L) * rec.lambda_k) * F_half)


def test_runs_are_bit_identical():
    p = builtin("forsaken")
    logs = [run(p, config(p=2, L=500.0, K=200, z0=(-1.0, -1.0))) for _ in range(2)]
    a, b = logs
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.z.tobytes() == rb.z.tobytes()
        assert ra.z_half.tobytes() == rb.z_half.tobytes()
        assert ra.lambda_k == rb.lambda_k
    assert a.z_out.tobytes() == b.z_out.tobytes()


def test_competitive_mode_changes_field():
    p = builtin("forsaken")
    std = run(p, config(p=1, L=20.0, K=20, z0=(-1.0, -1.0)))
    comp = run(p, config(p=1, L=20.0, K=20, z0=(-1.0, -1.0), mode=OperatorMode.competitive(10.0)))
    assert not np.allclose(std.records[5].z, comp.records[5].z)


def reference_run(problem, cfg):
    """The iteration without the fixed-point shortcut or the floor stop: every record is computed.

    Returns the columns, z_out and out_index, the first minimum of the
    operator norm.  The runs it is used on have r > 0.
    """
    operator = Operator(problem, cfg.operator_mode)
    p, L = cfg.order_p, cfg.lipschitz
    coef = math.factorial(p) / (2.0 * L)
    z = cfg.z0.copy()
    rows = []
    for _ in range(cfg.max_iterations + 1):
        F_k = operator.at(z)
        if p == 1:
            half = solve_half_step_p1(F_k.tolist(), L, z.tolist())
        else:
            half = solve_half_step_p2(F_k.tolist(), operator.jacobian(z).tolist(), L, z.tolist())
        F_half = operator.at(half.z_half)
        r = half.displacement_norm
        assert r > 0.0
        lam = 0.5 * r ** (1 - p)
        rows.append((z, half.z_half, lam, r, math.hypot(*F_half),
                     half.residual_norm, half.iterations_used))
        z = z - (coef * lam) * F_half
    columns = dict(zip(COLUMNS, (np.array(column) for column in zip(*rows))))
    norms = columns["op_norm_half"]
    out_index = min(range(len(norms)), key=lambda i: (norms[i], i))
    return columns, columns["z_half"][out_index], out_index


# (recipe, order, budget, range of the first k with z_k == z_{k-1}): budgets cover them
SHORTCUT_CASES = (("mforsaken", 1, 1000, (573, 753)), ("x2y_F", 2, 300, (116, 186)))


def test_fixed_point_shortcut_matches_the_full_loop(monkeypatch):
    calls = []

    def counted(solve):
        def wrapper(*args):
            calls.append(1)
            return solve(*args)
        return wrapper

    monkeypatch.setattr(solver_module, "solve_half_step_p1", counted(solve_half_step_p1))
    monkeypatch.setattr(solver_module, "solve_half_step_p2", counted(solve_half_step_p2))
    for recipe, order, budget, (first, last) in SHORTCUT_CASES:
        problem = builtin(RECIPES[recipe].runs[0].problem)
        presets = [preset for preset in RECIPES[recipe].runs if preset.order_p == order]
        assert len(presets) >= 4
        fixed_points = []
        for preset in presets:
            cfg = dataclasses.replace(preset.config(), max_iterations=budget)
            columns, z_out, out_index = reference_run(problem, cfg)
            calls.clear()
            log = run(problem, cfg)
            for name in COLUMNS:
                assert getattr(log, name).tobytes() == columns[name].tobytes(), (preset.label, name)
            assert log.subproblem_iters.dtype == columns["subproblem_iters"].dtype
            assert log.z_out.tobytes() == z_out.tobytes()
            assert log.out_index == out_index
            assert log.termination == "budget_exhausted"
            # the half-steps stop before the first k with z_k == z_{k-1}
            zs = columns["z"]
            k = next(k for k in range(1, budget + 1) if zs[k].tobytes() == zs[k - 1].tobytes())
            assert len(calls) == k
            # rows k - 1 onwards tie, and the first of them wins
            assert log.out_index == k - 1
            fixed_points.append(k)
        assert min(fixed_points) == first and max(fixed_points) == last


def test_a_run_at_the_roundoff_floor_stops_with_the_full_loops_rows():
    # mforsaken p=2 puts z_half on z* to within an ULP, then moves z_k by
    # about 1e-10 per iterate: the run stops there and loses no row or output
    problem = builtin("modified_forsaken")
    presets = [preset for preset in RECIPES["mforsaken"].runs if preset.order_p == 2]
    assert [preset.z0 for preset in presets] == list(GRID5)
    for preset in presets:
        cfg = dataclasses.replace(preset.config(), max_iterations=2000)
        columns, z_out, out_index = reference_run(problem, cfg)
        log = run(problem, cfg)
        assert log.termination == "roundoff_floor"
        n = len(log)
        assert n < 2001
        for name in COLUMNS:
            assert getattr(log, name).tobytes() == columns[name][:n].tobytes(), (preset.label, name)
        assert log.z_out.tobytes() == z_out.tobytes()
        assert log.out_index == out_index
        # the last FLOOR_ROWS rows each moved z_half by roundoff only
        tail = log.z_half[n - solver_module.FLOOR_ROWS - 1:]
        assert np.all(abs(np.diff(tail, axis=0)) <= solver_module.FLOOR_TOL * abs(tail[:-1]))


def test_a_coordinate_that_keeps_shrinking_keeps_the_run_going():
    # x2y_F p=1 from (1, 1): |x| shrinks by a constant factor to 1e-63, a
    # relative step far below eps of ||z_half||, yet never still to roundoff
    [preset] = [preset for preset in RECIPES["x2y_F"].runs
                if preset.order_p == 1 and preset.z0 == (1.0, 1.0)]
    log = run(builtin("x2y"), preset.config())
    assert log.termination == "budget_exhausted"
    assert np.abs(log.z_half[:, 0]).min() < 1e-60


def test_subproblem_failure_keeps_its_residual(monkeypatch):
    problem = builtin("modified_forsaken")
    cfg = config(p=1, L=20.0, K=50, z0=(0.5, -0.5))
    assert run(problem, cfg).failure_residual is None
    calls = []

    def failing_at_k3(F, L, z):
        calls.append(1)
        if len(calls) == 4:
            raise ConvergenceError("stubbed failure", residual=0.25)
        return solve_half_step_p1(F, L, z)

    monkeypatch.setattr(solver_module, "solve_half_step_p1", failing_at_k3)
    log = run(problem, cfg)
    assert log.termination == "subproblem_failure"
    assert len(log) == len(log.records) == 3
    assert log.failure_residual == 0.25


def test_log_retains_under_100_bytes_per_iterate():
    problem = builtin("modified_forsaken")
    cfg = config(p=1, L=20.0, K=5000, z0=(0.5, -0.5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run(problem, cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 5001
    assert retained / len(log) < 100


def test_records_view_reads_the_columns():
    log = run(builtin("modified_forsaken"), config(p=2, L=50000.0, K=30, z0=(0.5, -0.5)))
    records = log.records
    assert len(records) == len(log) == 31
    for k, rec in enumerate(records):
        assert rec.k == k and type(rec.k) is int
        assert rec.z.tobytes() == log.z[k].tobytes()
        assert rec.z_half.tobytes() == log.z_half[k].tobytes()
        for name in FLOAT_FIELDS:
            value = getattr(rec, name)
            assert type(value) is float
            assert np.float64(value).tobytes() == getattr(log, name)[k].tobytes()
            assert _fmt(value) == format(getattr(log, name)[k], ".17g")
        assert type(rec.subproblem_iters) is int and rec.subproblem_iters == log.subproblem_iters[k]
        scalars = {name: getattr(rec, name) for name in FLOAT_FIELDS + ("k", "subproblem_iters")}
        assert json.loads(json.dumps(scalars)) == scalars
    assert records[-1].k == 30 and records[-31].k == 0
    assert [rec.k for rec in records[28:]] == [28, 29, 30]
    for index in (31, -32):
        with pytest.raises(IndexError):
            records[index]
    # each read builds a fresh record whose arrays are copies
    first = records[0]
    assert first is not records[0]
    first.z[0] += 1.0
    assert records[0].z.tobytes() == log.z[0].tobytes()


class TestCycling:
    def test_converging_run_is_not_a_cycle(self):
        log = run(builtin("quadratic_monotone"), config(K=2000))
        assert not detect_cycling(log)

    def test_forsaken_standard_field_cycles(self):
        log = run(builtin("forsaken"), config(p=1, L=20.0, K=5000, z0=(-1.0, -1.0)))
        assert detect_cycling(log)

    def test_forsaken_competitive_field_converges(self):
        p = builtin("forsaken")
        log = run(p, config(p=1, L=20.0, K=5000, z0=(-1.0, -1.0), mode=OperatorMode.competitive(10.0)))
        assert not detect_cycling(log)
        assert np.linalg.norm(log.z_out - p.z_star) <= 1e-2

    def test_a_log_with_no_non_adjacent_pair_is_not_a_cycle(self):
        # two rows used to end in numpy's "zero-size array to reduction operation minimum"
        log = run(builtin("forsaken"), config(p=1, L=20.0, K=1, z0=(-1.0, -1.0)))
        assert len(log) == 2
        assert not detect_cycling(log)
        log = run(builtin("quadratic_monotone"), config(K=5, z0=(0.0, 0.0)))  # stationary at row 0
        assert len(log) == 1
        assert not detect_cycling(log)


def test_divergence_keeps_the_trajectory():
    # L far below the problem's L_1 = 20 makes the iterates overflow
    log = run(builtin("modified_forsaken"), config(p=1, L=0.05, K=2000, z0=(0.5, -0.5)))
    assert log.termination == "numeric_failure"
    assert log.records and all(np.all(np.isfinite(rec.z)) for rec in log.records)
    with pytest.raises(NumericError):
        run(builtin("modified_forsaken"), config(z0=(np.inf, 0.0)))


def test_a_subnormal_radius_is_a_numeric_failure():
    # lambda = 0.5 * r^-1 is a float power, which raised a bare OverflowError once 1/r passed the range
    stiff = ProblemSpec("stiff", 1, 1, lambda z: np.array([1e20 * z[0]]), lambda z: np.array([-1e20 * z[1]]),
                        operator_jacobian=lambda z: np.diag([1e20, 1e20]))
    with pytest.raises(NumericError, match=r"subnormal half-step radius 1e-320 at k=0"):
        run(stiff, config(p=2, L=1.0, K=3, z0=(1e-320, 0.0)))
    # F = z at L_2 = 1e307 shrinks the radius row by row; the rows before the subnormal one stay
    log = run(builtin("quadratic_monotone"), config(p=2, L=1e307, K=20, z0=(1e-307, 0.0)))
    assert (log.termination, len(log)) == ("numeric_failure", 4)
    assert log.displacement_norm.min() >= sys.float_info.min
    assert np.all(np.isfinite(log.lambda_k))


def test_config_validation():
    with pytest.raises(ValueError):
        config(p=3)
    with pytest.raises(ValueError):
        config(L=0.0)
    # the K cases (0, 2.5, True, np.int64(3)) are rows of tests/test_checks.py
    with pytest.raises(ValueError):
        run(builtin("x2y"), SolverConfig(1, 1.0, 10, np.zeros(3)))
