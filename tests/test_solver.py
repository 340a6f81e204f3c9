import numpy as np
import pytest

from hoeg import (
    IterateRecord,
    NumericError,
    OperatorMode,
    SolverConfig,
    builtin,
    detect_cycling,
    eval_operator,
    run,
    select_output,
)


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
        F_k = eval_operator(p, rec.z)
        assert np.array_equal(rec.z_half, rec.z - F_k / 40.0)
        F_half = eval_operator(p, rec.z_half)
        assert np.array_equal(nxt.z, rec.z - F_half / 80.0)
        assert rec.lambda_k == 0.5


def test_order2_step_relations_hold_exactly():
    p = builtin("modified_forsaken")
    L = 50000.0
    log = run(p, config(p=2, L=L, K=50, z0=(0.5, -0.5)))
    for rec, nxt in zip(log.records, log.records[1:]):
        assert rec.displacement_norm > 0.0
        assert rec.lambda_k == 0.5 / rec.displacement_norm
        F_half = eval_operator(p, rec.z_half)
        assert np.array_equal(nxt.z, rec.z - (2.0 / (2.0 * L) * rec.lambda_k) * F_half)


def test_early_stop_on_operator_norm():
    log = run(builtin("quadratic_monotone"), config(K=10000, stop_norm=1e-3))
    assert log.termination == "epsilon_reached"
    assert log.records[-1].op_norm_half <= 1e-3
    assert len(log.records) < 10001


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


def _fake_records(op_norms):
    recs = []
    for k, v in enumerate(op_norms):
        z = np.array([float(k), 0.0])
        recs.append(IterateRecord(k, z, z + 1.0, 0.5, 1.0, float(v), 0.0, 0))
    return recs


def test_select_output_argmin_and_ties():
    recs = _fake_records([3.0, 1.0, 2.0])
    z_out, idx = select_output(recs)
    assert idx == 1 and np.array_equal(z_out, recs[1].z_half)
    recs = _fake_records([2.0, 1.0, 1.0])
    _, idx = select_output(recs)
    assert idx == 1
    single = _fake_records([4.0])
    z_out, idx = select_output(single)
    assert idx == 0 and np.array_equal(z_out, single[0].z_half)


class TestCycling:
    def test_converging_run_is_not_a_cycle(self):
        log = run(builtin("quadratic_monotone"), config(K=2000))
        assert not detect_cycling(log, window=500, threshold=1e-3)

    def test_forsaken_standard_field_cycles(self):
        log = run(builtin("forsaken"), config(p=1, L=20.0, K=5000, z0=(-1.0, -1.0)))
        assert detect_cycling(log, window=500, threshold=1e-3)

    def test_forsaken_competitive_field_converges(self):
        p = builtin("forsaken")
        log = run(p, config(p=1, L=20.0, K=5000, z0=(-1.0, -1.0), mode=OperatorMode.competitive(10.0)))
        assert not detect_cycling(log, window=500, threshold=1e-3)
        assert np.linalg.norm(log.z_out - p.z_star) <= 1e-2

    def test_window_validation(self):
        log = run(builtin("quadratic_monotone"), config(K=5))
        with pytest.raises(ValueError):
            detect_cycling(log, window=1, threshold=1e-3)


def test_divergence_keeps_the_trajectory():
    # L far below the problem's L_1 = 20 makes the iterates overflow
    log = run(builtin("modified_forsaken"), config(p=1, L=0.05, K=2000, z0=(0.5, -0.5)))
    assert log.termination == "numeric_failure"
    assert log.records and all(np.all(np.isfinite(rec.z)) for rec in log.records)
    with pytest.raises(NumericError):
        run(builtin("modified_forsaken"), config(z0=(np.inf, 0.0)))


def test_config_validation():
    with pytest.raises(ValueError):
        config(p=3)
    with pytest.raises(ValueError):
        config(L=0.0)
    with pytest.raises(ValueError):
        config(K=0)
    with pytest.raises(ValueError):
        run(builtin("x2y"), SolverConfig(1, 1.0, 10, np.zeros(3)))
