"""End-to-end acceptance checks, one test per headline property.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and enforces its runtime budget.  Budgets are generous on
purpose: they guard against algorithmic regressions, not machine noise.
"""

import math
import time

import numpy as np
import pytest

from hoeg import (
    ContinuousConfig,
    Operator,
    OperatorMode,
    SolverConfig,
    builtin,
    certify_problem,
    check_energy_bound,
    check_half_step_norm_bound,
    check_potential_inequality,
    check_rho_threshold,
    detect_cycling,
    fit_rate,
    run,
    simulate,
)
from hoeg.halfstep import solve_half_step_p1, solve_half_step_p2

MFORSAKEN_STAR = np.array([1.31147, 1.47596])
FORSAKEN_STAR = np.array([0.0780, 0.4119])
GAMMA = -0.2
COMONO_RHO = -2 * GAMMA / (GAMMA**2 + 1)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def solver_config(p, L, K, z0, alpha=None, **kw):
    mode = OperatorMode.standard() if alpha is None else OperatorMode.competitive(alpha)
    return SolverConfig(p, L, K, np.array(z0), operator_mode=mode, **kw)


def test_criterion_1_modified_forsaken_convergence():
    problem = builtin("modified_forsaken")
    dists = []
    for p, L in ((1, 20.0), (2, 50000.0)):
        start = time.time()
        log = run(problem, solver_config(p, L, 5000, (0.5, -0.5)))
        elapsed = time.time() - start
        dists.append(float(np.linalg.norm(log.z_out - MFORSAKEN_STAR)))
        assert elapsed < 5.0, f"order {p} run took {elapsed:.1f}s"
    report(1, "modified-forsaken convergence", all(d <= 1e-2 for d in dists),
           f"distances {dists[0]:.2e}, {dists[1]:.2e}")


def test_criterion_2_forsaken_dichotomy():
    problem = builtin("forsaken")
    start = time.time()
    cycles, dists = [], []
    for p, L in ((1, 20.0), (2, 500.0)):
        std = run(problem, solver_config(p, L, 5000, (-1.0, -1.0)))
        cycles.append(detect_cycling(std))
        comp = run(problem, solver_config(p, L, 5000, (-1.0, -1.0), alpha=10.0))
        dists.append(float(np.linalg.norm(comp.z_out - FORSAKEN_STAR)))
    elapsed = time.time() - start
    assert elapsed < 10.0, f"runs took {elapsed:.1f}s"
    report(2, "forsaken cycles with F, converges with F_alpha",
           all(cycles) and all(d <= 1e-2 for d in dists),
           f"cycles {cycles}, distances {[f'{d:.2e}' for d in dists]}")


X2Y_STARTS = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.5, -0.5))


def test_criterion_3a_x2y_standard_axis_endpoints():
    problem = builtin("x2y")
    start = time.time()
    endpoints = [run(problem, solver_config(1, 20.0, 5000, z0)).z_out for z0 in X2Y_STARTS]
    elapsed = time.time() - start
    assert elapsed < 10.0
    xs = [abs(float(z[0])) for z in endpoints]
    ys = [float(z[1]) for z in endpoints]
    spread = max(ys) - min(ys)
    report(3, "x2y standard-F endpoints on the y-axis, spread out",
           all(x <= 1e-2 for x in xs) and spread > 0.1,
           f"max |x| {max(xs):.2e}, y-spread {spread:.3f}")


def test_criterion_3b_x2y_competitive_reaches_origin():
    # Known to fall short: the preconditioned field has an attracting line at
    # y = 1/(4 alpha) = 0.025, so endpoints stall ~2.5e-2 from the origin no
    # matter how many iterations are spent (measured 3.0e-2 at K -> inf).
    problem = builtin("x2y")
    start = time.time()
    endpoints = [run(problem, solver_config(1, 20.0, 5000, z0, alpha=10.0)).z_out
                 for z0 in X2Y_STARTS]
    elapsed = time.time() - start
    assert elapsed < 10.0
    dists = [float(np.linalg.norm(z)) for z in endpoints]
    report(3, "x2y competitive endpoints within 1e-2 of the origin",
           all(d <= 1e-2 for d in dists),
           "distances " + ", ".join(f"{d:.3f}" for d in dists))


def test_criterion_4_monotone_rate_bound():
    start = time.time()
    ok = True
    details = []
    for name in ("quadratic_monotone", "bilinear"):
        problem = builtin(name)
        for p, L, K in ((1, 1.0, 2000), (2, 1.0, 600)):
            z0 = np.array([1.0, 0.0])
            log = run(problem, solver_config(p, L, K, z0))
            c2 = (math.factorial(p) / (3.0 * L)) ** (2.0 / p)
            C = float(np.linalg.norm(z0 - problem.z_star)) ** (2 * p) / c2**p
            mins = np.minimum.accumulate(np.array([r.op_norm_half for r in log.records]) ** 2)
            ks = np.arange(1, len(mins) + 1)
            bound_ok = bool(np.all(mins <= C / ks**p))
            slope = fit_rate(log)
            slope_ok = slope <= -(p - 0.25)
            ok = ok and bound_ok and slope_ok
            details.append(f"{name} p{p}: bound={bound_ok} slope={slope:.1f}")
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, "min-norm rate bound and fitted slope", ok, "; ".join(details))


LEMMA_CONFIGS = [
    ("quadratic_monotone", 1, 1.0, 1.5), ("quadratic_monotone", 2, 1.0, 1.5),
    ("bilinear", 1, 1.0, 1.5), ("bilinear", 2, 1.0, 1.5),
    ("modified_forsaken", 1, 20.0, 1.0), ("modified_forsaken", 2, 50000.0, 1.0),
    ("x2y", 1, 20.0, 1.0), ("x2y", 2, 500.0, 1.0),
    ("comonotone_toy", 1, 1.02, 1.5), ("comonotone_toy", 2, 1.0, 1.5),
]


def test_criterion_5_lemma_suite_over_seeded_runs():
    start = time.time()
    failures = []
    for i, (name, p, L, half_width) in enumerate(LEMMA_CONFIGS):
        problem = builtin(name)
        for seed in (i, 100 + i):
            rng = np.random.default_rng(seed)
            z0 = rng.uniform(-half_width, half_width, 2)
            log = run(problem, solver_config(p, L, 400, z0))
            if not check_half_step_norm_bound(log).ok:
                failures.append(f"{name} p{p} seed {seed}: half-step norm bound")
            if not check_potential_inequality(log).ok:
                failures.append(f"{name} p{p} seed {seed}: potential inequality")
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, "half-step norm bound and potential inequality on 20 seeded runs",
           not failures, "; ".join(failures) or "20/20 clean")


def test_criterion_6_subproblem_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1234)
    worst_ratio = 0.0
    for _ in range(50):
        # random convex-concave quadratic game: unique model root, so the
        # brute-force landscape has a single basin to compare against
        a, c = rng.uniform(0.0, 3.0, 2)
        b = rng.uniform(-3.0, 3.0)
        J = np.array([[a, b], [-b, c]])
        F = rng.uniform(-2.0, 2.0, 2)
        L2 = 10 ** rng.uniform(-0.5, 1.5)
        z_k = rng.uniform(-1.0, 1.0, 2)
        res = solve_half_step_p2(F, J, L2, z_k)

        norm_J = np.linalg.norm(J, 2)
        radius = 1.05 * (norm_J + np.sqrt(norm_J**2 + 4 * L2 * np.linalg.norm(F))) / (2 * L2)
        axis = np.linspace(-radius, radius, 400)
        gx, gy = np.meshgrid(axis, axis)
        disp = np.stack([gx.ravel(), gy.ravel()], 1)
        norms = np.linalg.norm(disp, axis=1)
        model_vals = F[None, :] + disp @ J.T + L2 * norms[:, None] * disp
        best = int(np.linalg.norm(model_vals, axis=1).argmin())
        pitch = 2 * radius / 399
        gap = float(np.linalg.norm((z_k + disp[best]) - res.z_half))
        worst_ratio = max(worst_ratio, gap / pitch)

    p1_worst = 0.0
    for _ in range(50):
        z = rng.uniform(-2, 2, 2)
        F = rng.uniform(-5, 5, 2)
        L1 = 10 ** rng.uniform(-1, 2)
        res = solve_half_step_p1(F, L1, z)
        p1_worst = max(p1_worst, float(np.linalg.norm(F + (2.0 * L1) * (res.z_half - z))))
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(6, "half-step solvers match brute force",
           worst_ratio <= 1.0 and p1_worst <= 1e-12,
           f"worst grid gap {worst_ratio:.2f} pitch, worst order-1 residual {p1_worst:.1e}")


def test_criterion_7_continuous_time():
    start = time.time()
    quad = builtin("quadratic_monotone")
    log_quad = simulate(quad, ContinuousConfig(order_p=1, t_end=2.0, dt=1e-3, z0=np.array([1.0, 0.0])))
    golden_gap = float(np.linalg.norm(log_quad.v[-1] - np.exp(-1.0) * np.array([1.0, 0.0])))

    toy = builtin("comonotone_toy")
    log_toy = simulate(toy, ContinuousConfig(order_p=1, t_end=50.0, dt=0.01, z0=np.array([1.0, 1.0])))
    monotone_ok = bool(np.all(np.diff(log_toy.op_norm) <= 1e-9))

    report_quad = check_energy_bound(log_quad, rho=0.0)
    report_toy = check_energy_bound(log_toy, rho=COMONO_RHO)
    energy_ok = (report_quad.integral_ok and report_quad.rate_ok
                 and report_toy.integral_ok and report_toy.rate_ok)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(7, "continuous flow: closed form, monotone norm, energy bound",
           golden_gap <= 1e-6 and monotone_ok and energy_ok,
           f"closed-form gap {golden_gap:.1e}, toy integral margin {report_toy.integral_margin:.1e}")


def test_criterion_8_certification_sanity():
    start = time.time()
    monotone_ok = True
    for name in ("quadratic_monotone", "bilinear"):
        problem = builtin(name)
        monotone_ok &= certify_problem(problem, 1, q=2.0, n_samples=5000, seed=7).rho_hat_q <= 0.0

    forsaken = builtin("forsaken")
    rho_std = certify_problem(forsaken, 1, q=2.0, n_samples=20000, seed=7).rho_hat_q
    std_fails = not check_rho_threshold(rho_std, 1, 20.0)
    rho_comp = certify_problem(forsaken, 1, q=2.0, n_samples=20000, seed=7,
                               mode=OperatorMode.competitive(2.0)).rho_hat_q
    comp_passes = rho_comp <= 0.0

    mf = builtin("modified_forsaken")
    axis = np.linspace(-2.0, 2.0, 400)
    oracle = -np.inf
    for x in axis:
        col = np.stack([np.full(400, x), axis], 1)
        vals = np.stack([Operator(mf).at(z) for z in col])
        norms = np.linalg.norm(vals, axis=1)
        mask = norms > 1e-10
        inner = np.sum(vals[mask] * (col[mask] - mf.z_star), axis=1)
        oracle = max(oracle, float(np.max(-2.0 * inner / norms[mask] ** 2)))
    sampled = certify_problem(mf, 1, q=2.0, n_samples=20000, seed=7).rho_hat_q
    grid_ok = abs(sampled - oracle) <= 0.05 * abs(oracle)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(8, "certification estimates behave as expected",
           monotone_ok and std_fails and comp_passes and grid_ok,
           f"rho_std {rho_std:.2f}, rho_comp {rho_comp:.2f}, grid gap {abs(sampled - oracle):.2e}")


def test_criterion_9_determinism():
    start = time.time()
    problem = builtin("forsaken")

    def run_bytes():
        log = run(problem, solver_config(2, 500.0, 300, (-1.0, -1.0), alpha=10.0))
        return b"".join(rec.z.tobytes() + rec.z_half.tobytes() for rec in log.records)

    runs_equal = run_bytes() == run_bytes()

    def sim_bytes():
        log = simulate(builtin("comonotone_toy"),
                       ContinuousConfig(order_p=1, t_end=2.0, dt=0.01, z0=np.array([1.0, 1.0])))
        return log.z.tobytes() + log.v.tobytes()

    sims_equal = sim_bytes() == sim_bytes()

    rho_values = {
        certify_problem(problem, 1, q=2.0, n_samples=4000, seed=17).rho_hat_q
        for _ in range(3)
    }
    certs_equal = len(rho_values) == 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(9, "fixed seeds give bit-identical results across reruns",
           runs_equal and sims_equal and certs_equal,
           f"runs {runs_equal}, sims {sims_equal}, certify {certs_equal}")
