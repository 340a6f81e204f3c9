"""Self-check of the tracing harness on tiny deterministic runs.

The counts the tracer reports must equal values derived independently from
what the runs return, and must repeat exactly when the same runs are made
again.  Every traced benchmark run performs this check first; it can also be
run alone from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import sys

from run import prepare_environment

TINY_K = 40        # iterations of each tiny trajectory
TINY_SAMPLES = 200  # certify samples


def _snapshot(tracer) -> dict:
    counts = {name: (st.calls, st.failures, st.f_inside, st.solves_inside)
              for name, st in sorted(tracer.stats.items())}
    counts["solves_by_layer"] = tuple(sorted(tracer.solves_by_layer.items()))
    return counts


def _cases(hoeg, np):
    """(label, thunk, check) triples; check(result, tracer) returns a list of failures."""
    standard = hoeg.OperatorMode.standard()

    # problems are built here, before the counts are reset: building one
    # evaluates F once to check its stationary point
    def trajectory(problem_name, p, lipschitz, z0, mode=standard):
        problem = hoeg.builtin(problem_name)
        config = hoeg.SolverConfig(order_p=p, lipschitz=lipschitz, max_iterations=TINY_K,
                                   z0=np.array(z0), operator_mode=mode)
        return lambda: hoeg.run(problem, config)

    def expect(got, want, what):
        return [] if got == want else [f"{what}: traced {got}, expected {want}"]

    def rho_scan_name(t):
        # a tree without the private scan is checked through the public estimator
        return "certify.estimate_q_rho" if "certify._rho_scan" in t.absent else "certify._rho_scan"

    def p1_checks(log, t):
        n = len(log.records)
        return (expect(t.count("problem.grad_x"), 2 * n, "p=1 F evaluations vs 2 x records")
                + expect(t.field("halfstep.solve_half_step_p1", "solves_inside"), 0, "p=1 halfstep.solves")
                + expect(t.count("linalg.solve"), 0, "p=1 standard linalg.solve calls")
                + expect(t.count("halfstep.solve_half_step_p1"), n, "p=1 half-step calls vs records"))

    def p2_checks(log, t):
        n = len(log.records)
        return (expect(t.count("halfstep.solve_half_step_p2"), n, "p=2 halfstep.calls vs records")
                + expect(t.count("problem.grad_x"), 2 * n, "p=2 F evaluations vs 2 x records")
                + expect(t.count("problem.operator_jacobian"), n, "p=2 Jacobians vs records")
                + expect(t.count("linalg.solve"),
                         t.field("halfstep.solve_half_step_p2", "solves_inside"),
                         "p=2 solves outside the half-step"))

    def competitive_checks(log, t):
        n = len(log.records)
        return (expect(t.count("problem.mixed_hessian"), 2 * n, "competitive p=1 F_alpha vs 2 x records")
                + expect(t.count("problem.grad_x"), 2 * n, "competitive p=1 F evaluations vs 2 x records")
                + expect(t.count("linalg.solve"), 2 * n, "competitive p=1 solves vs 2 x records"))

    def flow_checks(log, t):
        steps = len(log.t) - 1
        inside = t.field("dynamics.resolvent_solve", "f_inside")
        return (expect(t.count("dynamics.resolvent_solve"), 1 + 4 * steps, "resolvent calls vs 1 + 4 x steps")
                + expect(t.count("problem.grad_x"), inside + steps + 1,
                         "flow F evaluations vs resolvent ones + one per logged point"))

    def certify_checks(report, t):
        scans = t.count(rho_scan_name(t))
        return (expect(scans, 2, "certify rho scans with q at its default")
                + expect(t.field(rho_scan_name(t), "f_inside"), scans * TINY_SAMPLES,
                         "rho-scan F evaluations vs scans x samples")
                + expect(report.samples_used <= TINY_SAMPLES, True, "samples_used <= n_samples"))

    flow_problem = hoeg.builtin("comonotone_toy")
    flow_config = hoeg.ContinuousConfig(order_p=1, t_end=0.02, dt=1e-3, z0=np.array([1.0, 1.0]))
    certify_problem = hoeg.builtin("quadratic_monotone")
    return (
        ("p=1 modified_forsaken", trajectory("modified_forsaken", 1, 20.0, (1.0, 1.0)), p1_checks),
        ("p=2 modified_forsaken", trajectory("modified_forsaken", 2, 50000.0, (0.5, -0.5)), p2_checks),
        ("p=1 forsaken competitive",
         trajectory("forsaken", 1, 20.0, (-1.0, -1.0), hoeg.OperatorMode.competitive(10.0)),
         competitive_checks),
        ("flow p=1 comonotone_toy", lambda: hoeg.simulate(flow_problem, flow_config),
         flow_checks),
        ("certify quadratic_monotone",
         lambda: hoeg.certify_problem(certify_problem, p=1, n_samples=TINY_SAMPLES, seed=3),
         certify_checks),
    )


def run_selfcheck(hoeg, np) -> list:
    """Return the list of failed checks (empty when the harness is sound)."""
    from spans import Tracer

    failures = []
    snapshots = []
    for _ in range(2):
        tracer = Tracer(hoeg, np)
        tracer.install()
        try:
            snapshot = {}
            for label, thunk, check in _cases(hoeg, np):
                tracer.reset()
                result = thunk()
                if not snapshots:
                    failures.extend(f"{label}: {msg}" for msg in check(result, tracer))
                snapshot[label] = _snapshot(tracer)
            snapshots.append(snapshot)
        finally:
            tracer.uninstall()
    if snapshots[0] != snapshots[1]:
        differing = [label for label in snapshots[0] if snapshots[0][label] != snapshots[1].get(label)]
        failures.append(f"traced counts differ between two identical runs: {', '.join(differing)}")
    return failures


if __name__ == "__main__":
    prepare_environment()
    import hoeg
    import numpy

    problems = run_selfcheck(hoeg, numpy)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck: " + ("failed" if problems else "ok"))
    sys.exit(1 if problems else 0)
