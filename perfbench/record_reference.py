"""Record the reference outputs that the benchmark checks against.

Run from the repository root with ``python3 perfbench/record_reference.py``.
It writes ``perfbench/reference.json``: the endpoint of every ``reproduce``
trajectory, the ``certify`` constants at seeds 0-15, and the last logged
step of each ``flow`` case.  Re-record only when a change is meant to move
these outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

from run import prepare_environment

CERTIFY_SEEDS = range(16)


def record() -> dict:
    import hoeg
    import numpy as np
    from hoeg import recipes

    import workloads as wl

    reproduce = {}
    for name in wl.RECIPE_NAMES:
        runs = recipes.RECIPES[name].runs
        problem = hoeg.builtin(runs[0].problem)
        trajectories = []
        for preset in runs:
            log = hoeg.run(problem, preset.config())
            trajectories.append({"label": preset.label, "z_out": [float(c) for c in log.z_out],
                                 "termination": log.termination, "records": len(log.records)})
        reproduce[name] = {"z_out_atol": 1e-8, "trajectories": trajectories}

    by_seed = {}
    for seed in CERTIFY_SEEDS:
        reports = []
        for problem_name, p, alpha in wl.CERTIFY_CALLS:
            mode = None if alpha is None else hoeg.OperatorMode.competitive(alpha)
            report = hoeg.certify_problem(hoeg.builtin(problem_name), p=p, mode=mode,
                                          n_samples=wl.CERTIFY_SAMPLES, seed=seed)
            reports.append({key: report.to_dict()[key] for key in
                            ("problem", "p", "rho_hat_p", "comono_hat", "L_hat", "threshold_Lp",
                             "threshold_ok", "samples_used")})
        by_seed[str(seed)] = reports

    cases = []
    problem = hoeg.builtin(wl.FLOW_PROBLEM)
    for p, t_end, dt in wl.FLOW_CASES:
        log = hoeg.simulate(problem, hoeg.ContinuousConfig(order_p=p, t_end=t_end, dt=dt,
                                                           z0=np.array(wl.FLOW_Z0)))
        index = len(log.t) - 1
        cases.append({"order_p": p, "t_end": t_end, "dt": dt, "index": index, "t": float(log.t[index]),
                      "op_norm": float(log.op_norm[index]),
                      "integral": float(log.running_integral[index]), "failed_at": log.failed_at})

    return {
        "reproduce": reproduce,
        "certify": {"rtol": 1e-9, "samples": wl.CERTIFY_SAMPLES, "by_seed": by_seed},
        "flow": {"rtol": 1e-6, "atol": 1e-9, "cases": cases},
    }


if __name__ == "__main__":
    prepare_environment()
    import workloads as wl

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(wl.REFERENCE_PATH)}", file=sys.stderr)
