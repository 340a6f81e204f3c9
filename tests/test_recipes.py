import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hoeg
from hoeg import SolverConfig, builtin, run
from hoeg.recipes import RECIPES, axis_endpoints, converge_to_star, cycling, run_recipe
from test_svgplot import assert_valid_svg


def test_recipe_names():
    assert sorted(RECIPES) == ["forsaken_F", "forsaken_Falpha", "mforsaken", "x2y_F", "x2y_Falpha"]


def test_unknown_recipe_is_lookup_error(tmp_path):
    with pytest.raises(KeyError):
        run_recipe("nope", str(tmp_path))


def test_forsaken_cycle_recipe_outputs(tmp_path):
    verdict = run_recipe("forsaken_F", str(tmp_path))
    assert verdict["ok"] is True
    assert verdict["cycles"] == [True, True]
    for name in ("forsaken_F_p1_trajectories.svg", "forsaken_F_p2_trajectories.svg",
                 "forsaken_F_min_opnorm.svg"):
        assert_valid_svg(tmp_path / name)
    saved = json.loads((tmp_path / "forsaken_F_verdict.json").read_text())
    assert saved == {"recipe": "forsaken_F", **verdict} or saved == verdict


def _logs(name, p, z_outs):
    """One short run of ``name`` at order p per entry of ``z_outs``, reporting that entry as its output."""
    problem = builtin(name)
    log = run(problem, SolverConfig(p, 20.0, 1, problem.z_star))
    return [dataclasses.replace(log, z_out=np.array(z)) for z in z_outs]


def test_converge_to_star_verdict():
    forsaken = builtin("forsaken")
    near, far = forsaken.z_star + 1e-3, forsaken.z_star + 0.1
    assert converge_to_star(_logs("forsaken", 1, [near, near]))["ok"] is True
    assert converge_to_star(_logs("forsaken", 1, [near, far]))["ok"] is False


def test_cycling_verdict():
    forsaken = builtin("forsaken")
    angle = np.linspace(0.0, 4 * np.pi, 200)  # twice round a circle
    [log] = _logs("forsaken", 1, [forsaken.z_star])
    circling = dataclasses.replace(log, z=np.stack([np.cos(angle), np.sin(angle)], axis=1),
                                   op_norm_half=np.ones(200))
    settled = dataclasses.replace(circling, op_norm_half=np.full(200, 1e-4))
    assert cycling([circling])["ok"] is True
    assert cycling([circling, settled])["ok"] is False


def test_axis_endpoints_verdict_takes_the_spread_per_order():
    order_1 = _logs("x2y", 1, [(0.0, 0.5), (0.005, 0.2)])
    verdict = axis_endpoints(order_1 + _logs("x2y", 2, [(0.0, -0.5), (0.0, 0.5)]))
    assert verdict["ok"] is True
    assert verdict["y_spread_by_order"] == {"1": pytest.approx(0.3), "2": 1.0}
    # the order-2 ends are 0.05 apart: spread over both orders they would pass
    assert axis_endpoints(order_1 + _logs("x2y", 2, [(0.0, 0.5), (0.0, 0.55)]))["ok"] is False
    assert axis_endpoints(_logs("x2y", 1, [(0.0, 0.5), (0.02, 0.2)]))["ok"] is False


def test_near_origin_verdict():
    # x2y's z* is the origin, so x2y_Falpha's verdict is converge_to_star
    near_origin = RECIPES["x2y_Falpha"].verdict
    assert near_origin(_logs("x2y", 1, [(0.005, 0.0), (0.0, -0.005)]))["ok"] is True
    assert near_origin(_logs("x2y", 1, [(0.005, 0.0), (0.0, 0.02)]))["ok"] is False


def recipe_outcomes(names):
    """Per recipe: the verdict's ok, and each run's termination, z_out and the SHA-256 of all its
    columns' bytes."""
    import hashlib
    from hoeg import builtin, run
    from hoeg.recipes import RECIPES
    outcomes = {}
    for name in names:
        recipe = RECIPES[name]
        logs = [run(builtin(preset.problem), preset.config()) for preset in recipe.runs]
        runs = []
        for log in logs:
            columns = (log.z, log.z_half, log.lambda_k, log.displacement_norm, log.op_norm_half,
                       log.subproblem_residual, log.subproblem_iters, log.z_out)
            digest = hashlib.sha256(b"".join(column.tobytes() for column in columns)).hexdigest()
            runs.append([log.termination, log.z_out.tolist(), digest])
        outcomes[name] = {"ok": recipe.verdict(logs)["ok"], "runs": runs}
    return outcomes


def flow_outcomes(flows):
    """Per (problem, p, t_end, dt, z0) flow: its row count, failed_at, op_norm column and the
    SHA-256 of all its columns' bytes."""
    import hashlib
    import numpy as np
    from hoeg import ContinuousConfig, builtin, simulate
    outcomes = []
    for name, p, t_end, dt, z0 in flows:
        log = simulate(builtin(name), ContinuousConfig(p, t_end, dt, np.array(z0)))
        columns = (log.t, log.z, log.v, log.op_norm, log.energy, log.running_integral)
        digest = hashlib.sha256(b"".join(column.tobytes() for column in columns)).hexdigest()
        outcomes.append([len(log.t), log.failed_at, log.op_norm.tolist(), digest])
    return outcomes


def outcomes_under(coretype, code):
    """The JSON that ``code`` prints, run in a child process on the OpenBLAS kernel ``coretype``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hoeg.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def openblas_is_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not openblas_is_dynamic_arch(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so its kernel cannot be chosen")
def test_verdicts_and_stops_do_not_depend_on_the_blas_kernel():
    # Only the competitive operator's F_alpha makes a LAPACK call (its one solve
    # per evaluation), so only its last bits depend on the OpenBLAS kernel, and
    # with them the row at which a run reaches the roundoff floor and its
    # out_index; under Haswell its terminations, z_out to 1e-12 and verdict must
    # not.  x2y_Falpha (about 2.2 s a process) is left out to keep the suite
    # short.  The standard-field recipes and the flow make no BLAS or LAPACK
    # call, so each of their logs, the benchmark's flows, every built-in's at
    # p = 1 and 2 and a failing one, has the same bytes under Haswell and
    # Sandybridge as here.
    standard, competitive = ["mforsaken", "forsaken_F", "x2y_F"], "forsaken_Falpha"
    flows = [("comonotone_toy", 1, 1.0, 1e-3, (1.0, 1.0)), ("comonotone_toy", 2, 2.0, 1e-2, (1.0, 1.0)),
             ("modified_forsaken", 1, 5.0, 1e-2, (-1.0, -1.0))]
    flows += [(name, p, 2.0, 1e-2, (1.0, 1.0)) for name in hoeg.problem_names() for p in (1, 2)]
    source = inspect.getsource(recipe_outcomes) + inspect.getsource(flow_outcomes)
    haswell = outcomes_under("Haswell", source + "import json; print(json.dumps([recipe_outcomes("
                             f"{standard + [competitive]!r}), flow_outcomes({flows!r})]))")
    sandybridge = outcomes_under("Sandybridge", source + "import json; print(json.dumps([recipe_outcomes("
                                 f"{standard!r}), flow_outcomes({flows!r})]))")
    here_recipes, here_flows = recipe_outcomes(standard + [competitive]), flow_outcomes(flows)
    there, here = haswell[0][competitive], here_recipes.pop(competitive)
    assert there["ok"] == here["ok"]
    for (term_there, z_there, _), (term, z_out, _) in zip(there["runs"], here["runs"], strict=True):
        assert term_there == term
        assert np.max(np.abs(np.subtract(z_there, z_out))) <= 1e-12
    for kernel_recipes, kernel_flows in (haswell, sandybridge):
        for name in standard:
            assert kernel_recipes[name]["ok"] == here_recipes[name]["ok"], name
            for there, here in zip(kernel_recipes[name]["runs"], here_recipes[name]["runs"], strict=True):
                assert there == here, name
        for flow, there, here in zip(flows, kernel_flows, here_flows, strict=True):
            assert there == here, flow
