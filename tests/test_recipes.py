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
    """Per recipe: the verdict's ok, and each run's termination and z_out."""
    from hoeg import builtin, run
    from hoeg.recipes import RECIPES
    outcomes = {}
    for name in names:
        recipe = RECIPES[name]
        logs = [run(builtin(preset.problem), preset.config()) for preset in recipe.runs]
        outcomes[name] = {"ok": recipe.verdict(logs)["ok"],
                          "runs": [(log.termination, log.z_out.tolist()) for log in logs]}
    return outcomes


def flow_outcomes(flows):
    """Per (problem, p, t_end, dt) flow from (1, 1): its row count, failed_at and op_norm column."""
    import numpy as np
    from hoeg import ContinuousConfig, builtin, simulate
    outcomes = []
    for name, p, t_end, dt in flows:
        log = simulate(builtin(name), ContinuousConfig(p, t_end, dt, np.array([1.0, 1.0])))
        outcomes.append((len(log.t), log.failed_at, log.op_norm.tolist()))
    return outcomes


def openblas_is_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not openblas_is_dynamic_arch(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so its kernel cannot be chosen")
def test_verdicts_and_stops_do_not_depend_on_the_blas_kernel():
    # The last bits of a trajectory depend on the OpenBLAS kernel, and with
    # them the row at which a run reaches the roundoff floor and its out_index;
    # the termination, z_out to 1e-12 and the verdict must not.  x2y_Falpha
    # (about 2.2 s a process) is left out to keep the suite short.  The flow's
    # tangent predictor and logged norms are BLAS dots too: its rows, failed_at
    # and op_norm to 1e-12 must not depend on the kernel either.
    names = ["mforsaken", "forsaken_Falpha", "forsaken_F", "x2y_F"]
    flows = [("comonotone_toy", 1, 1.0, 1e-3), ("comonotone_toy", 2, 2.0, 1e-2)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(hoeg.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (inspect.getsource(recipe_outcomes) + inspect.getsource(flow_outcomes)
            + f"import json; print(json.dumps([recipe_outcomes({names!r}), flow_outcomes({flows!r})]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    child, child_flows = json.loads(proc.stdout)
    for name, here in recipe_outcomes(names).items():
        assert child[name]["ok"] == here["ok"], name
        for (term_child, z_child), (term, z_out) in zip(child[name]["runs"], here["runs"]):
            assert term_child == term, name
            assert np.max(np.abs(np.subtract(z_child, z_out))) <= 1e-12, name
    for flow, (rows_child, failed_child, norms_child), (rows, failed, norms) in zip(
            flows, child_flows, flow_outcomes(flows), strict=True):
        assert (rows_child, failed_child) == (rows, failed), flow
        assert np.max(np.abs(np.subtract(norms_child, norms))) <= 1e-12, flow
