import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hoeg import SolverConfig, builtin, run
from hoeg.recipes import RECIPES, axis_endpoints, converge_to_star, cycling, run_recipe


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
        ET.parse(tmp_path / name)  # well-formed XML
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
