"""Preset experiment recipes and their qualitative verdicts.

Each recipe bundles the runs behind one figure of the experiment suite and a
verdict that checks the qualitative claim the figure makes: convergence to a
known point, cycling, or endpoint structure.  Initial points come from the
grid {(+-1, +-1), (0.5, -0.5)}; iteration budgets are 5000, large enough
that the verdicts are insensitive to halving or doubling them.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .problems import OperatorMode, builtin
from .solver import SolverConfig, TrajectoryLog, detect_cycling, run
from .svgplot import line_plot_svg, trajectory_plot_svg

GRID5 = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (0.5, -0.5))
GRID4 = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.5, -0.5))
ITERATIONS = 5000  # the iteration budget of every preset


@dataclass(frozen=True)
class RunPreset:
    label: str
    problem: str
    order_p: int
    lipschitz: float
    z0: Tuple[float, float]
    alpha: Optional[float] = None

    def config(self) -> SolverConfig:
        return SolverConfig(
            order_p=self.order_p,
            lipschitz=self.lipschitz,
            max_iterations=ITERATIONS,
            z0=np.array(self.z0),
            operator_mode=OperatorMode(self.alpha),
        )


def converge_to_star(logs: Sequence[TrajectoryLog]) -> dict:
    dists = [float(np.linalg.norm(log.z_out - log.problem.z_star)) for log in logs]
    z_star = logs[0].problem.z_star  # a recipe's runs share one problem
    return {
        "claim": f"all runs converge to {tuple(round(float(c), 4) for c in z_star)} within 1e-2",
        "ok": all(d <= 1e-2 for d in dists),
        "endpoint_distances": dists,
    }


def cycling(logs: Sequence[TrajectoryLog]) -> dict:
    flags = [detect_cycling(log) for log in logs]
    return {"claim": "all runs cycle instead of converging", "ok": all(flags), "cycles": flags}


def axis_endpoints(logs: Sequence[TrajectoryLog]) -> dict:
    xs = [abs(float(log.z_out[0])) for log in logs]
    per_order = {}
    for log in logs:
        per_order.setdefault(log.config.order_p, []).append(float(log.z_out[1]))
    spreads = {p: max(ys) - min(ys) for p, ys in per_order.items()}
    return {
        "claim": "endpoints sit on the y-axis (|x| <= 1e-2) and differ across starts by > 0.1",
        "ok": all(x <= 1e-2 for x in xs) and all(s > 0.1 for s in spreads.values()),
        "abs_x": xs,
        "y_spread_by_order": {str(p): s for p, s in spreads.items()},
    }


@dataclass(frozen=True)
class FigureRecipe:
    name: str
    runs: Tuple[RunPreset, ...]
    verdict: Callable[[Sequence[TrajectoryLog]], dict]


def _presets(problem, orders_L, grid, alpha=None):
    runs = []
    for p, L in orders_L:
        for z0 in grid:
            runs.append(RunPreset(
                label=f"p{p} z0=({z0[0]:g},{z0[1]:g})",
                problem=problem, order_p=p, lipschitz=L, z0=z0, alpha=alpha,
            ))
    return tuple(runs)


RECIPES = {
    "mforsaken": FigureRecipe(
        "mforsaken",
        _presets("modified_forsaken", ((1, 20.0), (2, 50000.0)), GRID5),
        converge_to_star,
    ),
    "forsaken_F": FigureRecipe(
        "forsaken_F",
        _presets("forsaken", ((1, 20.0), (2, 500.0)), ((-1.0, -1.0),)),
        cycling,
    ),
    "forsaken_Falpha": FigureRecipe(
        "forsaken_Falpha",
        _presets("forsaken", ((1, 20.0), (2, 500.0)), ((-1.0, -1.0),), alpha=10.0),
        converge_to_star,
    ),
    "x2y_F": FigureRecipe(
        "x2y_F",
        _presets("x2y", ((1, 20.0), (2, 500.0)), GRID4),
        axis_endpoints,
    ),
    "x2y_Falpha": FigureRecipe(
        "x2y_Falpha",
        _presets("x2y", ((1, 20.0), (2, 500.0)), GRID4, alpha=10.0),
        converge_to_star,
    ),
}


def min_opnorm_svg(path: str, runs: Sequence[Tuple[str, TrajectoryLog]], title: str = "") -> None:
    """Log-log plot of each run's running minimum of ||F(z_half)||^2 against k+1."""
    series = []
    for label, log in runs:
        running = np.clip(log.running_min_sq(), 1e-300, sys.float_info.max)
        series.append((label, np.arange(1, len(running) + 1), running))
    line_plot_svg(path, series, title=title, xlabel="k+1", ylabel="min ||F||^2", logx=True, logy=True)


def run_recipe(name: str, out_dir: str) -> dict:
    """Execute a recipe: one trajectory SVG per panel, a rate SVG, a verdict JSON."""
    try:
        recipe = RECIPES[name]
    except KeyError:
        raise KeyError(f"unknown recipe {name!r}; available: {', '.join(sorted(RECIPES))}") from None
    os.makedirs(out_dir, exist_ok=True)
    problem = builtin(recipe.runs[0].problem)
    logs = [run(problem, preset.config()) for preset in recipe.runs]

    by_order = {}
    for preset, log in zip(recipe.runs, logs):
        by_order.setdefault(preset.order_p, []).append((preset, log))
    for p, pairs in sorted(by_order.items()):
        traj = [(preset.label, log.z) for preset, log in pairs]
        trajectory_plot_svg(
            os.path.join(out_dir, f"{name}_p{p}_trajectories.svg"),
            traj, title=f"{name} (order {p})",
        )
    min_opnorm_svg(os.path.join(out_dir, f"{name}_min_opnorm.svg"),
                   [(preset.label, log) for preset, log in zip(recipe.runs, logs)], title=name)

    verdict = {"recipe": name, **recipe.verdict(logs)}
    with open(os.path.join(out_dir, f"{name}_verdict.json"), "w", encoding="utf-8") as handle:
        json.dump(verdict, handle, indent=2)
    return verdict
