"""The benchmark's workloads: what each pass runs and how its outputs are checked.

Each workload is built from the imported ``hoeg`` package and the benchmark
seed (that is the set-up the ``setup_s`` metric times), and then runs whole
passes of its operations in a closed loop.  An operation is one trajectory,
one ``certify_problem`` call or one ``simulate`` call.  Every operation's
output is checked against ``reference.json`` (recorded with
``record_reference.py``) within the tolerances stated there, and against
invariants that hold at any seed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from spans import replace_everywhere

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# reproduce: two recipe presets, all trajectories of orders 1 and 2
RECIPE_NAMES = ("mforsaken", "forsaken_Falpha")
# certify: (problem, order p, competitive alpha or None)
CERTIFY_CALLS = (("modified_forsaken", 1, None), ("forsaken", 1, 10.0))
CERTIFY_SAMPLES = 20000
# flow: (order p, t_end, dt) from z0 = (1, 1) on comonotone_toy
FLOW_CASES = ((1, 50.0, 1e-3), (2, 10.0, 1e-2))
FLOW_PROBLEM = "comonotone_toy"
FLOW_Z0 = (1.0, 1.0)

TERM_SUBPROBLEM = "subproblem_failure"
# ||F(z_half)|| below which a trajectory counts as solved (solver.iters_to_tol)
ITERS_TOL = 1e-8


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(float(value) - float(expected)) <= atol + rtol * abs(float(expected))


@dataclass
class Outcome:
    """One operation: its order, its work units, its wall time and its checks."""

    label: str
    order: int
    work: int
    seconds: float          # at the reference host speed (speed.py)
    ended_ok: bool          # no exception, no subproblem failure, no failed_at
    mismatches: list = field(default_factory=list)  # output checks that did not pass
    wall: float = 0.0       # as measured

    @property
    def correct(self) -> bool:
        return not self.mismatches

    @property
    def ok(self) -> bool:
        return self.ended_ok and self.correct


@dataclass
class PassResult:
    seconds: float          # its units' time at the reference host speed (speed.py)
    wall: float             # its units' time as measured
    outcomes: list
    extras: dict = field(default_factory=dict)


class Reproduce:
    """``run_recipe`` on the two recipes; one operation per trajectory."""

    name = "reproduce"
    work_unit = "extragradient iterations"

    def __init__(self, hoeg, seed: int, scratch: str):
        from hoeg import recipes

        self.hoeg = hoeg
        self.recipes = recipes
        self.scratch = scratch
        self.presets = {name: recipes.RECIPES[name].runs for name in RECIPE_NAMES}
        self.configs = {name: [preset.config() for preset in runs] for name, runs in self.presets.items()}
        self.problems = {name: hoeg.builtin(runs[0].problem) for name, runs in self.presets.items()}
        self.reference = load_reference()["reproduce"]
        self._captured = []
        self._clock = time.perf_counter
        # time each trajectory and keep its log: run_recipe returns only the verdict
        original_run = hoeg.run

        def captured_run(problem, config):
            start = self._clock()
            log = original_run(problem, config)
            self._captured.append((config, log, self._clock() - start))
            return log

        self._undo = replace_everywhere(hoeg, original_run, captured_run)

    def close(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)

    def instrument(self, tracer) -> None:
        """run_recipe builds its problems through the instrumented ``builtin``."""

    def warm(self) -> None:
        """A 20-iteration run of every configuration."""
        for name in RECIPE_NAMES:
            for config in self.configs[name]:
                tiny = self.hoeg.SolverConfig(order_p=config.order_p, lipschitz=config.lipschitz,
                                              max_iterations=20, z0=config.z0,
                                              operator_mode=config.operator_mode)
                self.hoeg.run(self.problems[name], tiny)
        self._captured.clear()

    def run_pass(self, new_operation, gauge) -> PassResult:
        """One unit per recipe call; each trajectory's time takes its recipe's speed scale."""
        outcomes = []
        extras = {"records": 0, "iters_to_tol": 0, "out_used": 0}
        seconds = wall = 0.0
        self._clock = gauge.clock
        with tempfile.TemporaryDirectory(dir=self.scratch) as out_dir:
            for name in RECIPE_NAMES:
                new_operation()
                self._captured.clear()
                presets = self.presets[name]
                with gauge.unit() as unit:
                    try:
                        verdict = self.recipes.run_recipe(name, out_dir)
                    except Exception as exc:  # noqa: BLE001 - a failed recipe fails its trajectories
                        verdict = exc
                seconds += unit.seconds
                wall += unit.wall
                if isinstance(verdict, Exception):
                    outcomes.extend(Outcome(p.label, p.order_p, 0, 0.0, False, [f"{name}: {verdict!r}"])
                                    for p in presets)
                    continue
                outcomes.extend(self._check_recipe(name, verdict, extras, unit.scale))
        return PassResult(seconds, wall, outcomes, extras)

    def _check_recipe(self, name, verdict, extras, scale) -> list:
        presets = self.presets[name]
        reference = self.reference[name]
        captured = list(self._captured)
        outcomes = []
        if not len(captured) == len(presets) == len(reference["trajectories"]):
            return [Outcome(p.label, p.order_p, 0, 0.0, False,
                            [f"{name}: {len(captured)} trajectories run, {len(presets)} presets, "
                             f"{len(reference['trajectories'])} in the reference"])
                    for p in presets]
        for preset, ref, (config, log, seconds) in zip(presets, reference["trajectories"], captured):
            mismatches = []
            if not verdict.get("ok", False):
                mismatches.append(f"{name}: verdict not ok")
            dist = float(np.max(np.abs(np.asarray(log.z_out) - np.asarray(ref["z_out"]))))
            if not dist <= reference["z_out_atol"]:
                mismatches.append(f"{preset.label}: z_out off the reference by {dist:.3e}")
            records = len(log.records)
            norms = [rec.op_norm_half for rec in log.records]
            reached = next((k for k, n in enumerate(norms) if n <= ITERS_TOL), records - 1)
            extras["records"] += records
            extras["iters_to_tol"] += reached + 1
            extras["out_used"] += log.out_index + 1
            outcomes.append(Outcome(preset.label, config.order_p, records, seconds * scale,
                                    log.termination != TERM_SUBPROBLEM, mismatches, seconds))
        return outcomes


class Certify:
    """``certify_problem`` at 20 000 samples; the benchmark seed is the sample seed."""

    name = "certify"
    work_unit = "rho-scan samples requested"

    def __init__(self, hoeg, seed: int, scratch: str):
        self.hoeg = hoeg
        self.seed = int(seed)
        self.calls = []
        for problem_name, p, alpha in CERTIFY_CALLS:
            mode = None if alpha is None else hoeg.OperatorMode.competitive(alpha)
            self.calls.append((problem_name, p, mode, hoeg.builtin(problem_name)))
        reference = load_reference()["certify"]
        self.rtol = reference["rtol"]
        self.reference = reference["by_seed"].get(str(self.seed))

    def close(self) -> None:
        pass

    def instrument(self, tracer) -> None:
        self.calls = [(n, p, mode, tracer.instrument_problem(problem)) for n, p, mode, problem in self.calls]

    def warm(self) -> None:
        for _, p, mode, problem in self.calls:
            self.hoeg.certify_problem(problem, p=p, mode=mode, n_samples=200, seed=self.seed)

    def run_pass(self, new_operation, gauge) -> PassResult:
        """One unit per ``certify_problem`` call."""
        outcomes = []
        extras = {"samples_used": 0, "samples_requested": 0}
        seconds = wall = 0.0
        for index, (problem_name, p, mode, problem) in enumerate(self.calls):
            label = f"{problem_name} p={p} {'standard' if mode is None else 'competitive'}"
            new_operation()
            with gauge.unit() as unit:
                try:
                    report = self.hoeg.certify_problem(problem, p=p, mode=mode,
                                                       n_samples=CERTIFY_SAMPLES, seed=self.seed)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    report = exc
            seconds += unit.seconds
            wall += unit.wall
            if isinstance(report, Exception):
                outcomes.append(Outcome(label, p, CERTIFY_SAMPLES, 0.0, False, [repr(report)]))
                continue
            extras["samples_used"] += report.samples_used
            extras["samples_requested"] += CERTIFY_SAMPLES
            ref = None if self.reference is None else self.reference[index]
            outcomes.append(Outcome(label, p, CERTIFY_SAMPLES, unit.seconds, True,
                                    self._check(label, p, report, ref), unit.wall))
        return PassResult(seconds, wall, outcomes, extras)

    def _check(self, label, p, report, ref) -> list:
        bad = []
        if report.rho_hat_p != report.rho_hat_q:
            bad.append(f"{label}: rho_hat_p != rho_hat_q with q at its default")
        limit = (15.0 / 16.0) * (math.factorial(p) / report.threshold_Lp) ** ((p + 1) / p)
        if bool(report.threshold_ok) != bool(report.rho_hat_p <= limit):
            bad.append(f"{label}: threshold_ok disagrees with rho_hat_p and threshold_Lp")
        if not 1 <= report.samples_used <= CERTIFY_SAMPLES:
            bad.append(f"{label}: samples_used {report.samples_used} outside [1, {CERTIFY_SAMPLES}]")
        if ref is not None:
            for key in ("rho_hat_p", "comono_hat", "threshold_Lp"):
                if not close(getattr(report, key), ref[key], self.rtol):
                    bad.append(f"{label}: {key} {getattr(report, key)!r} != reference {ref[key]!r}")
            for order, value in ref["L_hat"].items():
                got = report.L_hat.get(int(order))
                if got is None or not close(got, value, self.rtol):
                    bad.append(f"{label}: L_hat[{order}] {got!r} != reference {value!r}")
            if report.samples_used != ref["samples_used"] or bool(report.threshold_ok) != ref["threshold_ok"]:
                bad.append(f"{label}: samples_used or threshold_ok differ from the reference")
        return bad


class Flow:
    """``simulate`` on comonotone_toy from (1, 1); one operation per configuration."""

    name = "flow"
    work_unit = "completed RK4 steps"

    def __init__(self, hoeg, seed: int, scratch: str):
        self.hoeg = hoeg
        self.problem = hoeg.builtin(FLOW_PROBLEM)
        self.configs = [hoeg.ContinuousConfig(order_p=p, t_end=t_end, dt=dt, z0=np.array(FLOW_Z0))
                        for p, t_end, dt in FLOW_CASES]
        reference = load_reference()["flow"]
        self.rtol, self.atol = reference["rtol"], reference["atol"]
        self.reference = reference["cases"]

    def close(self) -> None:
        pass

    def instrument(self, tracer) -> None:
        self.problem = tracer.instrument_problem(self.problem)

    def warm(self) -> None:
        for config in self.configs:
            tiny = self.hoeg.ContinuousConfig(order_p=config.order_p, t_end=20 * config.dt,
                                              dt=config.dt, z0=config.z0)
            self.hoeg.simulate(self.problem, tiny)

    def run_pass(self, new_operation, gauge) -> PassResult:
        """One unit per ``simulate`` call."""
        outcomes = []
        seconds = wall = 0.0
        for config, ref in zip(self.configs, self.reference):
            label = f"p={config.order_p} t_end={config.t_end:g} dt={config.dt:g}"
            new_operation()
            with gauge.unit() as unit:
                try:
                    log = self.hoeg.simulate(self.problem, config)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    log = exc
            seconds += unit.seconds
            wall += unit.wall
            if isinstance(log, Exception):
                outcomes.append(Outcome(label, config.order_p, 0, 0.0, False, [repr(log)]))
                continue
            outcomes.append(Outcome(label, config.order_p, len(log.t) - 1, unit.seconds,
                                    log.failed_at is None, self._check(label, config, log, ref), unit.wall))
        return PassResult(seconds, wall, outcomes, {})

    def _check(self, label, config, log, ref) -> list:
        # the reference point is the last step reached at the recording commit:
        # the end of the run, or the last step before the known resolvent stall
        index = ref["index"]
        if len(log.t) <= index:
            return [f"{label}: log ends at step {len(log.t) - 1}, before reference step {index}"]
        bad = []
        for key, values in (("op_norm", log.op_norm), ("integral", log.running_integral)):
            if not close(values[index], ref[key], self.rtol, self.atol):
                bad.append(f"{label}: {key} at step {index} is {values[index]!r}, reference {ref[key]!r}")
        if log.failed_at is None and len(log.t) != int(round(config.t_end / config.dt)) + 1:
            bad.append(f"{label}: {len(log.t)} steps logged without a failure")
        return bad


WORKLOADS = {cls.name: cls for cls in (Reproduce, Certify, Flow)}


def build(name: str, hoeg, seed: int, scratch: str):
    return WORKLOADS[name](hoeg, seed, scratch)
