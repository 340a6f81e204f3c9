"""Command-line front end: run solvers, reproduce figures, certify assumptions.

Exit codes: 0 success, 1 numeric/solver failure (``run`` and ``simulate``
still write their outputs up to the failure), 2 usage error, 3 verdict
failure, 4 I/O failure.  ``--alpha A`` selects the competitive operator
F_alpha on every subcommand that takes it.  ``--seed`` selects the sample
stream of ``certify``, and the environment variable HOEG_SEED overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import certify as cert
from .competitive import OperatorMode
from .dynamics import ContinuousConfig, simulate
from .errors import ConvergenceError, NumericError
from .problems import builtin, problem_names
from .recipes import RECIPES, min_opnorm_svg, run_recipe
from .solver import TERM_NUMERIC, TERM_SUBPROBLEM, SolverConfig, TrajectoryLog, run
from .svgplot import trajectory_plot_svg

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2
EXIT_VERDICT = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


@dataclass
class RunConfig:
    """Serializable description of one solver run."""

    problem: str
    p: int = 1
    Lp: Optional[float] = None
    K: int = 1000
    z0: tuple = (0.5, -0.5)
    alpha: Optional[float] = None  # None runs F, a value runs F_alpha
    outputs: dict = field(default_factory=dict)  # csv / svg / json_summary paths

    def resolved_lipschitz(self, problem) -> float:
        if self.Lp is not None:
            return float(self.Lp)
        published = problem.published_constants.get(self.p)
        if published is None:
            raise ValueError(
                f"{self.problem!r} has no published L_{self.p}; pass --Lp explicitly"
            )
        return float(published)

    def solver_config(self, problem) -> SolverConfig:
        return SolverConfig(
            order_p=self.p,
            lipschitz=self.resolved_lipschitz(problem),
            max_iterations=self.K,
            z0=np.array(self.z0, dtype=float),
            operator_mode=OperatorMode(self.alpha),
        )

    def to_json(self) -> str:
        payload = {
            "problem": self.problem, "p": self.p, "Lp": self.Lp, "K": self.K,
            "z0": list(self.z0), "alpha": self.alpha, "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object of RunConfig fields, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in raw.items():
            if not _CONFIG_CHECKS[name][0](value):
                raise ValueError(f"config field {name!r} must be {_CONFIG_CHECKS[name][1]}, got {value!r}")
        if "z0" in raw:
            raw["z0"] = tuple(float(v) for v in raw["z0"])
        return cls(**raw)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# RunConfig field -> (accepts the JSON value, what it must be)
_CONFIG_CHECKS = {
    "problem": (lambda v: isinstance(v, str), "a string"),
    "p": (_is_int, "an integer"),
    "Lp": (lambda v: v is None or _is_number(v), "a number or null"),
    "K": (_is_int, "an integer"),
    "z0": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    "alpha": (lambda v: v is None or _is_number(v), "a number or null"),
    "outputs": (lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
                "an object of output paths"),
}


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_run_csv(path: str, log: TrajectoryLog) -> None:
    d = log.z.shape[1]
    header = (["k"] + [f"z_{i}" for i in range(d)] + [f"zhalf_{i}" for i in range(d)]
              + ["lambda", "r", "opnorm", "residual", "subproblem_iters"])
    columns = zip(log.z.tolist(), log.z_half.tolist(), log.lambda_k.tolist(),
                  log.displacement_norm.tolist(), log.op_norm_half.tolist(),
                  log.subproblem_residual.tolist(), log.subproblem_iters.tolist())
    _write_csv(path, header, (
        [str(k)] + [_fmt(v) for v in z] + [_fmt(v) for v in z_half]
        + [_fmt(lam), _fmt(r), _fmt(op_norm), _fmt(residual), str(iters)]
        for k, (z, z_half, lam, r, op_norm, residual, iters) in enumerate(columns)))


def _run_summary(config: RunConfig, log: TrajectoryLog) -> dict:
    try:
        slope = cert.fit_rate(log)
    except ValueError:
        slope = None
    residual = log.failure_residual
    if residual is not None and not math.isfinite(residual):
        residual = None  # strict JSON has no inf; the termination still names the failure
    return {
        "problem": config.problem,
        "p": config.p,
        "K": config.K,
        "z_out": [float(v) for v in log.z_out],
        "out_index": log.out_index,
        "termination": log.termination,
        "failure_residual": residual,
        "min_opnorm": float(log.op_norm_half.min()),
        "fitted_slope": slope,
        "records": len(log),
    }


def _run_config(args) -> RunConfig:
    """The run that the options of ``_add_run_options`` describe."""
    return RunConfig(problem=args.problem, p=args.p, Lp=args.Lp, K=args.K,
                     z0=tuple(args.z0), alpha=args.alpha)


def _summarised_run(problem, config: RunConfig) -> TrajectoryLog:
    """The run behind ``rate`` and ``certify --q``, whose outputs mean nothing if it diverged."""
    log = run(problem, config.solver_config(problem))
    if log.termination == TERM_NUMERIC:
        raise NumericError(f"the run diverged after {len(log)} iterates")
    return log


def _write_run_svg(path: str, log: TrajectoryLog) -> None:
    if log.z.shape[1] == 2:
        base, ext = os.path.splitext(path)
        trajectory_plot_svg(base + "_trajectory" + ext, [("iterates", log.z)])
    min_opnorm_svg(path, [("min ||F||^2", log)])


def _cmd_run(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = RunConfig.from_json(handle.read())
    else:
        if not args.problem:
            print("error: --problem (or --config) is required", file=sys.stderr)
            return EXIT_USAGE
        config = _run_config(args)
        config.outputs = {k: v for k, v in
                          (("csv", args.csv), ("svg", args.svg), ("json_summary", args.json))
                          if v}
    problem = builtin(config.problem)
    log = run(problem, config.solver_config(problem))
    summary = _run_summary(config, log)
    if config.outputs.get("csv"):
        _write_run_csv(config.outputs["csv"], log)
    if config.outputs.get("svg"):
        _write_run_svg(config.outputs["svg"], log)
    if config.outputs.get("json_summary"):
        with open(config.outputs["json_summary"], "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
    print(json.dumps(summary, indent=2))
    return EXIT_SOLVER if log.termination in (TERM_SUBPROBLEM, TERM_NUMERIC) else EXIT_OK


def _cmd_reproduce(args) -> int:
    verdict = run_recipe(args.name, args.out_dir)
    print(json.dumps(verdict, indent=2))
    return EXIT_OK if verdict["ok"] else EXIT_VERDICT


def _cmd_simulate(args) -> int:
    problem = builtin(args.problem)
    config = ContinuousConfig(order_p=args.p, t_end=args.t_end, dt=args.dt, z0=np.array(args.z0))
    log = simulate(problem, config)
    if args.csv:
        d = log.z.shape[1]
        header = (["t"] + [f"z_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
                  + ["opnorm", "energy", "integral"])
        _write_csv(args.csv, header, (
            [_fmt(log.t[i])] + [_fmt(v) for v in log.z[i]] + [_fmt(v) for v in log.v[i]]
            + [_fmt(log.op_norm[i]), _fmt(log.energy[i]), _fmt(log.running_integral[i])]
            for i in range(len(log.t))))
    print(json.dumps({
        "problem": args.problem, "p": args.p, "t_end": args.t_end, "dt": args.dt,
        "final_opnorm": float(log.op_norm[-1]),
        "integral": float(log.running_integral[-1]),
        "samples": len(log.t),
        "failed_at": log.failed_at,
    }, indent=2))
    if log.failed_at is not None:
        print(f"error: resolvent failed at t={log.failed_at}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_certify(args) -> int:
    seed_text = os.environ.get("HOEG_SEED")
    try:
        seed = args.seed if seed_text is None else int(seed_text)
    except ValueError:
        raise ValueError(f"HOEG_SEED must be an integer, got {seed_text!r}") from None
    problem = builtin(args.problem)
    report = cert.certify_problem(
        problem, args.p, q=args.q, mode=OperatorMode(args.alpha),
        n_samples=args.samples, seed=seed,
    )
    payload = report.to_dict()
    if args.q is not None:
        run_config = _run_config(args)
        log = _summarised_run(problem, run_config)
        L1 = problem.published_constants.get(1, report.L_hat.get(1))
        payload["decoupled"] = cert.decoupled_threshold_report(
            problem, log, args.p, args.q,
            run_config.resolved_lipschitz(problem), L1, report.rho_hat_q,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_rate(args) -> int:
    problem = builtin(args.problem)
    log = _summarised_run(problem, _run_config(args))
    print(json.dumps({"problem": args.problem, "p": args.p, "K": args.K,
                      "slope": cert.fit_rate(log)}, indent=2))
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name in problem_names():
        print(name)
    return EXIT_OK


def _add_run_options(parser: argparse.ArgumentParser, K: int, z0: tuple) -> None:
    """--p --Lp --K --z0 --alpha, with the subcommand's own K and z0 defaults."""
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--Lp", type=float, default=None)
    parser.add_argument("--K", type=int, default=K)
    parser.add_argument("--z0", type=_parse_vector, default=np.array(z0))
    parser.add_argument("--alpha", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoeg",
        description="Higher-order extragradient solvers for min-max problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the solver on a problem")
    run_p.add_argument("--problem")
    run_p.add_argument("--config", help="JSON file with RunConfig fields")
    _add_run_options(run_p, K=1000, z0=(0.5, -0.5))
    run_p.add_argument("--csv")
    run_p.add_argument("--json")
    run_p.add_argument("--svg")
    run_p.set_defaults(func=_cmd_run)

    rep = sub.add_parser("reproduce", help="run a named figure recipe")
    rep.add_argument("name", choices=sorted(RECIPES))
    rep.add_argument("--out-dir", default="figures")
    rep.set_defaults(func=_cmd_reproduce)

    sim = sub.add_parser("simulate", help="integrate the continuous-time flow")
    sim.add_argument("--problem", required=True)
    sim.add_argument("--p", type=int, default=1)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--z0", type=_parse_vector, default=np.array([1.0, 1.0]))
    sim.add_argument("--csv")
    sim.set_defaults(func=_cmd_simulate)

    cfy = sub.add_parser("certify", help="estimate assumption constants")
    cfy.add_argument("--problem", required=True)
    _add_run_options(cfy, K=2000, z0=(0.5, -0.5))
    cfy.add_argument("--q", type=float, default=None,
                     help="also certify the decoupled exponent against a run")
    cfy.add_argument("--samples", type=int, default=10000)
    cfy.add_argument("--seed", type=int, default=0)
    cfy.add_argument("--json")
    cfy.set_defaults(func=_cmd_certify)

    rate = sub.add_parser("rate", help="fit the empirical convergence slope of a run")
    rate.add_argument("--problem", required=True)
    _add_run_options(rate, K=2000, z0=(1.0, 0.0))
    rate.set_defaults(func=_cmd_rate)

    lst = sub.add_parser("list", help="list built-in problems")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
