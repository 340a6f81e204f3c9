"""Command-line front end: run solvers, reproduce figures, certify assumptions.

Exit codes: 0 success, 1 numeric/solver failure (``run`` and ``simulate``
still write their outputs up to the failure), 2 usage error, 3 verdict
failure, 4 I/O failure.  ``--alpha A`` selects the competitive operator
F_alpha on every subcommand that takes it.  ``--seed`` selects the sample
stream of ``certify``.  ``hoeg run @FILE`` reads flags from FILE, one per
line (``--K=300`` or ``--K 300``); a flag given after it on the command line
wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import certify as cert
from .dynamics import ContinuousConfig, simulate
from .errors import ConvergenceError, NumericError
from .problems import OperatorMode, builtin, problem_names
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


def _lipschitz(args, problem) -> float:
    """``--Lp``, or the problem's published L_p when it is not given."""
    if args.Lp is not None:
        return args.Lp
    published = problem.published_constants.get(args.p)
    if published is None:
        raise ValueError(f"{args.problem!r} has no published L_{args.p}; pass --Lp explicitly")
    return float(published)


def _solver_config(args, problem) -> SolverConfig:
    """The run that the options of ``_add_run_options`` describe."""
    return SolverConfig(order_p=args.p, lipschitz=_lipschitz(args, problem), max_iterations=args.K,
                        z0=args.z0, operator_mode=OperatorMode(args.alpha))


_CSV_BLOCK_ROWS = 1024  # _write_csv formats and writes this many rows at a time


def _write_csv(path: str, columns: dict) -> None:
    """One row per index of the named columns, written in blocks of ``_CSV_BLOCK_ROWS``.

    A 2-D column ``z`` expands to ``z_0, z_1, ...``; integer columns print
    as integers and the others with 17 significant digits.
    """
    header, fields = [], []
    for name, values in columns.items():
        fmt = str if np.issubdtype(values.dtype, np.integer) else _fmt
        if values.ndim == 1:
            header.append(name)
            values = values[:, None]
        else:
            header += [f"{name}_{i}" for i in range(values.shape[1])]
        fields += [(fmt, column) for column in values.T]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(fields[0][1]), _CSV_BLOCK_ROWS):
            cells = [map(fmt, column[start:start + _CSV_BLOCK_ROWS].tolist()) for fmt, column in fields]
            handle.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _finite_or_none(x):
    """x as a float, or None where strict JSON has no number for it (inf, nan, or no value)."""
    return float(x) if x is not None and math.isfinite(x) else None


def _run_summary(log: TrajectoryLog) -> dict:
    try:
        slope = cert.fit_rate(log)
    except ValueError:
        slope = None
    return {
        "problem": log.problem.name,
        "p": log.config.order_p,
        "K": log.config.max_iterations,
        "z_out": [float(v) for v in log.z_out],
        "out_index": log.out_index,
        "termination": log.termination,
        "failure_residual": _finite_or_none(log.failure_residual),
        "min_opnorm": _finite_or_none(log.op_norm_half.min()),
        "fitted_slope": slope,
        "records": len(log),
    }


def _write_run_svg(path: str, log: TrajectoryLog) -> None:
    if log.z.shape[1] == 2:
        base, ext = os.path.splitext(path)
        trajectory_plot_svg(base + "_trajectory" + ext, [("iterates", log.z)])
    min_opnorm_svg(path, [("min ||F||^2", log)])


def _cmd_run(args) -> int:
    problem = builtin(args.problem)
    log = run(problem, _solver_config(args, problem))
    summary = _run_summary(log)
    if args.csv:
        _write_csv(args.csv, {
            "k": np.arange(len(log)), "z": log.z, "zhalf": log.z_half, "lambda": log.lambda_k,
            "r": log.displacement_norm, "opnorm": log.op_norm_half,
            "residual": log.subproblem_residual, "subproblem_iters": log.subproblem_iters,
        })
    if args.svg:
        _write_run_svg(args.svg, log)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
    print(json.dumps(summary, indent=2))
    return EXIT_SOLVER if log.termination in (TERM_SUBPROBLEM, TERM_NUMERIC) else EXIT_OK


def _cmd_reproduce(args) -> int:
    verdict = run_recipe(args.name, args.out_dir)
    print(json.dumps(verdict, indent=2))
    return EXIT_OK if verdict["ok"] else EXIT_VERDICT


def _cmd_simulate(args) -> int:
    config = ContinuousConfig(order_p=args.p, t_end=args.t_end, dt=args.dt, z0=np.array(args.z0))
    log = simulate(builtin(args.problem), config)
    if args.csv:
        _write_csv(args.csv, {"t": log.t, "z": log.z, "v": log.v, "opnorm": log.op_norm,
                              "energy": log.energy, "integral": log.running_integral})
    print(json.dumps({
        "problem": log.problem.name, "p": log.config.order_p,
        "t_end": log.config.t_end, "dt": log.config.dt,
        "final_opnorm": _finite_or_none(log.op_norm[-1]),
        "integral": _finite_or_none(log.running_integral[-1]),
        "samples": len(log.t),
        "failed_at": log.failed_at,
    }, indent=2))
    if log.failed_at is not None:
        print(f"error: resolvent failed at t={log.failed_at}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.q is None and args.Lp is not None:
        raise ValueError("--Lp sets the Lipschitz constant of the --q run; pass it with --q")
    problem = builtin(args.problem)
    report = cert.certify_problem(
        problem, args.p, q=args.q, mode=OperatorMode(args.alpha),
        n_samples=args.samples, seed=args.seed,
    )
    payload = report.to_dict()
    if args.q is not None:
        # the decoupled certificate of a diverged run means nothing
        log = run(problem, _solver_config(args, problem))
        if log.termination == TERM_NUMERIC:
            raise NumericError(f"the run diverged after {len(log)} iterates")
        payload["decoupled"] = cert.decoupled_threshold_report(log, report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    print(json.dumps(payload, indent=2))
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


class _Parser(argparse.ArgumentParser):
    """An args file holds one flag per line: ``--name=value`` or ``--name value``.

    Blank lines are skipped.  A line whose first token has no ``=`` is split
    at its first run of whitespace, so ``--csv a b.csv`` gives the value
    ``a b.csv``; a line ``--csv=a b.csv`` is one argument.
    """

    def convert_arg_line_to_args(self, arg_line: str) -> list:
        line = arg_line.strip()
        if not line:
            return []
        head = line.split(maxsplit=1)
        return [line] if "=" in head[0] else head


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hoeg",
        description="Higher-order extragradient solvers for min-max problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the solver on a problem; @FILE reads flags from FILE",
                           fromfile_prefix_chars="@")
    run_p.add_argument("--problem", required=True)
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
