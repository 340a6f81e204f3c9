"""The public surface: exported names, config fields, parameter names and CLI options.

A new option or export shows up here as a test edit, so it is reviewed as one.
"""

import argparse
import ast
import dataclasses
import glob
import inspect
import os
import re
import subprocess
import sys

import pytest

import hoeg
from hoeg.cli import build_parser

EXPORTS = [
    "CapabilityError",
    "CertReport",
    "ContinuousConfig",
    "ContinuousLog",
    "ConvergenceError",
    "DegenerateSampleError",
    "NumericError",
    "Operator",
    "OperatorMode",
    "ProblemSpec",
    "SolverConfig",
    "TrajectoryLog",
    "builtin",
    "certify_problem",
    "check_energy_bound",
    "check_half_step_norm_bound",
    "check_potential_inequality",
    "check_rho_threshold",
    "detect_cycling",
    "fit_rate",
    "problem_names",
    "run",
    "simulate",
]

PARAMETERS = {
    "builtin": ("name",),
    "certify_problem": ("problem", "p", "q", "mode", "n_samples", "seed"),
    "check_energy_bound": ("log", "rho"),
    "check_half_step_norm_bound": ("log",),
    "check_potential_inequality": ("log",),
    "check_rho_threshold": ("rho", "p", "Lp"),
    "detect_cycling": ("log",),
    "fit_rate": ("log",),
    "problem_names": (),
    "run": ("problem", "config"),
    "simulate": ("problem", "config"),
}

RUN_OPTIONS = ("--problem", "--p", "--Lp", "--K", "--z0", "--alpha")

CLI_OPTIONS = {
    "run": RUN_OPTIONS + ("--csv", "--json", "--svg"),
    "reproduce": ("name", "--out-dir"),
    "simulate": ("--problem", "--p", "--t-end", "--dt", "--z0", "--csv"),
    "certify": RUN_OPTIONS + ("--q", "--samples", "--seed", "--json"),
    "list": (),
}


# Exports that nothing outside the tests calls yet: the threshold and the
# paper's three inequality checks, until `hoeg reproduce` checks its own runs
UNCALLED_EXPORTS = {"check_energy_bound", "check_half_step_norm_bound", "check_potential_inequality",
                    "check_rho_threshold"}


def test_exported_names():
    assert hoeg.__all__ == EXPORTS


def _name(node):
    """The name a Name or an Attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _called_names(path):
    """The names a file's code calls (`name(...)`) or reads an attribute of (`name.attr`)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    return ({_name(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
            | {_name(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_export_is_called_outside_the_tests():
    # imports and __all__ name an export without a call; the benchmark's own scripts count as callers
    src = os.path.dirname(os.path.abspath(hoeg.__file__))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    paths = glob.glob(os.path.join(src, "*.py")) + glob.glob(os.path.join(perfbench, "*.py"))
    called = set().union(*map(_called_names, paths))
    assert set(hoeg.__all__) - called == UNCALLED_EXPORTS


def test_config_fields():
    fields = {cls.__name__: tuple(f.name for f in dataclasses.fields(cls))
              for cls in (hoeg.SolverConfig, hoeg.ContinuousConfig, hoeg.ProblemSpec, hoeg.ContinuousLog,
                          hoeg.TrajectoryLog)}
    assert fields == {
        "SolverConfig": ("order_p", "lipschitz", "max_iterations", "z0", "operator_mode"),
        "ContinuousConfig": ("order_p", "t_end", "dt", "z0"),
        "ProblemSpec": ("name", "d_x", "d_y", "grad_x", "grad_y", "mixed_hessian", "operator_jacobian",
                        "z_star", "sample_box", "published_constants"),
        "ContinuousLog": ("problem", "config", "t", "z", "v", "op_norm", "energy", "running_integral", "failed_at"),
        "TrajectoryLog": ("problem", "config", "z", "z_half", "lambda_k", "displacement_norm", "op_norm_half",
                          "subproblem_residual", "subproblem_iters", "z_out", "out_index", "termination",
                          "failure_residual"),
    }


def test_parameters_of_each_exported_function():
    functions = {name: getattr(hoeg, name) for name in hoeg.__all__
                 if inspect.isfunction(getattr(hoeg, name))}
    assert {name: tuple(inspect.signature(fn).parameters) for name, fn in functions.items()} == PARAMETERS


def test_cli_options():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {name: tuple(option for action in sub._actions if action.dest != "help"
                           for option in action.option_strings or [action.dest])
               for name, sub in subcommands.items()}
    assert options == CLI_OPTIONS


def test_numpy_is_the_only_runtime_dependency():
    # the modules that `import hoeg` loads, beyond the interpreter's own at startup
    probe = ("import sys; before = set(sys.modules); import hoeg; "
             "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hoeg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True).stdout.split()
    assert sorted(set(loaded) - set(sys.stdlib_module_names)) == ["hoeg", "numpy"]
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(src), "pyproject.toml")
    with open(pyproject, "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_only_errors_py_tests_for_a_bool():
    # a value check written by hand, outside the checks in errors.py, is how a bool used to slip through
    package = os.path.dirname(os.path.abspath(hoeg.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "errors.py":
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                found += [f"{name}:{number}" for number, line in enumerate(handle, 1)
                          if re.search(r"isinstance\(.*\bbool\b", line)]
    assert found == []


def test_overflow_is_caught_only_in_the_float_fallback():
    # a closed form past the float range is inf under np.errstate(over="ignore"); the one
    # exception path left is problems._on_floats, which re-evaluates a power on numpy scalars
    package = os.path.dirname(os.path.abspath(hoeg.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                found += [(name, line.strip()) for line in handle
                          if re.search(r"except .*OverflowError|FloatingPointError|errstate\(over=.raise", line)]
    assert found == [("problems.py", "except OverflowError:")]
