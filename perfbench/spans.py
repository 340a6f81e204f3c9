"""Layer tracing from outside the program: wrap the calls into each hoeg module.

A ``Tracer`` replaces module-level functions of ``hoeg`` (in every hoeg module
that holds a reference to them), the callables of each ``ProblemSpec`` that
``hoeg.builtin`` returns, and ``numpy.linalg.solve``.  Every wrapped call is
a span: it adds its duration to the enclosing span's child time, so a layer's
self time is its spans' durations minus the time their child spans cover.

Spans of the coarse calls (operations, trajectories, half-steps, resolvent
solves, certification phases, plots) are kept in memory as (name, start,
end, parent, operation) rows and written out by ``write_spans``.  The hot leaf
calls (problem callables, operator and Jacobian evaluation, the competitive
operator, Taylor models, ``numpy.linalg.solve``) are aggregated into
per-name statistics instead of stored one by one, which keeps memory bounded.

A name that the traced tree no longer defines is listed in ``absent`` and
simply not measured.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from array import array

# (module, function, layer, stored as a span row)
TARGETS = (
    ("recipes", "run_recipe", "recipes", True),
    ("solver", "run", "solver", True),
    ("solver", "select_output", "solver", True),
    ("solver", "detect_cycling", "solver", True),
    ("halfstep", "solve_half_step_p1", "halfstep", True),
    ("halfstep", "solve_half_step_p2", "halfstep", True),
    ("problems", "eval_operator", "problems", False),
    ("problems", "eval_jacobian", "problems", False),
    ("competitive", "eval_f_alpha", "competitive", False),
    ("competitive", "f_alpha_jacobian", "competitive", False),
    ("taylor", "taylor_model", "taylor", False),
    ("taylor", "tau", "taylor", False),
    ("certify", "certify_problem", "certify", True),
    ("certify", "_rho_scan", "certify", True),
    ("certify", "estimate_q_rho", "certify", True),
    ("certify", "estimate_smoothness", "certify", True),
    ("certify", "estimate_comonotonicity", "certify", True),
    ("certify", "sample_points", "certify", True),
    ("certify", "sample_pairs", "certify", True),
    ("dynamics", "simulate", "dynamics", True),
    ("dynamics", "resolvent_solve", "dynamics", True),
    ("svgplot", "line_plot_svg", "svgplot", True),
    ("svgplot", "trajectory_plot_svg", "svgplot", True),
)

# ProblemSpec fields that hold callables: field -> span name.  One F
# evaluation calls grad_x once; mixed_hessian is called once per
# competitive-operator evaluation.
PROBLEM_CALLABLES = {
    "grad_x": "problem.grad_x",
    "grad_y": "problem.grad_y",
    "operator_jacobian": "problem.operator_jacobian",
    "mixed_hessian": "problem.mixed_hessian",
}


def replace_everywhere(package, original, replacement) -> list:
    """Point every module-level reference to ``original`` inside ``package`` at ``replacement``.

    ``from .x import f`` copies the reference, so each hoeg module that holds
    ``f`` is patched.  Returns (module, attribute, original) triples to undo it.
    """
    prefix = package.__name__
    undo = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == prefix or key.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class NameStats:
    """Aggregates for one wrapped name."""

    __slots__ = ("layer", "calls", "failures", "self_s", "incl_s", "depth",
                 "f_inside", "solves_inside")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.failures = 0
        self.self_s = 0.0
        self.incl_s = 0.0      # outermost calls only, so recursion is not counted twice
        self.depth = 0
        self.f_inside = 0      # F evaluations made inside this name's spans
        self.solves_inside = 0  # numpy.linalg.solve calls made inside this name's spans


class Tracer:
    """Installs span wrappers into a loaded ``hoeg`` package and undoes them."""

    def __init__(self, hoeg_module, numpy_module):
        self.hoeg = hoeg_module
        self.np = numpy_module
        self.stats = {}
        self.absent = []
        self.svg_bytes = 0
        self.solves_by_layer = {}
        self.op_id = -1
        self._stack = []   # frames: [child_time, nearest stored span row or -1, layer]
        self._restore = []
        self._f_stats = None
        self._solve_stats = None
        self._names = []
        self._name_ids = {}
        self._rows = None
        self.reset()

    # ----- bookkeeping -------------------------------------------------

    def reset(self) -> None:
        """Drop all counts and span rows; the wrappers stay installed."""
        for st in self.stats.values():
            st.calls = st.failures = st.f_inside = st.solves_inside = 0
            st.self_s = st.incl_s = 0.0
        self.svg_bytes = 0
        self.solves_by_layer = {}
        self._rows = {"name": array("i"), "start": array("d"), "end": array("d"),
                      "parent": array("i"), "op": array("i")}

    def new_operation(self) -> int:
        self.op_id += 1
        return self.op_id

    def _stat(self, name: str, layer: str) -> NameStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = NameStats(layer)
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # ----- the span wrapper --------------------------------------------

    def wrap(self, fn, name: str, layer: str, stored: bool, on_return=None):
        st = self._stat(name, layer)
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            f_stats, solve_stats = tracer._f_stats, tracer._solve_stats
            f0 = f_stats.calls if f_stats is not None else 0
            s0 = solve_stats.calls if solve_stats is not None else 0
            parent_row = stack[-1][1] if stack else -1
            row = parent_row
            start = clock()
            if stored:
                rows = tracer._rows
                row = len(rows["name"])
                rows["name"].append(name_id)
                rows["start"].append(start)
                rows["end"].append(start)
                rows["parent"].append(parent_row)
                rows["op"].append(tracer.op_id)
            frame = [0.0, row, layer]
            stack.append(frame)
            st.depth += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                st.depth -= 1
                dur = end - start
                st.calls += 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.incl_s += dur
                    if f_stats is not None:
                        st.f_inside += f_stats.calls - f0
                    if solve_stats is not None:
                        st.solves_inside += solve_stats.calls - s0
                if not ok:
                    st.failures += 1
                if stack:
                    stack[-1][0] += dur
                if stored:
                    tracer._rows["end"][row] = end
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ----- installing --------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        self._restore.extend(replace_everywhere(self.hoeg, original, replacement))

    def instrument_problem(self, problem):
        """A copy of ``problem`` whose callables are wrapped; unchanged if it cannot be copied."""
        changes = {}
        for field_name, span_name in PROBLEM_CALLABLES.items():
            fn = getattr(problem, field_name, None)
            if callable(fn) and not hasattr(fn, "__wrapped__"):
                changes[field_name] = self.wrap(fn, span_name, "problems", False)
        if not changes:
            return problem
        try:
            return dataclasses.replace(problem, **changes)
        except (TypeError, ValueError):
            self._note_absent("ProblemSpec callables (problem is not a replaceable dataclass)")
            return problem

    def _note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self) -> None:
        for module_name, fn_name, layer, stored in TARGETS:
            try:
                module = importlib.import_module(f"{self.hoeg.__name__}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, fn_name, None)
            if not callable(original):
                self._note_absent(f"{module_name}.{fn_name}")
                continue
            on_return = self._count_svg_bytes if layer == "svgplot" else None
            self._replace_everywhere(original, self.wrap(original, f"{module_name}.{fn_name}",
                                                         layer, stored, on_return))

        builtin = getattr(self.hoeg, "builtin", None)
        if callable(builtin):
            stats = self._stat("problems.builtin", "problems")

            def instrumented_builtin(*args, **kwargs):
                stats.calls += 1
                return self.instrument_problem(builtin(*args, **kwargs))

            instrumented_builtin.__wrapped__ = builtin
            self._replace_everywhere(builtin, instrumented_builtin)
        else:
            self._note_absent("builtin")

        linalg = self.np.linalg
        solve = linalg.solve
        traced_solve = self.wrap(solve, "linalg.solve", "linalg", False)
        stack = self._stack

        def attributed_solve(*args, **kwargs):
            layer = stack[-1][2] if stack else "benchmark"
            self.solves_by_layer[layer] = self.solves_by_layer.get(layer, 0) + 1
            return traced_solve(*args, **kwargs)

        linalg.solve = attributed_solve
        self._restore.append((linalg, "solve", solve))
        self._f_stats = self._stat("problem.grad_x", "problems")
        self._solve_stats = self._stat("linalg.solve", "linalg")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_svg_bytes(self, args, kwargs, result) -> None:
        # trajectory_plot_svg writes through line_plot_svg: count a file only
        # when no other plot call is still open
        if any(st.depth for st in self.stats.values() if st.layer == "svgplot"):
            return
        path = kwargs.get("path", args[0] if args else None)
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            self.svg_bytes += os.path.getsize(path)

    # ----- reading -----------------------------------------------------

    def count(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st is not None else 0

    def layer_self_s(self, layer: str) -> float:
        return sum(st.self_s for st in self.stats.values() if st.layer == layer)

    def field(self, name: str, attr: str):
        st = self.stats.get(name)
        return getattr(st, attr) if st is not None else 0

    def span_count(self) -> int:
        return len(self._rows["name"])

    def write_spans(self, path: str) -> None:
        """Write the stored span rows as tab-separated text."""
        rows = self._rows
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\toperation\n")
            t0 = rows["start"][0] if rows["start"] else 0.0
            for i in range(len(rows["name"])):
                out.write(f"{i}\t{names[rows['name'][i]]}\t{rows['start'][i] - t0:.9f}\t"
                          f"{rows['end'][i] - t0:.9f}\t{rows['parent'][i]}\t{rows['op'][i]}\n")
