"""`solver.run` on Python floats against the numpy loop it replaced.

`oracle_run` is that loop: z and F on arrays, the order-1 half-step as array
arithmetic, and the order-2 half-step with its model residual's J d a numpy
product and ||J||_F a BLAS dot; every norm is `vector_norm`, sqrt(v . v) with a
hypot fallback.  `run` makes no BLAS call: norms are `math.hypot` and J d an
index-order sum.  So at order 1 z and z_half keep the oracle's bits, and only
the norm columns may move in the last bit; at order 2 a last-bit change of
||J||_F or of a residual can move z by an ULP.  The row count, the
termination, the half-step solve counts and the output must not move.
"""

import dataclasses
import io
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

from hoeg import ConvergenceError, Operator, builtin, halfstep, run, solver
from hoeg.halfstep import GAP_RTOL, MAX_DOUBLINGS, MAX_TRIALS, MODEL_RTOL, HalfStepResult, _shifted_solve
from hoeg.recipes import RECIPES
from test_flow_floats import vector_norm

BUDGET = 300
# |float - numpy| <= RTOL * max(1, |numpy|) on every entry of z and z_half (Z_RTOL) and of
# the norm columns (NORM_RTOL).  The largest seen over the 30 recipe runs at this budget
# is 6.5e-19 on z and z_half and 1.2e-15 on a norm column (a subproblem residual); at
# the recipes' budget of 5000, 3.3e-16 and 1.6e-15.
Z_RTOL, NORM_RTOL = 1e-15, 4e-15
NORM_COLUMNS = ("displacement_norm", "op_norm_half", "subproblem_residual")


def oracle_half_step_p1(F_k, L1, z_k):
    d = -F_k / (2.0 * L1)
    g = F_k + 2.0 * L1 * d
    return HalfStepResult(z_k + d, vector_norm(d), vector_norm(g), 0)


def oracle_half_step_p2(F_k, J_k, L2, z_k):
    """The order-2 half-step with F, J and d on arrays, J d as ``J_k @ d``, ||J||_F as a BLAS dot."""
    F = F_k.tolist()
    norm_F = math.hypot(*F)
    J, neg_F = J_k.tolist(), [-x for x in F]
    if not (math.isfinite(norm_F) and all(map(math.isfinite, [x for row in J for x in row]))):
        raise ConvergenceError("not finite", residual=math.inf)
    if norm_F == 0.0:
        return HalfStepResult(z_k.copy(), 0.0, 0.0, 0)
    scale = MODEL_RTOL * max(1.0, norm_F)
    solved = []

    def residual_of(d):
        if d is None:
            return math.inf
        d = np.array(d)
        return math.hypot(*(F_k + J_k @ d + L2 * math.hypot(*d.tolist()) * d).tolist())

    def pinned(gap, r):
        return min(abs(gap), hi - lo) <= GAP_RTOL * r

    def trial(r):
        d = _shifted_solve(J, neg_F, L2 * r)
        norm_d = math.inf if d is None else math.hypot(*d)
        if d is not None and not math.isfinite(norm_d):
            raise ConvergenceError("gap not finite", residual=math.inf)
        solved.append((r, 1.0 / norm_d if norm_d > 0.0 else math.inf))
        return d, norm_d

    norm_J = vector_norm(J_k.ravel("K"))
    four_LF = 4.0 * L2 * norm_F
    if norm_J < 1e150 and four_LF < math.inf:
        r_lo = 2.0 * norm_F / (norm_J + math.sqrt(norm_J**2 + four_LF))
    else:
        half_J = 0.5 * norm_J
        r_lo = norm_F / (half_J + math.hypot(half_J, math.sqrt(L2) * math.sqrt(norm_F)))
    lo, hi = 0.0, norm_F / L2 + 1e-12
    d = None
    for _ in range(MAX_DOUBLINGS + 1):
        if not hi < r_lo:
            d, norm_d = trial(hi)
            if norm_d <= hi:
                break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError("no sign change", residual=residual_of(d))
    d_lo, d_hi = None, d
    r = hi
    if lo < r_lo < hi:
        r = r_lo
        d, norm_d = trial(r)
    last_move = math.inf
    for _ in range(MAX_TRIALS):
        step = math.nan
        if d is not None and norm_d > 0.0:
            if pinned(norm_d - r, r) and (residual := residual_of(d)) <= scale:
                return HalfStepResult(z_k + d, norm_d, residual, len(solved))
            if len(solved) > 1:
                (r0, q0), (r1, q1) = solved[-2:]
                b = (q1 - q0) / (r1 - r0)
                a = q1 - b * r1
                disc = a * a + 4.0 * b
                m = 1.0
                if disc == math.inf:
                    m = max(abs(a), math.sqrt(abs(b)))
                    a, b = a / m, b / m / m
                    disc = a * a + 4.0 * b
                if disc >= 0.0 and a + math.sqrt(disc) > 0.0:
                    step = 2.0 / (a + math.sqrt(disc)) / m
        if norm_d > r:
            lo, d_lo = r, d
        else:
            hi, d_hi = r, d
        if not (lo < step < hi and abs(step - r) <= 0.5 * last_move):
            step = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        if not lo < step < hi:
            break
        last_move, r = abs(step - r), step
        d, norm_d = trial(r)
    if d_lo is not None:
        d_lo, d_hi = np.array(d_lo), np.array(d_hi)
        t_lo, t_hi = 0.0, 1.0
        for _ in range(53):
            t = 0.5 * (t_lo + t_hi)
            d, r = d_lo + t * (d_hi - d_lo), lo + t * (hi - lo)
            norm_d = math.hypot(*d)
            t_lo, t_hi = (t, t_hi) if norm_d > r else (t_lo, t)
    residual = residual_of(d)
    if pinned(norm_d - r, r) and residual <= scale:
        return HalfStepResult(z_k + d, norm_d, residual, len(solved))
    raise ConvergenceError("stopped", residual=residual)


@np.errstate(over="ignore", invalid="ignore")
def oracle_run(problem, config):
    """The columns, z_out, out_index and termination of the numpy loop, fixed-point fill and floor stop included."""
    operator = Operator(problem, config.operator_mode)
    p, L = config.order_p, config.lipschitz
    coef = math.factorial(p) / (2.0 * L)
    z = np.array(config.z0, dtype=float)
    budget = config.max_iterations + 1
    rows, still_rows, last_z_half, termination = [], 0, None, solver.TERM_BUDGET
    for k in range(budget):
        F_k = operator.at(z)
        if p == 1:
            half = oracle_half_step_p1(F_k, L, z)
        else:
            half = oracle_half_step_p2(F_k, operator.jacobian(z), L, z)
        r = half.displacement_norm
        F_half = operator.at(half.z_half)
        lam = 0.5 * r ** (1 - p) if r > 0.0 or p == 1 else 0.0
        rows.append((z, half.z_half, lam, r, vector_norm(F_half), half.residual_norm, half.iterations_used))
        if r == 0.0:
            termination = solver.TERM_STATIONARY
            break
        z_next = z - (coef * lam) * F_half
        if z_next.tobytes() == z.tobytes():
            rows += [rows[-1]] * (budget - len(rows))
            break
        z_half = half.z_half.tolist()
        still = k > 0 and all(abs(a - b) <= solver.FLOOR_TOL * abs(b) for a, b in zip(z_half, last_z_half))
        still_rows, last_z_half = (still_rows + 1 if still else 0), z_half
        if still_rows == solver.FLOOR_ROWS:
            termination = solver.TERM_FLOOR
            break
        z = z_next
    names = ("z", "z_half", "lambda_k", "displacement_norm", "op_norm_half", "subproblem_residual", "subproblem_iters")
    columns = {name: np.array(column) for name, column in zip(names, zip(*rows))}
    out_index = int(np.argmin(columns["op_norm_half"]))
    return columns, columns["z_half"][out_index], out_index, termination


PRESETS = [(name, preset) for name, recipe in RECIPES.items() for preset in recipe.runs]


@pytest.mark.parametrize("name, preset", PRESETS, ids=[f"{name} {preset.label}" for name, preset in PRESETS])
def test_every_recipe_run_matches_the_numpy_loop(name, preset):
    problem = builtin(preset.problem)
    config = dataclasses.replace(preset.config(), max_iterations=BUDGET)
    log = run(problem, config)
    columns, z_out, out_index, termination = oracle_run(problem, config)
    assert (len(log), log.termination, log.out_index) == (len(columns["z"]), termination, out_index)
    assert log.subproblem_iters.tobytes() == columns["subproblem_iters"].astype(np.int64).tobytes()
    assert log.z_out.tobytes() == z_out.tobytes()
    for column in ("z", "z_half") + NORM_COLUMNS:
        got, want = getattr(log, column), columns[column]
        rtol = Z_RTOL if column in ("z", "z_half") else NORM_RTOL
        assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))), column
    if config.order_p == 1:
        for column in ("z", "z_half", "lambda_k"):
            assert getattr(log, column).tobytes() == columns[column].tobytes(), column


def _code_tokens(module):
    """The tokens of ``module``'s source, without its strings, comments and decorators' @."""
    tokens = list(tokenize.generate_tokens(io.StringIO(Path(module.__file__).read_text()).readline))
    line_start = (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT)
    return [tok.string for prev, tok in zip([None] + tokens, tokens)
            if tok.type not in (tokenize.STRING, tokenize.COMMENT)
            and not (tok.string == "@" and (prev is None or prev.type in line_start))]


@pytest.mark.parametrize("module", [solver, halfstep], ids=["solver", "halfstep"])
def test_the_iteration_makes_no_blas_or_lapack_call(module):
    # products and norms are Python float code: no matrix product, dot or numpy.linalg call
    tokens = _code_tokens(module)
    assert "@" not in tokens and "@=" not in tokens
    assert "linalg" not in tokens
    assert ("dot", "(") not in [(a, b) for dot, a, b in zip(tokens, tokens[1:], tokens[2:]) if dot == "."]
