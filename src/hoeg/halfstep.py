"""Half-step subproblem solvers: roots z' of the regularized Taylor model
tau_{p-1}(z', z_k) + (2 L_p / p!) ||z' - z_k||^{p-1} (z' - z_k), where tau_{p-1}
expands F around z_k to degree p - 1.  Only orders 1 and 2 are supported.
Both are internal to ``solver.run``, which checked L_p, passes F and J as float
arrays from ``Operator`` and holds numpy's over/invalid state.

Order 1 has the closed form z' = z_k - F(z_k) / (2 L1).  Order 2 reduces to a
scalar root-find on the step radius: with d(r) = -(J + L2 r I)^{-1} F, find a
radius r where the gap g(r) = ||d(r)|| - r vanishes.  The radius grid
hi0 * 2^k, hi0 = ||F|| / L2 + 1e-12, is doubled up to its first sign change
of g; grid points below a lower bound r_lo, where g > 0 is certain, are
skipped without a solve.  Inside that bracket 1/||d(r)|| is nearly linear in r,
so each step solves 1/||d|| = 1/r on the line through the last two solved radii
at one solve (More & Sorensen 1983; Cartis, Gould & Toint 2011), and bisects
when a step leaves the bracket or stalls, or J + L2 r I is singular.

The returned radius is a sign-change root of g in the first doubling
bracket.  It is the unique root when the symmetric part of J is positive
semidefinite, since then ||d(r)|| decreases in r; for other J the bracket
may hold several roots and any one of them may be returned.

Each trial radius is one solve of (J + L2 r I) d = -F by Gaussian elimination
with partial pivoting (LAPACK's dgesv) in Python floats, free of numpy's per-call
overhead; at d = 2 the elimination is unrolled, the same operations in the same
order.  F is read once as floats, while J d and ||J||_F stay numpy products, since
BLAS sets their bits.  Against the same half-step with each trial solved by
numpy.linalg.solve, a call on random models takes 0.24 of the time at d = 2, 0.62
at d = 3, 0.78 at d = 4, 1.1 at d = 6 and 1.7 at d = 8 (2-core Xeon, OpenBLAS).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

MAX_DOUBLINGS = 60   # grid points hi0 * 2^k, k <= 60, tried for a sign change
GAP_RTOL = 1e-10     # accepted radii satisfy | ||d|| - r | <= GAP_RTOL * r
MODEL_RTOL = 1e-10   # and a model residual <= MODEL_RTOL * max(1, ||F_k||)
MAX_TRIALS = 200     # interpolation/bisection trials inside the doubling bracket
_FLOAT_MIN = sys.float_info.min  # smallest positive normal double


def _norm(v: np.ndarray) -> float:
    """Euclidean norm that stays positive for entries below 1e-154, whose squares underflow."""
    return math.hypot(*v)


def vector_norm(v: np.ndarray) -> float:
    """sqrt(v . v), or ``_norm`` where the sum of squares underflows the normal range or overflows.

    ``v.dot(v)`` is the BLAS dot of ``v @ v``, bit for bit, without its ufunc dispatch.
    """
    sq = v.dot(v)
    return math.sqrt(sq) if _FLOAT_MIN <= sq < math.inf else _norm(v)


def _shifted_solve(A: list, b: list, shift: float):
    """x with (A + shift I) x = b, by Gaussian elimination with partial pivoting as LAPACK's dgesv.

    A (a list of rows) and b hold Python floats and are left unchanged.  Returns None where a
    pivot is exactly 0, where dgesv reports a singular matrix; no other pivot is divided by.
    """
    n = len(b)
    if n == 2:   # the loop below, unrolled: the same operations in the same order
        (a00, a01), (a10, a11) = A
        b0, b1 = b
        a00 += shift
        a11 += shift
        if abs(a10) > abs(a00):
            a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
        if a00 == 0.0:
            return None
        f = a10 / a00
        a11 -= f * a01
        b1 -= f * b0
        if a11 == 0.0:
            return None
        x1 = b1 / a11
        return [(b0 - x1 * a01) / a00, x1]
    rows = [row + [b_i] for row, b_i in zip(A, b)]
    for i in range(n):
        rows[i][i] += shift
    for k in range(n):
        p, big = k, abs(rows[k][k])   # the first largest |entry| of column k, as idamax
        for i in range(k + 1, n):
            if abs(rows[i][k]) > big:
                p, big = i, abs(rows[i][k])
        top = rows[p]
        rows[p], rows[k] = rows[k], top
        if top[k] == 0.0:
            return None
        for row in rows[k + 1:]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [row[n] for row in rows]
    for k in range(n - 1, -1, -1):   # column-oriented back substitution, as dtrsv
        x[k] /= rows[k][k]
        for i in range(k):
            x[i] -= x[k] * rows[i][k]
    return x


@dataclass(frozen=True)
class HalfStepResult:
    """A half-step and its certificate.

    ``iterations_used`` counts the linear solves the half-step made (0 for
    the closed-form order-1 step).
    """

    z_half: np.ndarray
    displacement_norm: float
    residual_norm: float
    iterations_used: int


def solve_half_step_p1(F_k: np.ndarray, L1: float, z_k: np.ndarray) -> HalfStepResult:
    """Closed-form order-1 half-step z' = z_k - F_k / (2 L1)."""
    d = -F_k / (2.0 * L1)
    g = F_k + 2.0 * L1 * d
    return HalfStepResult(z_k + d, vector_norm(d), vector_norm(g), 0)


def solve_half_step_p2(F_k: np.ndarray, J_k: np.ndarray, L2: float, z_k: np.ndarray) -> HalfStepResult:
    """Order-2 half-step: solve F_k + J_k d + L2 ||d|| d = 0 for d.

    Stops once the model residual is <= MODEL_RTOL * max(1, ||F_k||) and r is
    pinned to GAP_RTOL r, by the gap | ||d|| - r | or by the width of the
    bracket around r.  Raises ConvergenceError, carrying the last model
    residual, when ||F_k|| or an entry of J_k is not finite, when no sign
    change of the gap appears within MAX_DOUBLINGS doublings, when the gap
    is not finite, or when MAX_TRIALS interpolation/bisection trials do not
    meet the stopping rule.
    """
    F = F_k.tolist()
    norm_F = math.hypot(*F)
    J, neg_F = J_k.tolist(), [-x for x in F]
    if not (math.isfinite(norm_F) and all(map(math.isfinite, [x for row in J for x in row]))):
        raise ConvergenceError("half-step model is not finite (||F_k|| or an entry of J_k)", residual=math.inf)
    if norm_F == 0.0:
        return HalfStepResult(z_k.copy(), 0.0, 0.0, 0)

    scale = MODEL_RTOL * max(1.0, norm_F)
    solved = []   # (r, 1 / ||d(r)||) of every solve in order; 1/inf = 0 at a singular radius

    def residual_of(d) -> float:
        if d is None:
            return math.inf
        d = np.array(d)
        return math.hypot(*(F_k + J_k @ d + L2 * math.hypot(*d.tolist()) * d).tolist())

    def pinned(gap: float, r: float) -> bool:
        # the gap test alone can be out of reach when J + L2 r I is badly
        # conditioned; a bracket pinned to GAP_RTOL * r locates r as well
        return min(abs(gap), hi - lo) <= GAP_RTOL * r

    def trial(r: float):
        """(d(r), ||d(r)||); d is None at a singular radius, where ||d|| counts as +inf."""
        d = _shifted_solve(J, neg_F, L2 * r)
        norm_d = math.inf if d is None else _norm(d)
        if d is not None and not math.isfinite(norm_d):
            raise ConvergenceError(f"half-step radius gap is not finite at r = {r:.3e}",
                                   residual=math.inf)
        solved.append((r, 1.0 / norm_d if norm_d > 0.0 else math.inf))
        return d, norm_d

    # Below r_lo, ||d(r)|| >= ||F|| / (||J||_F + L2 r) > r, so the gap is
    # positive without a solve.  r_lo is the positive root of
    # L2 r^2 + ||J||_F r - ||F|| = 0, written without cancellation, and in a
    # scale-free form with hypot where ||J||_F^2 or 4 L2 ||F|| would overflow.
    norm_J = vector_norm(J_k.ravel("K"))  # the order np.linalg.norm sums in
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
        raise ConvergenceError(f"half-step radius gap kept its sign over {MAX_DOUBLINGS} doublings",
                               residual=residual_of(d))

    # Secular interpolation: fit 1/||d|| = a + b r through the last two solved
    # radii (exact when J = cI) and step to the positive root of a + b r = 1/r.
    # The first pair is hi and r_lo, or hi and the solved grid point below it.
    # With no pair, or when a step leaves the bracket or is not half as long as
    # the step before it, bisect: geometrically once lo > 0, so that roots far
    # below hi are reached quickly.
    d_lo, d_hi = None, d
    r = hi
    if lo < r_lo < hi:
        r = r_lo
        d, norm_d = trial(r)
    last_move = math.inf
    for _ in range(MAX_TRIALS):
        step = math.nan
        if d is not None and norm_d > 0.0:   # d underflows to 0 only for subnormal F
            if pinned(norm_d - r, r) and (residual := residual_of(d)) <= scale:
                return HalfStepResult(z_k + d, norm_d, residual, len(solved))
            if len(solved) > 1:
                (r0, q0), (r1, q1) = solved[-2:]
                b = (q1 - q0) / (r1 - r0)
                a = q1 - b * r1
                disc = a * a + 4.0 * b
                m = 1.0
                if disc == math.inf:   # a * a or 4 b overflows: find m r, m = max(|a|, sqrt|b|)
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
            break   # the bracket has shrunk to adjacent doubles
        last_move, r = abs(step - r), step
        d, norm_d = trial(r)

    # A root where g is steep can fall between two adjacent doubles, so that
    # neither end meets the stopping rule.  On the chord d = d_lo + t (d_hi - d_lo),
    # r = lo + t (hi - lo) the model residual is L2 t (1-t) (hi - lo) ||d_hi - d_lo||
    # once ||d|| = r, and ||d|| - r is convex in t, so bisect t for its one root.
    if d_lo is not None:
        d_lo, d_hi = np.array(d_lo), np.array(d_hi)
        t_lo, t_hi = 0.0, 1.0
        for _ in range(53):
            t = 0.5 * (t_lo + t_hi)
            d, r = d_lo + t * (d_hi - d_lo), lo + t * (hi - lo)
            norm_d = _norm(d)
            t_lo, t_hi = (t, t_hi) if norm_d > r else (t_lo, t)
    residual = residual_of(d)
    if pinned(norm_d - r, r) and residual <= scale:
        return HalfStepResult(z_k + d, norm_d, residual, len(solved))
    raise ConvergenceError(f"half-step radius search stopped after {len(solved)} solves "
                           f"(residual {residual:.3e}, tolerance {scale:.3e})", residual=residual)
