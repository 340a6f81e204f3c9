"""Numerical certification: assumption constants, thresholds, and rate fits.

Every estimator here is a sampled bound, not a proof: rho estimates are
maxima over a deterministic sample stream (so they only grow with more
samples), smoothness estimates are suprema over sampled pairs.  Streams are
indexed, which keeps a run with 2n samples an exact superset of the run
with n samples for the same seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ContinuousLog
from .errors import DegenerateSampleError, NumericError, check_count, check_order, check_real
from .problems import Operator, OperatorMode, ProblemSpec, _check_rows, _per_point
from .solver import TrajectoryLog

# Largest coefficient c such that, for every run of the iteration,
#   sum_k lambda_k (p!/L_p) <F(z_half), z_half - z*>
#     <= ||z* - z0||^2 - c * sum_k ||z_half - z_k||^2.
# c = 7/16 is exactly tight: the identity field with L1 = 1 saturates it.
POTENTIAL_COEF = 7.0 / 16.0

SKIP_NORM = 1e-10  # ratio samples closer than this to a zero of F are skipped

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_BALL_EVERY = 10   # every 10th sample probes a ball around z_star
_BALL_TIER = 32    # ball radius halves after this many ball samples
_MAX_TIER = 20     # radii stop shrinking near the roundoff scale


def _halton(indices: np.ndarray, base: int) -> np.ndarray:
    """Radical-inverse sequence for an array of indices."""
    result = np.zeros(len(indices), dtype=float)
    f = 1.0
    i = indices.astype(np.int64).copy()
    while np.any(i > 0):
        f /= base
        result += f * (i % base)
        i //= base
    return result


def _stream_start(seed: int) -> int:
    return 1 + (int(seed) * 7919) % 104729


def _check_halton_dimension(d: int, copies: int) -> None:
    max_d = len(_PRIMES) // copies
    if d > max_d:
        raise ValueError(f"Halton sampling of {copies} point(s) per sample supports "
                         f"dimension d <= {max_d}, got d = {d}")


def _z_star(problem: ProblemSpec) -> np.ndarray:
    if problem.z_star is None:
        raise ValueError(f"{problem.name!r} has no known stationary point to certify against")
    return problem.z_star


def _sample_box(problem: ProblemSpec) -> np.ndarray:
    if problem.sample_box is None:
        raise ValueError(f"{problem.name!r} has no sample_box to draw certification samples from")
    return problem.sample_box


def _halton_box(box: np.ndarray, n: int, seed: int, copies: int = 1) -> np.ndarray:
    """n low-discrepancy samples, each made of `copies` points of the box side by side.

    Column j of the (n, copies * d) result is the radical inverse in base
    _PRIMES[j], so the points of one sample are mutually independent.
    """
    d = box.shape[0]
    _check_halton_dimension(d, copies)
    lo = np.tile(box[:, 0], copies)
    width = np.tile(box[:, 1] - box[:, 0], copies)
    start = _stream_start(seed)
    idx = np.arange(start, start + n, dtype=np.int64)
    pts = np.empty((n, copies * d))
    for j in range(copies * d):
        pts[:, j] = lo[j] + width[j] * _halton(idx, _PRIMES[j])
    return pts


def _ball_offsets(rng, count: int, d: int, base_radius: float, max_tier: int, radial) -> np.ndarray:
    """``count`` offsets in d dimensions, in balls that shrink every _BALL_TIER offsets.

    Offset j draws its d normals, then one uniform u, and has length
    base_radius * 0.5^min(j // _BALL_TIER, max_tier) * radial(u), with the
    draws in that order and the scaling on arrays (``radial`` maps an array).
    """
    normals, u = np.empty((count, d)), np.empty(count)
    for j in range(count):
        normals[j] = rng.standard_normal(d)
        u[j] = rng.random()
    tiers = np.minimum(np.arange(count) // _BALL_TIER, max_tier)
    scale = base_radius * np.float_power(0.5, tiers) * radial(u)
    return scale[:, None] * (normals / np.maximum(_row_norms(normals), 1e-300)[:, None])


def sample_points(box: np.ndarray, n: int, seed: int, z_star) -> np.ndarray:
    """Low-discrepancy points in the box, with a shrinking-ball tier at z_star.

    The i-th point depends only on (seed, i), so prefixes are stable across
    different sample counts.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    pts = _halton_box(box, n, seed)
    ball = np.arange(_BALL_EVERY - 1, n, _BALL_EVERY)
    base_radius = 0.5 * float((box[:, 1] - box[:, 0]).max())
    pts[ball] = np.asarray(z_star, dtype=float) + _ball_offsets(
        np.random.default_rng(seed), len(ball), d, base_radius, _MAX_TIER,
        lambda u: np.float_power(u, 1.0 / d))
    return pts


def sample_pairs(box: np.ndarray, n: int, seed: int):
    """Pairs (z_a, z_b) in the box; odd indices are short pairs probing local slopes."""
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    pts = _halton_box(box, n, seed, copies=2)
    a, b = pts[:, :d], pts[:, d:]
    short = np.arange(1, n, 2)
    base_radius = 0.1 * float((box[:, 1] - box[:, 0]).max())
    offsets = _ball_offsets(np.random.default_rng(seed), len(short), d, base_radius, 13,
                            lambda u: 0.1 + 0.9 * u)
    b[short] = np.clip(a[short] + offsets, box[:, 0], box[:, 1])
    return a, b


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to np.linalg.norm of that row.

    np.linalg.norm takes a BLAS dot of the vector with itself; the batched
    matmul makes the same dot call per row, where summing squares would not.
    Like np.linalg.norm, it gives inf without a warning when a square overflows.
    """
    with np.errstate(over="ignore"):
        return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class RhoScan:
    value: float
    worst_violator: np.ndarray
    samples_used: int


def _rho_scan(operator: Operator, z_star, q: float, points: np.ndarray) -> RhoScan:
    """Sampled exponent-q rho of the field over ``points``, drawn by the caller with sample_points."""
    z_star = np.asarray(z_star, dtype=float)
    F = operator.rows(points)
    norms = _row_norms(F)
    used = np.flatnonzero(norms >= SKIP_NORM)
    if len(used) == 0:
        raise DegenerateSampleError("every sample fell inside the zero-norm skip region")
    # elementwise product + sum keeps exact cancellation for skew fields
    inner = np.sum(F[used] * (points[used] - z_star), axis=1)
    # np.float_power calls the C pow, as a float ** does; np.power may not
    ratio = -2.0 * inner / np.float_power(norms[used], q)
    worst = int(np.argmax(ratio))  # ties go to the earliest sample
    return RhoScan(float(ratio[worst]), points[used[worst]], len(used))


def check_rho_threshold(rho: float, p: int, Lp: float) -> bool:
    """rho <= (15/16) (p!/L_p)^((p+1)/p), the convergence-theorem condition, for a finite rho."""
    check_real(rho, "rho")
    return _below_threshold(rho, p, Lp)


def _below_threshold(rho: float, p: int, Lp: float) -> bool:
    """``check_rho_threshold`` for any rho; a sampled rho that overflowed to inf or nan is not below."""
    check_order(p)
    check_real(Lp, "Lp", positive=True)
    with np.errstate(over="ignore"):  # a tiny Lp: the threshold is inf, above every finite rho
        return bool(rho < math.inf and rho <= (15.0 / 16.0) * np.float_power(math.factorial(p) / Lp, (p + 1) / p))


@dataclass(frozen=True)
class _Pairs:
    """Sampled pairs (a, b) with F evaluated once at both ends."""

    a: np.ndarray
    b: np.ndarray
    F_a: np.ndarray
    F_b: np.ndarray


def _evaluated_pairs(field: Operator, n_pairs: int, seed: int) -> _Pairs:
    a, b = sample_pairs(_sample_box(field.problem), n_pairs, seed)
    return _Pairs(a, b, field.rows(a), field.rows(b))


def _smoothness(field: Operator, p: int, pairs: _Pairs) -> float:
    """Sampled L_p: p! times the sup of ||F(b) - tau_{p-1}(b, a)|| / ||b - a||^p over the pairs."""
    step = pairs.b - pairs.a
    gap = _row_norms(step)
    kept = np.flatnonzero(gap >= 1e-12)
    expansion = pairs.F_a[kept]  # tau_{p-1}(b, a): F around a to degree p - 1, taken at b
    if p == 2:
        J = _per_point(field.problem.operator_jacobian, pairs.a[kept], field._J_block)
        _check_rows(J, pairs.a[kept], field._J_block)
        expansion = expansion + (J @ step[kept][..., None])[..., 0]
    # F(b) - expansion in this order: regrouping the terms moves the last bits
    err = _row_norms(pairs.F_b[kept] - expansion)
    return float(math.factorial(p) * np.max(err / np.float_power(gap[kept], p), initial=0.0))


@np.errstate(over="ignore")  # as in _row_norms, a square that overflows is inf
def _comonotonicity(pairs: _Pairs) -> float:
    """Largest c with <F(a)-F(b), a-b> >= c ||F(a)-F(b)||^2 over the pairs."""
    dF = pairs.F_a - pairs.F_b
    denom = np.sum(dF * dF, axis=1)
    kept = np.flatnonzero(denom >= SKIP_NORM**2)
    if len(kept) == 0:
        raise DegenerateSampleError("no pair produced a usable field difference")
    return float(np.min(np.sum(dF[kept] * (pairs.a - pairs.b)[kept], axis=1) / denom[kept]))


@dataclass(frozen=True)
class CertReport:
    problem: str
    p: int
    q: float
    rho_hat_p: float
    rho_hat_q: float
    comono_hat: float
    L_hat: dict
    threshold_ok: bool
    threshold_Lp: float
    samples_used: int
    worst_violator: np.ndarray

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["L_hat"] = {str(k): v for k, v in self.L_hat.items()}
        out["worst_violator"] = list(self.worst_violator)
        return out


def certify_problem(problem: ProblemSpec, p: int, q: Optional[float] = None,
                    mode: Optional[OperatorMode] = None, n_samples: int = 10000,
                    seed: int = 0) -> CertReport:
    """Estimate the assumption constants of a problem and check the rho threshold.

    rho_hat_q is the largest sampled violation of <F(z), z - z*> >= -(rho/2) ||F(z)||^q,
    with F in ``mode`` and z* the problem's; rho_hat_p is the same at the theorem's q = (p+1)/p.
    """
    # every argument is checked before the first F evaluation
    check_order(p)
    if q is None:
        q = (p + 1) / p
    n_samples = check_count(n_samples, "n_samples")
    check_real(q, "q")
    seed = check_count(seed, "seed", positive=False)
    z_star = _z_star(problem)
    box = _sample_box(problem)
    _check_halton_dimension(box.shape[0], copies=2)  # the smoothness and comonotonicity pairs
    # L_2 is estimated only from an analytic Jacobian
    orders = (1, 2) if problem.operator_jacobian is not None else (1,)
    if p not in problem.published_constants and p not in orders:
        raise ValueError(f"no L_{p} available for {problem.name!r}")
    operator = Operator(problem, mode)
    # both scans read the same points; each still evaluates F at all of them
    points = sample_points(box, n_samples, seed, z_star)
    scan_p = _rho_scan(operator, z_star, (p + 1) / p, points)
    scan_q = _rho_scan(operator, z_star, q, points)
    field = Operator(problem)  # the smoothness and comonotonicity constants are those of F
    pairs = _evaluated_pairs(field, max(200, n_samples // 10), seed)
    L_hat = {order: _smoothness(field, order, pairs) for order in orders}
    Lp = problem.published_constants.get(p, L_hat.get(p))
    if p not in problem.published_constants and not math.isfinite(Lp):
        raise NumericError(f"the sampled L_{p} of {problem.name!r} is not finite ({Lp})")
    return CertReport(
        problem=problem.name,
        p=p,
        q=q,
        rho_hat_p=scan_p.value,
        rho_hat_q=scan_q.value,
        comono_hat=_comonotonicity(pairs),
        L_hat=L_hat,
        threshold_ok=_below_threshold(scan_p.value, p, Lp),
        threshold_Lp=float(Lp),
        samples_used=scan_p.samples_used,
        worst_violator=scan_p.worst_violator,
    )


def fit_rate(log: TrajectoryLog) -> float:
    """Log-log slope of the running minimum of ||F(z_half)||^2 over the run's second half."""
    if len(log) < 20:
        raise ValueError("need at least 20 records to fit a rate")
    running_min = log.running_min_sq()
    if np.any(running_min == 0.0):
        cutoff = int(np.argmax(running_min == 0.0))
        running_min = running_min[:cutoff]
        if len(running_min) < 4:
            raise ValueError("operator norm hit zero too early to fit a rate")
    k = np.arange(len(running_min))
    half = len(running_min) // 2
    if not np.isfinite(running_min[half:]).all():
        raise ValueError("||F(z_half)||^2 is not finite over the fitted half of the run")
    slope, _ = np.polyfit(np.log(k[half:] + 1.0), np.log(running_min[half:]), 1)
    return float(slope)


def _first_violation(margins: np.ndarray, tolerance) -> tuple:
    """(ok, index of the first margin below -tolerance or None, smallest margin).

    ``tolerance`` is a scalar or one value per margin.  A NaN margin counts as
    a violation, and the smallest margin of no rows is inf.
    """
    violated = ~(margins >= -tolerance)
    first = int(np.argmax(violated)) if violated.any() else None
    return first is None, first, float(np.min(margins, initial=math.inf))


@dataclass(frozen=True)
class PrefixReport:
    ok: bool
    first_violation_k: Optional[int]
    min_margin: float
    slack: float


@np.errstate(over="ignore", invalid="ignore")  # a diverged run's terms overflow; its margins report it
def check_potential_inequality(log: TrajectoryLog) -> PrefixReport:
    """Check the telescoped step-energy inequality at every prefix of a run.

    For each K the weighted sum of <F(z_half), z_half - z*> must stay below
    ||z* - z0||^2 - POTENTIAL_COEF * sum of squared displacements, up to a
    slack of 1e-8 (1 + ||z* - z0||^2).  z*, p, L_p and the field are the
    run's, so a competitive run is checked against F_alpha.
    """
    z_star = _z_star(log.problem)
    p, Lp = log.config.order_p, log.config.lipschitz
    operator = Operator(log.problem, log.config.operator_mode)
    if not len(log):
        return PrefixReport(True, None, math.inf, 0.0)
    budget = float(np.sum((z_star - log.z[0]) ** 2))
    slack = 1e-8 * (1.0 + budget)
    inner = np.sum(operator.rows(log.z_half) * (log.z_half - z_star), axis=1)
    # cumsum adds in sequence, as a running total does
    lhs = np.cumsum(log.lambda_k * (math.factorial(p) / Lp) * inner)
    disp_sq = np.cumsum(np.float_power(log.displacement_norm, 2))
    margins = (budget - POTENTIAL_COEF * disp_sq) - lhs
    return PrefixReport(*_first_violation(margins, slack), slack)


@np.errstate(over="ignore", invalid="ignore")  # as above
def check_half_step_norm_bound(log: TrajectoryLog) -> PrefixReport:
    """Check ||F(z_half)|| <= (3 L_p / p!) r^p at every recorded iterate, with the run's p and L_p.

    A row violates the bound when it exceeds it by more than
    1e-8 max(1, bound).
    """
    p, Lp = log.config.order_p, log.config.lipschitz
    slack = 1e-8
    bound = 3.0 * Lp / math.factorial(p) * np.float_power(log.displacement_norm, p)
    margins = bound - log.op_norm_half
    return PrefixReport(*_first_violation(margins, slack * np.maximum(1.0, bound)), slack)


@dataclass(frozen=True)
class EnergyReport:
    integral_bound: float
    integral_ok: bool
    integral_first_violation: Optional[float]
    integral_margin: float
    rate_ok: bool
    rate_first_violation: Optional[float]
    rate_margin: float
    slack: float


def check_energy_bound(log: ContinuousLog, rho: float) -> EnergyReport:
    """Check the flow's integral bound and the implied min-norm decay rate.

    With D = ||z0 - z*||, the integral of ||F||^(2/p) is at most
    D^2 / (2 - rho), so min_{s<=t} ||F(z(s))||^2 <= D^(2p) / ((2 - rho)^p t^p).
    Both bounds get the trapezoid discretization scale
    max(1e-9, dt^2 (1 + total)) as slack, where total is the final integral.
    """
    check_real(rho, "rho")
    if not rho < 2:
        raise ValueError("the bound needs rho < 2")
    D = float(np.linalg.norm(log.config.z0 - _z_star(log.problem)))
    p = log.config.order_p
    total = float(log.running_integral[-1])
    slack = max(1e-9, log.config.dt**2 * (1.0 + total))

    bound = D * D / (2.0 - rho)
    int_ok, int_first, int_margin = _first_violation(bound + slack - log.running_integral, 0.0)

    min_sq = np.minimum.accumulate(log.op_norm) ** 2
    t_pos = log.t[1:]
    # one power of a positive quotient: past the float range it is inf, never inf / inf
    with np.errstate(over="ignore"):
        rate_bound = np.float_power(D / (math.sqrt(2.0 - rho) * np.sqrt(t_pos)), 2 * p)
    rate_ok, rate_first, rate_margin = _first_violation(rate_bound + slack - min_sq[1:], 0.0)

    return EnergyReport(
        integral_bound=bound,
        integral_ok=int_ok,
        integral_first_violation=None if int_ok else float(log.t[int_first]),
        integral_margin=int_margin,
        rate_ok=rate_ok,
        rate_first_violation=None if rate_ok else float(t_pos[rate_first]),
        rate_margin=rate_margin,
        slack=float(slack),
    )


def decoupled_threshold_report(log: TrajectoryLog, report: CertReport) -> dict:
    """Certify the decoupled-exponent condition against a finished run.

    q and its sampled constant rho_hat_q are the report's, p, Lp and z* the
    run's, and L1 the run problem's published L_1, else the sampled one.
    The trajectory constant is D = max_k L1 ||z_half - z*||; the threshold
    is read as (15/16) * D^((p+1)/p - q) * (p!/Lp)^((p+1)/p).  The grouping
    of the D factors is ambiguous in its source; this reading matches the
    constant used by the balanced case and is flagged in the report.
    """
    p, Lp, q = log.config.order_p, log.config.lipschitz, report.q
    L1 = log.problem.published_constants.get(1, report.L_hat.get(1))
    D = float(np.max(L1 * _row_norms(log.z_half - _z_star(log.problem))))
    exponent = (p + 1) / p
    if D == 0.0 and q > exponent:
        raise ValueError(f"D = 0 (the run stays at z*): D^((p+1)/p - q) is undefined for q = {q}")
    with np.errstate(over="ignore"):  # as in _below_threshold, a power past the float range is inf
        threshold = float((15.0 / 16.0) * np.float_power(D, exponent - q)
                          * np.float_power(math.factorial(p) / Lp, exponent))
    return {
        "D": D,
        "q": q,
        "rho_hat_q": report.rho_hat_q,
        "threshold": threshold,
        "ok": bool(report.rho_hat_q <= threshold),
        "threshold_reading": "(15/16) * D**((p+1)/p - q) * (p!/Lp)**((p+1)/p)",
        "note": "threshold grouping is one of several readings of the stated condition",
    }
