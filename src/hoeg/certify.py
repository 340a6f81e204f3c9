"""Numerical certification: assumption constants, thresholds, and rate fits.

Every estimator here is a sampled bound, not a proof: rho estimates are
maxima over a deterministic sample stream (so they only grow with more
samples), smoothness estimates are suprema over sampled pairs.  Streams are
indexed, which keeps a run with 2n samples an exact superset of the run
with n samples for the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .competitive import Operator, OperatorMode
from .errors import DegenerateSampleError
from .halfstep import check_order
from .problems import ProblemSpec, _per_point, eval_jacobian, operator_rows
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


def sample_points(box: np.ndarray, n: int, seed: int, z_star=None) -> np.ndarray:
    """Low-discrepancy points in the box, with a shrinking-ball tier at z_star.

    The i-th point depends only on (seed, i), so prefixes are stable across
    different sample counts.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    pts = _halton_box(box, n, seed)
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=float)
        rng = np.random.default_rng(seed)
        base_radius = 0.5 * float((box[:, 1] - box[:, 0]).max())
        ball_positions = np.arange(_BALL_EVERY - 1, n, _BALL_EVERY)
        for j, i in enumerate(ball_positions):
            direction = rng.standard_normal(d)
            direction /= max(np.linalg.norm(direction), 1e-300)
            radius = base_radius * 0.5 ** min(j // _BALL_TIER, _MAX_TIER) * rng.random() ** (1.0 / d)
            pts[i] = z_star + radius * direction
    return pts


def sample_pairs(box: np.ndarray, n: int, seed: int):
    """Pairs (z_a, z_b) in the box; odd indices are short pairs probing local slopes."""
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    pts = _halton_box(box, n, seed, copies=2)
    a, b = pts[:, :d], pts[:, d:]
    rng = np.random.default_rng(seed)
    base_radius = 0.1 * float((box[:, 1] - box[:, 0]).max())
    short_positions = np.arange(1, n, 2)
    for j, i in enumerate(short_positions):
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-300)
        radius = base_radius * 0.5 ** min(j // _BALL_TIER, 13) * (0.1 + 0.9 * rng.random())
        b[i] = np.clip(a[i] + radius * direction, box[:, 0], box[:, 1])
    return a, b


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to np.linalg.norm of that row.

    np.linalg.norm takes a BLAS dot of the vector with itself; the batched
    matmul makes the same dot call per row, where summing squares would not.
    """
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class RhoScan:
    value: float
    worst_violator: Optional[np.ndarray]
    samples_used: int


def _check_scan(n_samples, q) -> None:
    """Reject a sample count or exponent that no rho scan can use, before any sampling."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")


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


def estimate_q_rho(problem: ProblemSpec, z_star, q: float, n_samples: int, seed: int,
                   mode: Optional[OperatorMode] = None) -> float:
    """Largest sampled violation of <F(z), z - z*> >= -(rho/2) ||F(z)||^q."""
    _check_scan(n_samples, q)
    operator = Operator(problem, mode)
    points = sample_points(_sample_box(problem), n_samples, seed, z_star)
    return _rho_scan(operator, z_star, q, points).value


def estimate_weak_mvi_rho(problem: ProblemSpec, z_star, p: int, n_samples: int, seed: int,
                          mode: Optional[OperatorMode] = None) -> float:
    """Order-p variant: exponent (p+1)/p on the operator norm."""
    check_order(p)
    return estimate_q_rho(problem, z_star, (p + 1) / p, n_samples, seed, mode)


def check_rho_threshold(rho: float, p: int, Lp: float) -> bool:
    """rho <= (15/16) (p!/L_p)^((p+1)/p), the convergence-theorem condition."""
    if not Lp > 0:
        raise ValueError("Lp must be positive")
    return rho <= (15.0 / 16.0) * (math.factorial(p) / Lp) ** ((p + 1) / p)


@dataclass(frozen=True)
class _Pairs:
    """Sampled pairs (a, b) with F evaluated once at both ends."""

    a: np.ndarray
    b: np.ndarray
    F_a: np.ndarray
    F_b: np.ndarray


def _evaluated_pairs(problem: ProblemSpec, n_pairs: int, seed: int) -> _Pairs:
    a, b = sample_pairs(_sample_box(problem), n_pairs, seed)
    return _Pairs(a, b, operator_rows(problem, a), operator_rows(problem, b))


def _smoothness(problem: ProblemSpec, p: int, pairs: _Pairs) -> float:
    """Sampled L_p: p! times the sup of ||F(b) - tau_{p-1}(b, a)|| / ||b - a||^p over the pairs."""
    step = pairs.b - pairs.a
    gap = _row_norms(step)
    kept = np.flatnonzero(gap >= 1e-12)
    expansion = pairs.F_a[kept]  # tau_{p-1}(b, a): F around a to degree p - 1, taken at b
    if p == 2:
        J = _per_point(lambda z: eval_jacobian(problem, z), pairs.a[kept], (problem.d, problem.d),
                       f"Jacobian of {problem.name!r}")
        expansion = expansion + (J @ step[kept][..., None])[..., 0]
    # F(b) - expansion in this order: regrouping the terms moves the last bits
    err = _row_norms(pairs.F_b[kept] - expansion)
    return float(math.factorial(p) * np.max(err / np.float_power(gap[kept], p), initial=0.0))


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
    worst_violator: Optional[np.ndarray]

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "p": self.p,
            "q": self.q,
            "rho_hat_p": self.rho_hat_p,
            "rho_hat_q": self.rho_hat_q,
            "comono_hat": self.comono_hat,
            "L_hat": {str(k): v for k, v in self.L_hat.items()},
            "threshold_ok": self.threshold_ok,
            "threshold_Lp": self.threshold_Lp,
            "samples_used": self.samples_used,
            "worst_violator": None if self.worst_violator is None else list(self.worst_violator),
        }


def certify_problem(problem: ProblemSpec, p: int, q: Optional[float] = None,
                    mode: Optional[OperatorMode] = None, n_samples: int = 10000,
                    seed: int = 0) -> CertReport:
    """Estimate the assumption constants of a problem and check the rho threshold."""
    # every argument is checked before the first F evaluation
    check_order(p)
    if q is None:
        q = (p + 1) / p
    _check_scan(n_samples, q)
    if problem.z_star is None:
        raise ValueError(f"{problem.name!r} has no known stationary point to certify against")
    box = _sample_box(problem)
    _check_halton_dimension(box.shape[0], copies=2)  # the smoothness and comonotonicity pairs
    # L_2 is estimated only from an analytic Jacobian
    orders = (1, 2) if problem.operator_jacobian is not None else (1,)
    if p not in problem.published_constants and p not in orders:
        raise ValueError(f"no L_{p} available for {problem.name!r}")
    operator = Operator(problem, mode)
    # both scans read the same points; each still evaluates F at all of them
    points = sample_points(box, n_samples, seed, problem.z_star)
    scan_p = _rho_scan(operator, problem.z_star, (p + 1) / p, points)
    scan_q = _rho_scan(operator, problem.z_star, q, points)
    pairs = _evaluated_pairs(problem, max(200, n_samples // 10), seed)
    L_hat = {order: _smoothness(problem, order, pairs) for order in orders}
    Lp = problem.published_constants.get(p, L_hat.get(p))
    return CertReport(
        problem=problem.name,
        p=p,
        q=q,
        rho_hat_p=scan_p.value,
        rho_hat_q=scan_q.value,
        comono_hat=_comonotonicity(pairs),
        L_hat=L_hat,
        threshold_ok=check_rho_threshold(scan_p.value, p, Lp),
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
    slope, _ = np.polyfit(np.log(k[half:] + 1.0), np.log(running_min[half:]), 1)
    return float(slope)


@dataclass(frozen=True)
class PrefixReport:
    ok: bool
    first_violation_k: Optional[int]
    min_margin: float
    slack: float


def check_potential_inequality(problem: ProblemSpec, log: TrajectoryLog, z_star,
                               p: int, Lp: float, mode: Optional[OperatorMode] = None,
                               slack: Optional[float] = None) -> PrefixReport:
    """Check the telescoped step-energy inequality at every prefix of a run.

    For each K the weighted sum of <F(z_half), z_half - z*> must stay below
    ||z* - z0||^2 - POTENTIAL_COEF * sum of squared displacements.
    """
    z_star = np.asarray(z_star, dtype=float)
    operator = Operator(problem, mode).at
    if not len(log):
        return PrefixReport(True, None, math.inf, 0.0)
    z0 = log.z[0]
    budget = float(np.sum((z_star - z0) ** 2))
    if slack is None:
        slack = 1e-8 * (1.0 + budget)
    coef = math.factorial(p) / Lp
    lhs = 0.0
    disp_sq = 0.0
    min_margin = math.inf
    first_violation = None
    rows = zip(log.z_half, log.lambda_k.tolist(), log.displacement_norm.tolist())
    for k, (z_half, lam, r) in enumerate(rows):
        F_half = operator(z_half)
        lhs += lam * coef * float(np.sum(F_half * (z_half - z_star)))
        disp_sq += r**2
        margin = (budget - POTENTIAL_COEF * disp_sq) - lhs
        if margin < min_margin:
            min_margin = margin
        if margin < -slack and first_violation is None:
            first_violation = k
    return PrefixReport(first_violation is None, first_violation, min_margin, slack)


def check_half_step_norm_bound(log: TrajectoryLog, p: int, Lp: float,
                               slack: float = 1e-8) -> PrefixReport:
    """Check ||F(z_half)|| <= (3 L_p / p!) r^p at every recorded iterate."""
    coef = 3.0 * Lp / math.factorial(p)
    min_margin = math.inf
    first_violation = None
    rows = zip(log.displacement_norm.tolist(), log.op_norm_half.tolist())
    for k, (r, op_norm) in enumerate(rows):
        bound = coef * r**p
        margin = bound - op_norm
        if margin < min_margin:
            min_margin = margin
        if margin < -slack * max(1.0, bound) and first_violation is None:
            first_violation = k
    return PrefixReport(first_violation is None, first_violation, min_margin, slack)


def decoupled_threshold_report(problem: ProblemSpec, log: TrajectoryLog, p: int, q: float,
                               Lp: float, L1: float, rho_hat_q: float) -> dict:
    """Certify the decoupled-exponent condition against a finished run.

    ``rho_hat_q`` is the sampled exponent-q constant (``CertReport.rho_hat_q``
    or ``estimate_q_rho``).  The trajectory constant is
    D = max_k L1 ||z_half - z*||; the threshold is read as
    (15/16) * D^((p+1)/p - q) * (p!/Lp)^((p+1)/p).  The grouping of
    the D factors is ambiguous in its source; this reading matches the
    constant used by the balanced case and is flagged in the report.
    """
    if problem.z_star is None:
        raise ValueError("need a stationary point for the decoupled certificate")
    z_star = problem.z_star
    D = max(L1 * float(np.linalg.norm(z_half - z_star)) for z_half in log.z_half)
    exponent = (p + 1) / p
    if D == 0.0 and q > exponent:
        raise ValueError(f"D = 0 (the run stays at z*): D^((p+1)/p - q) is undefined for q = {q}")
    threshold = (15.0 / 16.0) * D ** (exponent - q) * (math.factorial(p) / Lp) ** exponent
    return {
        "D": D,
        "q": q,
        "rho_hat_q": rho_hat_q,
        "threshold": threshold,
        "ok": bool(rho_hat_q <= threshold),
        "threshold_reading": "(15/16) * D**((p+1)/p - q) * (p!/Lp)**((p+1)/p)",
        "note": "threshold grouping is one of several readings of the stated condition",
    }
