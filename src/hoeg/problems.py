"""Saddle-point problems and the min-max operator F(z) = (grad_x f, -grad_y f).

A problem bundles a saddle function f(x, y) with hand-coded derivative
blocks.  The built-in registry covers the test problems used throughout the
experiment suite; all of them are two-dimensional (d_x = d_y = 1) but the
interfaces are dimension-generic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericError

Vector = np.ndarray

FD_STEP = 1e-5  # central-difference step of every differenced operator Jacobian


@dataclass(frozen=True)
class ProblemSpec:
    """A saddle problem with analytic derivative blocks.

    ``grad_x``/``grad_y`` take the flat coordinate vector and return the
    respective gradient block.  ``mixed_hessian`` returns the d_x-by-d_y
    cross block of second derivatives and is required for the competitive
    operator.  ``operator_jacobian`` returns the full Jacobian of F; when
    absent it is replaced by central finite differences.

    Every callable must be deterministic: the same input gives the same
    bytes.  ``solver.run`` relies on it, since it stops computing once an
    iterate repeats bit for bit and fills the remaining records from the
    last computed one.
    """

    name: str
    d_x: int
    d_y: int
    f: Callable[[Vector], float]
    grad_x: Callable[[Vector], Vector]
    grad_y: Callable[[Vector], Vector]
    mixed_hessian: Optional[Callable[[Vector], np.ndarray]] = None
    operator_jacobian: Optional[Callable[[Vector], np.ndarray]] = None
    z_star: Optional[Vector] = None
    sample_box: Optional[np.ndarray] = None
    published_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d_x < 1 or self.d_y < 1:
            raise ValueError("both blocks need at least one coordinate")
        if self.sample_box is not None:
            box = np.asarray(self.sample_box, dtype=float)
            if box.shape != (self.d, 2) or not np.all(box[:, 1] > box[:, 0]):
                raise ValueError("sample_box must give a positive-width interval per coordinate")
            object.__setattr__(self, "sample_box", box)
        if self.z_star is not None:
            z = np.asarray(self.z_star, dtype=float)
            object.__setattr__(self, "z_star", z)
            if np.linalg.norm(eval_operator(self, z)) > 1e-6:
                raise ValueError(f"z_star of {self.name!r} is not stationary to 1e-6")

    @property
    def d(self) -> int:
        return self.d_x + self.d_y


def _coords(problem: ProblemSpec, z) -> Vector:
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.d,):
        raise ValueError(f"expected a vector of length {problem.d}, got shape {z.shape}")
    return z


def eval_operator(problem: ProblemSpec, z) -> Vector:
    """Evaluate F(z) = (grad_x f(z), -grad_y f(z))."""
    z = _coords(problem, z)
    out = np.concatenate([problem.grad_x(z), -problem.grad_y(z)])
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite operator value for {problem.name!r} at {z}")
    return out


def operator_rows(problem: ProblemSpec, points) -> np.ndarray:
    """F at each row of an (n, d) array: the rows of eval_operator at those points.

    grad_x and grad_y are called once per row; the sign flip of the y block
    and the finiteness check are taken once over the whole array, so an
    exception raised at a later row comes before the NumericError of an
    earlier one.  The flip is the only arithmetic and is exact, so each row
    equals eval_operator's bit for bit (for float blocks: an integer zero in
    the y block flips to -0.0 here and to 0 there).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != problem.d:
        raise ValueError(f"expected an array of rows of length {problem.d}, got shape {points.shape}")
    grad_x, grad_y = problem.grad_x, problem.grad_y
    expected = ((problem.d_x,), (problem.d_y,))
    X = np.empty((len(points), problem.d_x))
    Y = np.empty((len(points), problem.d_y))
    for i, z in enumerate(points):
        gx, gy = grad_x(z), grad_y(z)
        # a row store broadcasts, so a block of the wrong shape must be caught here;
        # this is np.shape without its call overhead
        try:
            shapes = gx.shape, gy.shape
        except AttributeError:
            shapes = np.shape(gx), np.shape(gy)
        if shapes != expected:
            raise ValueError(f"operator of {problem.name!r} has blocks of shapes {shapes[0]} "
                             f"and {shapes[1]} at {z}, expected {expected[0]} and {expected[1]}")
        X[i] = gx
        Y[i] = gy
    out = np.concatenate([X, -Y], axis=1)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        z = points[np.argmin(finite)]
        raise NumericError(f"non-finite operator value for {problem.name!r} at {z}")
    return out


def _per_point(fn, points: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """fn at each row of ``points``, one point at a time, into a preallocated array.

    Serves the mixed Hessians of F_alpha's rows and the Jacobians of the L_2
    estimate.  Each value must have exactly ``shape``.
    """
    out = np.empty((len(points),) + shape)
    for i, z in enumerate(points):
        value = fn(z)
        if np.shape(value) != shape:
            raise ValueError(f"{what} has shape {np.shape(value)}")
        out[i] = value
    return out


def central_difference(fn: Callable[[Vector], Vector], z: Vector) -> np.ndarray:
    """Jacobian of fn at z by central differences with step FD_STEP in each coordinate."""
    d = z.size
    jac = np.empty((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = FD_STEP
        jac[:, j] = (fn(z + step) - fn(z - step)) / (2 * FD_STEP)
    return jac


def eval_jacobian(problem: ProblemSpec, z) -> np.ndarray:
    """Jacobian of F at z: analytic when provided, else central differences."""
    z = _coords(problem, z)
    if problem.operator_jacobian is not None:
        jac = np.asarray(problem.operator_jacobian(z), dtype=float)
    else:
        jac = central_difference(lambda zz: eval_operator(problem, zz), z)
    if not np.isfinite(jac).all():
        raise NumericError(f"non-finite Jacobian for {problem.name!r} at {z}")
    return jac


# Degree-six polynomial well shared by the two hard examples.
def _h(t):
    return t**2 / 4 - t**4 / 2 + t**6 / 6


def _h1(t):
    return t / 2 - 2 * t**3 + t**5


def _h2(t):
    return 0.5 - 6 * t**2 + 5 * t**4


def _box(half_width: float) -> np.ndarray:
    return np.array([[-half_width, half_width], [-half_width, half_width]])


def _coupled_well(name, shift, z_star, half_width, constants):
    # f(x, y) = x (y - shift) + h(x) - h(y)
    return ProblemSpec(
        name=name,
        d_x=1,
        d_y=1,
        f=lambda z: z[0] * (z[1] - shift) + _h(z[0]) - _h(z[1]),
        grad_x=lambda z: np.array([z[1] - shift + _h1(z[0])]),
        grad_y=lambda z: np.array([z[0] - _h1(z[1])]),
        mixed_hessian=lambda z: np.array([[1.0]]),
        operator_jacobian=lambda z: np.array([[_h2(z[0]), 1.0], [-1.0, _h2(z[1])]]),
        z_star=z_star,
        sample_box=_box(half_width),
        published_constants=constants,
    )


def _make_forsaken():
    # Root of F refined to machine precision; rounds to the (0.0780, 0.4119)
    # usually quoted for this problem.
    return _coupled_well(
        "forsaken", 0.45, np.array([0.07802666873846009, 0.41193385136581984]), 1.5, {}
    )


def _make_modified_forsaken():
    return _coupled_well(
        "modified_forsaken",
        1.5,
        np.array([1.3114748057843684, 1.475932757992642]),
        2.0,
        {1: 20.0, 2: 50000.0},
    )


def _make_x2y():
    return ProblemSpec(
        name="x2y",
        d_x=1,
        d_y=1,
        f=lambda z: z[0] ** 2 * z[1],
        grad_x=lambda z: np.array([2 * z[0] * z[1]]),
        grad_y=lambda z: np.array([z[0] ** 2]),
        mixed_hessian=lambda z: np.array([[2 * z[0]]]),
        operator_jacobian=lambda z: np.array([[2 * z[1], 2 * z[0]], [-2 * z[0], 0.0]]),
        z_star=np.zeros(2),
        sample_box=_box(1.0),
        published_constants={1: 20.0, 2: 500.0},
    )


def _make_bilinear():
    return ProblemSpec(
        name="bilinear",
        d_x=1,
        d_y=1,
        f=lambda z: z[0] * z[1],
        grad_x=lambda z: np.array([z[1]]),
        grad_y=lambda z: np.array([z[0]]),
        mixed_hessian=lambda z: np.array([[1.0]]),
        operator_jacobian=lambda z: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        z_star=np.zeros(2),
        sample_box=_box(2.0),
        published_constants={},
    )


def _make_quadratic_monotone():
    return ProblemSpec(
        name="quadratic_monotone",
        d_x=1,
        d_y=1,
        f=lambda z: 0.5 * z[0] ** 2 - 0.5 * z[1] ** 2,
        grad_x=lambda z: np.array([z[0]]),
        grad_y=lambda z: np.array([-z[1]]),
        mixed_hessian=lambda z: np.array([[0.0]]),
        operator_jacobian=lambda z: np.eye(2),
        z_star=np.zeros(2),
        sample_box=_box(2.0),
        published_constants={},
    )


# Linear field gamma*I + rotation: comonotone with constant gamma/(gamma^2+1).
COMONOTONE_GAMMA = -0.2


def _make_comonotone_toy():
    g = COMONOTONE_GAMMA
    return ProblemSpec(
        name="comonotone_toy",
        d_x=1,
        d_y=1,
        f=lambda z: 0.5 * g * (z[0] ** 2 - z[1] ** 2) + z[0] * z[1],
        grad_x=lambda z: np.array([g * z[0] + z[1]]),
        grad_y=lambda z: np.array([z[0] - g * z[1]]),
        mixed_hessian=lambda z: np.array([[1.0]]),
        operator_jacobian=lambda z: np.array([[g, 1.0], [-1.0, g]]),
        z_star=np.zeros(2),
        sample_box=_box(2.0),
        published_constants={},
    )


_REGISTRY = {
    "forsaken": _make_forsaken,
    "modified_forsaken": _make_modified_forsaken,
    "x2y": _make_x2y,
    "bilinear": _make_bilinear,
    "quadratic_monotone": _make_quadratic_monotone,
    "comonotone_toy": _make_comonotone_toy,
}


def problem_names() -> list:
    return sorted(_REGISTRY)


def builtin(name: str) -> ProblemSpec:
    """Return a fully wired built-in problem by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(problem_names())}") from None
    return factory()
