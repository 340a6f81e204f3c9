"""Saddle-point problems and the min-max operator F(z) = (grad_x f, -grad_y f).

A problem is the hand-coded derivative blocks of a saddle function f(x, y);
f itself is never evaluated, since the method and its certificates need only
F and its derivatives.  ``Operator`` is the one code that evaluates the
field, F or the competitive F_alpha, for the solver, certify and the flow.
The built-in registry covers the test problems used throughout the
experiment suite; all of them are two-dimensional (d_x = d_y = 1) but the
interfaces are dimension-generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, NumericError, check_array, check_count, check_real

Vector = np.ndarray

FD_STEP = 1e-5  # central-difference step of every differenced operator Jacobian
_CHUNK = 1024  # rows of point-by-point values stacked and checked at once


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
    last computed one.  ``Operator.rows`` stacks the values of many calls,
    so each call must return a new array, not a buffer it overwrites.  The
    built-ins compute on Python floats, and on numpy scalars where a float
    power overflows; a user callable may compute as it likes.
    """

    name: str
    d_x: int
    d_y: int
    grad_x: Callable[[Vector], Vector]
    grad_y: Callable[[Vector], Vector]
    mixed_hessian: Optional[Callable[[Vector], np.ndarray]] = None
    operator_jacobian: Optional[Callable[[Vector], np.ndarray]] = None
    z_star: Optional[Vector] = None
    sample_box: Optional[np.ndarray] = None
    published_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        for block in ("d_x", "d_y"):
            object.__setattr__(self, block, check_count(getattr(self, block), block))
        if self.sample_box is not None:
            box = check_array(self.sample_box, "sample_box", (self.d, 2))
            if not (np.all(box[:, 1] > box[:, 0]) and np.isfinite(box).all()):
                raise ValueError("sample_box must give a finite, positive-width interval per coordinate")
            object.__setattr__(self, "sample_box", box)
        if self.z_star is not None:
            z = check_array(self.z_star, "z_star", (self.d,))
            object.__setattr__(self, "z_star", z)
            if np.linalg.norm(Operator(self).at(z)) > 1e-6:
                raise ValueError(f"z_star of {self.name!r} is not stationary to 1e-6")

    @property
    def d(self) -> int:
        return self.d_x + self.d_y


def _shaped(value, z, block: tuple):
    """``value``, computed at z; a ValueError unless it has the shape of ``block = (shape, name, noun)``.

    A row store and a concatenation both accept a wrong shape, the first by
    broadcasting and the second by a wrong split, so it must be caught here.
    """
    try:
        value_shape = value.shape  # np.shape without its call overhead
    except AttributeError:  # a sequence: returned as an array, so that ``tolist`` serves it too
        value = np.asarray(value)
        value_shape = value.shape
    if value_shape != block[0]:
        raise ValueError(f"{block[1]} has shape {value_shape} at {z}, expected {block[0]}")
    return value


def _real(value, z, block: tuple) -> np.ndarray:
    """``value``, computed at z, as floats; a ValueError unless it is real with the shape of ``block``."""
    if np.iscomplexobj(_shaped(value, z, block)):
        raise ValueError(f"{block[1]} is complex at {z}")
    return np.asarray(value, dtype=float)


def _per_point(fn, points: np.ndarray, block: tuple) -> np.ndarray:
    """fn at each row of ``points``, one point at a time, stacked _CHUNK rows at a time.

    Serves the gradient blocks of F's rows, the mixed Hessians of F_alpha's
    rows and the Jacobians of the L_2 estimate; each value must be real and
    have the shape of ``block``.  A chunk is checked after fn has run at all
    its rows, so fn's exception at a later row of a chunk comes before a wrong
    shape or a complex value at an earlier row, named as ``Operator.at`` does.
    """
    out = np.empty((len(points),) + block[0])
    for start in range(0, len(points), _CHUNK):
        values = [fn(z) for z in points[start:start + _CHUNK]]
        try:
            stacked = np.array(values)
        except ValueError:  # values of unequal shapes: the scan below names one
            stacked = np.empty(0)
        if stacked.shape != (len(values),) + block[0] or np.iscomplexobj(stacked):
            for z, value in zip(points[start:], values):  # the first offending row
                _real(value, z, block)
        out[start:start + len(values)] = stacked
    return out


def _check_rows(values: np.ndarray, points: np.ndarray, block: tuple) -> None:
    """Raise NumericError naming the first point whose row of ``values`` is not finite, sought only then."""
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        raise NumericError(f"non-finite {block[2]} at {points[np.argmin(finite)]}")


@dataclass(frozen=True)
class OperatorMode:
    """Which field the solver follows: F when alpha is None, F_alpha for a value (0 included)."""

    alpha: Optional[float] = None

    def __post_init__(self):
        if self.alpha is not None:
            check_real(self.alpha, "alpha", low=0)

    @classmethod
    def standard(cls) -> "OperatorMode":
        return cls()

    @classmethod
    def competitive(cls, alpha: float) -> "OperatorMode":
        check_real(alpha, "alpha", low=0)  # before float() turns a bool into a number
        return cls(float(alpha))


def block_matrix(B: np.ndarray, alpha: float) -> np.ndarray:
    """M = [[I, alpha B], [-alpha B^T, I]] for each mixed Hessian B of a stack.

    ``B`` has shape (n, d_x, d_y) and M has shape (n, d, d).
    ``Operator.rows`` solves with the stack.  ``Operator.at`` assembles its
    one M from lists, bit for bit this layout.
    """
    n, d_x, d_y = B.shape
    d = d_x + d_y
    M = np.tile(np.eye(d), (n, 1, 1))
    M[..., :d_x, d_x:] = alpha * B
    M[..., d_x:, :d_x] = -alpha * B.swapaxes(-1, -2)
    return M


class Operator:
    """The one code that evaluates a field: at a point, at the rows of an array, and its Jacobian.

    The field is F(z) = (grad_x f(z), -grad_y f(z)), or F_alpha when the
    mode sets alpha: F_alpha(z) solves M u = F(z) with
    M = [[I, alpha B], [-alpha B^T, I]] and B = grad_xy f(z).  M is the identity
    plus a real skew-symmetric matrix, so its symmetric part is I and the
    solve is always well posed; in particular F_alpha and F share their zero
    set exactly.  A non-finite F, mixed Hessian or Jacobian raises
    ``NumericError`` naming the point; a complex block or a value of the
    wrong shape raises ``ValueError`` naming the block.
    """

    def __init__(self, problem: ProblemSpec, mode: Optional[OperatorMode] = None):
        self.problem = problem
        self.alpha = None if mode is None else mode.alpha
        if self.alpha is not None and problem.mixed_hessian is None:
            raise CapabilityError(f"{problem.name!r} has no mixed Hessian; competitive mode unavailable")
        # (shape, name, noun) of each block; F is checked whole, so both grad blocks carry F's noun
        name, F_noun = repr(problem.name), f"operator value for {problem.name!r}"
        self._x_block = ((problem.d_x,), f"the grad_x block of the operator of {name}", F_noun)
        self._y_block = ((problem.d_y,), f"the grad_y block of the operator of {name}", F_noun)
        self._B_block = ((problem.d_x, problem.d_y), f"mixed Hessian of {name}", f"mixed Hessian for {name}")
        self._J_block = ((problem.d, problem.d), f"Jacobian of {name}", f"Jacobian for {name}")
        self._shape = (problem.d,)
        self._eye_x, self._eye_y = np.eye(problem.d_x).tolist(), np.eye(problem.d_y).tolist()
        # the differenced Jacobian's offsets h e_1, -h e_1, h e_2, ...: z - h e_j is z + (-h e_j), bit for bit
        steps = FD_STEP * np.eye(problem.d)
        self._stencil = np.stack([steps, -steps], axis=1).reshape(-1, problem.d)

    def _point(self, z) -> Vector:
        z = np.asarray(z, dtype=float)
        if z.shape != self._shape:
            raise ValueError(f"expected a vector of length {self.problem.d}, got shape {z.shape}")
        return z

    def at(self, z) -> np.ndarray:
        """The field at one point: F is ``_floats``, and F_alpha one (d, d) solve with M
        assembled from the list of B, checked as F is."""
        problem = self.problem
        z = self._point(z)
        F = np.array(self._floats(z))
        if self.alpha is None:
            return F
        B = _shaped(problem.mixed_hessian(z), z, self._B_block).tolist()
        self._check_finite([b for row in B for b in row], z, self._B_block)
        a = self.alpha
        M = [e + [a * b for b in row] for e, row in zip(self._eye_x, B)]
        M += [[-a * b for b in column] + e for column, e in zip(zip(*B), self._eye_y)]
        return np.linalg.solve(M, F)

    def _floats(self, z: Vector) -> list:
        """F (never F_alpha) at a float vector z of length d, as a list of floats checked by
        ``math.isfinite``: the verdict of ``np.isfinite(...).all()`` at a fraction of its cost."""
        problem = self.problem
        F = _shaped(problem.grad_x(z), z, self._x_block).tolist()
        F += [-v for v in _shaped(problem.grad_y(z), z, self._y_block).tolist()]
        self._check_finite(F, z, self._x_block)
        return F

    def _check_finite(self, values: list, z, block: tuple) -> None:
        """NumericError naming z unless every entry is finite; ``rows`` names a complex block."""
        try:
            finite = all(map(math.isfinite, values))
        except TypeError:  # a complex entry: ``rows`` raises the ValueError naming its block
            self.rows(z[None])
            raise
        if not finite:
            raise NumericError(f"non-finite {block[2]} at {z}")

    def rows(self, Z) -> np.ndarray:
        """The field at each row of an (n, d) array, each row bit-identical to ``at``.

        grad_x is called at every row in row order, then grad_y at every
        row; the sign flip of the y block and the finiteness check are taken
        once over the whole array, so an exception raised by grad_x at a
        later row comes before one raised by grad_y at an earlier row, and
        both before the NumericError (``_per_point`` checks shapes).  The flip
        is exact (for float blocks: an integer zero in the y block flips to
        -0.0 here and to 0 in ``at``).  F_alpha then calls the mixed Hessian
        at every row; it is one solve on the (n, d, d) stack of block
        matrices, and LAPACK factors each matrix as it would alone.
        """
        problem = self.problem
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != problem.d:
            raise ValueError(f"expected an array of rows of length {problem.d}, got shape {Z.shape}")
        X = _per_point(problem.grad_x, Z, self._x_block)
        Y = _per_point(problem.grad_y, Z, self._y_block)
        F = np.concatenate([X, -Y], axis=1)
        _check_rows(F, Z, self._x_block)
        if self.alpha is None:
            return F
        B = _per_point(problem.mixed_hessian, Z, self._B_block)
        _check_rows(B, Z, self._B_block)
        return np.linalg.solve(block_matrix(B, self.alpha), F[..., None])[..., 0]

    def jacobian(self, z) -> np.ndarray:
        """Jacobian of the field at z: the problem's own for F when it has one, else differenced.

        F_alpha has no analytic third derivatives, so it is always
        differenced: column j is (F(z + h e_j) - F(z - h e_j)) / (2 h) with
        h = FD_STEP, and the 2d stencil points are one ``rows`` call.  So,
        as for ``rows``, each call of a block must return a new array: one
        refilled buffer gives every point the last value, and J = 0.
        """
        problem = self.problem
        z = self._point(z)
        if self.alpha is None and problem.operator_jacobian is not None:
            jac = _real(problem.operator_jacobian(z), z, self._J_block)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # the checks name the point
                R = self.rows(z + self._stencil)
                jac = ((R[0::2] - R[1::2]) / (2 * FD_STEP)).T.copy()
        _check_rows(jac[None], z[None], self._J_block)
        return jac


def _on_floats(fn):
    """fn on a Python float: numpy's bits but a NaN's sign, at less cost (both take ``**`` from C ``pow``);
    where a float power overflows, and numpy gives inf with its warning, fn on the numpy scalar."""
    def on_float(t):
        try:
            return fn(t)
        except OverflowError:
            return fn(np.float64(t))
    return on_float


# Derivatives h1 = h' and h2 = h'' of the degree-six well
# h(t) = t^2/4 - t^4/2 + t^6/6 shared by the two hard examples.
_h1 = _on_floats(lambda t: t / 2 - 2 * t**3 + t**5)
_h2 = _on_floats(lambda t: 0.5 - 6 * t**2 + 5 * t**4)
_square = _on_floats(lambda t: t**2)


def _planar(name, grad_x, grad_y, mixed_hessian, operator_jacobian, half_width,
            z_star=None, published_constants=None):
    """A problem with d_x = d_y = 1, sampled on [-half_width, half_width]^2; z_star defaults to 0.

    The box, and the default z_star and constants, are built anew on every call.
    """
    return ProblemSpec(
        name=name,
        d_x=1,
        d_y=1,
        grad_x=grad_x,
        grad_y=grad_y,
        mixed_hessian=mixed_hessian,
        operator_jacobian=operator_jacobian,
        z_star=np.zeros(2) if z_star is None else z_star,
        sample_box=np.array([[-half_width, half_width], [-half_width, half_width]]),
        published_constants={} if published_constants is None else published_constants,
    )


def _coupled_well(name, shift, z_star, half_width, constants=None):
    # f(x, y) = x (y - shift) + h(x) - h(y)
    def grad_x(z):
        x, y = z.tolist()
        return np.array([y - shift + _h1(x)])

    def grad_y(z):
        x, y = z.tolist()
        return np.array([x - _h1(y)])

    def jacobian(z):
        x, y = z.tolist()
        return np.array([[_h2(x), 1.0], [-1.0, _h2(y)]])

    return _planar(name, grad_x, grad_y, lambda z: np.array([[1.0]]), jacobian, half_width, z_star, constants)


# Linear field gamma*I + rotation: comonotone with constant gamma/(gamma^2+1).
COMONOTONE_GAMMA = -0.2

# Each entry builds its problem anew, so every ``builtin`` call gets fresh arrays.
_REGISTRY = {
    # Root of F refined to machine precision; rounds to the (0.0780, 0.4119)
    # usually quoted for this problem.
    "forsaken": lambda: _coupled_well(
        "forsaken", 0.45, (0.07802666873846009, 0.41193385136581984), 1.5),
    "modified_forsaken": lambda: _coupled_well(
        "modified_forsaken", 1.5, (1.3114748057843684, 1.475932757992642), 2.0,
        {1: 20.0, 2: 50000.0}),
    "x2y": lambda: _planar(  # f(x, y) = x^2 y
        "x2y",
        lambda z: np.array([2 * z.item(0) * z.item(1)]),
        lambda z: np.array([_square(z.item(0))]),
        lambda z: np.array([[2 * z.item(0)]]),
        lambda z: np.array([[2 * z.item(1), 2 * z.item(0)], [-2 * z.item(0), 0.0]]),
        1.0, published_constants={1: 20.0, 2: 500.0},
    ),
    "bilinear": lambda: _planar(  # f(x, y) = x y
        "bilinear",
        lambda z: np.array([z.item(1)]),
        lambda z: np.array([z.item(0)]),
        lambda z: np.array([[1.0]]),
        lambda z: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        2.0,
    ),
    "quadratic_monotone": lambda: _planar(  # f(x, y) = (x^2 - y^2) / 2
        "quadratic_monotone",
        lambda z: np.array([z.item(0)]),
        lambda z: np.array([-z.item(1)]),
        lambda z: np.array([[0.0]]),
        lambda z: np.eye(2),
        2.0,
    ),
    "comonotone_toy": lambda: _planar(  # f(x, y) = g (x^2 - y^2) / 2 + x y, g = COMONOTONE_GAMMA
        "comonotone_toy",
        lambda z: np.array([COMONOTONE_GAMMA * z.item(0) + z.item(1)]),
        lambda z: np.array([z.item(0) - COMONOTONE_GAMMA * z.item(1)]),
        lambda z: np.array([[1.0]]),
        lambda z: np.array([[COMONOTONE_GAMMA, 1.0], [-1.0, COMONOTONE_GAMMA]]),
        2.0,
    ),
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
