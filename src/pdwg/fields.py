"""Closed-form coefficient fields and piecewise composition.

Problem data (convection field, reaction, load, inflow data, exact
solution) is drawn from a small registry of named closed forms plus
piecewise composition over half-plane predicates.  Piecewise coefficient
fields are resolved per element (the branch containing the element
centroid), while piecewise exact solutions and boundary data are evaluated
pointwise.

All callables are vectorized over numpy arrays of coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HalfPlane:
    """The open half plane a*x + b*y < d."""

    a: float
    b: float
    d: float

    def contains(self, x, y):
        return self.a * np.asarray(x) + self.b * np.asarray(y) < self.d


class _Single:
    """A field with one branch everywhere."""

    @property
    def branches(self) -> tuple:
        return (self,)

    def branch_index(self, x, y) -> np.ndarray:
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=np.intp)


class _Piecewise:
    """Branches over half planes: the first piece whose half plane holds
    a point wins, and ``otherwise`` covers the rest."""

    @property
    def branches(self) -> tuple:
        return tuple(branch for _, branch in self.pieces) + (self.otherwise,)

    def branch_index(self, x, y) -> np.ndarray:
        """Index into ``branches`` of the branch holding each point."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        idx = np.full(x.shape, len(self.pieces), dtype=np.intp)
        for k in range(len(self.pieces) - 1, -1, -1):
            idx[self.pieces[k][0].contains(x, y)] = k
        return idx


def evaluate_branches(branches, idx, x, y, method: str = "__call__") -> np.ndarray:
    """Evaluate ``getattr(branches[idx[p]], method)`` at every point p.

    ``idx`` broadcasts against the points.  Scalar results have the shape
    of the points; vector results (a pair of components) gain a trailing
    axis of length 2.
    """
    x, y, idx = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(idx)
    )
    out = None
    for k, branch in enumerate(branches):
        mask = idx == k
        n = int(mask.sum())
        vals = getattr(branch, method)(x[mask], y[mask])
        if isinstance(vals, tuple):
            vals = np.stack([np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in vals], axis=-1)
        else:
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (n,))
        if out is None:
            out = np.empty(x.shape + vals.shape[1:])
        out[mask] = vals
    return out


@dataclass(frozen=True)
class ScalarField(_Single):
    """A scalar field with an optional analytic gradient."""

    name: str
    fn: Callable
    grad: Callable | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


@dataclass(frozen=True)
class VectorField(_Single):
    """A 2D vector field with its analytic divergence."""

    name: str
    fn: Callable
    div: Callable

    def __call__(self, x, y):
        return self.fn(x, y)


@dataclass(frozen=True)
class PiecewiseScalar(_Piecewise):
    """Scalar field composed of branches over half planes; the first
    matching predicate wins and ``otherwise`` covers the rest."""

    name: str
    pieces: tuple[tuple[HalfPlane, ScalarField], ...]
    otherwise: ScalarField

    def __call__(self, x, y):
        """Pointwise evaluation (used for boundary data and exact fields)."""
        return evaluate_branches(self.branches, self.branch_index(x, y), x, y)

    @property
    def grad(self):
        def _grad(x, y):
            g = evaluate_branches(self.branches, self.branch_index(x, y), x, y, "grad")
            return g[..., 0], g[..., 1]

        return _grad


@dataclass(frozen=True)
class PiecewiseVector(_Piecewise):
    """Vector field composed of branches over half planes."""

    name: str
    pieces: tuple[tuple[HalfPlane, VectorField], ...]
    otherwise: VectorField


@dataclass(frozen=True)
class DerivedLoad:
    """Load manufactured from an exact solution:

        f = beta . grad(u) + u div(beta) + c u,

    evaluated with the convection branch of the element being assembled.
    """

    exact: ScalarField

    def bind(self, beta: VectorField, c) -> Callable:
        if self.exact.grad is None:
            raise ValueError(f"exact field {self.exact.name!r} has no gradient")

        def _f(x, y):
            ux, uy = self.exact.grad(x, y)
            bx, by = beta(x, y)
            u = self.exact(x, y)
            return bx * ux + by * uy + beta.div(x, y) * u + c(x, y) * u

        return _f


def constant(value: float, name: str | None = None) -> ScalarField:
    v = float(value)
    return ScalarField(
        name if name is not None else f"const({v:g})",
        lambda x, y: np.full_like(np.asarray(x, dtype=float), v),
        grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
    )


def constant_vector(bx: float, by: float, name: str | None = None) -> VectorField:
    bx, by = float(bx), float(by)
    return VectorField(
        name if name is not None else f"const({bx:g},{by:g})",
        lambda x, y: (
            np.full_like(np.asarray(x, dtype=float), bx),
            np.full_like(np.asarray(x, dtype=float), by),
        ),
        div=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


def rotation(cx: float, cy: float, name: str | None = None) -> VectorField:
    """Divergence-free rotational field (y - cy, -(x - cx))."""
    cx, cy = float(cx), float(cy)
    return VectorField(
        name if name is not None else f"rotation({cx:g},{cy:g})",
        lambda x, y: (np.asarray(y, dtype=float) - cy, cx - np.asarray(x, dtype=float)),
        div=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _ridge_params():
    b1 = math.cos(math.pi / 6.0)
    b2 = math.sin(math.pi / 6.0)
    return b1, b2, b2 / b1


def _ridge_value(x, y):
    _, _, rho = _ridge_params()
    w = np.asarray(y, dtype=float) - rho * np.asarray(x, dtype=float) - 0.5
    return 1.0 / (w * w + 0.1)


def _ridge_grad(x, y):
    _, _, rho = _ridge_params()
    w = np.asarray(y, dtype=float) - rho * np.asarray(x, dtype=float) - 0.5
    dw = -2.0 * w / (w * w + 0.1) ** 2
    return -rho * dw, dw


def _step_pm1(x, y):
    """+1 on the left inflow side x=0, -1 on the top inflow side y=1."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 1e-12, 1.0, -1.0)


_RIDGE = ScalarField("ridge", _ridge_value, grad=_ridge_grad)

# Sharp interior layer cut off below the characteristic ray through the
# origin; continuous there (both branches equal 20/7) with a kink.
_RIDGE_PLATEAU = PiecewiseScalar(
    "ridge_with_plateau",
    pieces=(
        (HalfPlane(-_ridge_params()[2], 1.0, 0.0), constant(20.0 / 7.0, "plateau")),
    ),
    otherwise=_RIDGE,
)

SCALAR_FIELDS: dict[str, ScalarField | PiecewiseScalar] = {
    "zero": constant(0.0, "zero"),
    "one": constant(1.0, "one"),
    "sin_x_cos_y": ScalarField(
        "sin_x_cos_y",
        lambda x, y: np.sin(x) * np.cos(y),
        grad=lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)),
    ),
    "sin_x_sin_y": ScalarField(
        "sin_x_sin_y",
        lambda x, y: np.sin(x) * np.sin(y),
        grad=lambda x, y: (np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)),
    ),
    "sin_pix_sin_piy": ScalarField(
        "sin_pix_sin_piy",
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        grad=lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        ),
    ),
    "sin_pix_cos_piy": ScalarField(
        "sin_pix_cos_piy",
        lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
        grad=lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
        ),
    ),
    "cos_5y": ScalarField("cos_5y", lambda x, y: np.cos(5.0 * y) + 0.0 * x),
    "cos_y": ScalarField("cos_y", lambda x, y: np.cos(y) + 0.0 * x),
    "sin_x": ScalarField("sin_x", lambda x, y: np.sin(x) + 0.0 * y),
    "ridge": _RIDGE,
    "ridge_with_plateau": _RIDGE_PLATEAU,
    "step_pm1": ScalarField("step_pm1", _step_pm1),
}

VECTOR_FIELDS: dict[str, VectorField] = {
    "oblique_30deg": constant_vector(
        math.cos(math.pi / 6.0), math.sin(math.pi / 6.0), "oblique_30deg"
    ),
}


def scalar_from_config(obj) -> ScalarField | PiecewiseScalar:
    """Build a scalar field from a JSON-style description: a number, a
    {"name": ...} registry lookup, a {"const": value}, or a
    {"piecewise": [{"where": [a, b, d], "field": ...}, ...], "else": ...}.
    """
    if isinstance(obj, (int, float)):
        return constant(float(obj))
    if not isinstance(obj, dict):
        raise ValueError(f"cannot interpret scalar field spec {obj!r}")
    if "name" in obj:
        try:
            return SCALAR_FIELDS[obj["name"]]
        except KeyError:
            raise ValueError(
                f"unknown scalar field {obj['name']!r}; "
                f"available: {sorted(SCALAR_FIELDS)}"
            ) from None
    if "const" in obj:
        return constant(float(obj["const"]))
    if "piecewise" in obj:
        pieces = tuple(
            (HalfPlane(*piece["where"]), scalar_from_config(piece["field"]))
            for piece in obj["piecewise"]
        )
        return PiecewiseScalar("piecewise", pieces, scalar_from_config(obj["else"]))
    raise ValueError(f"cannot interpret scalar field spec {obj!r}")


def vector_from_config(obj) -> VectorField | PiecewiseVector:
    """Build a vector field from a JSON-style description: {"const":
    [bx, by]}, {"rotation": [cx, cy]}, a {"name": ...} registry lookup, or
    a piecewise composition as for scalars."""
    if not isinstance(obj, dict):
        raise ValueError(f"cannot interpret vector field spec {obj!r}")
    if "name" in obj:
        try:
            return VECTOR_FIELDS[obj["name"]]
        except KeyError:
            raise ValueError(
                f"unknown vector field {obj['name']!r}; "
                f"available: {sorted(VECTOR_FIELDS)}"
            ) from None
    if "const" in obj:
        return constant_vector(*obj["const"])
    if "rotation" in obj:
        return rotation(*obj["rotation"])
    if "piecewise" in obj:
        pieces = tuple(
            (HalfPlane(*piece["where"]), vector_from_config(piece["field"]))
            for piece in obj["piecewise"]
        )
        return PiecewiseVector("piecewise", pieces, vector_from_config(obj["else"]))
    raise ValueError(f"cannot interpret vector field spec {obj!r}")
