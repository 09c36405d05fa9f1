"""Closed-form coefficient fields and piecewise composition.

Problem data (convection field, reaction, load, inflow data, exact
solution) is a :class:`Field`, one closed form (scalar or vector) drawn
from a small registry of named forms, or a :class:`Piecewise` composition
of fields over half-plane predicates, whose pieces may be compositions
in turn.  A composition is read through its closed-form leaves at any
depth (``branches``) and the index of the leaf holding each point
(``branch_index``), evaluated by :func:`evaluate_branches`.  Coefficient
fields and inflow data resolve the leaf per element (the leaf at the
centroid of the element, for inflow data the element owning the inflow
edge), while exact solutions are evaluated pointwise.

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


@dataclass(frozen=True)
class Field:
    """A closed-form field with one branch everywhere.  A scalar field
    returns an array and may carry its analytic gradient; a vector field
    returns a pair of components and carries its analytic divergence."""

    name: str
    fn: Callable
    grad: Callable | None = None
    div: Callable | None = None

    def __call__(self, x, y):
        return self.fn(x, y)

    @property
    def branches(self) -> tuple:
        return (self,)

    def branch_index(self, x, y) -> np.ndarray:
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=np.intp)


@dataclass(frozen=True)
class Piecewise:
    """Fields composed over half planes: the first piece whose half plane
    holds a point wins, and ``otherwise`` covers the rest.  A piece may
    itself be a composition; ``branches`` are the closed-form leaves at
    any depth, and every reader resolves a point through the leaf that
    holds it: coefficients and inflow data per element (the leaf at its
    centroid), calls pointwise."""

    name: str
    pieces: tuple[tuple[HalfPlane, Field | Piecewise], ...]
    otherwise: Field | Piecewise

    @property
    def branches(self) -> tuple:
        return tuple(leaf for _, field in self.pieces for leaf in field.branches) + self.otherwise.branches

    def branch_index(self, x, y) -> np.ndarray:
        """Index into ``branches`` of the leaf holding each point."""
        offset = len(self.branches) - len(self.otherwise.branches)
        idx = offset + self.otherwise.branch_index(x, y)
        for plane, field in reversed(self.pieces):
            offset -= len(field.branches)
            idx = np.where(plane.contains(x, y), offset + field.branch_index(x, y), idx)
        return idx

    def __call__(self, x, y):
        idx = self.branch_index(x, y)
        out = evaluate_branches(self.branches, idx, x, y)
        return out if out.shape == idx.shape else (out[..., 0], out[..., 1])


def evaluate_branches(branches, idx, x, y, method: str = "__call__") -> np.ndarray:
    """Evaluate ``getattr(branches[idx[p]], method)`` at every point p.

    ``idx`` broadcasts against the points.  Scalar results have the shape
    of the points; vector results (a pair of components) gain a trailing
    axis of length 2.  Every branch sees its points as flat C-ordered
    copies, so a field with one branch gets exactly the inputs a masked
    evaluation would give it, without the masks.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(branches) == 1:
        shape = np.broadcast(x, y, idx).shape
        x, y = ((v if v.shape == shape else np.broadcast_to(v, shape)).flatten() for v in (x, y))
        vals = _rows(getattr(branches[0], method)(x, y), x.size)
        return vals.reshape(shape + vals.shape[1:])
    x, y, idx = np.broadcast_arrays(x, y, np.asarray(idx))
    out = None
    for k, branch in enumerate(branches):
        mask = idx == k
        vals = _rows(getattr(branch, method)(x[mask], y[mask]), int(mask.sum()))
        if out is None:
            out = np.empty(x.shape + vals.shape[1:])
        out[mask] = vals
    return out


def _rows(vals, n: int) -> np.ndarray:
    """A branch's values at n points as float rows, (n,) for a scalar and
    (n, 2) for a pair of components; a constant is spread to n rows."""
    if isinstance(vals, tuple):
        return np.stack([_rows(v, n) for v in vals], axis=-1)
    vals = np.asarray(vals, dtype=float)
    return vals if vals.shape == (n,) else np.full(n, vals)


@dataclass(frozen=True)
class DerivedLoad:
    """Marks the load manufactured from the exact solution ``exact``:

        f = beta . grad(u) + u div(beta) + c u,

    formed by ``ElementTables`` from the sampled beta and c of each
    element's leaves, u and grad(u) pointwise.  ``ProblemSpec``
    checks that every leaf of ``exact`` has a gradient and every leaf of
    beta a divergence.
    """

    exact: Field | Piecewise


def constant(value: float, name: str | None = None) -> Field:
    v = float(value)
    return Field(
        name if name is not None else f"const({v:g})",
        lambda x, y: np.full_like(np.asarray(x, dtype=float), v),
        grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
    )


def constant_vector(bx: float, by: float, name: str | None = None) -> Field:
    bx, by = float(bx), float(by)
    return Field(
        name if name is not None else f"const({bx:g},{by:g})",
        lambda x, y: (
            np.full_like(np.asarray(x, dtype=float), bx),
            np.full_like(np.asarray(x, dtype=float), by),
        ),
        div=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


def rotation(cx: float, cy: float, name: str | None = None) -> Field:
    """Divergence-free rotational field (y - cy, -(x - cx))."""
    cx, cy = float(cx), float(cy)
    return Field(
        name if name is not None else f"rotation({cx:g},{cy:g})",
        lambda x, y: (np.asarray(y, dtype=float) - cy, cx - np.asarray(x, dtype=float)),
        div=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


# Slope of the characteristic direction (cos 30deg, sin 30deg) that the
# ridge follows.
_RIDGE_SLOPE = math.sin(math.pi / 6.0) / math.cos(math.pi / 6.0)


def _ridge_value(x, y):
    w = np.asarray(y, dtype=float) - _RIDGE_SLOPE * np.asarray(x, dtype=float) - 0.5
    return 1.0 / (w * w + 0.1)


def _ridge_grad(x, y):
    w = np.asarray(y, dtype=float) - _RIDGE_SLOPE * np.asarray(x, dtype=float) - 0.5
    dw = -2.0 * w / (w * w + 0.1) ** 2
    return -_RIDGE_SLOPE * dw, dw


def _step_pm1(x, y):
    """+1 on the left inflow side x=0, -1 on the top inflow side y=1."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 1e-12, 1.0, -1.0)


_RIDGE = Field("ridge", _ridge_value, grad=_ridge_grad)

# Sharp interior layer cut off below the characteristic ray through the
# origin; continuous there (both branches equal 20/7) with a kink.
_RIDGE_PLATEAU = Piecewise(
    "ridge_with_plateau",
    pieces=(
        (HalfPlane(-_RIDGE_SLOPE, 1.0, 0.0), constant(20.0 / 7.0, "plateau")),
    ),
    otherwise=_RIDGE,
)

SCALAR_FIELDS: dict[str, Field | Piecewise] = {
    "zero": constant(0.0, "zero"),
    "one": constant(1.0, "one"),
    "sin_x_cos_y": Field(
        "sin_x_cos_y",
        lambda x, y: np.sin(x) * np.cos(y),
        grad=lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)),
    ),
    "sin_x_sin_y": Field(
        "sin_x_sin_y",
        lambda x, y: np.sin(x) * np.sin(y),
        grad=lambda x, y: (np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)),
    ),
    "sin_pix_sin_piy": Field(
        "sin_pix_sin_piy",
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        grad=lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        ),
    ),
    "sin_pix_cos_piy": Field(
        "sin_pix_cos_piy",
        lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
        grad=lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
        ),
    ),
    "cos_5y": Field("cos_5y", lambda x, y: np.cos(5.0 * y) + 0.0 * x),
    "cos_y": Field("cos_y", lambda x, y: np.cos(y) + 0.0 * x),
    "sin_x": Field("sin_x", lambda x, y: np.sin(x) + 0.0 * y),
    "ridge": _RIDGE,
    "ridge_with_plateau": _RIDGE_PLATEAU,
    "step_pm1": Field("step_pm1", _step_pm1),
}

VECTOR_FIELDS: dict[str, Field] = {
    "oblique_30deg": constant_vector(
        math.cos(math.pi / 6.0), math.sin(math.pi / 6.0), "oblique_30deg"
    ),
}


def field_from_config(obj, vector: bool = False) -> Field | Piecewise:
    """Build a field from a JSON-style description: a {"name": ...}
    registry lookup, a constant, or a {"piecewise": [{"where": [a, b, d],
    "field": ...}, ...], "else": ...} composition of fields of the same
    kind, each "where" three finite numbers.  A scalar constant is a number
    or {"const": value}; a vector is {"const": [bx, by]} or
    {"rotation": [cx, cy]}.  Raises ValueError naming the key of any
    malformed part."""
    kind, registry = ("vector", VECTOR_FIELDS) if vector else ("scalar", SCALAR_FIELDS)
    if not vector and is_number(obj):
        return constant(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"cannot interpret {kind} field spec {obj!r}")
    if "name" in obj:
        try:
            return registry[obj["name"]]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown {kind} field {obj['name']!r}; available: {sorted(registry)}"
            ) from None
    if "const" in obj:
        return constant_vector(*_numbers(obj, "const", 2)) if vector else constant(number(obj, "const"))
    if vector and "rotation" in obj:
        return rotation(*_numbers(obj, "rotation", 2))
    if "piecewise" in obj:
        pieces = obj["piecewise"]
        if not (isinstance(pieces, list) and all(isinstance(p, dict) for p in pieces)):
            raise ValueError(f"'piecewise' must be a list of where/field objects, got {pieces!r}")
        for key, where in [("field", p) for p in pieces] + [("else", obj)]:
            if key not in where:
                raise ValueError(f"'piecewise' is missing the key {key!r} in {where!r}")
        planes = [_numbers(p, "where", 3) for p in pieces]
        for plane in planes:
            if not np.isfinite(plane).all():
                raise ValueError(f"'where' must hold finite numbers, got {plane!r}")
        pieces = tuple(
            (HalfPlane(*plane), field_from_config(p["field"], vector)) for plane, p in zip(planes, pieces)
        )
        return Piecewise("piecewise", pieces, field_from_config(obj["else"], vector))
    raise ValueError(f"cannot interpret {kind} field spec {obj!r}")


def is_number(value) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number(obj: dict, key: str) -> float:
    """``obj[key]`` as a float; ValueError naming ``key`` unless it is a
    JSON number."""
    if not is_number(obj.get(key)):
        raise ValueError(f"{key!r} must be a number, got {obj.get(key)!r}")
    return float(obj[key])


def _numbers(obj: dict, key: str, count: int) -> list[float]:
    """``obj[key]`` as a list of ``count`` floats; ValueError naming
    ``key`` unless it is a list of exactly ``count`` JSON numbers."""
    values = obj.get(key)
    if not (isinstance(values, list) and len(values) == count and all(map(is_number, values))):
        raise ValueError(f"{key!r} must be a list of {count} numbers, got {values!r}")
    return [float(v) for v in values]
