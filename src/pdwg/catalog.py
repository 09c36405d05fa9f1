"""The benchmark experiment catalog.

Entries named ``table1`` .. ``table24`` are refinement studies with known
exact solutions; ``fig1`` .. ``fig5`` variants cover rotational, piecewise,
layer, and kinked solutions (one entry per stabilization value); ``fig6``
.. ``fig10`` are inflow-driven demonstrations without an exact solution,
emitting post-processed solution fields.  Names follow the numbering of
the published benchmark suite this library reproduces.

Loads for manufactured solutions are ``DerivedLoad`` markers: the element
tables form beta . grad u + u div(beta) + c u from the sampled beta and c
(every catalog convection field is divergence free), and building the
spec checks each leaf, at any depth, for its gradient or divergence.
Inflow data restricts the exact solution to the inflow boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .assembly import ProblemSpec
from .fields import (
    DerivedLoad,
    HalfPlane,
    Piecewise,
    SCALAR_FIELDS,
    VECTOR_FIELDS,
    constant,
    constant_vector,
    rotation,
)


@dataclass(frozen=True)
class Experiment:
    """A named problem configuration with its default refinement range
    and (metadata only) the convergence orders reported for it by the
    reference benchmark set."""

    name: str
    spec: ProblemSpec
    description: str
    levels: tuple[int, int]
    expected_orders: str = ""

    def __post_init__(self):
        check_levels(self.levels)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Error norms for an exact solution, the post-processed solution
        field otherwise; conservation always."""
        return ("errors", "conservation") if self.spec.exact_u is not None else ("conservation", "field")


def check_levels(levels) -> tuple[int, int]:
    """``levels``, checked: a tuple (lo, hi) of two ints (no bool) with 0 <= lo <= hi."""
    pair = isinstance(levels, tuple) and len(levels) == 2 and all(type(n) is int for n in levels)
    if not (pair and 0 <= levels[0] <= levels[1]):
        raise ValueError(f"levels must be two integers [lo, hi] with 0 <= lo <= hi, got {levels!r}")
    return levels


def make_experiment(
    name, description, domain, beta, c, tau, *,
    exact_u=None, f=None, g=None, j=1, levels=(0, 5), expected_orders="",
) -> Experiment:
    """Build an experiment.  ``f`` defaults to the load manufactured from
    ``exact_u`` and ``g`` to ``exact_u`` itself; without an exact solution
    both are required."""
    if exact_u is None and None in (f, g):
        raise ValueError("f and g are both required without exact_u")
    spec = ProblemSpec(
        beta=beta,
        c=c,
        f=DerivedLoad(exact_u) if f is None else f,
        g=exact_u if g is None else g,
        tau=tau,
        domain_tag=domain,
        exact_u=exact_u,
        j=j,
    )
    return Experiment(name, spec, description, levels, expected_orders)


_SPLIT_ANTIDIAG = HalfPlane(1.0, 1.0, 1.0)  # x + y < 1

_BETA_PW_CONST = Piecewise(
    "pw_const_flip",
    pieces=((_SPLIT_ANTIDIAG, constant_vector(1.0, -1.0)),),
    otherwise=constant_vector(-1.0, 1.0),
)
_BETA_PW_ROT = Piecewise(
    "pw_rotation",
    pieces=((_SPLIT_ANTIDIAG, rotation(0.0, 0.0)),),
    otherwise=rotation(1.0, 1.0),
)
_BETA_PW_DEMO = Piecewise(
    "pw_rotation_shifted",
    pieces=((_SPLIT_ANTIDIAG, rotation(-1.0, -1.0)),),
    otherwise=rotation(2.0, 2.0),
)


@functools.cache
def catalog() -> dict[str, Experiment]:
    """All experiments, keyed by name (insertion ordered), built on the
    first call."""
    entries: list[Experiment] = []

    def add(name, description, domain, beta, c, tau, **kwargs):
        entries.append(make_experiment(name, description, domain, beta, constant(c), tau, **kwargs))

    # Constant-solution checks: errors at machine accuracy on every level.
    for name, domain, tau in (
        ("table1", "unit_square", 1.0),
        ("table2", "unit_square", 0.0),
        ("table3", "l_shape", 1.0),
        ("table4", "l_shape", 0.0),
    ):
        add(
            name, f"u=1 on {domain}, beta=[1,-1], c=1, tau={tau:g}",
            domain, constant_vector(1.0, -1.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["one"], expected_orders="machine accuracy at every level",
        )

    # Smooth solution, constant convection.
    for name, domain, tau in (
        ("table5", "unit_square", 1.0),
        ("table6", "unit_square", 0.0),
        ("table7", "l_shape", 1.0),
        ("table8", "l_shape", 0.0),
    ):
        add(
            name, f"u=sin(x)cos(y) on {domain}, beta=[1,-1], c=1, tau={tau:g}",
            domain, constant_vector(1.0, -1.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_x_cos_y"], expected_orders="u ~ O(h); multiplier ~ O(h^2)",
        )

    # Stabilization sweep on the unit square (c = -1).
    for name, tau in (("table9", 0.0), ("table10", 0.001), ("table11", 1.0), ("table12", 1000.0)):
        add(
            name, f"u=sin(pi x)sin(pi y) on unit_square, beta=[1,1], c=-1, tau={tau:g}",
            "unit_square", constant_vector(1.0, 1.0), -1.0, tau,
            exact_u=SCALAR_FIELDS["sin_pix_sin_piy"],
            expected_orders="u ~ O(h) or better; large tau raises absolute error",
        )

    # Stabilization sweep on the L-shape (c = 1).
    for name, tau in (("table13", 0.0), ("table14", 0.001), ("table15", 1.0), ("table16", 1000.0)):
        add(
            name, f"u=sin(pi x)sin(pi y) on l_shape, beta=[1,1], c=1, tau={tau:g}",
            "l_shape", constant_vector(1.0, 1.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_pix_sin_piy"], expected_orders="u ~ O(h)",
        )

    # Rotational convection on the L-shape.
    for name, tau in (("table17", 1.0), ("table18", 0.0)):
        add(
            name, f"u=sin(x)cos(y) on l_shape, beta=[y-1,-x+1], c=1, tau={tau:g}",
            "l_shape", rotation(1.0, 1.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_x_cos_y"], expected_orders="u ~ O(h^0.9)",
        )

    # Rotational convection on the cracked square.
    for name, tau in (("table19", 1.0), ("table20", 0.0)):
        add(
            name, f"u=sin(pi x)cos(pi y) on cracked_square, beta=[y,-x], c=1, tau={tau:g}",
            "cracked_square", rotation(0.0, 0.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_pix_cos_piy"], expected_orders="u ~ O(h)",
        )

    # Piecewise-constant convection flipped across x + y = 1.
    for name, domain, tau in (
        ("table21", "unit_square", 1.0),
        ("table22", "unit_square", 0.0),
        ("table23", "l_shape", 1.0),
        ("table24", "l_shape", 0.0),
    ):
        add(
            name,
            f"u=sin(pi x)cos(pi y) on {domain}, beta=[1,-1]/[-1,1] split at x+y=1, c=1, tau={tau:g}",
            domain, _BETA_PW_CONST, 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_pix_cos_piy"], expected_orders="u ~ O(h)",
        )

    # Rotational convection about the square center.
    for tau in (0.0, 1.0, 10000.0):
        add(
            f"fig1_tau{tau:g}", f"u=sin(x)cos(y) on unit_square, beta=[y-0.5,-x+0.5], c=1, tau={tau:g}",
            "unit_square", rotation(0.5, 0.5), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_x_cos_y"],
            expected_orders="u ~ O(h^0.9) (O(h^1.3) for very large tau)",
        )

    # Cracked square, rotation about the crack tip.
    for tau in (0.0, 1.0):
        add(
            f"fig2_tau{tau:g}", f"u=sin(x)sin(y) on cracked_square, beta=[y,-x], c=1, tau={tau:g}",
            "cracked_square", rotation(0.0, 0.0), 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_x_sin_y"], expected_orders="u ~ O(h^1.1)",
        )

    # Piecewise rotational convection (continuous normal component).
    for tau in (0.0, 1.0):
        add(
            f"fig3_tau{tau:g}",
            f"u=sin(x)cos(y) on unit_square, beta=[y,-x]/[y-1,1-x] split at x+y=1, c=1, tau={tau:g}",
            "unit_square", _BETA_PW_ROT, 1.0, tau,
            exact_u=SCALAR_FIELDS["sin_x_cos_y"], expected_orders="u ~ O(h)",
        )

    # Sharp layer along an oblique characteristic (fig4), and the same
    # transport with the ridge cut to a plateau below the characteristic
    # ray through the origin (fig5, kinked solution); the load vanishes.
    for fig, solution, exact in (
        ("fig4", "sharp-ridge", "ridge"),
        ("fig5", "ridge-with-plateau", "ridge_with_plateau"),
    ):
        for tau in (0.0, 1.0):
            add(
                f"{fig}_tau{tau:g}",
                f"{solution} solution on unit_square, beta=(cos30,sin30), c=0, tau={tau:g}",
                "unit_square", VECTOR_FIELDS["oblique_30deg"], 0.0, tau,
                exact_u=SCALAR_FIELDS[exact], f=constant(0.0), expected_orders="u ~ O(h^1.3)",
            )

    # Inflow-driven demonstrations (no exact solution recorded).
    def demo(name, domain, beta, c, f, g, description):
        add(name, description, domain, beta, c, 0.0, f=constant(f), g=SCALAR_FIELDS[g], levels=(0, 4))

    demo(
        "fig6", "unit_square", constant_vector(1.0, -1.0), 0.0, 0.0, "step_pm1",
        "discontinuous inflow data +1 on x=0, -1 on y=1; beta=[1,-1], c=0",
    )
    for f in (1.0, 0.0):
        demo(
            f"fig7_f{f:g}", "unit_square", _BETA_PW_DEMO, 0.0, f, "cos_5y",
            f"piecewise rotational convection, g=cos(5y), f={f:g}",
        )
    for f in (10000.0, 0.0):
        demo(
            f"fig8_f{f:g}", "unit_square", rotation(0.5, 0.5), 1.0, f, "cos_y",
            f"beta=[y-0.5,-x+0.5], c=1, g=cos(y), f={f:g}",
        )
    for f in (10000.0, 0.0):
        demo(
            f"fig9_f{f:g}", "cracked_square", rotation(0.0, 0.0), 0.0, f, "sin_x",
            f"beta=[y,-x], c=0, g=sin(x), f={f:g} on the cracked square",
        )
    for f in (10000.0, 0.0):
        demo(
            f"fig10_f{f:g}", "l_shape", _BETA_PW_CONST, 1.0, f, "sin_x_cos_y",
            f"piecewise beta=[1,-1]/[-1,1], c=1, g=sin(x)cos(y), f={f:g}",
        )

    out: dict[str, Experiment] = {}
    for entry in entries:
        if entry.name in out:
            raise ValueError(f"duplicate experiment name {entry.name}")
        out[entry.name] = entry
    return out


def get_experiment(name: str) -> Experiment:
    cat = catalog()
    try:
        return cat[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(cat)}"
        ) from None
