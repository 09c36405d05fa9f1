"""Property tests: random constant convection, reaction, stabilization and
multiplier degree on the three built-in meshes at level 2 and on random
affine images of them.

Each draw checks the structure of the assembled system, that the constant
solution is reproduced, and elementwise conservation of a smooth
manufactured solution; on affine images, the weak-gradient defining
identity and the constant solution.  Draws are derandomized so the suite
is reproducible.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assembled_matrix, build_level, refined
from pdwg.analysis import conservation_report, error_norms
from pdwg.assembly import ProblemSpec
from pdwg.fields import SCALAR_FIELDS, DerivedLoad, constant, constant_vector
from pdwg.mesh import DOMAIN_TAGS
from pdwg.solver import solve
from test_acceptance import _identity_residual

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def level2(tag):
    return refined(tag, 2)


@st.composite
def problems(draw):
    """A mesh and a spec builder for constant beta = r (cos t, sin t)."""
    tag = draw(st.sampled_from(DOMAIN_TAGS))
    r = draw(st.floats(0.5, 2.0))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    c = draw(st.floats(0.0, 2.0))
    tau = draw(st.floats(0.0, 10.0))
    j = draw(st.sampled_from((0, 1)))
    beta = constant_vector(r * math.cos(theta), r * math.sin(theta))

    def spec(exact):
        return ProblemSpec(
            beta=beta, c=constant(c), f=DerivedLoad(exact), g=exact,
            tau=tau, domain_tag=tag, exact_u=exact, j=j,
        )

    return level2(tag), spec


def solve_problem(mesh, spec):
    tables, dm, system = build_level(mesh, spec)
    return dm, tables, system, solve(system)


@PROPERTY_SETTINGS
@given(problems())
def test_symmetric_with_zero_primal_block(problem):
    mesh, spec = problem
    s = spec(SCALAR_FIELDS["one"])
    _, dm, system = build_level(mesh, s)
    A = assembled_matrix(system)
    asym = abs(A - A.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-13
    assert A[dm.n_lambda :, dm.n_lambda :].count_nonzero() == 0


@PROPERTY_SETTINGS
@given(problems())
def test_constant_solution_reproduced(problem):
    mesh, spec = problem
    s = spec(SCALAR_FIELDS["one"])
    _, tables, _, solution = solve_problem(mesh, s)
    errs = error_norms(solution, tables)
    assert max(errs.err_u, errs.err_lam0, errs.err_lamb) <= 1e-8
    assert np.allclose(solution.local[:, -1], 1.0, rtol=0, atol=1e-8)


@PROPERTY_SETTINGS
@given(problems())
def test_elementwise_conservation(problem):
    mesh, spec = problem
    s = spec(SCALAR_FIELDS["sin_x_cos_y"])
    _, tables, _, solution = solve_problem(mesh, s)
    cons = conservation_report(solution, tables)
    assert cons.max_element_residual <= 1e-9 * cons.scale_f


def rotation_matrix(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@st.composite
def affine_maps(draw):
    """x -> M x + b with M = R(a) diag(s, s q) R(a'), so det M = s^2 q >=
    1/160 and the condition number max(q, 1/q) is at most 10."""
    angle = st.floats(0.0, 2.0 * math.pi)
    s = draw(st.floats(0.25, 4.0))
    q = draw(st.floats(0.1, 10.0))
    M = rotation_matrix(draw(angle)) @ np.diag([s, s * q]) @ rotation_matrix(draw(angle))
    b = np.array([draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))])
    return M, b


def mapped(mesh, affine):
    M, b = affine
    return dataclasses.replace(mesh, vertices=mesh.vertices @ M.T + b)


@PROPERTY_SETTINGS
@given(st.sampled_from(DOMAIN_TAGS), affine_maps())
def test_weak_gradient_identity_on_affine_images(tag, affine):
    assert _identity_residual(mapped(level2(tag), affine)) <= 1e-12


@PROPERTY_SETTINGS
@given(problems(), affine_maps())
def test_constant_solution_on_affine_images(problem, affine):
    mesh, spec = problem
    mesh = mapped(mesh, affine)
    s = spec(SCALAR_FIELDS["one"])
    _, tables, _, solution = solve_problem(mesh, s)
    errs = error_norms(solution, tables)
    assert max(errs.err_u, errs.err_lam0, errs.err_lamb) <= 1e-8
    assert np.allclose(solution.local[:, -1], 1.0, rtol=0, atol=1e-8)
