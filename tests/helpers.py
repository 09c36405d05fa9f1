"""Builders shared by the tests: refined meshes, and one level's element
tables, DOF map and system built the way ``run_study`` builds them."""

from pdwg.assembly import ProblemSpec, assemble, build_contexts, classify_boundary
from pdwg.fields import constant
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.weakspace import DofMap


def refined(tag, level):
    """The coarse mesh of domain ``tag`` refined ``level`` times."""
    mesh = build_coarse_mesh(tag)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def tables_for(mesh, beta):
    """Element tables of ``mesh`` sampled for the convection ``beta`` with
    zero data, enough to classify its boundary."""
    zero = constant(0.0)
    spec = ProblemSpec(beta=beta, c=zero, f=zero, g=zero, tau=0.0, domain_tag=mesh.domain_tag)
    return build_contexts(mesh, spec)


def build_level(mesh, spec):
    """(tables, dofmap, system) of ``spec`` on ``mesh``: the tables first,
    then the classification, DOF map and assembled system read from them."""
    tables = build_contexts(mesh, spec)
    dofmap = DofMap(mesh, spec.j, classify_boundary(mesh, tables))
    return tables, dofmap, assemble(mesh, dofmap, tables)
