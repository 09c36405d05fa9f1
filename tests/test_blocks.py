"""The blocked element pipeline of ``run_level``: a level run over element
blocks of at most ``ELEMENT_BLOCK`` elements gives, bit for bit, what its
whole-level tables give, names global elements and edges in its errors,
warns once per level, and drops each block's tables before the next."""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest

import pdwg.study
from helpers import build_level, forms_for, refined, same_bits
from pdwg.analysis import build_checks
from pdwg.assembly import classify_boundary
from pdwg.catalog import get_experiment
from pdwg.fields import HalfPlane, Piecewise, constant
from pdwg.mesh import MeshError
from pdwg.solver import solve
from pdwg.study import run_level

# No divisor of any level's element count, so the last block is ragged.
BLOCK = 37


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(pdwg.study, "ELEMENT_BLOCK", BLOCK)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("entry", ["table21", "fig5_tau1", "table23", "table19"])
def test_blocked_level_equals_the_whole_level(entry, j, monkeypatch):
    # Unit square (a piecewise beta, and a piecewise g whose leaf is read
    # at the gathered centroids), L-shape and cracked square at level 3,
    # 128 to 512 elements in 4 to 14 blocks, against the tables of the
    # whole level.
    spec = dataclasses.replace(get_experiment(entry).spec, j=j)
    mesh = refined(spec.domain_tag, 3)
    classified = []

    def classify(*args):
        classified.append(classify_boundary(*args))
        return classified[-1]

    monkeypatch.setattr(pdwg.study, "classify_boundary", classify)
    run = run_level(mesh, spec)
    tables, dofmap, system = build_level(mesh, spec)
    checks = build_checks(tables)
    assert mesh.num_elements > 3 * BLOCK
    # The classification depends on beta only.
    whole = classify_boundary(mesh, forms_for(mesh, spec.beta))
    for part in ("inflow_edges", "outflow_edges"):
        assert same_bits(getattr(classified[0], part), getattr(whole, part))
    assert same_bits(run.dofmap.element_indices, dofmap.element_indices)
    for part in ("element_matrix", "load"):
        assert same_bits(getattr(run.system, part), getattr(system, part))
    for field in dataclasses.fields(checks):
        got, want = getattr(run.checks, field.name), getattr(checks, field.name)
        assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want, field.name
    solution = solve(system)
    assert same_bits(run.solution.local, solution.local)
    assert run.solution.residual == solution.residual


def test_each_block_is_dropped_before_the_next_is_built(monkeypatch):
    # At level 2 (32 elements) a block of 8 gives 4 blocks per level: each
    # block's tables are gone once the next block's are built.
    monkeypatch.setattr(pdwg.study, "ELEMENT_BLOCK", 8)
    alive, rows = [], []
    build = pdwg.study.build_contexts

    def tracked(*args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        tables = build(*args, **kwargs)
        alive.append(weakref.ref(tables))
        rows.append((tables.rows.start, tables.rows.stop))
        return tables

    monkeypatch.setattr(pdwg.study, "build_contexts", tracked)
    pdwg.study.run_study(get_experiment("table5"), levels=(1, 2))
    assert rows == [(0, 8), (0, 8), (8, 16), (16, 24), (24, 32)]
    assert all(ref() is None for ref in alive)


def _message(call):
    with pytest.raises((ValueError, MeshError)) as err:
        call()
    return str(err.value)


def _split(name, inside, outside):
    """A field split at the diagonal x + y = 1, a mesh line: ``inside``
    below it, on the first coarse element's rows 0 .. T/2 - 1."""
    return Piecewise(name, pieces=((HalfPlane(1.0, 1.0, 1.0), inside),), otherwise=outside)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize(
    "bad, number",
    [
        ({"c": _split("c_nan", constant(1.0), constant(float("nan")))}, "element 64"),
        ({"g": _split("g_inf", constant(0.0), constant(float("inf")))}, "edge "),
        (
            {
                "c": _split("c_nan", constant(1.0), constant(float("nan"))),
                "g": _split("g_inf_below", constant(float("inf")), constant(0.0)),
            },
            "element 64",
        ),
    ],
)
def test_non_finite_data_in_a_later_block_names_it_globally(bad, number):
    # c is NaN, or g infinite, above x + y = 1, on elements 64 .. 127 of
    # level 3, which no element of the first two blocks reaches: the
    # blocked run names the same element or edge as the tables of the
    # whole level.  With g infinite below the line too, on inflow edges
    # of the first block, g is checked only once every block is in, so c
    # is named, as by the whole level.
    spec = dataclasses.replace(get_experiment("table5").spec, **bad)
    mesh = refined("unit_square", 3)
    blocked = _message(lambda: run_level(mesh, spec))
    assert blocked == _message(lambda: build_level(mesh, spec))
    assert number in blocked


@pytest.mark.usefixtures("small_blocks")
def test_non_positive_area_in_a_later_block_names_the_element():
    mesh = refined("unit_square", 3)
    elements = mesh.elements.copy()
    elements[100] = elements[100, ::-1]
    mesh = dataclasses.replace(mesh, elements=elements)
    with pytest.raises(MeshError, match="^element 100 has non-positive area"):
        run_level(mesh, get_experiment("table5").spec)


@pytest.mark.usefixtures("small_blocks")
def test_one_straddling_warning_per_level():
    # x = 0.3 is no mesh line: at level 3 it cuts the 16 elements of the
    # column 0.25 < x < 0.375, which lie in several blocks.  The level
    # warns once, as its whole tables do, naming the first and the count.
    split = Piecewise("off_line", pieces=((HalfPlane(1.0, 0.0, 0.3), constant(1.0)),), otherwise=constant(2.0))
    spec = dataclasses.replace(get_experiment("table5").spec, c=split)
    mesh = refined("unit_square", 3)
    with warnings.catch_warnings(record=True) as whole:
        warnings.simplefilter("always")
        build_level(mesh, spec)
    with warnings.catch_warnings(record=True) as blocked:
        warnings.simplefilter("always")
        run_level(mesh, spec)
    assert len(whole) == len(blocked) == 1
    assert str(blocked[0].message) == str(whole[0].message)
    assert "(16 elements in all)" in str(blocked[0].message)


@pytest.mark.usefixtures("small_blocks")
def test_straddling_first_in_a_later_block_is_named_and_counted_across_blocks():
    # c splits at the mesh line x + y = 1, and above it again at x = 0.7,
    # no mesh line at level 3: only elements above the diagonal, none of
    # the first block's, straddle, and they lie in several blocks.
    inner = Piecewise("inner", pieces=((HalfPlane(1.0, 0.0, 0.7), constant(1.0)),), otherwise=constant(2.0))
    c = Piecewise("upper_split", pieces=((HalfPlane(1.0, 1.0, 1.0), constant(3.0)),), otherwise=inner)
    spec = dataclasses.replace(get_experiment("table5").spec, c=c)
    mesh = refined("unit_square", 3)
    x = mesh.vertices[mesh.elements][..., 0]
    above = mesh.vertices[mesh.elements].mean(axis=1).sum(axis=1) > 1.0
    cut = np.flatnonzero(above & (x.min(axis=1) < 0.7) & (x.max(axis=1) > 0.7))
    assert cut[0] >= BLOCK and len(np.unique(cut // BLOCK)) > 1
    with warnings.catch_warnings(record=True) as blocked:
        warnings.simplefilter("always")
        run_level(mesh, spec)
    assert [str(w.message) for w in blocked] == [
        f"element {cut[0]} straddles a branch boundary of the piecewise field c "
        f"({len(cut)} elements in all); each is assigned the branch of its centroid"
    ]


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("build", [run_level, build_level], ids=["blocks", "whole-level"])
def test_non_finite_coefficient_raises_before_any_straddling_warning(build):
    # c is NaN left of x = 0.3, no mesh line at level 3, so elements
    # straddle the split; sampling raises first, and nothing is warned.
    split = Piecewise("nan_left", pieces=((HalfPlane(1.0, 0.0, 0.3), constant(float("nan"))),), otherwise=constant(1.0))
    spec = dataclasses.replace(get_experiment("table5").spec, c=split)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^c has a non-finite value on element 0$"):
            build(refined("unit_square", 3), spec)
    assert record == []


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_g_is_never_evaluated_off_the_inflow_boundary(level):
    # table5 (beta = (1, -1)) flows in through x = 0 and y = 1.  g is NaN
    # on x - y > 1/2, which holds the centroids of elements whose boundary
    # edges are all outflow (x = 1, y = 0) only, from level 2 on (level 1's
    # stop at the line): the blocked run gives, bit for bit, what table5's
    # own g gives.
    spec = get_experiment("table5").spec
    nan = constant(float("nan"))
    off = Piecewise("g_nan_off_inflow", pieces=((HalfPlane(-1.0, 1.0, -0.5), nan),), otherwise=spec.g)
    mesh = refined(spec.domain_tag, level)
    run, want = run_level(mesh, dataclasses.replace(spec, g=off)), run_level(mesh, spec)
    assert same_bits(run.system.load, want.system.load)
    assert same_bits(run.solution.local, want.solution.local)
