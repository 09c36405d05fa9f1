"""Refinement-study driver and CSV / plot-data emission.

A study builds the coarse mesh of the experiment's domain, refines it
uniformly level by level, and builds, solves and checks each level with
``run_level``, the one level pipeline.  Levels are reported through the
nominal grid spacing 1/h = 2^level of the unit cells.  Output files are
plain CSV with deterministic formatting, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    ConservationReport,
    ErrorReport,
    LevelChecks,
    build_checks,
    conservation_report,
    error_norms,
    postprocess_averages,
)
from .assembly import (
    ProblemSpec,
    SaddleSystem,
    assemble,
    build_contexts,
    build_forms,
    check_regular,
    classify_boundary,
    warn_straddling,
)
from .catalog import Experiment, check_levels
from .mesh import Mesh, build_coarse_mesh, refine_uniform
from .solver import DEFAULT_TOL, Solution, check_tol, solve
from .weakspace import DofMap

CSV_HEADER = "inv_h,err_u,order_u,err_l0,order_l0,err_lb,order_lb"

# The most elements whose tables exist at once.  A block's tables take
# 1.5 kB per element at j = 0 and 2.6 kB at j = 1, and the stabilizer's
# jump rows 1.0 and 2.2 kB more, so a block of 1024 works on a few MB,
# near the 2 MB L2 cache of a core, instead of streaming whole-level
# arrays through memory once per stage.  At table5 level 6 (8 blocks) the
# element stages took 36 ms against 39 ms with blocks of 512, 38 ms with
# 2048 and 55 ms in one block.  It is a constant, not an option: results
# do not depend on it, and every catalog level (at most 512 elements) is
# one block, which does the work a whole level always did.
ELEMENT_BLOCK = 1024

# Errors at or below this are round-off: every error of the constant
# solution tables (1e-17..1e-14) and of fig1 at level 0 with j=0, while
# every other catalog error at levels 0..3 is at least 5.3e-6.  An order
# computed from a round-off error is noise, so it is left blank.
ROUNDOFF_ERROR = 1e-12


@dataclass
class LevelResult:
    level: int
    inv_h: int
    n_lambda: int
    n_u: int
    err_u: float | None
    err_lam0: float | None
    err_lamb: float | None
    cons_max_residual: float
    cons_max_flux_jump: float
    cons_scale_f: float
    solver_residual: float
    seconds: float


@dataclass
class StudyReport:
    """Per-level results of one refinement study, the assembled system of
    the finest level, and its post-processed solution field when
    requested."""

    rows: list[LevelResult] = field(default_factory=list)
    system: SaddleSystem | None = None
    field_points: object = None

    def orders(self, key: str) -> list[float | None]:
        """Orders log2(e_{n-1} / e_n) per row: None on the first row and
        wherever either error is missing, non-finite or at round-off level
        (<= ROUNDOFF_ERROR)."""
        errs = [getattr(r, key) for r in self.rows]
        out: list[float | None] = [None] * len(errs)
        for i in range(1, len(errs)):
            pair = errs[i - 1 : i + 1]
            if None not in pair and all(ROUNDOFF_ERROR < e < math.inf for e in pair):
                out[i] = math.log2(pair[0] / pair[1])
        return out

    def table(self) -> str:
        """Human-readable study table."""
        widths = (5, 12, 7, 12, 7, 12, 7)
        head = ("1/h", "err_u", "order", "err_l0", "order", "err_lb", "order")
        rows = [head, *self._cells("%.5e", "%.3f")]
        return "\n".join(" ".join(f"{c:>{w}}" for c, w in zip(row, widths)) for row in rows)

    def _cells(self, err_fmt: str, order_fmt: str):
        """Per row, 1/h and each (error, order) pair formatted, empty where
        a value is missing."""
        keys = ("err_u", "err_lam0", "err_lamb")
        orders = [self.orders(key) for key in keys]
        for i, r in enumerate(self.rows):
            cells = [str(r.inv_h)]
            for key, o in zip(keys, orders):
                cells += [_fmt(getattr(r, key), err_fmt), _fmt(o[i], order_fmt)]
            yield cells


def _fmt(value, spec_str) -> str:
    return "" if value is None else spec_str % value


@dataclass
class LevelRun:
    """One level from :func:`run_level`; ``errors`` is None without an
    exact solution, and ``stages`` maps each stage to its seconds
    (``tables_s`` .. ``conservation_s``, ``errors_s`` only with ``errors``)
    and holds the peak RSS in MB after the assembly and after the solve."""

    dofmap: DofMap
    system: SaddleSystem
    checks: LevelChecks
    solution: Solution
    errors: ErrorReport | None
    conservation: ConservationReport
    stages: dict


def run_level(mesh: Mesh, spec: ProblemSpec, tol: float = DEFAULT_TOL) -> LevelRun:
    """Build, solve and check ``spec`` on ``mesh``.  The element work runs
    over contiguous blocks of at most ``ELEMENT_BLOCK`` elements: each
    block's tables are built, its rows of the checks and of the element
    forms (element matrices, loads and inflow marks) are written, and the
    tables are dropped before the next block.
    Then the boundary is classified, the DOF map built and the system
    assembled from the forms (g checked finite), refused by
    ``check_regular`` if singular, solved, and checked: the error norms
    (with an exact solution) and the conservation report.  Each stage's
    seconds are summed over the blocks.  Each stage function is looked up
    by its name in this module when called, so whoever wraps that name
    sees the call."""
    stages = dict.fromkeys(("tables_s", "checks_s", "classify_s", "dofmap_s", "assemble_s"), 0.0)

    def timed(key, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stages[key] = stages.get(key, 0.0) + time.perf_counter() - start
        return out

    # Each block forms its checks before its element forms, so the level's
    # checks are allocated first: formed after the assembly of a whole
    # level, they landed among its freed temporaries, and a long run of
    # table5 L0-6 studies kept those pages through some factor (139 MB
    # peaks instead of 125 MB).
    checks = forms = None
    for start in range(0, mesh.num_elements, ELEMENT_BLOCK):
        tables = timed("tables_s", build_contexts, mesh, spec, slice(start, start + ELEMENT_BLOCK))
        checks = timed("checks_s", build_checks, tables, checks)
        forms = timed("assemble_s", build_forms, tables, forms)
        del tables
    warn_straddling(mesh, spec)
    dofmap = timed("dofmap_s", DofMap, mesh, spec.j, timed("classify_s", classify_boundary, mesh, forms))
    system = timed("assemble_s", assemble, mesh, dofmap, forms)
    timed("assemble_s", check_regular, system)
    stages["assemble_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del forms
    solution = timed("solve_s", solve, system, tol=tol)
    stages["solve_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = timed("errors_s", error_norms, solution, checks) if spec.exact_u is not None else None
    conservation = timed("conservation_s", conservation_report, solution, checks)
    return LevelRun(dofmap, system, checks, solution, errors, conservation, stages)


def run_study(
    experiment: Experiment,
    levels: tuple[int, int] | None = None,
    tau: float | None = None,
    j: int | None = None,
    tol: float = DEFAULT_TOL,
    collect_field: bool = False,
) -> StudyReport:
    """Run one experiment over a range of refinement levels.

    ``tau`` and ``j`` override the catalog configuration without
    duplicating the entry.  A level range that ``check_levels`` refuses,
    or a bad ``tol``, raises ValueError before any mesh is built.  Each
    level runs through :func:`run_level`, and its DOF map, system, checks
    and solution are dropped before the next level is built; the report
    keeps the finest level's system.
    """
    spec = experiment.spec
    if tau is not None:
        spec = replace(spec, tau=tau)
    if j is not None:
        spec = replace(spec, j=j)

    lo, hi = check_levels(levels if levels is not None else experiment.levels)
    check_tol(tol)

    report = StudyReport()
    mesh = build_coarse_mesh(spec.domain_tag)
    for _ in range(lo):
        mesh = refine_uniform(mesh)

    for level in range(lo, hi + 1):
        start = time.perf_counter()
        run = run_level(mesh, spec, tol)
        report.rows.append(
            LevelResult(
                level=level,
                inv_h=2**level,
                n_lambda=run.dofmap.n_lambda,
                n_u=run.dofmap.n_u,
                err_u=run.errors.err_u if run.errors else None,
                err_lam0=run.errors.err_lam0 if run.errors else None,
                err_lamb=run.errors.err_lamb if run.errors else None,
                cons_max_residual=run.conservation.max_element_residual,
                cons_max_flux_jump=run.conservation.max_flux_jump,
                cons_scale_f=run.conservation.scale_f,
                solver_residual=run.solution.residual,
                seconds=time.perf_counter() - start,
            )
        )

        if level < hi:
            del run
            mesh = refine_uniform(mesh)
    report.system = run.system
    if collect_field:
        report.field_points = postprocess_averages(run.solution.local[:, -1], mesh)

    return report


def emit_csv(report: StudyReport, path) -> None:
    """Write the study table: one row per level, empty order cells on the
    first row and wherever errors are unavailable or at round-off level."""
    lines = [CSV_HEADER, *(",".join(cells) for cells in report._cells("%.12e", "%.6f"))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(source, path) -> None:
    """Write the post-processed point values of a StudyReport as x,y,value
    rows."""
    pts = source.field_points
    if pts is None:
        raise ValueError("report holds no field data; run with collect_field=True")
    rows = np.column_stack([pts.x, pts.y, pts.value]).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n" + "%.12e,%.12e,%.12e\n" * len(pts.x) % tuple(rows))
