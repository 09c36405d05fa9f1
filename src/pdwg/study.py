"""Refinement-study driver and CSV / plot-data emission.

A study builds the coarse mesh of the experiment's domain, refines it
uniformly level by level, and for each level builds the element tables
once, then classifies the boundary, assembles, solves and analyzes the
problem from them.  Levels are reported through the nominal grid
spacing 1/h = 2^level of the unit cells.  Output files are plain CSV with
deterministic formatting, so identical runs produce identical bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .analysis import (
    ConservationReport,
    conservation_report,
    error_norms,
    postprocess_averages,
)
from .assembly import SaddleSystem, assemble, build_contexts, classify_boundary
from .catalog import Experiment
from .mesh import build_coarse_mesh, refine_uniform
from .solver import DEFAULT_TOL, check_tol, solve
from .weakspace import DofMap

CSV_HEADER = "inv_h,err_u,order_u,err_l0,order_l0,err_lb,order_lb"

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
    duplicating the entry.  A bad level range or ``tol`` raises
    ValueError before any mesh is built.  Each level's tables, DOF map,
    system and solution are dropped before the next level is built; the
    report keeps the finest level's system.
    """
    spec = experiment.spec
    if tau is not None:
        spec = replace(spec, tau=tau)
    if j is not None:
        spec = replace(spec, j=j)

    lo, hi = levels if levels is not None else experiment.levels
    if lo < 0 or hi < lo:
        raise ValueError(f"bad level range ({lo}, {hi})")
    check_tol(tol)

    report = StudyReport()
    mesh = build_coarse_mesh(spec.domain_tag)
    for _ in range(lo):
        mesh = refine_uniform(mesh)

    for level in range(lo, hi + 1):
        start = time.perf_counter()
        tables = build_contexts(mesh, spec)
        dofmap = DofMap(mesh, spec.j, classify_boundary(mesh, tables))
        system = assemble(mesh, dofmap, tables)
        solution = solve(system, tol=tol)

        if spec.exact_u is not None:
            errs = error_norms(solution, tables)
            err_u, err_l0, err_lb = errs.err_u, errs.err_lam0, errs.err_lamb
        else:
            err_u = err_l0 = err_lb = None
        cons: ConservationReport = conservation_report(solution, tables)

        report.rows.append(
            LevelResult(
                level=level,
                inv_h=2**level,
                n_lambda=dofmap.n_lambda,
                n_u=dofmap.n_u,
                err_u=err_u,
                err_lam0=err_l0,
                err_lamb=err_lb,
                cons_max_residual=cons.max_element_residual,
                cons_max_flux_jump=cons.max_flux_jump,
                cons_scale_f=cons.scale_f,
                solver_residual=solution.residual,
                seconds=time.perf_counter() - start,
            )
        )

        if level < hi:
            del tables, dofmap, system, solution, cons
            mesh = refine_uniform(mesh)
    report.system = system
    if collect_field:
        report.field_points = postprocess_averages(solution.local[:, -1], mesh)

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
    lines = ["x,y,value"]
    for x, y, v in zip(pts.x, pts.y, pts.value):
        lines.append(f"{x:.12e},{y:.12e},{v:.12e}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
