"""The benchmark's workloads.

Each workload prepares its inputs once (untimed by the pass loop; that
cost is what ``setup_s`` measures in a fresh interpreter) and then runs
whole passes.  A pass is a list of jobs; a job is one refinement study
whose outputs are checked afterwards.  Layer functions are always looked
up through their module at call time, so a tracer installed around a pass
sees every call.

- ``study_l6``: the README's standard study through the command line,
  table5 at levels 0..6 (8,192 elements at the finest).  Per-element
  Python loops dominate: element tables, assembly and conservation.
- ``layer_l7``: the sharp layer with c=0 and tau=0 (no coercivity) at
  level 7 only, 32,768 elements and order 229,376.  The sparse LU, the
  memory peak and mesh refinement dominate.  Run by hand only: one long
  pass per run, mostly compiled code, does not time steadily enough to
  gate (see README.md).
- ``catalog_sweep``: all 44 catalog experiments at levels 0..3 with
  j=k-1 and j=k, 88 studies in seed-permuted order.  Fixed per-call costs
  dominate and the solve is a small share; a change that adds per-call
  set-up shows here.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import pdwg.cli
import pdwg.study
from pdwg.catalog import catalog, get_experiment

SOLVER_TOL = 1e-11


@dataclass
class JobResult:
    """Outputs of one job: the study rows, the files it wrote, or the
    error it raised."""

    key: str
    experiment: str
    levels: tuple[int, int]
    rows: list = field(default_factory=list)
    csv_path: Path | None = None
    field_path: Path | None = None
    error: str | None = None


def _run_job(result: JobResult, call) -> JobResult:
    try:
        call(result)
    except Exception as err:  # a failing job is counted, the pass goes on
        result.error = f"{type(err).__name__}: {err}"
    return result


class StudyL6:
    name = "study_l6"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.argv = ["run", "--experiment", "table5", "--levels", "7", "--out", str(self.out)]
        # The command line returns an exit code, not the study report, so
        # the report is kept from the call the command makes.  The hook
        # holds the original function, so a tracer sees one study span.
        self.captured: list = []
        original = pdwg.cli.run_study

        def keep_report(*args, **kwargs):
            report = original(*args, **kwargs)
            self.captured.append(report)
            return report

        pdwg.cli.run_study = keep_report

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            pdwg.cli.main(["run", "--experiment", "table5", "--levels", "3", "--out", str(self.out)])

    def run_pass(self) -> list[JobResult]:
        def call(result):
            self.captured.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = pdwg.cli.main(self.argv)
            if code != 0:
                raise RuntimeError(f"pdwg run exited with code {code}")
            result.rows = list(self.captured[-1].rows)
            result.csv_path = self.out / "table5.csv"

        return [_run_job(JobResult("table5/j1", "table5", (0, 6)), call)]


class LayerL7:
    name = "layer_l7"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.experiment = get_experiment("fig4_tau0")

    def warm_up(self) -> None:
        pdwg.study.run_study(self.experiment, levels=(3, 3))

    def run_pass(self) -> list[JobResult]:
        def call(result):
            report = pdwg.study.run_study(self.experiment, levels=(7, 7), tol=SOLVER_TOL)
            result.rows = list(report.rows)

        return [_run_job(JobResult("fig4_tau0/j1", "fig4_tau0", (7, 7)), call)]


class CatalogSweep:
    name = "catalog_sweep"
    levels = (0, 3)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        cat = catalog()
        self.jobs = [(exp, j) for exp in cat.values() for j in (exp.spec.k - 1, exp.spec.k)]
        random.Random(seed).shuffle(self.jobs)

    def warm_up(self) -> None:
        exp, j = self.jobs[0]
        pdwg.study.run_study(exp, levels=(0, 1), j=j)

    def run_pass(self) -> list[JobResult]:
        results = []
        for exp, j in self.jobs:

            def call(result):
                report = pdwg.study.run_study(
                    exp,
                    levels=self.levels,
                    j=j,
                    tol=SOLVER_TOL,
                    collect_field="field" in exp.outputs,
                )
                result.rows = list(report.rows)
                stem = result.key.replace("/", "_")
                result.csv_path = self.out / f"{stem}.csv"
                pdwg.study.emit_csv(report, result.csv_path)
                if report.field_points is not None:
                    result.field_path = self.out / f"{stem}_field.csv"
                    pdwg.study.emit_plot_data(report, result.field_path)

            results.append(_run_job(JobResult(f"{exp.name}/j{j}", exp.name, self.levels), call))
        return results


WORKLOADS = {w.name: w for w in (StudyL6, LayerL7, CatalogSweep)}
