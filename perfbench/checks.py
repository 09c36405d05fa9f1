"""Correctness gates applied to every job of every pass.

A job passes when it raised nothing and, on every level it solved:

- the solver's relative residual is at most the requested tolerance;
- the largest elementwise conservation residual is at most 1e-9 times
  scale(f), and the largest interior flux jump is at most 1e-9;
- for the constant-solution experiments (u = 1), every error is <= 1e-8;
- the DOF counts equal the recorded ones, and the error norms agree with
  the values recorded in ``reference.json`` to its ``rtol`` relative plus
  ``ERR_ATOL`` absolute, so errors that are pure round-off (some level-0
  errors are 1e-21 to 1e-17) may move by orders of magnitude under a
  refactor that reorders sums; constant-solution errors are round-off
  throughout and are gated by size instead;
- the study CSV, read back as numbers, holds the same errors, and the
  field CSV (where the catalog asks for one) has the recorded number of
  points and value norm.

``job_digests`` fingerprints the exact bits of every checked number, so
two passes can be compared for bit identity.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

CONS_REL_TOL = 1e-9
FLUX_JUMP_TOL = 1e-9
CONSTANT_ERR_TOL = 1e-8
CONSTANT_SOLUTION = frozenset({"table1", "table2", "table3", "table4"})
# Absolute floor for comparing error norms with the reference.  The
# smallest error above round-off in reference.json is 5.3e-6, where the
# relative test allows 5.3e-12; the round-off errors (level 0 of the
# fig1 experiments) are below 2e-17.
ERR_ATOL = 1e-12
# The study CSV prints errors with 13 significant digits.
CSV_RTOL = 1e-11

ERROR_FIELDS = ("err_u", "err_lam0", "err_lamb")
DIGEST_FIELDS = (
    "n_lambda",
    "n_u",
    "err_u",
    "err_lam0",
    "err_lamb",
    "cons_max_residual",
    "cons_max_flux_jump",
    "cons_scale_f",
    "solver_residual",
)


def load_reference(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _field_summary(path: Path) -> list:
    rows = _read_csv(path)
    norm = math.sqrt(sum(float(r["value"]) ** 2 for r in rows))
    return [len(rows), norm]


def check_job(result, reference: dict, rtol: float, tol: float) -> list[str]:
    """Problems found in one job's outputs; empty when it passes.
    ``reference`` maps job keys to ``reference_entry`` records."""
    if result.error is not None:
        return [result.error]
    lo, hi = result.levels
    if [r.level for r in result.rows] != list(range(lo, hi + 1)):
        return [f"levels {[r.level for r in result.rows]} != {lo}..{hi}"]
    problems = []
    constant = result.experiment in CONSTANT_SOLUTION
    for r in result.rows:
        where = f"level {r.level}"
        if not r.solver_residual <= tol:
            problems.append(f"{where}: solver residual {r.solver_residual:.3e} > {tol:.1e}")
        if not r.cons_max_residual <= CONS_REL_TOL * r.cons_scale_f:
            problems.append(
                f"{where}: conservation residual {r.cons_max_residual:.3e} "
                f"> {CONS_REL_TOL:.0e} * scale(f) {r.cons_scale_f:.3e}"
            )
        if not r.cons_max_flux_jump <= FLUX_JUMP_TOL:
            problems.append(f"{where}: flux jump {r.cons_max_flux_jump:.3e} > {FLUX_JUMP_TOL:.0e}")
        if constant:
            for name in ERROR_FIELDS:
                if not getattr(r, name) <= CONSTANT_ERR_TOL:
                    problems.append(f"{where}: constant solution {name} {getattr(r, name):.3e}")

    ref = reference.get(result.key)
    if ref is None or ref["levels"] != [lo, hi]:
        return problems + [f"no reference recorded for {result.key} levels {lo}..{hi}"]
    for r, dofs, errs in zip(result.rows, ref["dofs"], ref["errors"]):
        where = f"level {r.level}"
        if [r.n_lambda, r.n_u] != dofs:
            problems.append(f"{where}: dofs {[r.n_lambda, r.n_u]} != reference {dofs}")
        got = [getattr(r, name) for name in ERROR_FIELDS]
        if errs is None or None in got:
            if errs is not None or any(g is not None for g in got):
                problems.append(f"{where}: errors {got} != reference {errs}")
            continue
        if constant:
            continue
        for name, g, want in zip(ERROR_FIELDS, got, errs):
            if not _close(g, want, rtol, ERR_ATOL):
                problems.append(
                    f"{where}: {name} {g!r} != reference {want!r} (rtol {rtol:g}, atol {ERR_ATOL:g})"
                )

    if result.csv_path is not None:
        problems += _check_csv(result)
    field = _field_summary(result.field_path) if result.field_path is not None else None
    if field is not None or ref["field"] is not None:
        if field is None or ref["field"] is None or field[0] != ref["field"][0] or not _close(
            field[1], ref["field"][1], rtol
        ):
            problems.append(f"field summary {field} != reference {ref['field']}")
    return problems


def _check_csv(result) -> list[str]:
    rows = _read_csv(result.csv_path)
    if len(rows) != len(result.rows):
        return [f"{result.csv_path.name}: {len(rows)} rows for {len(result.rows)} levels"]
    problems = []
    columns = {"err_u": "err_u", "err_lam0": "err_l0", "err_lamb": "err_lb"}
    for line, r in zip(rows, result.rows):
        if int(line["inv_h"]) != r.inv_h:
            problems.append(f"{result.csv_path.name}: inv_h {line['inv_h']} != {r.inv_h}")
        for name, column in columns.items():
            want = getattr(r, name)
            cell = line[column]
            if (want is None) != (cell == "") or (
                want is not None and not _close(float(cell), want, CSV_RTOL)
            ):
                problems.append(f"{result.csv_path.name}: {column} {cell!r} != {want!r}")
    return problems


def reference_entry(result) -> dict:
    """The values ``check_job`` compares against, taken from one job."""
    errors = []
    for r in result.rows:
        got = [getattr(r, name) for name in ERROR_FIELDS]
        errors.append(None if None in got else got)
    return {
        "levels": list(result.levels),
        "dofs": [[r.n_lambda, r.n_u] for r in result.rows],
        "errors": errors,
        "field": _field_summary(result.field_path) if result.field_path is not None else None,
    }


def job_digests(results) -> dict[str, str]:
    """Per job, a hash of the exact bits of every gated number."""
    out = {}
    for result in results:
        values = [
            [float(v).hex() if v is not None else None for v in (getattr(r, f) for f in DIGEST_FIELDS)]
            for r in result.rows
        ]
        blob = json.dumps([result.error, values]).encode()
        out[result.key] = hashlib.sha256(blob).hexdigest()[:16]
    return out
