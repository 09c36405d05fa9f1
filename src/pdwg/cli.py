"""The ``pdwg`` command line tool.

Subcommands:

    pdwg list
        Print the experiment catalog.

    pdwg run --experiment NAME [--levels N] [--tau X] [--j {k-1,k}]
             [--tol T] --out DIR
    pdwg run --config FILE.json [...] --out DIR
        Run a refinement study and write <name>.csv (and <name>_field.csv
        for experiments that emit the post-processed solution field).

    pdwg verify --experiment NAME [--levels N]
        Run the experiment and check the per-run gates: solver residual,
        exact symmetry and a zero primal-primal entry of every element
        matrix solved, elementwise conservation, and (for exact
        solutions) error decrease.

Exit codes: 0 success, 2 solver failure, 3 acceptance or usage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .catalog import Experiment, catalog, get_experiment, make_experiment
from .fields import field_from_config, number
from .solver import DEFAULT_TOL, SolverError
from .study import emit_csv, emit_plot_data, run_study

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_ACCEPTANCE_FAILURE = 3


def load_experiment_config(path) -> Experiment:
    """Build an experiment from a JSON file mirroring the problem fields.

    Required keys: name, domain, beta, tau.  Optional: c (default 0),
    exact_u, f, g, k (must be 1), j (0 or 1, default 1), levels ([lo, hi],
    default [0, 5]).  When exact_u is given, f and g default to the
    manufactured load and the exact inflow trace.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for key in ("name", "domain", "beta", "tau"):
        if key not in cfg:
            raise ValueError(f"config is missing required key {key!r}")
    name = cfg["name"]
    if not (isinstance(name, str) and name and Path(name).name == name):
        raise ValueError(f"name must be a plain file name (it names the output files), got {name!r}")
    k = cfg.get("k", 1)
    if type(k) is not int or k != 1:
        raise ValueError(f"k must be 1 (only the lowest order is supported), got k={k!r}")
    levels = cfg.get("levels", [0, 5])
    return make_experiment(
        name,
        cfg.get("description", f"config {path}"),
        cfg["domain"],
        field_from_config(cfg["beta"], vector=True),
        field_from_config(cfg.get("c", 0.0)),
        number(cfg, "tau"),
        **{key: field_from_config(cfg[key]) for key in ("exact_u", "f", "g") if key in cfg},
        j=cfg.get("j", 1),
        levels=tuple(levels) if isinstance(levels, list) else levels,
    )


# The --j choices name the multiplier degree relative to k = 1.
J_DEGREES = {"k-1": 0, "k": 1}


def _level_range(count, start, default):
    """Levels start .. start + count - 1 for ``--levels count``, or
    ``default`` when the option is not given."""
    if count is None:
        return default
    if count < 1:
        raise ValueError(f"--levels must be at least 1, got {count}")
    return (start, start + count - 1)


def _cmd_list(_args) -> int:
    for name, exp in catalog().items():
        print(f"{name:14s} {exp.description}")
    return EXIT_OK


def _cmd_run(args) -> int:
    exp = (
        get_experiment(args.experiment)
        if args.experiment is not None
        else load_experiment_config(args.config)
    )
    levels = _level_range(args.levels, exp.levels[0], None)
    # Fail before the study if --out cannot become a directory; it is made
    # only after the study succeeds.
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")
    report = run_study(
        exp,
        levels=levels,
        tau=args.tau,
        j=None if args.j is None else J_DEGREES[args.j],
        tol=args.tol,
        collect_field="field" in exp.outputs,
    )
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(report, out / f"{exp.name}.csv")
    if report.field_points is not None:
        emit_plot_data(report, out / f"{exp.name}_field.csv")
    print(report.table())
    worst = max(r.cons_max_residual / r.cons_scale_f for r in report.rows)
    jump = max(r.cons_max_flux_jump for r in report.rows)
    print(f"conservation: max residual/scale(f) {worst:.3e}, max flux jump {jump:.3e}")
    print(f"wrote {out / (exp.name + '.csv')}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    exp = get_experiment(args.experiment)
    levels = _level_range(args.levels, 0, (0, 3))
    report = run_study(exp, levels=levels)
    failures: list[str] = []

    # Symmetry / structure gates on the element matrices solved at the
    # finest level: an exactly symmetric E_T for every T makes their sum
    # exactly symmetric, and each u_T lies in one element only, so the
    # u-u entries of the E_T are the assembled primal-primal block.
    E = report.system.element_matrix
    Et = np.swapaxes(E, 1, 2)
    asym = (E != Et).any(axis=(1, 2))
    if asym.any():
        failures.append(f"matrix asymmetry {np.abs(E - Et).max():.3e} > 0, first in element {asym.argmax()}")
    uu = E[:, -1, -1] != 0
    if uu.any():
        failures.append(f"primal-primal block is not identically zero, first in element {uu.argmax()}")

    last = report.rows[-1]
    if last.cons_max_residual > 1e-9 * last.cons_scale_f:
        failures.append(
            f"conservation residual {last.cons_max_residual:.3e} exceeds "
            f"1e-9 * scale(f) = {1e-9 * last.cons_scale_f:.3e}"
        )
    if last.cons_max_flux_jump > 1e-9:
        failures.append(f"flux jump {last.cons_max_flux_jump:.3e} exceeds 1e-9")

    if exp.spec.exact_u is not None and len(report.rows) >= 2:
        # Level 0 is pre-asymptotic: the finest error is compared with
        # level 1's, or with level 0's when only two levels ran.
        errs = [r.err_u for r in report.rows]
        machine = all(e <= 1e-8 for e in errs)
        if not machine and not errs[-1] < errs[min(1, len(errs) - 2)]:
            failures.append(f"errors do not decrease: {errs}")

    print(report.table())
    if failures:
        for f in failures:
            print(f"FAIL {exp.name}: {f}", file=sys.stderr)
        return EXIT_ACCEPTANCE_FAILURE
    print(f"PASS {exp.name}: levels {levels[0]}..{levels[1]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdwg",
        description="Primal-dual weak Galerkin transport solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a refinement study")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--experiment", help="catalog entry name (see 'pdwg list')")
    source.add_argument("--config", help="JSON problem description")
    p_run.add_argument("--levels", type=int, help="number of levels (default: catalog range)")
    p_run.add_argument("--tau", type=float, help="override the stabilization parameter")
    p_run.add_argument("--j", choices=tuple(J_DEGREES), help="multiplier degree")
    p_run.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver relative residual")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list catalog experiments")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="run per-experiment checks")
    p_verify.add_argument("--experiment", required=True)
    p_verify.add_argument("--levels", type=int, help="number of levels (default 4)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:
        # argparse exits 2, the solver-failure code here, on a usage error.
        return EXIT_ACCEPTANCE_FAILURE if done.code else EXIT_OK
    try:
        return args.func(args)
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (KeyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ACCEPTANCE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
