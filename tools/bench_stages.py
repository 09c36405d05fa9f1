"""Time one refinement level stage by stage, for the ``BENCH_*.json`` records.

    python tools/bench_stages.py --src parent=../old/src --src change=src \\
        --runs 3 --out BENCH.json table5:6 table5:7 fig4_tau0:7

Each EXPERIMENT:LEVEL point is built, solved and checked by
``pdwg.study.run_level``, once per run and source tree, each time in a
fresh process, so its peak RSS (``ru_maxrss``) is that point's alone.
The trees given by ``--src LABEL=PATH`` (``pdwg`` is imported from PATH)
alternate within every run, so two checkouts are measured back to back.
Stages, in seconds: mesh (the coarse mesh and every refinement), then
the stages of ``run_level``: tables, checks, classify, dofmap, assemble
(tables, checks and assemble summed over the element blocks, assemble
holding the element matrices and loads), solve (the element
elimination, factor, refinement and the residual check) with
its part factor (the SuperLU call), errors and conservation.  The
fill-reducing order is the DOF map's numbering, so it is timed in
dofmap.  Beside them each point records the peak RSS after assembly,
after the solve and at the end (``assemble_peak_mb``,
``solve_peak_mb``, ``peak_rss_mb``), the factor fill and fill /
(n log2 n) over the factor's order n, the root separator's edges, the
rows SuperLU moved, the refinement steps and the residuals.  A run that
fails (under an address-space cap, say) is recorded by its error.  The
record holds every run and the median of each metric over the runs that
did not fail.  Every tree must have ``pdwg.study.run_level``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time


def measure(point: str) -> dict:
    """Stage times, solver diagnostics and peak RSS of one point, in this
    process."""
    from pdwg.catalog import get_experiment
    from pdwg.mesh import build_coarse_mesh, refine_uniform
    from pdwg.study import run_level

    name, level = point.split(":")
    spec = get_experiment(name).spec
    start = time.perf_counter()
    mesh = build_coarse_mesh(spec.domain_tag)
    for _ in range(int(level)):
        mesh = refine_uniform(mesh)
    mesh_s = time.perf_counter() - start
    run = run_level(mesh, spec)
    info = run.solution.info
    return {
        "mesh_s": mesh_s,
        **run.stages,
        "factor_s": info["factor_s"],
        "total_s": mesh_s + sum(t for key, t in run.stages.items() if key.endswith("_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "elements": mesh.num_elements,
        "condensed_order": info["condensed_order"],
        "fill": info["fill"],
        "fill_per_nlogn": info["fill_per_nlogn"],
        "separator_edges": info["separator_edges"],
        "row_interchanges": info["row_interchanges"],
        "refine_steps": info["refine_steps"],
        "initial_residual": info["initial_residual"],
        "residual": run.solution.residual,
    }


def median(runs: list) -> dict:
    """The median of each metric over ``runs``; empty if there are none."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]} if runs else {}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="+", help="EXPERIMENT:LEVEL")
    parser.add_argument("--src", action="append", required=True, help="LABEL=PATH of a source tree")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the record here (default: stdout)")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        try:
            print(json.dumps(measure(args.points[0])))
        except Exception as err:
            print(json.dumps({"failed": f"{type(err).__name__}: {err}"}))
        return
    trees = dict(src.split("=", 1) for src in args.src)
    runs = {point: {label: [] for label in trees} for point in args.points}
    for _ in range(args.runs):
        for point in args.points:
            for label, path in trees.items():
                env = dict(os.environ, PYTHONPATH=os.path.abspath(path))
                cmd = [sys.executable, __file__, "--one", "--src", f"{label}={path}", point]
                done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
                runs[point][label].append(json.loads(done.stdout))
    medians = {
        point: {label: median([r for r in rs if "failed" not in r]) for label, rs in by_label.items()}
        for point, by_label in runs.items()
    }
    record = {
        "command": " ".join(["python", *sys.argv]),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "runs": args.runs,
        "median": medians,
        "all_runs": runs,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
