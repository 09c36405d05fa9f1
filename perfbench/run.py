"""Benchmark entry point: measure one workload of pdwg in this process.

    python3 perfbench/run.py --workload study_l6 --seed 1 --seconds 45 --trace 0

The run times ``setup_s`` with fresh-interpreter probes, prepares the
workload, warms it up on a small problem and then runs whole passes until
another pass would overrun ``--seconds`` (at least one pass).  Every job
of every pass is checked (see ``checks.py``) and every pass must be bit
identical to the first.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured without tracing.  Their times are rescaled to a fixed reference
speed of the host by ``speed.py``, which samples the host's speed while
the passes run; the raw wall times are printed and recorded beside them.
With ``--trace 1`` traced and untraced passes alternate, starting with a
traced one so that peak-RSS growth is charged to the layer that caused
it.  The per-layer metrics are medians over the
traced passes (RSS growth: the first traced pass), ``trace.overhead_s``
is the time the tracer spent in its own bookkeeping, and traced results
must be bit identical to untraced ones.

The last line of standard output is the JSON result.  A full record
(environment, samples, problems, spans) is written to
``perfbench/out/``.  The exit code is 0 when every check passed, 1 when
one failed, and 2 when nothing could be measured (no package sources,
unknown workload).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import checks
import speed
from tracing import Tracer

SETUP_PROBES = 5
MAX_PROBLEMS_SHOWN = 20


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Threads of each loaded OpenBLAS, asked through its own API."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[Path(path).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported
    pdwg, built the catalog and prepared the workload: raw, and at
    reference speed."""
    probe = Path(__file__).with_name("setup_probe.py")
    raw, reference = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(probe), workload, str(seed), str(workdir / f"probe{i}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        words = line.split()
        if len(words) != 3 or words[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        kernel_s, probe_s = float(words[1]), float(words[2])
        raw.append(elapsed - probe_s)
        reference.append(raw[-1] * speed.KERNEL_REF_S / kernel_s)
    return raw, reference


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Runner:
    """Runs and checks passes, and keeps what the result reports."""

    def __init__(self, workload, reference: dict, rtol: float, tol: float):
        self.workload = workload
        self.reference = reference
        self.rtol = rtol
        self.tol = tol
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict | None = None
        self.dofs_per_pass = 0

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """Runs and checks one pass; returns its start and end time."""
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            results = self.workload.run_pass()
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._check(results, traced=tracer is not None)
        return start, end

    def _check(self, results, traced: bool) -> None:
        digests = checks.job_digests(results)
        if self.first_digests is None:
            self.first_digests = digests
            self.dofs_per_pass = sum(r.n_lambda + r.n_u for res in results for r in res.rows)
        label = "traced" if traced else "untraced"
        for result in results:
            problems = checks.check_job(result, self.reference, self.rtol, self.tol)
            if digests[result.key] != self.first_digests.get(result.key):
                problems.append(f"{label} pass not bit identical to the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{result.key}: {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = bootstrap.ROOT / "BENCHMARK.json"
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        bootstrap.cannot_run(f"cannot read {spec_path}: {err}")
    bootstrap.load_pdwg()
    from workloads import SOLVER_TOL, WORKLOADS

    if args.workload not in WORKLOADS:
        bootstrap.cannot_run(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    reference = checks.load_reference(Path(__file__).with_name("reference.json"))

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = bootstrap.OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup = time_setup(args.workload, args.seed, workdir) if args.trace == 0 else ([], [])
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, workdir)

        runner = Runner(workload, reference["workloads"][args.workload], reference["rtol"], SOLVER_TOL)
        plain_spans: list[tuple[float, float]] = []
        traced_spans: list[tuple[float, float]] = []
        tracers: list = []
        probe = speed.SpeedProbe() if args.trace == 0 else None
        with probe or contextlib.nullcontext():
            workload.warm_up()
            start = time.perf_counter()
            while True:
                if args.trace and len(traced_spans) <= len(plain_spans):
                    tracer = Tracer()
                    traced_spans.append(runner.run_pass(tracer))
                    tracers.append(tracer)
                else:
                    plain_spans.append(runner.run_pass())
                enough = bool(plain_spans) and (bool(traced_spans) or not args.trace)
                next_pass = statistics.median(b - a for a, b in plain_spans + traced_spans)
                if enough and time.perf_counter() - start + next_pass > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    if probe is not None:
        plain_raw = [b - a - probe.probe_seconds(a, b) for a, b in plain_spans]
        plain = [probe.reference_seconds(a, b) for a, b in plain_spans]
    else:
        plain_raw = plain = [b - a for a, b in plain_spans]
    traced = [b - a for a, b in traced_spans]
    wall = statistics.median(plain)
    if args.trace == 0:
        metrics = {
            "wall_s": wall,
            "dofs_per_s": runner.dofs_per_pass / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - runner.failed / runner.attempted,
        }
        wanted = spec["end_to_end"]
    else:
        per_pass = [t.layer_metrics() for t in tracers]
        metrics = {
            key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]
            if all(key in p for p in per_pass)
        }
        for key in ("assembly.rss_growth_mb", "solver.rss_growth_mb"):
            if key in per_pass[0]:
                metrics[key] = per_pass[0][key]
        wanted = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in wanted}
    absent = [name for name in units if name not in metrics]
    result_metrics = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
    }
    correct = runner.failed == 0 and runner.attempted > 0
    q1, q3 = quartiles(plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "wall_samples_s": plain,
        "wall_quartiles_s": [q1, q3],
        "raw_wall_samples_s": plain_raw,
        "traced_samples_s": traced,
        "setup_samples_s": setup,
        "raw_setup_samples_s": setup_raw,
        "speed_kernel_s": probe.kernels if probe is not None else [],
        "speed_kernel_ref_s": speed.KERNEL_REF_S,
        "dofs_per_pass": runner.dofs_per_pass,
        "fail_ratio": runner.failed / runner.attempted,
        "metrics": metrics,
        "absent_metrics": absent,
        "broken_counters": {k: v for t in tracers for k, v in t.broken.items()},
        "problems": runner.problems,
        "digests": runner.first_digests,
        "spans": [t.spans for t in tracers],
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    with open(bootstrap.OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(plain)} untraced pass(es), {len(traced)} traced, "
          f"wall quartiles {q1:.4f}..{q3:.4f} s, {runner.dofs_per_pass} dofs per pass")
    if probe is not None:
        print(f"  raw wall {statistics.median(plain_raw):.4f} s, raw set-up "
              f"{statistics.median(setup_raw):.4f} s, median speed kernel "
              f"{statistics.median(probe.kernels) * 1e3:.4f} ms (reference "
              f"{speed.KERNEL_REF_S * 1e3:.4f} ms)")
    for name, unit in units.items():
        value = f"{metrics[name]:.6g}" if name in metrics else "absent"
        print(f"  {name:28s} {value:>14s} {unit}")
    print(f"  {'fail_ratio':28s} {runner.failed / runner.attempted:>14.6g} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")
    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAIL {problem}", file=sys.stderr)
    if absent:
        print(f"absent metrics (hook or counter missing): {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
