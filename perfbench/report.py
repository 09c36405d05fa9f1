"""Run every workload and print all metrics in one report.

    python3 perfbench/report.py [--seed 1] [--seconds 45]

Runs ``run.py`` for each workload, one process after another: first
untraced (``--trace 0``), then traced (``--trace 1``).  Prints every
end-to-end metric per workload by name with its unit, then the per-layer
table of the traced runs, then whether each traced run reproduced the
untraced run's numbers bit for bit.  Exits with 1 when any run fails a
check or exits nonzero, or when traced and untraced results differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import bootstrap


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    cmd = [
        sys.executable,
        str(bootstrap.ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    path = bootstrap.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    print(f"running {workload} trace={trace} ...", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if not path.exists():
        return proc.returncode, None
    with open(path) as fh:
        return proc.returncode, json.load(fh)


def main(argv=None) -> int:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    ok = True
    records = {}
    for workload in workloads:
        for trace in (0, 1):
            code, record = run(workload, args.seed, args.seconds, trace)
            records[workload, trace] = record
            if code != 0 or record is None or not record["correct"]:
                ok = False
                print(f"FAIL {workload} trace={trace}: exit {code}", file=sys.stderr)
                for problem in (record or {}).get("problems", [])[:20]:
                    print(f"  {problem}", file=sys.stderr)

    print(f"\nend-to-end metrics (untraced, seed {args.seed}, {args.seconds:g} s per run)")
    print(f"{'workload':15s} {'metric':14s} {'value':>14s}  unit")
    for workload in workloads:
        record = records[workload, 0]
        if record is None:
            print(f"{workload:15s} (no result)")
            continue
        for m in spec["end_to_end"]:
            value = record["metrics"].get(m["name"])
            text = f"{value:14.6g}" if value is not None else f"{'absent':>14s}"
            note = ""
            if m["name"] == "wall_s":
                q1, q3 = record["wall_quartiles_s"]
                raw = statistics.median(record["raw_wall_samples_s"])
                note = f"  n={len(record['wall_samples_s'])} q1={q1:.4f} q3={q3:.4f} raw={raw:.4f}"
            print(f"{workload:15s} {m['name']:14s} {text}  {m['unit']}{note}")
        print(f"{workload:15s} {'fail_ratio':14s} {record['fail_ratio']:14.6g}  ratio"
              f"  {record['failed']} of {record['attempted']} jobs")
        env = record["environment"]
        print(f"{workload:15s} {'loadavg':14s} {env['loadavg_start'][0]:14.2f}  "
              f"(end {env['loadavg_end'][0]:.2f})")

    print("\nper-layer metrics (traced; times are self time summed over one pass)")
    print(f"{'metric':30s} {'unit':7s}" + "".join(f"{w:>15s}" for w in workloads))
    for m in spec["per_layer"]:
        cells = []
        for workload in workloads:
            record = records[workload, 1]
            value = record["metrics"].get(m["name"]) if record else None
            cells.append(f"{value:15.6g}" if value is not None else f"{'absent':>15s}")
        print(f"{m['name']:30s} {m['unit']:7s}" + "".join(cells))

    print("\nbit identity of traced and untraced results")
    for workload in workloads:
        plain, traced = records[workload, 0], records[workload, 1]
        if plain is None or traced is None:
            print(f"{workload:15s} not compared (missing result)")
            ok = False
            continue
        differ = [k for k in plain["digests"] if plain["digests"][k] != traced["digests"].get(k)]
        ok = ok and not differ
        status = "identical" if not differ else f"DIFFERENT in {', '.join(differ[:5])}"
        print(f"{workload:15s} {status} ({len(plain['digests'])} jobs)")

    env = next((r["environment"] for r in records.values() if r is not None), None)
    if env is not None:
        print("\nenvironment " + json.dumps(env, sort_keys=True))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
