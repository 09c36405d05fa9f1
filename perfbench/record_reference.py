"""Record ``reference.json``: the DOF counts, error norms and field
summaries that ``checks.py`` compares every job against.

    python3 perfbench/record_reference.py

Runs one untraced pass of each workload and writes the values it
produced.  Record only when the benchmark itself is defined or changed,
never to make a failing program pass.
"""

import json
import shutil
import sys

import bootstrap

# Relative tolerance for the error norms and field norms.  Refactors that
# only reorder floating-point sums move them far less than this; a wrong
# discretization or quadrature moves them far more.
RTOL = 1e-6

if __name__ == "__main__":
    bootstrap.load_pdwg()
    import checks
    from workloads import WORKLOADS

    workdir = bootstrap.OUT / "record"
    out = {"rtol": RTOL, "workloads": {}}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.prepare(0, workdir)
            results = workload.run_pass()
            errors = [f"{r.key}: {r.error}" for r in results if r.error is not None]
            if errors:
                sys.exit("error: cannot record a failing job\n" + "\n".join(errors))
            out["workloads"][name] = {r.key: checks.reference_entry(r) for r in results}
            print(f"{name}: {len(results)} jobs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = bootstrap.ROOT / "perfbench" / "reference.json"
    # One job per line keeps the file readable and its diffs small.
    blocks = []
    for name, jobs in out["workloads"].items():
        lines = [f"  {json.dumps(key)}: {json.dumps(jobs[key])}" for key in sorted(jobs)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(path, "w") as fh:
        fh.write(f'{{"rtol": {RTOL!r}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")
    print(f"wrote {path}")
