"""Set-up probe for ``setup_s``.

Run in a fresh interpreter: import pdwg, build the catalog, prepare one
workload as ``run.py`` does before its timed passes, then print
``ready KERNEL_S PROBE_S``.  ``run.py`` times the probe from process start
to that line and rescales the time to reference speed (see ``speed.py``)
with ``KERNEL_S``, the median kernel time of two bursts, one before the
set-up and one after it.  ``PROBE_S`` is the time those bursts took.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import statistics
import sys
import time
from pathlib import Path

import bootstrap
import speed

if __name__ == "__main__":
    t0 = time.perf_counter()
    before = speed.kernel_time()
    probe_s = time.perf_counter() - t0
    bootstrap.load_pdwg()
    from pdwg.catalog import catalog
    from workloads import WORKLOADS

    catalog()
    WORKLOADS[sys.argv[1]]().prepare(int(sys.argv[2]), Path(sys.argv[3]))
    t0 = time.perf_counter()
    after = speed.kernel_time()
    probe_s += time.perf_counter() - t0
    print(f"ready {statistics.median([before, after])!r} {probe_s!r}", flush=True)
