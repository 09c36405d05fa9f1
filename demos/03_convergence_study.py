"""Refinement study for the smooth benchmark u = sin(x) cos(y) with
beta = [1, -1], c = 1, tau = 1 on the unit square.

The primal error converges at first order and both multiplier norms at
second order; the multiplier approximates zero, so its size measures the
consistency of the discretization.

Run:  PYTHONPATH=src python3 demos/03_convergence_study.py
"""

from pdwg.catalog import get_experiment
from pdwg.study import emit_csv, run_study

experiment = get_experiment("table5")
print(experiment.description)
print(f"expected: {experiment.expected_orders}\n")

report = run_study(experiment, levels=(0, 5))
print(report.table())

emit_csv(report, "table5.csv")
print("\nwrote table5.csv")
print(f"solver residual {report.rows[-1].solver_residual:.1e}, "
      f"finest level took {report.rows[-1].seconds:.2f} s")
