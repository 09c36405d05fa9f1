"""Local conservation of the scheme.

With the postprocessed solution u~ = u_h + tau (beta.grad(lam0) - c lam0)
and flux F_h = beta u_h - (lam0 - lam_b) n / h_T, every element satisfies
the balance  int_{dT} F_h.n + int_T c u~ = int_T f  and the normal flux is
continuous across interior edges.  Both hold to solver accuracy; breaking
the solution breaks them, so the check is not vacuous.

Run:  PYTHONPATH=src python3 demos/05_conservation.py
"""

import copy

from pdwg.analysis import conservation_report
from pdwg.catalog import get_experiment
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.study import run_level

exp = get_experiment("table19")  # rotational convection on the slit square
spec = exp.spec
print(exp.description)

mesh = build_coarse_mesh(spec.domain_tag)
for _ in range(3):
    mesh = refine_uniform(mesh)
run = run_level(mesh, spec)  # tables, checks, assembly, solve and the checks applied

report = run.conservation
print(f"elements: {mesh.num_elements}, interior edges: {len(report.interior_edges)}")
print(f"max |element balance residual| = {report.max_element_residual:.3e}")
print(f"max |normal flux jump moment|  = {report.max_flux_jump:.3e}")

broken = copy.deepcopy(run.solution)
broken.local[7, -1] += 1e-3  # u_h on element 7
bad = conservation_report(broken, run.checks)
print("\nafter perturbing one element value by 1e-3:")
print(f"max |element balance residual| = {bad.max_element_residual:.3e}")
print(f"max |normal flux jump moment|  = {bad.max_flux_jump:.3e}")
