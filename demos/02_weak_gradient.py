"""The discrete weak gradient in action.

A weak function pairs an interior polynomial with independent edge traces;
its weak gradient is the degree k-1 vector polynomial defined by testing
the integration-by-parts identity.  For k=1 it is the constant
(1/|T|) sum_e <v_b, n>_e, which the element tables hold for every element
at once.  Four checks below: a pure trace function, consistency for a
genuine H1 function, a constant weak function on every element of a
refined mesh, and the commutation of the weak gradient with L2 projection.

Run:  PYTHONPATH=src python3 demos/02_weak_gradient.py
"""

import numpy as np

from pdwg.assembly import ElementTables
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.weakspace import commutativity_check, project_to_weak

mesh = build_coarse_mesh("unit_square")
t = next(
    t for t in range(mesh.num_elements)
    if any(np.allclose(v, (0.0, 0.0)) for v in mesh.vertices[mesh.elements[t]])
)
coords = mesh.vertices[mesh.elements[t]]
print("element:", coords.tolist())

# v0 = 0 with unit trace on the hypotenuse only: the weak gradient is
# |e| <n> / |T| = (2, 2) on this right triangle.
tables = ElementTables(mesh, j=1)
G = tables.G[t]  # (2 components, 9 local coefficients)
local = np.zeros(9)
for i in range(3):
    a, b = coords[i], coords[(i + 1) % 3]
    on_axis = (abs(a[0]) < 1e-14 and abs(b[0]) < 1e-14) or (
        abs(a[1]) < 1e-14 and abs(b[1]) < 1e-14
    )
    if not on_axis:
        local[3 + 2 * i] = 1.0
print("grad_w of the hypotenuse-trace function:", G @ local)

# An H1 function represented weakly (interior and traces both its L2
# projections, element rows [lam_0; traces]) recovers its classical
# gradient: v = x gives (1, 0).
local = project_to_weak(lambda x, y: x, tables)[t]
print("grad_w of v = x with matching trace:   ", G @ local)

# The constant weak function {1, 1} has zero weak gradient on every
# element; one einsum applies all the element operators at once.
mesh3 = build_coarse_mesh("unit_square")
for _ in range(3):
    mesh3 = refine_uniform(mesh3)
tables3 = ElementTables(mesh3, j=1)
ones = np.zeros(9)
ones[0] = 1.0
ones[3::2] = 1.0
grads = np.einsum("tcn,n->tc", tables3.G, ones)
print(f"max |grad_w 1| over {len(grads)} elements: {np.abs(grads).max():.1e}")

# Projecting into the weak space commutes with the weak gradient; the
# check projects on the quadrature of the same element tables.
res = commutativity_check(
    lambda x, y: np.sin(x) * np.cos(y),
    lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)),
    tables3,
)
print(f"commutation residual for sin(x)cos(y) at level 3: {res:.2e}")
