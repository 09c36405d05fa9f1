"""Acceptance suite: the end-to-end gates for this package.

Each test covers one numbered criterion at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them on success).
"""

import time

import numpy as np

from helpers import assembled_matrix, build_level, full_indices, map_to_edge, refined
from pdwg.assembly import ElementTables
from pdwg.catalog import catalog, get_experiment
from pdwg.cli import main
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.poly import EdgeBasis, quad_edge
from pdwg.study import run_study
from pdwg.weakspace import commutativity_check
from pdwg.analysis import triple_norm_Wh


def _line(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def finest_two(orders):
    return [o for o in orders if o is not None][-2:]


def test_criterion_1_constant_solution_tables():
    """Constant exact solution on both domains, tau in {0, 1}: all three
    error norms at machine scale (<= 1e-8) on levels 0..5 in under 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for name in ("table1", "table2", "table3", "table4"):
        report = run_study(get_experiment(name), levels=(0, 5))
        for row in report.rows:
            worst = max(worst, row.err_u, row.err_lam0, row.err_lamb)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert _line(1, ok, f"max norm {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_optimal_order_convergence():
    """Smooth solution, constant convection, tau=1 on the unit square:
    first-order primal, second-order multiplier, absolute error within a
    factor of 2 of the reported 0.001589 at 1/h=32, in under 2 min."""
    start = time.perf_counter()
    report = run_study(get_experiment("table5"), levels=(0, 5))
    elapsed = time.perf_counter() - start

    ou = finest_two(report.orders("err_u"))
    o0 = finest_two(report.orders("err_lam0"))
    ob = finest_two(report.orders("err_lamb"))
    final_err = report.rows[-1].err_u
    ok_orders = all(0.85 <= o <= 1.15 for o in ou) and all(
        1.8 <= o <= 2.2 for o in o0 + ob
    )
    ok_abs = 0.001589 / 2.0 <= final_err <= 0.001589 * 2.0
    ok = ok_orders and ok_abs and elapsed < 120.0
    assert _line(
        2,
        ok,
        f"u orders {ou[0]:.3f}/{ou[1]:.3f}, multiplier orders "
        f"{o0[0]:.2f}/{o0[1]:.2f} & {ob[0]:.2f}/{ob[1]:.2f}, "
        f"err(1/h=32) {final_err:.3e}, {elapsed:.1f} s",
    )
    assert ok_orders and ok_abs and elapsed < 120.0


def test_criterion_3_stabilization_sweep():
    """tau=0 and tau=0.001 agree within 1% at 1/h=16; tau=1000 has a
    larger absolute error than tau=1 at 1/h=8."""
    e_tau0 = run_study(get_experiment("table9"), levels=(4, 4)).rows[0].err_u
    e_tau001 = run_study(get_experiment("table10"), levels=(4, 4)).rows[0].err_u
    e_tau1 = run_study(get_experiment("table11"), levels=(3, 3)).rows[0].err_u
    e_tau1000 = run_study(get_experiment("table12"), levels=(3, 3)).rows[0].err_u

    agree = abs(e_tau0 - e_tau001) / min(e_tau0, e_tau001) <= 0.01
    larger = e_tau1000 > e_tau1
    ok = agree and larger
    assert _line(
        3,
        ok,
        f"1/h=16: {e_tau0:.4e} vs {e_tau001:.4e}; "
        f"1/h=8: tau=1000 {e_tau1000:.3e} > tau=1 {e_tau1:.3e}",
    )
    assert agree and larger


def test_criterion_4_conservation_all_exact_experiments():
    """Every catalog experiment with an exact solution satisfies, at level
    3, max element balance residual <= 1e-9 * scale(f) and max
    interior-edge normal-flux jump <= 1e-9."""
    worst_resid = 0.0
    worst_jump = 0.0
    checked = 0
    for name, exp in catalog().items():
        if exp.spec.exact_u is None:
            continue
        row = run_study(exp, levels=(3, 3)).rows[0]
        worst_resid = max(worst_resid, row.cons_max_residual / row.cons_scale_f)
        worst_jump = max(worst_jump, row.cons_max_flux_jump)
        checked += 1
    ok = worst_resid <= 1e-9 and worst_jump <= 1e-9 and checked >= 35
    assert _line(
        4,
        ok,
        f"{checked} experiments, residual/scale {worst_resid:.2e}, "
        f"jump {worst_jump:.2e}",
    )
    assert worst_resid <= 1e-9
    assert worst_jump <= 1e-9


def _identity_residual(mesh):
    """Max violation of the weak-gradient defining identity over all local
    basis weak functions and constant test vectors of one mesh."""
    basis_e = EdgeBasis(1)
    erule = quad_edge(9)
    worst = 0.0
    geom = ElementTables(mesh, 1)
    G = geom.G
    for t in range(mesh.num_elements):
        lhs = geom.area[t] * G[t]
        rhs = np.zeros_like(lhs)
        for i in range(3):
            a_id = mesh.elements[t][i]
            b_id = mesh.elements[t][(i + 1) % 3]
            _, w, tloc = map_to_edge(erule, mesh.vertices[a_id], mesh.vertices[b_id])
            tglob = tloc if a_id < b_id else -tloc
            evals = basis_e.eval(tglob)
            n = geom.normals[t, i]
            lo = 3 + i * 2
            for comp in range(2):
                rhs[comp, lo : lo + 2] = n[comp] * (w @ evals)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_criterion_5_weak_gradient_properties():
    """Defining identity to 1e-12 on all elements of levels 0..3 of all
    domains; the single-edge trace example evaluates to (2, 2); the
    projection commutation residual meets its stated bounds."""
    worst_identity = 0.0
    for tag in ("unit_square", "l_shape", "cracked_square"):
        mesh = build_coarse_mesh(tag)
        for level in range(4):
            worst_identity = max(worst_identity, _identity_residual(mesh))
            if level < 3:
                mesh = refine_uniform(mesh)

    mesh = build_coarse_mesh("unit_square")
    t = next(
        t for t in range(2)
        if any(np.allclose(v, (0, 0)) for v in mesh.vertices[mesh.elements[t]])
    )
    coords = mesh.vertices[mesh.elements[t]]
    local = np.zeros(9)
    for i in range(3):
        a, b = coords[i], coords[(i + 1) % 3]
        axis = (abs(a[0]) < 1e-14 and abs(b[0]) < 1e-14) or (
            abs(a[1]) < 1e-14 and abs(b[1]) < 1e-14
        )
        if not axis:
            local[3 + 2 * i] = 1.0
    hyp = ElementTables(mesh, 1).G[t] @ local
    hyp_err = float(np.max(np.abs(hyp - 2.0)))

    mesh1 = refined("unit_square", 1)
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    res_lin = commutativity_check(
        lambda x, y: 1.0 + 2.0 * x - 3.0 * y,
        lambda x, y: (2.0 * ones(x), -3.0 * ones(x)),
        ElementTables(mesh1, 1),
    )
    res_sq = commutativity_check(
        lambda x, y: x**2,
        lambda x, y: (2.0 * np.asarray(x, dtype=float), 0.0 * ones(x)),
        ElementTables(mesh1, 1),
    )
    ok = (
        worst_identity <= 1e-12
        and hyp_err <= 1e-12
        and res_lin <= 1e-11
        and res_sq <= 1e-8
    )
    assert _line(
        5,
        ok,
        f"identity {worst_identity:.1e}, trace example err {hyp_err:.1e}, "
        f"commutation {res_lin:.1e} / {res_sq:.1e}",
    )
    assert worst_identity <= 1e-12
    assert hyp_err <= 1e-12
    assert res_lin <= 1e-11
    assert res_sq <= 1e-8


def test_criterion_6_system_structure():
    """Assembled matrix symmetric to 1e-13 with an identically zero
    primal-primal block; the stabilizer quadratic form equals the squared
    multiplier seminorm on 100 random vectors per mesh (rel. 1e-12)."""
    rng = np.random.default_rng(2024)
    worst_asym = 0.0
    worst_mismatch = 0.0
    zero_blocks = True
    cases = [
        ("table5", 2),
        ("table15", 1),
        ("table19", 1),
    ]
    for name, level in cases:
        spec = get_experiment(name).spec
        mesh = refined(spec.domain_tag, level)
        tables, dm, system = build_level(mesh, spec)
        A = assembled_matrix(system)
        asym = abs(A - A.T)
        worst_asym = max(worst_asym, asym.max() if asym.nnz else 0.0)
        uu = A[dm.n_lambda :, dm.n_lambda :]
        zero_blocks = zero_blocks and uu.count_nonzero() == 0
        S = A[: dm.n_lambda, : dm.n_lambda]
        idx = full_indices(dm)[:, :-1]
        for _ in range(100):
            x = rng.standard_normal(dm.n_lambda)
            lam = np.where(idx >= 0, x[idx], 0.0)
            quad = float(x @ (S @ x))
            norm2 = triple_norm_Wh(lam, tables) ** 2
            worst_mismatch = max(worst_mismatch, abs(norm2 - quad) / max(abs(quad), 1e-300))
    ok = worst_asym <= 1e-13 and zero_blocks and worst_mismatch <= 1e-12
    assert _line(
        6,
        ok,
        f"asymmetry {worst_asym:.1e}, zero block {zero_blocks}, "
        f"norm identity rel err {worst_mismatch:.1e}",
    )
    assert worst_asym <= 1e-13
    assert zero_blocks
    assert worst_mismatch <= 1e-12


def test_criterion_7_piecewise_convection_orders():
    """Piecewise constant convection flipped across x+y=1 on the unit
    square: primal orders at the two finest transitions in [0.85, 1.15]
    for tau in {0, 1}."""
    details = []
    ok = True
    for name in ("table21", "table22"):
        report = run_study(get_experiment(name), levels=(0, 5))
        ou = finest_two(report.orders("err_u"))
        ok = ok and all(0.85 <= o <= 1.15 for o in ou)
        details.append(f"{name}: {ou[0]:.3f}/{ou[1]:.3f}")
    assert _line(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_kinked_solution_study():
    """The ridge-with-plateau configuration runs through level 5 with
    monotonically decreasing primal error and a finest-transition order of
    at least 1.0."""
    details = []
    ok = True
    for name in ("fig5_tau0", "fig5_tau1"):
        report = run_study(get_experiment(name), levels=(0, 5))
        errs = [r.err_u for r in report.rows]
        monotone = all(b < a for a, b in zip(errs, errs[1:]))
        final = report.orders("err_u")[-1]
        ok = ok and monotone and final >= 1.0
        details.append(f"{name}: monotone {monotone}, final order {final:.2f}")
    assert _line(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    """Two CLI runs of the criterion-2 configuration produce byte
    identical CSV output."""
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["run", "--experiment", "table5", "--levels", "4", "--out", str(out1)]) == 0
    assert main(["run", "--experiment", "table5", "--levels", "4", "--out", str(out2)]) == 0
    b1 = (out1 / "table5.csv").read_bytes()
    b2 = (out2 / "table5.csv").read_bytes()
    ok = b1 == b2
    assert _line(9, ok, f"{len(b1)} bytes each")
    assert ok
