import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import pdwg.assembly
import pdwg.cli
import pdwg.solver
import pdwg.study
from helpers import assembled_matrix, build_level, refined
from pdwg.analysis import PostField
from pdwg.assembly import ElementTables
from pdwg.catalog import catalog, get_experiment
from pdwg.cli import load_experiment_config, main
from pdwg.solver import SolverError, solve
from pdwg.study import CSV_HEADER, StudyReport, emit_csv, emit_plot_data, run_level, run_study


class TestCatalog:
    def test_required_entries_present(self):
        names = set(catalog())
        assert {f"table{i}" for i in range(1, 25)} <= names
        assert {"fig1_tau0", "fig1_tau1", "fig1_tau10000"} <= names
        assert {"fig2_tau0", "fig2_tau1", "fig3_tau0", "fig3_tau1"} <= names
        assert {"fig4_tau0", "fig4_tau1", "fig5_tau0", "fig5_tau1"} <= names
        assert {"fig6", "fig7_f1", "fig7_f0", "fig8_f10000", "fig8_f0"} <= names
        assert {"fig9_f10000", "fig9_f0", "fig10_f10000", "fig10_f0"} <= names

    def test_table5_configuration(self):
        exp = get_experiment("table5")
        spec = exp.spec
        assert spec.domain_tag == "unit_square"
        assert spec.tau == 1.0
        bx, by = spec.beta(np.array([0.3]), np.array([0.4]))
        assert (bx[0], by[0]) == (1.0, -1.0)
        assert spec.c(np.array([0.1]), np.array([0.2]))[0] == 1.0
        x = np.array([0.3])
        y = np.array([0.7])
        assert spec.exact_u(x, y)[0] == pytest.approx(np.sin(0.3) * np.cos(0.7))

    def test_table1_is_constant_solution(self):
        exp = get_experiment("table1")
        x = np.array([0.2, 0.8])
        assert np.allclose(exp.spec.exact_u(x, x), 1.0)
        assert exp.spec.tau == 1.0

    def test_table12_large_tau(self):
        assert get_experiment("table12").spec.tau == 1000.0

    def test_expected_order_annotations_present(self):
        assert get_experiment("table5").expected_orders
        assert get_experiment("fig1_tau0").expected_orders

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("table99")

    def test_demo_entries_have_no_exact_solution(self):
        for name in ("fig6", "fig7_f1", "fig8_f0", "fig9_f10000", "fig10_f0"):
            assert get_experiment(name).spec.exact_u is None

    def test_manufactured_load_matches_equation(self):
        # f = beta . grad u + c u for table5 (divergence-free beta), as
        # sampled by the element tables at every quadrature point
        from pdwg.assembly import build_contexts
        from pdwg.mesh import build_coarse_mesh, refine_uniform

        exp = get_experiment("table5")
        mesh = refine_uniform(build_coarse_mesh("unit_square"))
        tables = build_contexts(mesh, exp.spec)
        x, y = tables.qpts[..., 0], tables.qpts[..., 1]
        expected = np.cos(x) * np.cos(y) - (-np.sin(x) * np.sin(y)) + np.sin(x) * np.cos(y)
        assert tables.f_q.shape == (mesh.num_elements, len(tables.qw[0]))
        assert np.allclose(tables.f_q, expected, atol=1e-14)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_every_catalog_entry_runs_levels_0_to_3(name):
    import time

    start = time.perf_counter()
    rep = run_study(get_experiment(name), levels=(0, 3))
    elapsed = time.perf_counter() - start
    assert len(rep.rows) == 4
    assert all(r.solver_residual <= 1e-11 for r in rep.rows)
    assert elapsed < 60.0


class TestRunStudy:
    def test_row_structure(self):
        rep = run_study(get_experiment("table1"), levels=(0, 2))
        assert [r.inv_h for r in rep.rows] == [1, 2, 4]
        assert [r.level for r in rep.rows] == [0, 1, 2]
        assert all(r.err_u is not None for r in rep.rows)

    def test_tau_override_changes_solution(self):
        a = run_study(get_experiment("table5"), levels=(2, 2))
        b = run_study(get_experiment("table5"), levels=(2, 2), tau=0.0)
        assert a.rows[0].err_u != b.rows[0].err_u

    def test_j_override_runs_lowest_trace_degree(self):
        rep = run_study(get_experiment("table5"), levels=(0, 2), j=0)
        errs = [r.err_u for r in rep.rows]
        assert errs[2] < errs[0]

    def test_demo_without_exact_solution(self):
        rep = run_study(get_experiment("fig6"), levels=(0, 2), collect_field=True)
        assert all(r.err_u is None for r in rep.rows)
        assert rep.field_points is not None

    @pytest.mark.parametrize(
        "levels", [(2, 1), (0, 1.0), (True, 1), (-1, 2)], ids=["reversed", "float", "bool", "negative"]
    )
    def test_bad_levels_rejected(self, monkeypatch, levels):
        def no_mesh(*args):
            raise AssertionError("a mesh was built for a bad level range")

        monkeypatch.setattr(pdwg.study, "build_coarse_mesh", no_mesh)
        with pytest.raises(ValueError, match="levels must be two integers"):
            run_study(get_experiment("table1"), levels=levels)

    def test_each_level_is_dropped_before_the_next_is_built(self, monkeypatch):
        # A level's tables, checks, element forms, system and solution are
        # gone once the next level's tables are built, so two levels never
        # share the memory.
        alive = []

        def tracked(name):
            original = getattr(pdwg.study, name)

            def call(*args, **kwargs):
                if name == "build_contexts":
                    assert [ref for ref in alive if ref() is not None] == []
                result = original(*args, **kwargs)
                alive.append(weakref.ref(result))
                return result

            monkeypatch.setattr(pdwg.study, name, call)

        for name in ("build_contexts", "build_checks", "build_forms", "DofMap", "assemble", "solve"):
            tracked(name)
        report = run_study(get_experiment("table5"), levels=(0, 2))
        assert len(alive) == 18
        assert report.system is alive[-2]()

    @pytest.mark.parametrize("name, level", [("table5", 2), ("fig6", 1)])
    def test_run_level_gives_the_study_row(self, name, level):
        # fig6 has no exact solution: no error norms and no errors_s.
        exp = get_experiment(name)
        row = run_study(exp, levels=(level, level)).rows[0]
        run = run_level(refined(exp.spec.domain_tag, level), exp.spec)
        errs, cons = run.errors, run.conservation
        got = {
            "n_lambda": run.dofmap.n_lambda,
            "n_u": run.dofmap.n_u,
            "err_u": errs.err_u if errs else None,
            "err_lam0": errs.err_lam0 if errs else None,
            "err_lamb": errs.err_lamb if errs else None,
            "cons_max_residual": cons.max_element_residual,
            "cons_max_flux_jump": cons.max_flux_jump,
            "cons_scale_f": cons.scale_f,
        }
        bits = lambda value: value.hex() if isinstance(value, float) else value
        assert {key: bits(value) for key, value in got.items()} == {key: bits(getattr(row, key)) for key in got}
        assert (errs is None) == (exp.spec.exact_u is None)
        errors_s = ["errors_s"] if errs else []
        assert list(run.stages) == [
            "tables_s", "checks_s", "classify_s", "dofmap_s", "assemble_s", "assemble_peak_mb",
            "solve_s", "solve_peak_mb", *errors_s, "conservation_s",
        ]
        assert 0 < run.solution.info["factor_s"] <= run.stages["solve_s"]

    def test_stage_tool_reports_every_stage(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "bench_stages.py"), "--one", "--src", "x=src", "table1:1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        stages = ["mesh_s", "tables_s", "checks_s", "classify_s", "dofmap_s", "assemble_s", "solve_s"]
        assert set(stages + ["errors_s", "conservation_s", "factor_s", "peak_rss_mb"]) <= set(record)
        # The order is timed in dofmap_s: the solver orders nothing.
        assert "order_s" not in record and "ordering" not in record
        assert 0 < record["factor_s"] <= record["solve_s"]
        assert record["total_s"] == pytest.approx(sum(record[key] for key in stages + ["errors_s", "conservation_s"]))


class TestEmission:
    def test_csv_shape(self, tmp_path):
        rep = run_study(get_experiment("table5"), levels=(0, 2))
        path = tmp_path / "out.csv"
        emit_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] == "" and first[4] == "" and first[6] == ""
        second = lines[2].split(",")
        assert float(second[2]) != 0.0

    def test_csv_identical_on_rerun(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(run_study(get_experiment("table5"), levels=(0, 2)), p1)
        emit_csv(run_study(get_experiment("table5"), levels=(0, 2)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_emission_unit_solution(self, tmp_path):
        rep = run_study(get_experiment("table1"), levels=(0, 1), collect_field=True)
        path = tmp_path / "field.csv"
        emit_plot_data(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        vals = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.max(np.abs(vals - 1.0)) < 1e-8

    def test_field_emission_equals_the_per_line_format(self, tmp_path):
        # One formatting call writes the bytes of one f-string per point.
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1, 2.0 / 3.0])
        y, value = -x[::-1], np.roll(x, 3)
        rep = StudyReport(field_points=PostField(x=x, y=y, value=value))
        path = tmp_path / "field.csv"
        emit_plot_data(rep, path)
        lines = ["x,y,value"] + [f"{a:.12e},{b:.12e},{v:.12e}" for a, b, v in zip(x, y, value)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert b"-0.000000000000e+00" in path.read_bytes()

    def test_field_emission_requires_field(self, tmp_path):
        rep = run_study(get_experiment("table1"), levels=(0, 0))
        with pytest.raises(ValueError):
            emit_plot_data(rep, tmp_path / "nope.csv")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "fig6" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        rc = main(
            ["run", "--experiment", "table1", "--levels", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "table1.csv").exists()
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_perfbench_hooks_fire_on_the_library(self, tmp_path):
        # perfbench wraps the names in HOOKS from outside the package: each
        # must still exist and each counter read its call, and every
        # per-layer metric the benchmark declares must be reported.
        root = Path(__file__).resolve().parents[1]
        source = importlib.util.spec_from_file_location("perfbench_tracing", root / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(source)
        source.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert pdwg.cli.main(["run", "--experiment", "table5", "--levels", "3", "--out", str(tmp_path)]) == 0
        finally:
            tracer.uninstall()
        assert {name for name, _, _ in tracing.HOOKS} <= tracer.present
        assert tracer.broken == {}
        declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        assert {metric["name"] for metric in declared} <= set(tracer.layer_metrics())

    @pytest.mark.parametrize("workload", ["study_l6", "catalog_sweep"])
    def test_traced_benchmark_run_ends_in_a_strict_json_result(self, workload, tmp_path):
        # A traced run exits 0 only when every check passed; its last line
        # must still be the result, in JSON without NaN or Infinity, with
        # every per-layer metric of the benchmark present and finite.  It
        # runs on a copy of the benchmark and the sources, which it finds
        # from its own location, so its output stays out of the checkout.
        repo, root = Path(__file__).resolve().parents[1], tmp_path / "checkout"
        for part in ("perfbench", "src"):
            shutil.copytree(repo / part, root / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(repo / "BENCHMARK.json", root)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

        def refuse(constant):
            raise ValueError(f"{constant} in the result line")

        result = json.loads(proc.stdout.splitlines()[-1], parse_constant=refuse)
        assert result["correct"] is True
        metrics = result["metrics"]
        for metric in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
            assert np.isfinite(metrics[metric["name"]]["value"]), metric["name"]

    def test_run_demo_emits_field(self, tmp_path):
        rc = main(["run", "--experiment", "fig6", "--levels", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig6.csv").exists()
        assert (tmp_path / "fig6_field.csv").exists()

    def test_run_with_overrides(self, tmp_path):
        rc = main(
            [
                "run", "--experiment", "table5", "--levels", "2",
                "--tau", "0.5", "--j", "k-1", "--tol", "1e-10",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0

    def test_roundoff_orders_blank(self, tmp_path):
        # table1 (u = 1) has round-off errors only, at most 1e-15 and
        # exactly 0 where a level hits u: every order cell is blank; table5
        # has none and keeps its recorded bytes
        assert main(["run", "--experiment", "table1", "--levels", "4", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "table1.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            assert cells[2] == cells[4] == cells[6] == ""
            assert all(0.0 <= float(cells[i]) <= 1e-12 for i in (1, 3, 5))
        assert main(["run", "--experiment", "table5", "--levels", "6", "--out", str(tmp_path)]) == 0
        recorded = Path(__file__).parent / "data" / "table5_levels_0_5.csv"
        assert (tmp_path / "table5.csv").read_bytes() == recorded.read_bytes()

    def test_unknown_experiment_exits_3(self, tmp_path, capsys):
        rc = main(["run", "--experiment", "nope", "--out", str(tmp_path)])
        assert rc == 3
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--experiment", "table5", "--j", "2", "--out", "OUT"],
            ["run", "--experiment", "table5", "--levels", "abc", "--out", "OUT"],
            ["run", "--experiment", "table5"],
            ["bogus", "--out", "OUT"],
            ["verify"],
            ["run", "--experiment", "table5", "--config", "c.json", "--out", "OUT"],
        ],
        ids=["bad-j", "bad-levels", "no-out", "bogus-command", "verify-no-experiment", "both-sources"],
    )
    def test_usage_error_exits_3_before_writing(self, tmp_path, capsys, argv):
        # argparse's own exit code 2 would read as a solver failure.
        out = tmp_path / "out"
        assert main([str(out) if a == "OUT" else a for a in argv]) == 3
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: pdwg" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_levels_below_1_exit_3_before_writing(self, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert main(["run", "--experiment", "table1", "--levels", count, "--out", str(out)]) == 3
        assert "--levels must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--experiment", "table1", "--levels", count]) == 3
        assert "--levels must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--tol", "1"], "tol must lie in"),
            (["--tau", "-1"], "tau must be a finite nonnegative number"),
            (["--tau", "nan"], "tau must be a finite nonnegative number"),
        ],
        ids=["tol-1", "tau-negative", "tau-nan"],
    )
    def test_bad_solver_option_exits_3_before_writing(self, tmp_path, capsys, option, message):
        out = tmp_path / "out"
        assert main(["run", "--experiment", "table1", "--levels", "1", *option, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tol_exits_3_before_any_mesh_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pdwg.study, "build_coarse_mesh", lambda tag: pytest.fail("a mesh was built"))
        out = tmp_path / "out"
        assert main(["run", "--experiment", "table5", "--tol", "1e-3", "--out", str(out)]) == 3
        assert "tol must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_uncreatable_out_exits_3_naming_it(self, tmp_path):
        # --out below a regular file cannot be created
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        env = dict(os.environ, PYTHONPATH=str(Path(pdwg.study.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "pdwg", "run", "--experiment", "table1", "--levels", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 3
        assert str(out) in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("below", [True, False], ids=["under-a-file", "a-file"])
    def test_out_that_cannot_be_a_directory_exits_3_before_the_study(self, tmp_path, capsys, monkeypatch, below):
        monkeypatch.setattr(pdwg.cli, "run_study", lambda *a, **k: pytest.fail("study ran"))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "x" if below else afile
        assert main(["run", "--experiment", "table1", "--out", str(out)]) == 3
        assert f"--out {out}" in capsys.readouterr().err
        assert afile.is_file() and afile.read_text() == ""
        assert sorted(tmp_path.iterdir()) == [afile]

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("singular condensed matrix")

        monkeypatch.setattr(pdwg.cli, "run_study", fail)
        out = tmp_path / "out"
        assert main(["run", "--experiment", "table1", "--out", str(out)]) == 2
        assert "solver failure" in capsys.readouterr().err
        assert not out.exists()
        assert main(["verify", "--experiment", "table1"]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_verify_passes_table1(self, capsys):
        assert main(["verify", "--experiment", "table1", "--levels", "3"]) == 0
        assert "PASS table1" in capsys.readouterr().out

    @pytest.mark.parametrize("name, code", [("table5", 0), ("table21", 3)])
    def test_verify_two_levels_compares_with_level_0(self, capsys, name, code):
        # table21's error really rises from 0.1402 to 0.1441 between 1/h = 1 and 2
        assert main(["verify", "--experiment", name, "--levels", "2"]) == code
        assert ("errors do not decrease" in capsys.readouterr().err) == bool(code)

    def test_verify_builds_each_level_once(self, monkeypatch):
        calls = []
        stabilizer = ElementTables.stabilizer
        monkeypatch.setattr(
            ElementTables, "stabilizer", lambda self: calls.append(self) or stabilizer(self)
        )
        assert main(["verify", "--experiment", "table1", "--levels", "3"]) == 0
        assert len(calls) == 3

    def test_run_study_builds_each_level_geometry_once(self, monkeypatch):
        # The element tables are the only pass over a level's geometry:
        # classification, assembly and analysis all read them.
        calls = []
        init = ElementTables.__init__
        monkeypatch.setattr(
            ElementTables, "__init__", lambda self, mesh, *args: calls.append(mesh) or init(self, mesh, *args)
        )
        run_study(get_experiment("table5"), levels=(0, 2))
        assert len(calls) == 3

    def test_run_path_builds_no_full_matrix(self, monkeypatch, tmp_path):
        # The solve and verify read the element matrices, and the solver
        # scatters only the condensed matrix; the full order is scattered
        # only when a caller sums the assembled matrix, which the patch sees.
        calls, totals = [], []
        scatter = pdwg.assembly.scatter
        for module in (pdwg.assembly, pdwg.solver):
            monkeypatch.setattr(module, "scatter", lambda *args: calls.append(args[2]) or scatter(*args))
        assemble = pdwg.study.assemble
        monkeypatch.setattr(pdwg.study, "assemble", lambda *args: totals.append(args[1].n_total) or assemble(*args))
        assert main(["run", "--experiment", "table1", "--levels", "2", "--out", str(tmp_path)]) == 0
        assert main(["verify", "--experiment", "table1", "--levels", "2"]) == 0
        report = run_study(get_experiment("table5"), levels=(0, 2))
        # One condensed scatter per level, in the order the levels were built.
        assert len(calls) == len(totals) == 7
        assert all(n != total for n, total in zip(calls, totals))
        calls.clear()
        assembled_matrix(report.system)
        assert calls == [report.system.dofmap.n_total]

    def test_only_fields_and_assembly_resolve_branches(self):
        # A piecewise field is read through its leaves on one path: no other
        # module of the package calls evaluate_branches or branch_index.
        package = Path(pdwg.assembly.__file__).parent
        callers = {
            path.name
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("evaluate_branches", "branch_index")
        }
        assert sorted(callers) == ["assembly.py", "fields.py"]

    def test_library_reads_no_attribute_named_matrix(self):
        # SaddleSystem.matrix has no reader in the package: the solver and
        # verify read the element matrices.
        package = Path(pdwg.assembly.__file__).parent
        reads = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "matrix"
        ]
        assert reads == []

    def test_solver_orders_nothing(self):
        # DofMap is the one place that numbers the unknowns: the solver
        # imports nothing from pdwg.mesh and sorts nothing.
        path = Path(pdwg.solver.__file__)
        tree = ast.parse(path.read_text(), str(path))
        imports = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "mesh")
            or (isinstance(node, ast.Import) and any(alias.name == "pdwg.mesh" for alias in node.names))
        ]
        sorts = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("argsort", "lexsort")
        ]
        assert imports == [] and sorts == []

    @staticmethod
    def _verify_perturbed(monkeypatch, capsys, entry):
        """Run verify on table1 with ``entry`` of one element matrix per
        level moved up by one ulp after assembly, so the solve uses it;
        returns the exit code, stderr and the element of the finest level."""
        assemble, elements = pdwg.assembly.assemble, []

        def perturbed(*args, **kwargs):
            system = assemble(*args, **kwargs)
            t = len(system.element_matrix) // 2
            E = system.element_matrix[t]
            E[entry] = np.nextafter(E[entry], np.inf)
            elements.append(t)
            return system

        monkeypatch.setattr(pdwg.study, "assemble", perturbed)
        code = main(["verify", "--experiment", "table1", "--levels", "2"])
        return code, capsys.readouterr().err, elements[-1]

    def test_verify_gates_the_solved_system(self, monkeypatch, capsys):
        # A nonzero u-u entry, or one off-diagonal entry without its
        # mirror, in one element matrix fails verify naming that element.
        for entry, failure in (
            ((-1, -1), "primal-primal block is not identically zero"),
            ((1, 0), "matrix asymmetry"),
        ):
            code, err, t = self._verify_perturbed(monkeypatch, capsys, entry)
            assert code == 3
            assert err.count("FAIL") == 1
            assert f"FAIL table1: {failure}" in err and f"first in element {t}\n" in err

    def test_verify_demo_runs(self, capsys):
        assert main(["verify", "--experiment", "fig6", "--levels", "2"]) == 0


class TestConfigFile:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "name": "custom",
            "domain": "unit_square",
            "beta": {
                "piecewise": [
                    {"where": [1.0, 1.0, 1.0], "field": {"const": [1.0, -1.0]}}
                ],
                "else": {"const": [-1.0, 1.0]},
            },
            "c": 1.0,
            "exact_u": {"name": "sin_pix_cos_piy"},
            "tau": 1.0,
            "levels": [0, 2],
        }
        cfg.update(overrides)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_load_and_run(self, tmp_path):
        path = self.write_config(tmp_path)
        exp = load_experiment_config(path)
        assert exp.name == "custom"
        rep = run_study(exp, levels=(0, 2))
        assert rep.rows[-1].err_u < rep.rows[0].err_u

    def test_cli_config_run(self, tmp_path):
        path = self.write_config(tmp_path)
        rc = main(["run", "--config", str(path), "--levels", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "custom.csv").exists()

    def test_non_finite_coefficient_exits_3(self, tmp_path, capsys):
        path = self.write_config(tmp_path, c=float("nan"))
        rc = main(["run", "--config", str(path), "--levels", "2", "--out", str(tmp_path)])
        assert rc == 3
        assert "c has a non-finite value on element 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_singular_factor_named_when_the_first_solve_is_not_finite(self, tmp_path, tau):
        # A rotation about the square's centre leaves every boundary edge
        # characteristic at its midpoint, so with c = 0 the constant u is
        # in the kernel; at level 0 with j = 1 the float32 factor solves to
        # NaN instead of failing.  run_level refuses the system before the
        # factor (below); solve, called on it directly, must say why.
        cfg = {"name": "spin", "domain": "unit_square", "beta": {"rotation": [0.5, 0.5]}, "c": 0.0, "f": 1.0}
        path = tmp_path / "spin.json"
        path.write_text(json.dumps({**cfg, "g": 0.0, "tau": tau, "j": 1, "levels": [0, 0]}))
        system = build_level(refined("unit_square", 0), load_experiment_config(path).spec)[2]
        with pytest.raises(SolverError) as err:
            solve(system)
        assert str(err.value) == "singular factor: the first solve is not finite (full order 10, condensed order 4)"

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize(
        "beta, tau",
        [
            ({"const": [0.0, 0.0]}, 1.0),
            ({"const": [1e-13, 1e-13]}, 1.0),
            ({"rotation": [0.5, 0.5]}, 0.0),
            ({"rotation": [0.5, 0.5]}, 1.0),
        ],
        ids=["no-convection", "characteristic", "rotation-tau0", "rotation-tau1"],
    )
    def test_constant_u_in_the_kernel_exits_3_before_the_factor(self, tmp_path, capsys, monkeypatch, beta, tau, j):
        # With c = 0 and no inflow edge (beta = 0; every edge characteristic
        # under CLASSIFY_EPS; a rotation about the centre at level 0), A
        # maps lam = 0, u = 1 to 0: the run is refused before any factor,
        # and nothing is written.
        monkeypatch.setattr(pdwg.solver, "splu", lambda *a, **k: pytest.fail("factored"))
        cfg = {"name": "kernel", "domain": "unit_square", "beta": beta, "c": 0.0, "f": 1.0, "g": 0.0}
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({**cfg, "tau": tau, "j": j, "levels": [0, 3]}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "error: the constant u is in the kernel: no inflow edge and no reaction" in capsys.readouterr().err
        assert not out.exists()

    def test_element_with_no_coupling_exits_3_naming_it(self, tmp_path, capsys, monkeypatch):
        # beta = 0 below the mesh line x + y = 1 and c = 0: the u_T of
        # every element there couples to nothing, while the level has
        # inflow edges above it.
        monkeypatch.setattr(pdwg.solver, "splu", lambda *a, **k: pytest.fail("factored"))
        below = {"where": [1.0, 1.0, 1.0], "field": {"const": [0.0, 0.0]}}
        beta = {"piecewise": [below], "else": {"const": [1.0, -1.0]}}
        cfg = {"name": "dead", "domain": "unit_square", "beta": beta, "c": 0.0, "f": 1.0, "g": 0.0, "tau": 1.0}
        path = tmp_path / "dead.json"
        path.write_text(json.dumps({**cfg, "levels": [1, 2]}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "error: u_T of element 0 is in the kernel: beta and c vanish on it" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_domain_rejected(self, tmp_path):
        path = self.write_config(tmp_path, domain="disk")
        with pytest.raises(ValueError, match="domain_tag must be one of"):
            load_experiment_config(path)

    def test_unknown_domain_exits_3_before_writing(self, tmp_path, capsys):
        path = self.write_config(tmp_path, domain="disk")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert "domain_tag" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"name": "../escaped"}, "name must be a plain file name"),
            ({"name": 5}, "name must be a plain file name"),
            ({"j": 0.7}, "j must be the integer"),
            ({"j": True}, "j must be the integer"),
            ({"j": "1"}, "j must be the integer"),
            ({"levels": [2]}, "levels must be two integers"),
            ({"levels": "01"}, "levels must be two integers"),
            ({"levels": [2, 1]}, "levels must be two integers"),
            ({"levels": [-1, 2]}, "levels must be two integers"),
            ({"levels": [0, 2.0]}, "levels must be two integers"),
            ({"tau": "1"}, "'tau' must be a number"),
            ({"beta": {"const": [1]}}, "'const' must be a list of 2 numbers"),
            ({"beta": {"rotation": [0, 0, 0]}}, "'rotation' must be a list of 2 numbers"),
            ({"c": {"const": [1]}}, "'const' must be a number"),
            (
                {"beta": {"piecewise": [{"where": [1, 1], "field": {"const": [1, -1]}}],
                          "else": {"const": [-1, 1]}}},
                "'where' must be a list of 3 numbers",
            ),
            (
                {"beta": {"piecewise": [{"where": [1, 1, 1], "field": {"const": [1, -1]}}]}},
                "missing the key 'else'",
            ),
            (
                {"c": {"piecewise": [{"where": [1, 1, 1]}], "else": 1}},
                "missing the key 'field'",
            ),
            (
                {"beta": {"piecewise": [{"where": [float("nan"), 1, 1], "field": {"const": [1, -1]}}],
                          "else": {"const": [-1, 1]}}},
                "'where' must hold finite numbers",
            ),
            (
                {"beta": {"piecewise": [{"where": [1, 1, float("inf")], "field": {"const": [1, -1]}}],
                          "else": {"const": [-1, 1]}}},
                "'where' must hold finite numbers",
            ),
            ({"exact_u": {"name": "cos_5y"}}, "exact_u has no gradient on branch 'cos_5y'"),
            (
                {"exact_u": {"piecewise": [{"where": [1, 1, 1], "field": {"name": "sin_x_cos_y"}}],
                             "else": {"name": "cos_5y"}}},
                "exact_u has no gradient on branch 'cos_5y'",
            ),
            (
                {"exact_u": {"piecewise": [{"where": [1, 1, 1], "field": {
                    "piecewise": [{"where": [1, 0, 0.5], "field": {"name": "sin_x_cos_y"}}],
                    "else": {"name": "cos_5y"}}}], "else": {"name": "sin_x_cos_y"}}},
                "exact_u has no gradient on branch 'cos_5y'",
            ),
            ({"cc": 5.0, "level": [0, 1]}, "config has an unknown key 'cc'"),
            ({"description": ["not", "text"]}, "description must be a string"),
        ],
    )
    def test_malformed_input_exits_3_before_writing(self, tmp_path, capsys, overrides, message):
        path = self.write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=message):
            load_experiment_config(path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nested_beta_derived_load_runs(self, tmp_path):
        # Every leaf of a nested beta has a divergence, so the derived load
        # is formed from the leaf at each element's centroid.
        beta = {"piecewise": [{"where": [1, 1, 1], "field": {
            "piecewise": [{"where": [1, 0, 0.5], "field": {"const": [1, -1]}}], "else": {"const": [1, 0]}}}],
            "else": {"const": [-1, 1]}}
        path = self.write_config(tmp_path, beta=beta, levels=[1, 2])
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "custom.csv").exists()

    @pytest.mark.parametrize("k", [2, 0, True, 1.0])
    def test_k_other_than_1_exits_3_before_writing(self, tmp_path, capsys, k):
        path = self.write_config(tmp_path, k=k)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 3
        assert "k must be 1" in capsys.readouterr().err
        assert not out.exists()

    def test_k_equal_1_accepted(self, tmp_path):
        exp = load_experiment_config(self.write_config(tmp_path, k=1, j=0))
        assert exp.spec.k == 1 and exp.spec.j == 0

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "domain": "unit_square"}))
        with pytest.raises(ValueError, match="beta"):
            load_experiment_config(path)

    def test_demo_config_without_exact(self, tmp_path):
        cfg = {
            "name": "inflow_demo",
            "domain": "cracked_square",
            "beta": {"rotation": [0.0, 0.0]},
            "c": 0.0,
            "f": 0.0,
            "g": {"name": "sin_x"},
            "tau": 0.0,
            "levels": [0, 1],
        }
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(cfg))
        exp = load_experiment_config(path)
        rep = run_study(exp, levels=(0, 1))
        assert all(r.err_u is None for r in rep.rows)

    def test_unknown_field_name_lists_registry(self, tmp_path):
        cfg = {
            "name": "x",
            "domain": "unit_square",
            "beta": {"const": [1.0, 0.0]},
            "tau": 0.0,
            "f": 0.0,
            "g": {"name": "no_such_field"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="sin_x"):
            load_experiment_config(path)
