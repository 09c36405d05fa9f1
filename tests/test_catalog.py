"""Guard for the experiment catalog: ``pdwg list`` and the problem data
of every entry against records taken from a known-good build."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from pdwg.catalog import catalog
from pdwg.cli import main
from pdwg.fields import DerivedLoad
from pdwg.study import emit_csv, emit_plot_data, run_study

DATA = Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "catalog_specs.json").read_text())
CSV_HASHES = DATA / "catalog_csv_sha256.json"
LEVEL_HASHES = DATA / "level_results_sha256.json"
FINE_LEVEL_HASHES = DATA / "table5_levels_4_6_sha256.json"


def test_list_output_is_byte_identical(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "catalog_list.txt").read_bytes()


def test_catalog_names_and_order():
    assert list(catalog()) == list(RECORDED)


@pytest.mark.parametrize("name", list(RECORDED))
def test_entry_matches_record(name):
    exp = catalog()[name]
    spec = exp.spec
    assert {
        "domain": spec.domain_tag,
        "tau": spec.tau,
        "j": spec.j,
        "levels": list(exp.levels),
        "outputs": list(exp.outputs),
        "expected_orders": exp.expected_orders,
        "beta": spec.beta.name,
        "c": spec.c.name,
        "g": spec.g.name,
        "f": "derived" if isinstance(spec.f, DerivedLoad) else spec.f.name,
        "exact_u": None if spec.exact_u is None else spec.exact_u.name,
    } == RECORDED[name]


def catalog_csv_hashes(out: Path) -> dict:
    """sha256 of the study CSV of every catalog entry at levels 0-3 with
    j = k-1 and j = k, and of its field CSV where the entry emits one."""
    hashes = {}
    for name, exp in catalog().items():
        for j in (0, 1):
            report = run_study(exp, levels=(0, 3), j=j, collect_field="field" in exp.outputs)
            files = {f"{name}_j{j}.csv": emit_csv}
            if report.field_points is not None:
                files[f"{name}_j{j}_field.csv"] = emit_plot_data
            for file, emit in files.items():
                emit(report, out / file)
                hashes[file] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    return hashes


def test_catalog_outputs_are_byte_identical(tmp_path):
    # Re-record, only after a change meant to alter the outputs, with
    #   PYTHONPATH=src python tests/test_catalog.py
    assert catalog_csv_hashes(tmp_path) == json.loads(CSV_HASHES.read_text())


# Fields that vary between identical runs: wall time, and the solver's
# residual, which moves in round-off when the residual is summed differently.
UNPINNED_FIELDS = {"seconds", "solver_residual"}


def rows_hash(rows) -> str:
    """sha256 of every LevelResult field but UNPINNED_FIELDS of ``rows``,
    floats written exactly with float.hex."""
    lines = [
        ",".join(
            value.hex() if isinstance(value, float) else repr(value)
            for key, value in vars(row).items()
            if key not in UNPINNED_FIELDS
        )
        for row in rows
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def level_result_hashes() -> dict:
    """``rows_hash`` per catalog entry and j in {k-1, k} at levels 0-3 and
    the default tolerance."""
    return {
        f"{name}_j{j}": rows_hash(run_study(exp, levels=(0, 3), j=j).rows)
        for name, exp in catalog().items()
        for j in (0, 1)
    }


def fine_level_hashes() -> dict:
    """``rows_hash`` of table5 with j = k at levels 4-6, where the
    condensed factor and the per-element tables are largest."""
    return {"table5_j1": rows_hash(run_study(catalog()["table5"], levels=(4, 6), j=1).rows)}


def test_level_results_are_bit_identical():
    # Pins every error, conservation and size number of the catalog sweep
    # bit for bit, beyond the 12 digits the CSVs print.  Re-record, only
    # after a change meant to alter the results, with
    #   PYTHONPATH=src python tests/test_catalog.py
    # and say in the change which numbers moved and why.
    assert level_result_hashes() == json.loads(LEVEL_HASHES.read_text())


def test_fine_level_results_are_bit_identical():
    # The same pin as above on the levels the catalog sweep does not reach.
    assert fine_level_hashes() == json.loads(FINE_LEVEL_HASHES.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        CSV_HASHES.write_text(json.dumps(catalog_csv_hashes(Path(tmp)), indent=1) + "\n")
    LEVEL_HASHES.write_text(json.dumps(level_result_hashes(), indent=1) + "\n")
    FINE_LEVEL_HASHES.write_text(json.dumps(fine_level_hashes(), indent=1) + "\n")
