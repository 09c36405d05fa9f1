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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        CSV_HASHES.write_text(json.dumps(catalog_csv_hashes(Path(tmp)), indent=1) + "\n")
