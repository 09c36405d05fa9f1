"""Guard for the experiment catalog: ``pdwg list`` and the problem data
of every entry against records taken from a known-good build."""

import json
from pathlib import Path

import pytest

from pdwg.catalog import catalog
from pdwg.cli import main
from pdwg.fields import DerivedLoad

DATA = Path(__file__).parent / "data"
RECORDED = json.loads((DATA / "catalog_specs.json").read_text())


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
