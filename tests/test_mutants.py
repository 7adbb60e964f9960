"""scripts/mutants.py's records against the code they mutate: no mutant is
run here (``scripts/mutate.py`` runs them)."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_source_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.source) == 1
    assert mutant.replacement != mutant.source


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_record_selects_tests_and_states_what_it_expects(mutant):
    assert mutant.status == "killed" or mutant.status.startswith("equivalent: ")
    for selector in mutant.tests:
        assert (ROOT / selector.split("::")[0]).is_file(), selector
