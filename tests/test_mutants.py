"""The mutation harness's table stays in step with the source: every
snippet occurs exactly once in its file, and every test it names exists.
The harness itself runs outside tier-1 (``python tools/mutants.py``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", REPO / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (REPO / mutant.path).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for test in mutant.tests:
        path, *node = test.split("::")
        # This file fails on every mutant, so it would kill them all.
        assert path.startswith("tests/test_")
        assert path != "tests/test_mutants.py"
        source = (REPO / path).read_text()
        assert all(f"class {name}" in source or f"def {name}" in source
                   for name in node), test


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
