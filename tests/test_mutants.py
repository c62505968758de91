"""The mutation corpus in tests/mutants.py still fits the code and the tests.

Running the corpus takes minutes (``python tests/mutants.py``); these checks
are quick. Each entry's text must occur exactly once in src/, so that a
refactor which moves or rewrites it fails here instead of leaving a mutant
that no longer applies, and each test an entry names must exist.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, SRC, main

SOURCES = sorted((SRC / "biphoton").glob("*.py"))


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_exactly_once_in_src(mutant):
    assert mutant.new != mutant.old
    counts = {p.name: p.read_text(encoding="utf-8").count(mutant.old) for p in SOURCES}
    assert counts[mutant.file] == 1
    assert sum(counts.values()) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for node_id in mutant.tests:
        path, name = node_id.split("::")
        defined = {
            node.name
            for node in ast.walk(ast.parse(Path(ROOT, path).read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
        }
        assert name.split("[")[0] in defined, node_id


def test_unknown_mutant_name_exits_2_and_lists_the_known_ones(capsys):
    # `python tests/mutants.py NAME...` runs only the named entries; a name it
    # does not know stops it before any copy or test run.
    assert main(["no_such_mutant"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unknown mutant no_such_mutant;")
    assert err.split()[-len(MUTANTS):] == [m.name for m in MUTANTS]
