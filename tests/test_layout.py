"""The output format is decided in one module.

The command-line layer is the only one that turns values into output text,
and of its two modules (``cli`` parses, ``commands`` runs) ``commands``
writes every output byte: library types carry no serializer, and the
9-significant-digit float format is written once. These tests read the package sources with ``ast`` (without importing
them) and make a serializer or float format added elsewhere a test failure.
They also keep the array core's values plain: no module of it imports the
identity base ``records.Record``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "biphoton"
LIBRARY = sorted(p.name for p in SRC.glob("*.py") if p.name not in ("cli.py", "commands.py"))


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_library_modules_exist():
    assert "linalg.py" in LIBRARY and "premeasure.py" in LIBRARY


@pytest.mark.parametrize("name", LIBRARY)
def test_no_serializer_outside_cli(name):
    defined = {
        node.name
        for node in ast.walk(parse(name))
        if isinstance(node, ast.FunctionDef)
    }
    assert "to_json_dict" not in defined


@pytest.mark.parametrize("name", LIBRARY)
def test_no_float_format_outside_cli(name):
    strings = [
        node.value
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert not [s for s in strings if "%.9g" in s]


def test_cli_holds_the_float_format():
    assert "%.9g" in {
        node.value for node in ast.walk(parse("commands.py")) if isinstance(node, ast.Constant)
    }


@pytest.mark.parametrize("name", ["optics.py", "analysis.py", "montecarlo.py", "rng.py"])
def test_array_core_defines_no_identity_type(name):
    # The array core's tables and estimates are arrays or NamedTuples; the
    # identity types (records.Record) are the labelled and detection models'.
    imported = {
        alias.name
        for node in ast.walk(parse(name))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "Record" not in imported
