"""The output format is decided in one module, and every value type is a
NamedTuple.

The command-line layer is the only one that turns values into output text,
and of its two modules (``cli`` parses, ``commands`` runs) ``commands``
writes every output byte: library types carry no serializer, and the
9-significant-digit float format is written once. These tests read the
package sources with ``ast`` (without importing them) and make a serializer
or float format added elsewhere a test failure. They also keep the value
types one kind: no class but the package root's module type guards its
attributes with ``__setattr__``, and no module imports ``dataclasses``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "biphoton"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
LIBRARY = [name for name in MODULES if name not in ("cli.py", "commands.py")]


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


@pytest.mark.parametrize("name", MODULES)
def test_no_hand_written_record_type(name):
    tree = parse(name)
    guarded = {
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
    }
    # The package root's module type rebinds one name; it holds no values.
    assert guarded <= ({"_Package"} if name == "__init__.py" else set())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported
