"""The output format is decided in one module, and every value type is a
NamedTuple.

The command-line layer is the only one that turns values into output text,
and of its two modules (``cli`` parses, ``commands`` runs) ``commands``
writes every output byte: library types carry no serializer, and the
9-significant-digit float format is written once. These tests read the
package sources with ``ast`` (without importing them) and make a serializer
or float format added elsewhere a test failure. They also keep the value
types one kind: no class but the package root's module type guards its
attributes with ``__setattr__``, and no module imports ``dataclasses``. A
type that checks its fields in ``__new__`` derives from
``records.checked_fields``, the one place that builds a namedtuple or
defines ``_make``. And every name the package root exports has a caller
in the package, its scripts or its benchmark.
"""

import ast
from pathlib import Path

import pytest

import biphoton

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "biphoton"
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


def checking_types(tree: ast.Module) -> list[ast.ClassDef]:
    """The classes that define __new__."""
    return [
        cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(node, ast.FunctionDef) and node.name == "__new__" for node in cls.body)
    ]


def test_six_value_types_check_their_fields():
    assert {cls.name for name in MODULES for cls in checking_types(parse(name))} == {
        "StateVector", "DensityMatrix", "Operator", "PhaseSettings", "Visibility",
        "EstimatorResult",
    }


@pytest.mark.parametrize("name", MODULES)
def test_checked_value_types_derive_from_checked_fields(name):
    tree = parse(name)
    for cls in checking_types(tree):
        [base] = cls.bases
        assert isinstance(base, ast.Call) and ast.unparse(base.func) == "checked_fields", cls.name
    if name == "records.py":
        return
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)} | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    assert "_make" not in defined
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("namedtuple")
    ]


# The labelled references the tests check optics.joint_tables against; no program calls them.
REFERENCES = {"beam_splitter", "biphoton_state", "phase_shifter"}


def test_every_export_has_a_caller():
    callers = [SRC / name for name in MODULES if name != "__init__.py"]
    callers += sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    read = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    exports = set(biphoton.__all__)
    assert REFERENCES <= exports - read
    assert sorted(exports - read - REFERENCES) == []
