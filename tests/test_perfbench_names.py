"""The package names the benchmark harness reaches for still exist.

The harness in ``perfbench/`` wraps functions by (module, attribute) name and
calls the package through its root. A rename in ``src/`` would leave its
counters reading zero, or fail only when the benchmark runs; these tests read
its sources (without importing or changing them) and make that a test failure.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import biphoton
import biphoton.cli  # noqa: F401  (run.py imports it, so bp.cli exists)
from test_package import fresh_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of tracing.WRAPPED."""
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py assigns no WRAPPED")


def root_names() -> set[str]:
    """Every name run.py reads as bp.<name>, bp being the imported package."""
    return {
        node.attr
        for node in ast.walk(parse("run.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "bp"
    }


@pytest.mark.parametrize("module,attr", wrapped_names())
def test_wrapped_function_resolves(module, attr):
    target = importlib.import_module(f"biphoton.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_run_reads_only_root_exports():
    names = root_names()
    assert names, "run.py reads no bp.<name>"
    for name in sorted(names):
        # bp.cli is the submodule run.py imports; every other name must be a
        # root export, and no export is a module.
        value = getattr(biphoton, name, None)
        if name == "cli":
            assert value is sys.modules["biphoton.cli"]
        else:
            assert name in biphoton.__all__, name
            assert not isinstance(value, types.ModuleType), name
    assert not [n for n in biphoton.__all__ if isinstance(getattr(biphoton, n), types.ModuleType)]


def test_one_root_read_after_the_cli_loads_every_wrapped_module():
    # run.py imports biphoton.cli and reads root names before tracing.install()
    # looks each wrapped module up in sys.modules; a fresh interpreter shows
    # what that import and one read load.
    loaded = set(fresh_python(
        "import sys, biphoton.cli\nbiphoton.joint_distribution\nprint(*sys.modules)"
    ).split())
    assert {f"biphoton.{module}" for module, _ in wrapped_names()} <= loaded
