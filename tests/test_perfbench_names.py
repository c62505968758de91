"""The package names the benchmark harness reaches for still exist.

The harness in ``perfbench/`` wraps functions by (module, attribute) name and
calls the package through its root. A rename in ``src/`` would leave its
counters reading zero, or fail only when the benchmark runs; these tests read
its sources (without changing them) and make that a test failure. The last
test runs the traced run's library replay and memory probe in-process, so that a
change of what a wrapped function takes or returns fails here too, not only
under ``--trace 1``.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import biphoton
import biphoton.cli  # noqa: F401  (run.py imports it, so bp.cli exists)
from biphoton.montecarlo import sample_events
from test_package import fresh_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


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


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_replay_and_memory_probe_run_on_each_workload(workload):
    op = next(workloads.cycles(workload, 1))[0]
    tracer = tracing.Tracer()
    with tracer.install(), tracer.root(0, "replay"):
        run.replay(biphoton, op)
    work = {}
    for span in tracer.spans:
        work.setdefault(span[tracing.NAME], []).append(span[tracing.WORK])
    # estimate_correlation's work unit, len(events), counts what sample_events drew.
    assert work["montecarlo.sample_events"] == [run.REPLAY_EVENTS]
    assert work["montecarlo.estimate_correlation"] == [run.REPLAY_EVENTS]
    phi_a, phi_b, v, seed = op.replay
    j = biphoton.joint_distribution(biphoton.PhaseSettings(phi_a, phi_b), biphoton.Visibility(v))
    assert len(sample_events(j, 12_345, seed)) == 12_345
    # One byte an event for the joined indices, as much for the blocks joined,
    # and one block's arrays: a per-event object would take tens of bytes.
    assert 0 < run.bytes_per_event(biphoton, op) <= 8
