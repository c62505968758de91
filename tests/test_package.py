"""What the package root binds, whatever was imported before it was read,
and which modules each command loads.

Which modules an interpreter has loaded, and in what order, is what these
tests are about, so each case runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton

# The directory this process imports biphoton from
SRC = str(Path(biphoton.__file__).resolve().parent.parent)


def fresh_python(code: str, stream: str = "stdout", status: int = 0) -> str:
    """Run code in a new interpreter that imports biphoton from SRC, which must
    exit with status; what it wrote to stream."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == status, proc.stderr
    return getattr(proc, stream)


# Code run before the root is read; `premeasure` names a submodule and a function.
BEFORE = {
    "root import": "from biphoton import correlation_report, premeasure",
    "cli run": "import os, biphoton.cli\nbiphoton.cli.main(['premeasure', '--output', os.devnull])",
    "submodule import": "from biphoton.premeasure import detector_coupling",
    "nothing": "",
}


@pytest.mark.parametrize("before", BEFORE.values(), ids=BEFORE)
def test_root_names_are_the_exports_not_submodules(before):
    out = fresh_python(before + (
        "\nimport types, biphoton\n"
        "print(type(biphoton.premeasure).__name__, biphoton.premeasure.__module__)\n"
        "print([n for n in biphoton.__all__ if isinstance(getattr(biphoton, n), types.ModuleType)])\n"
        "print(*(getattr(biphoton, n).__name__ for n in ('analysis', 'linalg', 'optics', 'rng')))\n"
    ))
    assert out.splitlines() == [
        "function biphoton.premeasure",
        "[]",
        "biphoton.analysis biphoton.linalg biphoton.optics biphoton.rng",
    ]


def test_a_module_read_first_loads_the_package():
    out = fresh_python("import biphoton\nprint(biphoton.montecarlo.__name__, biphoton.premeasure.__name__)")
    assert out.split() == ["biphoton.montecarlo", "premeasure"]


def test_root_exports_are_the_module_objects():
    out = fresh_python(
        "import sys, biphoton\n"
        "exports = {n: getattr(biphoton, n) for n in biphoton.__all__}\n"
        "homes = {n: f.__module__ for n, f in exports.items() if callable(f)}\n"
        "print(all(getattr(sys.modules[m], n) is getattr(biphoton, n) for n, m in homes.items()))\n"
        "print(sorted(set(homes.values())))\n"
    )
    assert out.splitlines() == [
        "True",
        "['biphoton.analysis', 'biphoton.linalg', 'biphoton.montecarlo', 'biphoton.optics', "
        "'biphoton.premeasure', 'biphoton.rng']",
    ]


# The biphoton modules each kind of command line loads: the parser alone (help,
# and usage errors argparse reports); the commands and the exact model's types
# (usage errors a handler reports, before it imports what it runs); those with
# the exact model's statistics; the sampling modules on the exact model alone
# (sample) or with its statistics; or the commands and the labelled model the
# detection model is built on, without the exact tables (the commands alone for
# a usage error premeasure reports).
PARSER = {"biphoton", "biphoton.cli"}
COMMANDS_MODULE = PARSER | {"biphoton.commands", "biphoton.optics", "biphoton.records"}
EXACT = COMMANDS_MODULE | {"biphoton.analysis"}
SAMPLE = COMMANDS_MODULE | {"biphoton.montecarlo", "biphoton.rng"}
SAMPLING = EXACT | SAMPLE
DETECTION_MODEL = PARSER | {
    "biphoton.commands", "biphoton.records", "biphoton.linalg", "biphoton.premeasure",
}

# Each command line, its exit status, and the biphoton modules it loads
COMMANDS = {
    "help": (["--help"], 0, PARSER),
    "sweep_help": (["sweep", "--help"], 0, PARSER),
    "usage_error": (["sweep", "--bogus"], 2, PARSER),
    "bell_visibility": (["bell", "--optimal", "--visibility", "2"], 2, COMMANDS_MODULE),
    "bell_samples": (["bell", "--optimal", "--samples", "1"], 2, COMMANDS_MODULE),
    "bell_angles": (["bell", "--angles", "1,2"], 2, COMMANDS_MODULE),
    "sample_visibility": (["sample", "--visibility", "2"], 2, COMMANDS_MODULE),
    "sample_samples": (["sample", "--samples", "0"], 2, COMMANDS_MODULE),
    "sweep_steps": (["sweep", "--steps", "1"], 2, COMMANDS_MODULE),
    "sweep_mc_text": (["sweep", "--steps", "3", "--mc", "oops"], 2, COMMANDS_MODULE),
    "marginals_steps": (["marginals", "--steps", "1"], 2, COMMANDS_MODULE),
    "premeasure_paths": (["premeasure", "--dump-state", "no-such-dir/p", "--output", "no-such-dir/p"],
                         2, PARSER | {"biphoton.commands"}),
    "sample": (["sample", "--samples", "3"], 0, SAMPLE),
    "bell": (["bell", "--optimal", "--samples", "10"], 0, SAMPLING),
    "sweep": (["sweep", "--steps", "3", "--mc", "10,1"], 0, SAMPLING),
    "sweep_exact": (["sweep", "--steps", "3"], 0, EXACT),
    "marginals": (["marginals", "--steps", "3"], 0, EXACT),
    "premeasure": (["premeasure"], 0, DETECTION_MODEL),
}


@pytest.mark.parametrize("argv,status,modules", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(argv, status, modules):
    # As `python -m biphoton ARGV` runs; the hook lists the loaded modules at exit.
    out = fresh_python(
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('loaded', *sys.modules, file=sys.stderr))\n"
        "sys.argv[1:] = " + repr(argv) + "\n"
        "runpy.run_module('biphoton', run_name='__main__')\n",
        stream="stderr", status=status,
    )
    loaded = set(out.splitlines()[-1].split()[1:])
    assert {m for m in loaded if m.partition(".")[0] == "biphoton"} == modules
    # numpy backs the draws, and loads only with them
    assert ("numpy" in loaded) == ("biphoton.rng" in modules)
    assert "dataclasses" not in loaded


def test_the_labelled_source_and_splitter_load_no_numpy():
    # Two guards. numpy: the labelled model is stdlib only. biphoton.optics: when this
    # test was written optics loaded numpy, so its absence stood in for numpy's; since
    # optics went stdlib it guards premeasure's load set instead, which stays free of
    # optics (folding records into optics measured ~1-3 ms slower premeasure children).
    out = fresh_python(
        "import sys\n"
        "from biphoton.linalg import beam_splitter, biphoton_state\n"
        "biphoton_state(), beam_splitter('A')\n"
        "print('numpy' in sys.modules, 'biphoton.optics' in sys.modules)\n"
    )
    assert out.split() == ["False", "False"]


# Each command line and its exit status when numpy cannot load: the commands
# that draw fail, the exact ones run, and a usage error is one whatever numpy does
WITHOUT_NUMPY = {
    "sweep": (["sweep", "--steps", "3"], 0),
    "marginals": (["marginals", "--steps", "3"], 0),
    "premeasure": (["premeasure"], 0),
    "sweep_mc": (["sweep", "--steps", "3", "--mc", "10,1"], 1),
    "bell": (["bell", "--optimal", "--samples", "10"], 1),
    "sample": (["sample", "--samples", "3"], 1),
    "bell_visibility": (["bell", "--optimal", "--visibility", "2"], 2),
    "sample_samples": (["sample", "--samples", "0"], 2),
}
# Code that makes `import numpy` raise: None in sys.modules, as a halted
# import; or a finder raising numpy's own many-line message, as a failed
# load of its shared objects (under `ulimit -v 60000`) does
NUMPY_BLOCKERS = {
    "halted": "sys.modules['numpy'] = None\n",
    "unmappable": (
        "class Unmappable:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            raise ImportError('\\n\\nIMPORTANT: PLEASE READ THIS\\n\\n'\n"
        "                              'Original error was: failed to map segment\\n')\n"
        "sys.meta_path.insert(0, Unmappable())\n"
    ),
}


@pytest.mark.parametrize("blocker", NUMPY_BLOCKERS.values(), ids=NUMPY_BLOCKERS)
@pytest.mark.parametrize("argv,status", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY)
def test_a_numpy_that_cannot_load_is_reported_in_one_line(argv, status, blocker):
    err = fresh_python(
        "import sys\n" + blocker + "from biphoton.cli import main\n"
        f"sys.exit(main({argv!r} + ['--output', {os.devnull!r}]))\n",
        stream="stderr", status=status,
    )
    if status == 1:
        assert err.startswith("biphoton: import error: ") and err.count("\n") == 1
    elif status == 2:
        assert err.startswith(f"biphoton {argv[0]}: error: ") and err.count("\n") == 1
    else:
        assert "Traceback" not in err
