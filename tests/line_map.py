"""Which tests run which lines of src/biphoton: the line map a mutation sweep reads.

Runs the test suite in this process under a trace hook (sys.settrace, and
threading.settrace for threads started later) that looks only at frames whose
code lives in src/biphoton, and records, for each line it sees run, the node
ids of the tests that ran it. Every executable line (from the code objects'
co_lines) gets an entry, so a line no test ran maps to an empty list. A line
run outside any test, such as a module's top level run on import during
collection, maps to COLLECTION among its ids: a fault there reaches every test.
Lines only child processes run (`python -m biphoton`, cli.run) are not seen.

Tests run several times slower under the hook, so a test with a time budget
may fail; the lines it ran are recorded all the same. Stdlib and pytest only,
not part of the suite. Run it from any directory:

    python tests/line_map.py MAP.json [PYTEST_ARGS...]

It writes MAP.json as {"module.py": {"line": [node ids]}}, prints the lines no
test ran in-process, and exits 0 once the map is written (even if a test
failed), or with pytest's status when pytest could not run the tests.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "biphoton"
COLLECTION = "<collection>"  # the id of lines run while no test was running


def spans(lines: list[int]) -> str:
    """Sorted line numbers as runs: [3, 4, 5, 9] -> '3-5, 9'."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in runs)


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that some instruction of its code objects is on."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineRecorder:
    """A pytest plugin that names the running test, and the trace hook that reads it."""

    def __init__(self):
        self.test = COLLECTION
        self.ran: dict[tuple[str, int], set[str]] = defaultdict(set)
        self._inside: dict[object, bool] = {}  # code object -> is it in the package

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test = item.nodeid
        yield
        self.test = COLLECTION

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename, frame.f_lineno].add(self.test)
        return self._line

    def trace(self, frame, event, arg):
        code = frame.f_code
        inside = self._inside.get(code)
        if inside is None:
            inside = self._inside[code] = Path(code.co_filename).resolve().parent == PACKAGE
        return self._line if inside else None

    def tests_by_line(self) -> dict[tuple[Path, int], set[str]]:
        """What ran records, keyed by each file's resolved path."""
        by_line = defaultdict(set)
        for (filename, line), tests in self.ran.items():
            by_line[Path(filename).resolve(), line] |= tests
        return by_line


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/line_map.py MAP.json [PYTEST_ARGS...]", file=sys.stderr)
        return 2
    out, pytest_args = Path(argv[0]).resolve(), argv[1:] or [str(ROOT / "tests")]
    # The package from this tree, in this process and in the children tests start
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    os.environ["PYTHONPATH"] = os.pathsep.join(pythonpath)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    recorder = LineRecorder()
    threading.settrace(recorder.trace)
    sys.settrace(recorder.trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[recorder])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(status)

    by_line, line_map, unrun = recorder.tests_by_line(), {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path))
        line_map[path.name] = {str(line): sorted(by_line.get((path, line), ())) for line in lines}
        missed = [line for line in lines if not by_line.get((path, line))]
        if missed:
            unrun[path.name] = missed
    out.write_text(json.dumps(line_map, indent=1) + "\n", encoding="utf-8")
    total = sum(map(len, line_map.values()))
    print(f"{total - sum(map(len, unrun.values()))} of {total} executable lines of src/biphoton"
          f" ran in-process; map written to {out}")
    print("lines no test ran in-process:",
          *[f"{name}: {spans(lines)}" for name, lines in unrun.items()] or ["none"], sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
