"""A corpus of faults the test suite must catch, and the runner that checks it.

Each entry of MUTANTS is one small fault: a file under src/biphoton, an exact
text of it, the text that replaces it, and the tests that must fail with the
fault in place. The runner copies src/ into a temporary directory, checks
that the named tests pass on the copy as it is, then applies one entry at a
time and checks that every named test fails. A refactor that quietly weakens
a test shows up as a surviving mutant.

The run takes minutes, so it is not part of the test suite;
tests/test_mutants.py checks that each entry's text occurs exactly once in
src/, so that the corpus cannot go stale without notice. Stdlib only; run it
from any directory:

    python tests/mutants.py

It runs every entry and exits 0 when every mutant is caught and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 600  # seconds one pytest run may take


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/biphoton
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        "fresh_stream_per_block",
        "montecarlo.py",
        "yield draw_outcomes(cdf, doubles(min(BLOCK, n - start)))",
        "yield draw_outcomes(cdf, SplitMix64(seed).doubles(min(BLOCK, n - start)))",
        (
            "tests/test_montecarlo.py::test_blocks_join_into_the_whole_array_draw[0.0-1.0-0]",
            "tests/test_golden.py::test_large_output_file_hash[sample_1048600]",
        ),
    ),
    Mutant(
        "block_of_2_16_trials",
        "montecarlo.py",
        "BLOCK = 1 << 14",
        "BLOCK = 1 << 16",
        ("tests/test_montecarlo.py::test_bell_experiment_working_set_is_one_small_block",),
    ),
    Mutant(
        "stderr_ddof_0",
        "montecarlo.py",
        "math.sqrt(same * diff / (n - 1)) / n",
        "math.sqrt(same * diff / n) / n",
        (
            "tests/test_montecarlo.py::test_count_estimate_equals_score_array_estimate",
            "tests/test_golden.py::test_transcript_is_byte_identical[bench_bell]",
        ),
    ),
    Mutant(
        "draw_gt_for_ge",
        "montecarlo.py",
        "return (u >= cdf[0]).view(np.uint8) + (u >= cdf[1]) + (u >= cdf[2])",
        "return (u > cdf[0]).view(np.uint8) + (u > cdf[1]) + (u > cdf[2])",
        tuple(
            "tests/test_montecarlo.py::test_draw_kernel_equals_searchsorted_at_every_cdf_entry"
            f"[probs{k}]"
            for k in range(4)
        ),
    ),
    Mutant(
        "nan_blind_range_check",
        "analysis.py",
        "if not np.all((-1.0 <= e) & (e <= 1.0)):",
        "if np.any(e < -1.0) or np.any(e > 1.0):",
        (
            "tests/test_analysis.py::test_sweep_rejects_tables_outside_the_ranges"
            "[bad1-correlation outside]",
        ),
    ),
    Mutant(
        "only_phi_a_wrapped",
        "optics.py",
        "phase[::3] = _wrap_angles(phase[::3])",
        "phase[3] = _wrap_angles(phase[3])",
        ("tests/test_optics.py::test_joint_tables_of_raw_angles_equal_those_of_wrapped_angles",),
    ),
    Mutant(
        "high_digits_from_matrix_start",
        "cli.py",
        '(b"%d" % run)[:-low]',
        '(b"%d" % lo)[:-low]',
        (
            "tests/test_cli.py::test_event_lines_equal_per_event_strings",
            "tests/test_cli.py::test_event_lines_yield_one_matrix_per_trial_width",
        ),
    ),
    Mutant(
        "seed_range_one_short",
        "cli.py",
        "_SEEDS = range(2**64)",
        "_SEEDS = range(2**64 - 1)",
        ("tests/test_golden.py::test_transcript_is_byte_identical[bell_below_threshold]",),
    ),
    Mutant(
        "sample_block_numbered_from_zero",
        "cli.py",
        "_event_lines(int(counts.sum()), idx, rests)",
        "_event_lines(0, idx, rests)",
        (
            "tests/test_golden.py::test_large_transcript_hash[sample_200k]",
            "tests/test_golden.py::test_large_output_file_hash[sample_1048600]",
        ),
    ),
    Mutant(
        "sample_formats_all_blocks_at_once",
        "cli.py",
        "for idx in outcome_blocks(probs, args.samples, args.seed):",
        "for idx in [np.concatenate(list(outcome_blocks(probs, args.samples, args.seed)))]:",
        ("tests/test_cli.py::test_sample_memory_does_not_grow_with_samples",),
    ),
    Mutant(
        "grid_steps_long_array",
        "cli.py",
        "deltas = lo + np.arange(start, min(start + _GRID_CHUNK, args.steps)) * step",
        "deltas = (lo + np.arange(args.steps) * step)[start:start + _GRID_CHUNK]",
        (
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[sweep]",
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[marginals]",
        ),
    ),
    Mutant(
        "grid_rows_accumulate",
        "cli.py",
        "block = np.column_stack(columns(start, sweep_correlation(deltas, vis)))",
        "block = np.column_stack(columns(start, sweep_correlation(deltas, vis)))\n"
        '            vars(args).setdefault("held", []).append(block)',
        (
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[sweep]",
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[marginals]",
        ),
    ),
)


def failed_tests(src: Path, tests: tuple[str, ...]) -> set[str]:
    """The node ids among tests that do not pass with biphoton imported from src."""
    report = src.parent / "report.xml"
    env = {**os.environ, "PYTHONPATH": str(src)}
    report.unlink(missing_ok=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return set(tests)  # a hang counts as a failure
    if not report.exists():
        return set(tests)
    passed = set()
    for case in ET.parse(report).iter("testcase"):
        if not any(child.tag in ("failure", "error", "skipped") for child in case):
            module = case.get("classname").replace(".", "/")
            passed.add(f"{module}.py::{case.get('name')}")
    return set(tests) - passed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="biphoton-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        broken = failed_tests(src, every_test)
        if broken:
            print(f"fail before any mutation: {', '.join(sorted(broken))}", file=sys.stderr)
            return 1
        survivors = []
        for m in MUTANTS:
            path = src / "biphoton" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: its text does not occur exactly once in {m.file}")
                survivors.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                passing = set(m.tests) - failed_tests(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{m.name}: {'SURVIVED ' + ', '.join(sorted(passing)) if passing else 'caught'}")
            if passing:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
