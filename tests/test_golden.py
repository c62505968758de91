"""Byte-for-byte CLI transcripts.

Each case pins the exact stdout and stderr of one ``biphoton`` command line
under ``tests/golden/``: ``<name>.stdout`` and ``<name>.stderr``, or
``<name>.stdout.sha256`` for outputs too large to commit (written to an
``--output`` file first when even a string of them is too large). A change that is
meant to alter output bytes re-pins them in its own commit with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path

import pytest

from biphoton.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # README examples
    "readme_sweep": ["sweep", "--delta-min", "0", "--delta-max", "pi", "--steps", "3",
                     "--visibility", "1"],
    "readme_bell": ["bell", "--optimal", "--visibility", "1", "--samples", "100000",
                    "--seed", "42"],
    "readme_premeasure": ["premeasure", "--theta", "pi/3"],
    "readme_sample": ["sample", "--phi-a", "0", "--phi-b", "0", "--samples", "3",
                      "--seed", "7"],
    # benchmark-shaped runs at small sizes
    "bench_sample": ["sample", "--samples=2000", "--phi-a=2.71828183", "--phi-b=5.4321",
                     "--visibility=0.83", "--seed=3141592653"],
    "bench_bell": ["bell", "--angles=0.21,1.43,0.66,-0.97", "--samples=5000",
                   "--threads=2", "--visibility=0.77", "--seed=2718281828"],
    "bench_sweep_mc": ["sweep", "--delta-min=-2.05", "--delta-max=3.3", "--steps=64",
                       "--visibility=0.68", "--mc=2000,1618033988", "--threads=2"],
    "bench_sweep": ["sweep", "--delta-min=-1.1", "--delta-max=4.4", "--steps=200",
                    "--visibility=0.91"],
    "bench_marginals": ["marginals", "--delta-min=-3.0", "--delta-max=2.5",
                        "--steps=200", "--visibility=0.55"],
    "bench_premeasure": ["premeasure", "--theta=-2.25"],
    "premeasure_dump_state": ["premeasure", "--theta=-2.25", "--dump-state", "-"],
    # visibility, sample-size and seed edges
    "sweep_mc_blind": ["sweep", "--steps", "5", "--visibility", "0", "--mc", "1000,0"],
    "bell_below_threshold": ["bell", "--optimal", "--visibility", "0.6", "--samples",
                             "3000", "--seed", "18446744073709551615"],
    "sample_single_event": ["sample", "--phi-a", "pi/2", "--samples", "1", "--seed", "0"],
    "sample_blind": ["sample", "--visibility", "0", "--samples", "64", "--seed", "5"],
    # sampled estimates whose every sub-stream crosses several 2**14-draw joins
    "bell_200003": ["bell", "--angles=0.21,1.43,0.66,-0.97", "--samples=200003",
                    "--visibility=0.77", "--seed=2718281828"],
    "sweep_mc_131075": ["sweep", "--delta-min=-1", "--delta-max=2", "--steps=3",
                        "--visibility=0.9", "--mc=131075,11"],
}

# JSONL across several 2**14-trial blocks, and grids of several 1024-point
# blocks (sub-seeded --mc columns included): pins the joins between blocks.
HASHED = {
    "sample_200k": ["sample", "--samples", "200000", "--phi-a", "2.3", "--phi-b", "4.1",
                    "--visibility", "0.8", "--seed", "7"],
    "sweep_mc_2500": ["sweep", "--delta-min", "-1", "--delta-max", "7", "--steps", "2500",
                      "--visibility", "0.9", "--mc", "50,11"],
    "marginals_3073": ["marginals", "--delta-min", "-1", "--delta-max", "7", "--steps", "3073",
                       "--visibility", "0.2"],
}

# Hashed from an --output file. 1 048 600 lines cross the 64 joins of 2**14-trial
# blocks up to trial 2**20, and the change from six- to seven-digit trial numbers
# inside a block.
HASHED_FILES = {
    "sample_1048600": ["sample", "--samples", "1048600", "--phi-a", "0.9", "--phi-b", "-2.2",
                       "--visibility", "0.95", "--seed", "99"],
}


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    # main writes bytes to sys.stdout.buffer, so stdout gets a binary buffer too
    out, err = TextIOWrapper(BytesIO(), encoding="utf-8"), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue().encode()


def golden(name: str, suffix: str) -> bytes:
    return (GOLDEN / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_is_byte_identical(name):
    code, out, err = run(CASES[name])
    assert code == 0
    assert out == golden(name, ".stdout")
    assert err == golden(name, ".stderr")


@pytest.mark.parametrize("name", sorted(HASHED))
def test_large_transcript_hash(name):
    code, out, err = run(HASHED[name])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == golden(name, ".stdout.sha256").decode().strip()
    assert err == golden(name, ".stderr")


@pytest.mark.parametrize("name", sorted(HASHED_FILES))
def test_large_output_file_hash(name, tmp_path):
    path = tmp_path / "events.jsonl"
    code, out, err = run([*HASHED_FILES[name], "--output", str(path)])
    assert code == 0 and out == b""
    assert file_sha256(path) == golden(name, ".stdout.sha256").decode().strip()
    assert err == golden(name, ".stderr")


def file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def test_output_file_matches_stdout_transcript(tmp_path):
    path = tmp_path / "events.jsonl"
    code, out, err = run([*CASES["bench_sample"], "--output", str(path)])
    assert code == 0 and out == b""
    assert path.read_bytes() == golden("bench_sample", ".stdout")
    assert err == golden("bench_sample", ".stderr")


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = run(argv)
        assert code == 0, (name, err)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    for name, argv in HASHED.items():
        code, out, err = run(argv)
        assert code == 0, (name, err)
        (GOLDEN / f"{name}.stdout.sha256").write_text(hashlib.sha256(out).hexdigest() + "\n")
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        for name, argv in HASHED_FILES.items():
            code, out, err = run([*argv, "--output", str(path)])
            assert code == 0 and out == b"", (name, err)
            (GOLDEN / f"{name}.stdout.sha256").write_text(file_sha256(path) + "\n")
            (GOLDEN / f"{name}.stderr").write_bytes(err)


if __name__ == "__main__":
    sys.exit(write_goldens())
