"""Byte-for-byte CLI transcripts.

Each case pins the exact stdout and stderr of one ``biphoton`` command line
under ``tests/golden/``: ``<name>.stdout`` and ``<name>.stderr``, or
``<name>.stdout.sha256`` for outputs too large to commit (written to an
``--output`` file first when even a string of them is too large). Help and
usage-error cases also pin the exit status in ``<name>.status``. A change that is
meant to alter output bytes re-pins them in its own commit with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from unittest import mock

import pytest

import biphoton
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
    # Every optional flag omitted: pins the theta, sample-count and seed defaults
    "premeasure_defaults": ["premeasure"],
    "bell_defaults": ["bell", "--optimal"],
    # The coupled state on either side of where cos theta and sin theta change sign
    "premeasure_dump_state_pi_2": ["premeasure", "--theta=pi/2", "--dump-state", "-"],
    "premeasure_dump_state_pi": ["premeasure", "--theta=pi", "--dump-state", "-"],
    "premeasure_dump_state_minus_pi_4": ["premeasure", "--theta=-pi/4", "--dump-state", "-"],
    "premeasure_dump_state_3": ["premeasure", "--theta=3", "--dump-state", "-"],
    # E_exact at a zero crossing, ~1e-10: its digits are the exact table's last bits
    "sweep_zero_crossing": ["sweep", "--delta-min=pi/2", "--delta-max=1.5707963277", "--steps",
                            "5", "--visibility", "0.83"],
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
    # Two 1024-row joins, then a block of one row; columns that hold 0 at v = 1
    "sweep_2049_v1": ["sweep", "--steps", "2049", "--visibility", "1"],
    # Every column but delta prints one text in each block
    "marginals_1025_blind": ["marginals", "--steps", "1025", "--visibility", "0"],
    # Every optional flag omitted: pins the grid and visibility defaults
    "sweep_defaults": ["sweep"],
    "marginals_defaults": ["marginals"],
    "sample_defaults": ["sample"],
}

# Hashed from an --output file. 1 048 600 lines cross the 64 joins of 2**14-trial
# blocks up to trial 2**20, and the change from six- to seven-digit trial numbers
# inside a block.
HASHED_FILES = {
    "sample_1048600": ["sample", "--samples", "1048600", "--phi-a", "0.9", "--phi-b", "-2.2",
                       "--visibility", "0.95", "--seed", "99"],
}

# Help of the program and of each subcommand, and a usage error argparse
# raises itself: exit statuses other than a run's.
EXITS = {
    "help": ["--help"],
    "help_sweep": ["sweep", "--help"],
    "help_marginals": ["marginals", "--help"],
    "help_bell": ["bell", "--help"],
    "help_premeasure": ["premeasure", "--help"],
    "help_sample": ["sample", "--help"],
    "usage_unknown_flag": ["sweep", "--bogus"],
}


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    # main writes bytes to sys.stdout.buffer, so stdout gets a binary buffer too.
    # argparse wraps help to the terminal's width, read from COLUMNS first.
    out, err = TextIOWrapper(BytesIO(), encoding="utf-8"), StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits from inside main
            code = exc.code
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


@pytest.mark.parametrize("name", sorted(EXITS))
def test_help_and_usage_transcript_is_byte_identical(name):
    code, out, err = run(EXITS[name])
    assert code == int(golden(name, ".status"))
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


# Golden command lines whose numbers pass through numpy's SIMD kernels: the
# exact table (near a zero of E too), grid formatting, splitmix64 draws, the
# inverse CDF and counts.
DISPATCH_CASES = ("bench_sweep", "bench_sweep_mc", "bench_bell", "bench_sample", "marginals_3073",
                  "sweep_zero_crossing")


def enabled_dispatch_targets() -> list[str]:
    """The SIMD dispatch targets numpy enables on this host, by its own report."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def dispatch_off_env() -> dict[str, str]:
    """The environment of a child that runs numpy on its baseline kernels and
    imports this biphoton and these tests. numpy picks a SIMD kernel per CPU at
    import; the child turns off every target this host enables (only enabled
    ones may be named). Skips the calling test where numpy enables none."""
    targets = enabled_dispatch_targets()
    if not targets:
        pytest.skip("numpy enables no dispatch target on this host")
    src = str(Path(biphoton.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}


def test_goldens_hold_with_numpy_cpu_dispatch_off():
    # A child runs the cases on the baseline kernels; its bytes must still be the goldens'.
    env = dispatch_off_env()
    code = (
        "import hashlib, sys\n"
        "import test_golden as g\n"
        "print('enabled', *g.enabled_dispatch_targets())\n"
        "for name in sys.argv[1:]:\n"
        "    code, out, err = g.run({**g.CASES, **g.HASHED}[name])\n"
        "    print(name, code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *DISPATCH_CASES],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    enabled, *rows = proc.stdout.splitlines()
    assert enabled == "enabled"
    expected = []
    for name in DISPATCH_CASES:
        if name in CASES:
            out = hashlib.sha256(golden(name, ".stdout")).hexdigest()
        else:
            out = golden(name, ".stdout.sha256").decode().strip()
        expected.append(f"{name} 0 {out} {hashlib.sha256(golden(name, '.stderr')).hexdigest()}")
    assert rows == expected


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = run(argv)
        assert code == 0, (name, err)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    for name, argv in EXITS.items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.status").write_text(f"{code}\n")
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
