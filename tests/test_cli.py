import contextlib
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import cli
from biphoton.analysis import correlation, marginals
from biphoton.cli import main, parse_angle
from biphoton.montecarlo import estimate_counts, sample_counts
from biphoton.optics import OUTCOMES, PhaseSettings, Visibility, joint_distribution
from biphoton.rng import derive_seed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# angle parsing


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("PI", math.pi),
        ("-pi", -math.pi),
        ("pi/4", math.pi / 4),
        ("-pi/4", -math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("3*pi/2", 3 * math.pi / 2),
        ("0.5pi", math.pi / 2),
        ("2pi", 2 * math.pi),
        ("1.25", 1.25),
        ("-0.75", -0.75),
        ("0", 0.0),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("text", ["", "pie", "pi/", "two*pi", "1..5"])
def test_parse_angle_rejects_garbage(text):
    with pytest.raises(ValueError, match="invalid angle"):
        parse_angle(text)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "9" * 400 + "pi"])
def test_parse_angle_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite"):
        parse_angle(text)


def test_parse_angle_rejects_division_by_zero():
    with pytest.raises(ValueError, match="invalid angle"):
        parse_angle("pi/0")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--delta-min", "nan"],
        ["marginals", "--delta-max=inf", "--steps", "3"],
        ["sample", "--phi-a", "inf", "--samples", "2"],
        ["premeasure", "--theta", "nan"],
        ["bell", "--angles", "nan,0,0,0", "--samples", "10"],
        # finite ends whose grid step overflows
        ["sweep", "--delta-min=-1e308", "--delta-max=1e308", "--steps", "3"],
    ],
)
def test_non_finite_angles_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"biphoton {argv[0]}: error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "command,flag",
    [
        ("sweep", "--delta-min"),
        ("sweep", "--delta-max"),
        ("marginals", "--delta-min"),
        ("marginals", "--delta-max"),
        ("sample", "--phi-a"),
        ("sample", "--phi-b"),
        ("premeasure", "--theta"),
    ],
)
@pytest.mark.parametrize(
    "text,message",
    [
        ("nan", "angle must be finite, got 'nan'"),
        ("pi/0", "invalid angle 'pi/0'; use radians or a pi-expression like pi/4"),
    ],
)
def test_angle_flags_report_the_angle_message(capsys, command, flag, text, message):
    code, out, err = run_cli(capsys, command, f"{flag}={text}")
    assert code == 2
    assert out == ""
    assert err == f"biphoton {command}: error: argument {flag}: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--steps", "1"], "--steps must be >= 2, got 1"),
        (["marginals", "--steps=-3"], "--steps must be >= 2, got -3"),
        (["sweep", "--delta-min=-1e308", "--delta-max=1e308", "--steps", "3"],
         "grid from -1e+308 to 1e+308 in 3 steps overflows"),
        (["marginals", "--visibility", "1.5"], "visibility must lie in [0, 1], got 1.5"),
        (["sample", "--visibility", "nan"], "visibility must lie in [0, 1], got nan"),
        (["bell", "--optimal", "--visibility=-0.1"], "visibility must lie in [0, 1], got -0.1"),
        (["sweep", "--mc", "oops"], "--mc expects N,SEED, got 'oops'"),
        (["sweep", "--mc", "1,7"], "--mc sample count must be >= 2"),
        (["bell", "--angles", "0,pi"], "--angles expects four comma-separated angles"),
        (["bell", "--angles", "0,pi/0,0,0"],
         "invalid angle 'pi/0'; use radians or a pi-expression like pi/4"),
        (["bell", "--angles", "0,nan,0,0"], "angle must be finite, got 'nan'"),
        (["bell"], "provide --angles a,a',b,b' or --optimal"),
        (["bell", "--optimal", "--samples", "1"], "--samples must be >= 2"),
        (["sample", "--samples", "0"], "--samples must be >= 1"),
        (["bell", "--optimal", "--seed=-1"], "--seed must lie in [0, 2**64), got -1"),
        (["bell", "--optimal", "--seed", "18446744073709551617"],
         "--seed must lie in [0, 2**64), got 18446744073709551617"),
        (["sample", "--seed=-18446744073709551615"],
         "--seed must lie in [0, 2**64), got -18446744073709551615"),
        (["sample", "--seed", "18446744073709551616"],
         "--seed must lie in [0, 2**64), got 18446744073709551616"),
        (["sweep", "--mc", "10,-3"], "--mc seed must lie in [0, 2**64), got -3"),
        (["sweep", "--mc", "10,18446744073709551616"],
         "--mc seed must lie in [0, 2**64), got 18446744073709551616"),
    ],
)
def test_command_usage_errors_are_pinned(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"biphoton {argv[0]}: error: {message}\n"


# ---------------------------------------------------------------------------
# sweep / marginals


def test_sweep_three_point_fringe(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--delta-min", "0", "--delta-max", "pi",
        "--steps", "3", "--visibility", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,E_exact,p_pp,p_pm,p_mp,p_mm,pA_plus,pB_plus"
    e_values = [float(line.split(",")[1]) for line in lines[1:]]
    assert e_values == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)
    for line in lines[1:]:
        assert float(line.split(",")[6]) == pytest.approx(0.5, abs=1e-12)


def test_sweep_zero_visibility_is_flat(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "5", "--visibility", "0")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_sweep_with_mc_columns(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--steps", "3", "--mc", "4000,9",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith(",E_hat,stderr")
    first = lines[1].split(",")
    assert len(first) == 10
    assert float(first[8]) == pytest.approx(1.0, abs=1e-9)  # delta = 0, all matched


def test_sweep_rejects_single_step(capsys):
    code, out, err = run_cli(capsys, "sweep", "--steps", "1")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [err.strip()]  # single-line diagnostic
    assert "--steps" in err


def test_sweep_rejects_bad_visibility(capsys):
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--visibility", "1.5")
    assert code == 2
    assert "visibility" in err


def test_sweep_rejects_malformed_mc(capsys):
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--mc", "oops")
    assert code == 2
    assert "--mc" in err


def test_grid_rows_across_chunks_match_per_point_tables(capsys):
    # 2500 rows span three blocks of the grid; each boundary row, with its
    # sampled columns, must equal the per-point computation at its index.
    flags = ["--delta-min", "-1", "--delta-max", "7", "--steps", "2500", "--visibility", "0.9"]
    _, sweep_out, _ = run_cli(capsys, "sweep", *flags, "--mc", "50,11")
    _, marg_out, _ = run_cli(capsys, "marginals", *flags)
    sweep_rows, marg_rows = sweep_out.splitlines()[1:], marg_out.splitlines()[1:]
    assert len(sweep_rows) == len(marg_rows) == 2500
    step = (7.0 - -1.0) / 2499
    for index in (0, 1023, 1024, 2047, 2048, 2499):
        delta = -1.0 + index * step
        j = joint_distribution(PhaseSettings(delta, 0.0), Visibility(0.9))
        m = marginals(j.probs.values())
        est = estimate_counts(sample_counts(list(j.probs.values()), 50, derive_seed(11, index)))
        fields = [delta, correlation(j.probs.values()), *j.probs.values(), m.a_plus, m.b_plus,
                  est.estimate, est.stderr]
        assert sweep_rows[index] == ",".join(format(x, ".9g") for x in fields)
        assert marg_rows[index] == ",".join(format(x, ".9g") for x in (delta, *m))


@pytest.mark.parametrize("command", ["sweep", "marginals"])
def test_grid_memory_does_not_grow_with_steps(command):
    def peak(steps):
        tracemalloc.start()
        try:
            assert main([command, "--steps", str(steps), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2**12), peak(2**17)
    assert abs(large - small) <= 0.1 * small


def test_marginals_subcommand(capsys):
    code, out, _ = run_cli(capsys, "marginals", "--steps", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,pA_plus,pA_minus,pB_plus,pB_minus"
    for line in lines[1:]:
        values = [float(x) for x in line.split(",")[1:]]
        assert values == pytest.approx([0.5] * 4, abs=1e-12)


def test_sweep_threads_do_not_change_output(capsys):
    args = ["sweep", "--steps", "9", "--mc", "2000,5"]
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out4


@pytest.mark.parametrize("command", ["sweep", "bell", "sample"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(capsys, command, threads):
    extra = ["--optimal"] if command == "bell" else []
    code, out, err = run_cli(capsys, command, *extra, f"--threads={threads}")
    assert code == 2
    assert out == ""
    assert err == f"biphoton {command}: error: --threads must be >= 1, got {threads}\n"


# ---------------------------------------------------------------------------
# bell


def test_bell_optimal_report(capsys):
    code, out, _ = run_cli(
        capsys, "bell", "--optimal", "--visibility", "1",
        "--samples", "100000", "--seed", "42",
    )
    assert code == 0
    report = json.loads(out)
    assert report["S_exact"] == pytest.approx(2.828427, abs=1e-6)
    assert report["violation"] is True
    assert report["n_per_setting"] == 100000
    assert report["seed"] == 42
    assert report["angles"]["b_prime"] == pytest.approx(-math.pi / 4, abs=1e-6)


def test_bell_half_visibility_no_violation(capsys):
    code, out, _ = run_cli(
        capsys, "bell", "--optimal", "--visibility", "0.5", "--samples", "5000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["S_exact"] == pytest.approx(1.414214, abs=1e-6)
    assert report["violation"] is False


def test_bell_degenerate_angles(capsys):
    code, out, _ = run_cli(
        capsys, "bell", "--angles", "0,0,0,0", "--samples", "1000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["S_exact"] == pytest.approx(2.0, abs=1e-9)
    assert report["violation"] is False


def test_bell_accepts_pi_expression_angles(capsys):
    code, out, _ = run_cli(
        capsys, "bell", "--angles", "0,pi/2,pi/4,-pi/4", "--samples", "1000",
    )
    assert code == 0
    assert json.loads(out)["S_exact"] == pytest.approx(2.828427, abs=1e-6)


def test_bell_requires_angles_or_optimal(capsys):
    code, _, err = run_cli(capsys, "bell", "--samples", "100")
    assert code == 2
    assert "--optimal" in err


def test_bell_rejects_wrong_angle_count(capsys):
    code, _, err = run_cli(capsys, "bell", "--angles", "0,1,2", "--samples", "100")
    assert code == 2
    assert "four" in err


def test_bell_threads_do_not_change_output(capsys):
    args = ["bell", "--optimal", "--samples", "3000", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *args, "--threads", "1")
    _, out4, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out4


# ---------------------------------------------------------------------------
# premeasure


def test_premeasure_default_report(capsys):
    code, out, err = run_cli(capsys, "premeasure")
    assert code == 0
    report = json.loads(out)
    assert report["theta"] == 0
    assert report["joint_probs"]["A1"]["D1"] == pytest.approx(0.5, abs=1e-12)
    assert report["joint_probs"]["A2"]["D2"] == pytest.approx(0.5, abs=1e-12)
    assert report["both_clicked_prob"] == 0
    assert report["iff_violation_prob"] == 0
    assert "verdict" in err


def test_premeasure_theta_pi_phase(capsys):
    code, out, _ = run_cli(capsys, "premeasure", "--theta", "pi")
    assert code == 0
    report = json.loads(out)
    assert report["joint_probs"]["A1"]["D1"] == pytest.approx(0.5, abs=1e-12)
    assert abs(report["correlation_coherence_phase"]) == pytest.approx(math.pi, abs=1e-6)
    assert report["correlation_coherence_modulus"] == pytest.approx(0.5, abs=1e-9)


def test_premeasure_dump_state(tmp_path, capsys):
    path = tmp_path / "state.json"
    code, _, _ = run_cli(capsys, "premeasure", "--dump-state", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["space"] == [["A1", "A2"], ["ready", "D1", "D2"]]
    amps = doc["amplitudes"]
    assert len(amps) == 6
    assert amps[1][0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert amps[5][0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)


# ---------------------------------------------------------------------------
# sample


def test_sample_matched_settings_all_agree(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--phi-a", "0", "--phi-b", "0",
        "--samples", "1000", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1000
    for line in lines:
        event = json.loads(line)
        assert event["a"] == event["b"]
    assert json.loads(lines[0])["trial"] == 0
    assert "sampled 1000 events" in err


def test_sample_is_byte_deterministic(capsys):
    args = ["sample", "--phi-a", "pi/2", "--phi-b", "0", "--samples", "500", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sample_summary_estimate_near_zero(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--phi-a", "pi/2", "--phi-b", "0",
        "--samples", "100000", "--seed", "7",
    )
    assert code == 0
    e_hat = float(err.split("E_hat = ")[1].split(" ")[0])
    assert abs(e_hat) < 0.013


def test_sample_rejects_zero_samples(capsys):
    code, _, err = run_cli(capsys, "sample", "--samples", "0")
    assert code == 2
    assert "--samples" in err


def test_sample_writes_to_file(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    code, out, _ = run_cli(
        capsys, "sample", "--samples", "10", "--seed", "1", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert len(path.read_text().splitlines()) == 10


def reference_lines(start, idx, rests):
    """The one-f-string-per-event writer that _event_lines replaced."""
    return "".join(f'{{"trial": {trial}{rests[k]}' for trial, k in enumerate(idx, start))


def event_text(start, idx, rests):
    """_event_lines' matrices joined and decoded, with rests given as text."""
    rows = cli._event_lines(start, idx, [rest.encode() for rest in rests])
    return b"".join(rows).decode()


# Phases whose 9-digit echoes have different lengths ("0", "1.5", "1e-07", ...)
echo_phases = st.sampled_from([0.0, 1.5, 1e-7, math.pi / 4, 2 * math.pi / 3, 6.0])
# Near every change of the trial number's digit count that matters, near the
# first join of two 10**4-trial runs, and near 2**31
trial_starts = st.builds(
    lambda base, offset: max(base + offset, 0),
    st.sampled_from([0, 10, 10**4, 10**5, 10**6, 10**7, 2**31]),
    st.integers(-300, 300),
)


@given(
    trial_starts,
    st.lists(st.integers(0, 3), min_size=1, max_size=300),
    echo_phases,
    echo_phases,
)
@settings(max_examples=200, deadline=None)
# a few lines on each side of every digit-count change and of 2**31
@example(0, [0, 1, 2, 3] * 3, 0.0, 1.5)
@example(97, [3, 2, 1, 0] * 2, 1e-7, 0.0)
@example(10**5 - 4, [1, 3] * 4, 6.0, math.pi / 4)
@example(10**6 - 4, [2, 0] * 4, 0.0, 0.0)
@example(10**7 - 4, [0, 3] * 4, 1.5, 1e-7)
@example(2**31 - 4, [1, 2] * 4, 0.0, 6.0)
@example(10**10 - 4, [3, 0] * 4, 0.0, 0.0)
# a few lines on each side of a join of two 10**4-trial runs
@example(9_998, [0, 1, 2, 3] * 2, 1.5, 0.0)
@example(19_999, [3, 1] * 3, 0.0, 1e-7)
@example(65_530, [2, 3, 0] * 5, 6.0, 1.5)
@example(999_990, [1, 0, 3, 2] * 6, math.pi / 4, 0.0)
@example(10**7 - 5, [0, 2] * 5, 0.0, 6.0)
@example(2**31 - 3, [3, 2, 1] * 3, 1e-7, 1e-7)
def test_event_lines_equal_per_event_strings(start, outcomes, phi_a, phi_b):
    pa, pb = cli._fmt(phi_a), cli._fmt(phi_b)
    rests = [
        f', "phi_a": {pa}, "phi_b": {pb}, "a": "{a}", "b": "{b}"}}\n'
        for a, b in OUTCOMES
    ]
    idx = np.array(outcomes, dtype=np.uint8)
    assert event_text(start, idx, rests) == reference_lines(start, outcomes, rests)


def test_event_lines_strings_hold_at_most_one_chunk():
    rests = [f', "a": "{a}", "b": "{b}"}}\n' for a, b in OUTCOMES]
    idx = np.arange(3 * cli._SAMPLE_CHUNK, dtype=np.uint8) % 4
    start = 10**5 - 7  # crosses a digit-count change as well
    matrices = list(cli._event_lines(start, idx, [rest.encode() for rest in rests]))
    assert all(rows.dtype == np.uint8 and rows.ndim == 2 for rows in matrices)
    assert all(rows[:, -1].tolist() == [ord("\n")] * len(rows) for rows in matrices)
    assert max(len(rows) for rows in matrices) == cli._SAMPLE_CHUNK
    # Line by line: a failing == on the two ~13 MB strings makes pytest diff them for minutes.
    got = event_text(start, idx, rests).splitlines(keepends=True)
    want = reference_lines(start, idx.tolist(), rests).splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def test_sample_stdout_and_file_bytes_are_identical(tmp_path):
    path = tmp_path / "events.jsonl"
    argv = [sys.executable, "-m", "biphoton", "sample", "--samples",
            str(cli._SAMPLE_CHUNK + 5), "--phi-a", "1.5", "--seed", "11"]
    to_stdout = subprocess.run([*argv, "--output", "-"], capture_output=True, check=True)
    to_file = subprocess.run([*argv, "--output", str(path)], capture_output=True, check=True)
    assert to_file.stdout == b""
    assert path.read_bytes() == to_stdout.stdout
    assert to_stdout.stdout.count(b"\n") == cli._SAMPLE_CHUNK + 5


def fail_after_first_chunk(monkeypatch):
    """Make the second matrix _event_lines yields fail to write."""
    chunks = []

    def event_lines(*args):
        for rows in real(*args):
            chunks.append(rows)
            if len(chunks) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield rows

    real = cli._event_lines
    monkeypatch.setattr(cli, "_event_lines", event_lines)
    return chunks


def test_failed_sample_leaves_existing_output_unchanged(tmp_path, capsys, monkeypatch):
    path = tmp_path / "events.jsonl"
    path.write_text("earlier run\n")
    chunks = fail_after_first_chunk(monkeypatch)
    code, out, err = run_cli(
        capsys, "sample", "--samples", str(2 * cli._SAMPLE_CHUNK), "--output", str(path)
    )
    assert len(chunks) == 2
    assert code == 1
    assert "No space left on device" in err
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["events.jsonl"]


def test_failed_sample_creates_no_output(tmp_path, capsys, monkeypatch):
    fail_after_first_chunk(monkeypatch)
    code, _, _ = run_cli(
        capsys, "sample", "--samples", str(2 * cli._SAMPLE_CHUNK),
        "--output", str(tmp_path / "events.jsonl"),
    )
    assert code == 1
    assert os.listdir(tmp_path) == []


def test_output_file_modes_match_plain_open(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        assert main(["sweep", "--steps", "3", "--output", str(fresh)]) == 0
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        kept.chmod(0o640)
        assert main(["sweep", "--steps", "3", "--output", str(kept)]) == 0
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text().startswith("delta,")
    finally:
        os.umask(umask)


def test_output_to_a_pipe_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "events.pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run_cli(capsys, "sample", "--samples", "5", "--output", str(fifo))
        assert code == 0
        assert out == ""
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert os.read(reader, 1 << 16).count(b"\n") == 5
    finally:
        os.close(reader)


def test_output_through_a_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "events.jsonl"
    target.write_text("old\n")
    link = tmp_path / "latest.jsonl"
    link.symlink_to(target)
    assert main(["sample", "--samples", "3", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().count("\n") == 3


def test_unwritable_output_is_io_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--output", str(target))
    assert code == 1
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# counts too big for memory


# sys.maxsize // 16 is the largest count the CLI passes on, which keeps
# every trial number, grid index and count far inside numpy int64. Every
# count here is refused before numpy sees it.
@pytest.mark.parametrize("n", [sys.maxsize // 16 + 1, sys.maxsize, 2**64, 10**20])
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep", "--steps={n}"], "--steps"),
        (["marginals", "--steps={n}"], "--steps"),
        (["sweep", "--steps=3", "--mc={n},1"], "--mc sample count"),
        (["bell", "--optimal", "--samples={n}"], "--samples"),
        (["sample", "--samples={n}"], "--samples"),
    ],
)
def test_counts_past_any_array_are_usage_errors(capsys, argv, flag, n):
    code, out, err = run_cli(capsys, *(a.format(n=n) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"biphoton {argv[0]}: error: {flag} must be <= {sys.maxsize // 16}, got {n}\n"


@pytest.mark.parametrize(
    "argv,allocator",
    [
        (["sweep", "--steps=3"], "sweep_correlation"),
        (["marginals", "--steps=3"], "sweep_correlation"),
        (["bell", "--optimal", "--samples=10"], "bell_experiment"),
        (["sample", "--samples=10"], "outcome_blocks"),
    ],
)
def test_out_of_memory_is_one_line_exit_1(capsys, monkeypatch, argv, allocator):
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, allocator, refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == f"biphoton: out of memory: {message}\n"


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--bogus")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert "error" in err


# Counts are small or past any array, never in between, where a run could
# allocate gigabytes before it fails.
_COUNTS = st.one_of(
    st.integers(-3, 3000), st.sampled_from([10**20, 2**64, 2**63 - 1, 2**62])
).map(str)
_SEEDS = st.one_of(st.integers(-3, 3000), st.sampled_from([10**20, 2**64, -(2**64)])).map(str)
_ANGLES = st.one_of(
    st.integers(-3, 3000).map(str),
    st.floats(-10, 10).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "pi/0", "1e308", "-1e308", "-3pi/4", "pie", ""]),
)
_VISIBILITIES = st.one_of(
    st.floats(0, 1).map(repr), st.sampled_from(["-0.1", "1.5", "nan", "inf", "-0", "x"])
)
_MC = st.one_of(
    st.builds("{},{}".format, _COUNTS, _SEEDS),
    st.sampled_from(["", "oops", ",", "5,", ",5", "1,2,3", "2.5,1", "1e5,1"]),
)
_ANGLE_LISTS = st.one_of(
    st.lists(_ANGLES, min_size=3, max_size=5).map(",".join), st.sampled_from(["", ",,,"])
)
# "{dir}" is replaced by a scratch directory; "missing" does not exist in it
_PATHS = st.sampled_from(["-", "{dir}/out.txt", "{dir}/missing/out.txt"])
_GRID = {"--delta-min": _ANGLES, "--delta-max": _ANGLES, "--steps": _COUNTS,
         "--visibility": _VISIBILITIES}
_RUN = {"--threads": _COUNTS, "--output": _PATHS}
_FLAGS = {
    "sweep": {**_GRID, "--mc": _MC, **_RUN},
    "marginals": {**_GRID, "--output": _PATHS},
    "bell": {"--angles": _ANGLE_LISTS, "--optimal": None, "--visibility": _VISIBILITIES,
             "--samples": _COUNTS, "--seed": _SEEDS, **_RUN},
    "premeasure": {"--theta": _ANGLES, "--dump-state": _PATHS, "--output": _PATHS},
    "sample": {"--phi-a": _ANGLES, "--phi-b": _ANGLES, "--visibility": _VISIBILITIES,
               "--samples": _COUNTS, "--seed": _SEEDS, **_RUN},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS[command])), unique=True)):
        values = _FLAGS[command][flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += [flag, draw(values)]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_keep_the_exit_contract(fuzz_dir, argv):
    # An exception escaping main fails the test, as a traceback would.
    # main writes bytes to sys.stdout.buffer, so stdout gets a binary buffer.
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{dir}", str(fuzz_dir)) for a in argv])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("biphoton") and err.endswith("\n") and err.count("\n") == 1


def test_floats_printed_with_nine_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--delta-min", "pi/7", "--delta-max", "pi", "--steps", "2")
    first = out.strip().splitlines()[1].split(",")
    assert first[0] == "0.448798951"  # pi/7 at 9 significant digits


@given(st.floats())
@example(-0.0)
@example(5e-324)  # the least subnormal
@example(math.nan)
@example(-math.inf)
def test_grid_rows_format_floats_as_text_does(x):
    # _write_grid formats bytes; its rows must read as the text format did.
    assert cli._FLOAT.encode() % x == (cli._FLOAT % x).encode()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton", "sample", "--samples", "3", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 3


def test_closed_stdout_pipe_exits_quietly():
    # Like `biphoton sample | head -1`: the reader goes away mid-stream.
    proc = subprocess.Popen(
        [sys.executable, "-m", "biphoton", "sample", "--samples", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b'{"trial": 0,')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def run_without_stdout(*args):
    """`python -m biphoton ARGS >&-`: the command starts with fd 1 closed."""
    return subprocess.run(
        ["sh", "-c", 'exec "$0" -m biphoton "$@" >&-', sys.executable, *args],
        capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("argv", [["sample", "--samples", "3"], ["sweep", "--steps", "3"]])
def test_missing_stdout_is_one_line_io_error(argv):
    proc = run_without_stdout(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"biphoton: i/o error: ")
    assert proc.stderr.count(b"\n") == 1


def test_text_only_stdout_is_one_line_io_error():
    # An in-process caller whose stdout has no binary buffer
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bell", "--optimal", "--samples", "10"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == "biphoton: i/o error: standard output is closed or takes no bytes\n"


def test_output_file_needs_no_stdout(tmp_path):
    path = tmp_path / "events.jsonl"
    proc = run_without_stdout("sample", "--samples", "3", "--seed", "7", "--output", str(path))
    assert proc.returncode == 0
    assert proc.stderr.startswith(b"sampled 3 events") and proc.stderr.count(b"\n") == 1
    assert path.read_bytes().count(b"\n") == 3
