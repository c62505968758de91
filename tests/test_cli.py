import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import commands
from biphoton.analysis import correlation, marginals
from biphoton.cli import main, parse_angle
from biphoton.montecarlo import BLOCK, EstimatorResult, estimate_counts, sample_counts
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
    "argv,code",
    [
        (["premeasure", "--theta", "-3pi/2"], 0),
        (["sample", "--phi-a", "-1e-3", "--samples", "3"], 0),
        (["bell", "--angles", "-pi/4,0,0,0", "--samples", "10"], 0),
        (["sweep", "--delta-min", "-inf"], 2),
    ],
)
def test_negative_angles_read_alike_as_separate_and_joined_arguments(capsys, argv, code):
    # argparse alone reads a word opening with '-' as a flag unless it is a
    # plain decimal, so the separate form failed with "expected one argument".
    command, flag, value, *rest = argv
    separate = run_cli(capsys, *argv)
    assert separate == run_cli(capsys, command, f"{flag}={value}", *rest)
    assert separate[0] == code
    if code == 2:
        assert separate[2] == (
            f"biphoton {command}: error: argument {flag}: angle must be finite, got '{value}'\n"
        )


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
        # --optimal would otherwise drop --angles, whether they parse or not
        (["bell", "--optimal", "--angles", "0,pi/2,pi/4,-pi/4", "--samples", "10"],
         "provide --angles a,a',b,b' or --optimal, not both"),
        (["bell", "--optimal", "--angles", "garbage", "--samples", "10"],
         "provide --angles a,a',b,b' or --optimal, not both"),
        # the report would replace the state; a directory that does not exist
        # keeps a run without the check from leaving a file behind
        (["premeasure", "--dump-state", "no-such-dir/p.json", "--output", "no-such-dir/p.json"],
         "--dump-state and --output name the same file 'no-such-dir/p.json'"),
        (["premeasure", "--dump-state", "no-such-dir/p.json", "--output", "./no-such-dir/p.json"],
         "--dump-state and --output name the same file './no-such-dir/p.json'"),
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
        m = marginals(j)
        est = estimate_counts(sample_counts(j, 50, derive_seed(11, index)))
        fields = [delta, correlation(j), *j, m.a_plus, m.b_plus, est.estimate, est.stderr]
        assert sweep_rows[index] == ",".join(format(x, ".9g") for x in fields)
        assert marg_rows[index] == ",".join(format(x, ".9g") for x in (delta, *m))


@pytest.mark.parametrize("command", ["sweep", "marginals"])
def test_grid_memory_does_not_grow_with_steps(command):
    def peak(steps):
        # With the collector off, the peak does not depend on when it runs.
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            assert main([command, "--steps", str(steps), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()

    peak(2**12)  # a first run also holds what the first call of a command builds
    small, large = peak(2**12), peak(2**15)  # 4 and 32 blocks of the grid
    # large - small held within -0.8..+0.9 KB over 50 repeats of each command;
    # a leak of one byte a grid step adds 28 KiB.
    assert abs(large - small) <= 16 * 1024


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


@pytest.mark.parametrize(
    "s_hat,violation",
    [(math.nextafter(2.75, 0.0), False), (2.75, False), (math.nextafter(2.75, 3.0), True)],
    ids=["below", "at", "above"],
)
def test_bell_violation_is_s_hat_more_than_three_stderr_above_two(capsys, monkeypatch, s_hat,
                                                                  violation):
    # stderr 0.25: 3 stderr and S_hat - 2 near 0.75 are exact, so the flag flips
    # between neighbouring floats
    monkeypatch.setattr("biphoton.montecarlo.bell_experiment",
                        lambda settings, vis, n, seed: EstimatorResult(s_hat, 0.25, n))
    code, out, _ = run_cli(capsys, "bell", "--optimal", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert (report["stderr"], report["violation"]) == (0.25, violation)


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


def test_premeasure_state_and_report_in_one_file_leave_it_unchanged(tmp_path, capsys):
    path = tmp_path / "both.json"
    path.write_text("earlier\n")
    (tmp_path / "link.json").symlink_to(path)
    for other in (path, tmp_path / "." / "both.json", tmp_path / "link.json"):
        code, out, err = run_cli(capsys, "premeasure", "--dump-state", str(other),
                                 "--output", str(path))
        assert (code, out) == (2, "")
        assert err == ("biphoton premeasure: error: --dump-state and --output name the same"
                       f" file {str(path)!r}\n")
        assert path.read_text() == "earlier\n"


@pytest.mark.parametrize("path", ["-", os.devnull])
def test_premeasure_state_and_report_may_share_a_stream(capsys, path):
    # stdout and a path that is not a regular file take both documents in turn
    code, out, _ = run_cli(capsys, "premeasure", "--dump-state", path, "--output", path)
    assert code == 0
    if path == "-":
        assert out == run_cli(capsys, "premeasure", "--dump-state", "-")[1]
        assert out.count('"amplitudes"') == 1 and out.count('"theta"') == 1


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


def test_sample_summary_of_two_events_carries_the_estimate(capsys):
    code, out, err = run_cli(capsys, "sample", "--phi-a", "pi/2", "--samples", "2", "--seed", "3")
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    counts = [sum((e["a"], e["b"]) == outcome for e in events) for outcome in OUTCOMES]
    est = estimate_counts(np.array(counts))
    tallies = "  ".join(f"{a}{b}: {c}" for (a, b), c in zip(OUTCOMES, counts))
    assert err == (f"sampled 2 events  {tallies}  "
                   f"E_hat = {commands._fmt(est.estimate)} +- {commands._fmt(est.stderr)}\n")


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
    rows = commands._event_lines(start, idx, [rest.encode() for rest in rests])
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
@example(10**17 - 4, [2, 1] * 4, 1e-7, 1.5)
@example(commands._MAX_COUNT - 8, [0, 3, 1, 2] * 2, 6.0, 0.0)  # the largest trials, 18 digits
# a few lines on each side of a join of two 10**4-trial runs
@example(9_998, [0, 1, 2, 3] * 2, 1.5, 0.0)
@example(19_999, [3, 1] * 3, 0.0, 1e-7)
@example(65_530, [2, 3, 0] * 5, 6.0, 1.5)
@example(999_990, [1, 0, 3, 2] * 6, math.pi / 4, 0.0)
@example(10**7 - 5, [0, 2] * 5, 0.0, 6.0)
@example(2**31 - 3, [3, 2, 1] * 3, 1e-7, 1e-7)
def test_event_lines_equal_per_event_strings(start, outcomes, phi_a, phi_b):
    pa, pb = commands._fmt(phi_a), commands._fmt(phi_b)
    rests = [
        f', "phi_a": {pa}, "phi_b": {pb}, "a": "{a}", "b": "{b}"}}\n'
        for a, b in OUTCOMES
    ]
    idx = np.array(outcomes, dtype=np.uint8)
    assert event_text(start, idx, rests) == reference_lines(start, outcomes, rests)


def test_event_lines_yield_one_matrix_per_trial_width():
    rests = [f', "a": "{a}", "b": "{b}"}}\n' for a, b in OUTCOMES]
    idx = np.arange(3 * BLOCK, dtype=np.uint8) % 4
    start = 10**5 - 7  # five-digit trials, then six-digit ones
    matrices = list(commands._event_lines(start, idx, [rest.encode() for rest in rests]))
    assert all(rows.dtype == np.uint8 and rows.ndim == 2 for rows in matrices)
    assert all(rows[:, -1].tolist() == [ord("\n")] * len(rows) for rows in matrices)
    assert [len(rows) for rows in matrices] == [7, len(idx) - 7]
    assert sum(len(rows) for rows in matrices) == len(idx)
    # Line by line: a failing == on the two ~13 MB strings makes pytest diff them for minutes.
    got = event_text(start, idx, rests).splitlines(keepends=True)
    want = reference_lines(start, idx.tolist(), rests).splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def test_sample_memory_does_not_grow_with_samples():
    def peak(samples):
        # With the collector off, the peak does not depend on when it runs.
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            assert main(["sample", "--samples", str(samples), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()

    peak(8 * BLOCK)  # a first run also holds what the first call of a command builds
    # The peak holds one block's lines, so both runs must reach a whole block of
    # six-digit trials (from 8 blocks) and no seven-digit one (to 61 blocks).
    small, large = peak(8 * BLOCK), peak(61 * BLOCK)
    # large - small held within -0.7..+2.9 KB over 60 repeats; a bytes(170)
    # kept per block, over the 53 extra blocks, is the smallest leak it catches.
    assert abs(large - small) <= 8 * 1024


def test_sample_stdout_and_file_bytes_are_identical(tmp_path):
    path = tmp_path / "events.jsonl"
    argv = [sys.executable, "-m", "biphoton", "sample", "--samples",
            str(BLOCK + 5), "--phi-a", "1.5", "--seed", "11"]
    to_stdout = subprocess.run([*argv, "--output", "-"], capture_output=True, check=True)
    to_file = subprocess.run([*argv, "--output", str(path)], capture_output=True, check=True)
    assert to_file.stdout == b""
    assert path.read_bytes() == to_stdout.stdout
    assert to_stdout.stdout.count(b"\n") == BLOCK + 5


def fail_after_first_chunk(monkeypatch):
    """Make the second matrix _event_lines yields fail to write."""
    chunks = []

    def event_lines(*args):
        for rows in real(*args):
            chunks.append(rows)
            if len(chunks) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield rows

    real = commands._event_lines
    monkeypatch.setattr(commands, "_event_lines", event_lines)
    return chunks


def test_failed_sample_leaves_existing_output_unchanged(tmp_path, capsys, monkeypatch):
    path = tmp_path / "events.jsonl"
    path.write_text("earlier run\n")
    chunks = fail_after_first_chunk(monkeypatch)
    code, out, err = run_cli(
        capsys, "sample", "--samples", str(2 * BLOCK), "--output", str(path)
    )
    assert len(chunks) == 2
    assert code == 1
    assert "No space left on device" in err
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["events.jsonl"]


def test_failed_sample_creates_no_output(tmp_path, capsys, monkeypatch):
    fail_after_first_chunk(monkeypatch)
    code, _, _ = run_cli(
        capsys, "sample", "--samples", str(2 * BLOCK),
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


def test_new_output_file_leaves_the_process_umask_alone(tmp_path, capsys, monkeypatch):
    # Setting the umask, even for an instant, sets it for every thread of the process.
    plain = tmp_path / "plain.csv"
    plain.write_text("")

    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    fresh = tmp_path / "fresh.csv"
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--output", str(fresh))
    assert code == 0, err
    assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "plain.csv"]


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
    # The line names the path given, not the temporary file made beside it
    target = tmp_path / "no-such-dir" / "out.csv"
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--output", str(target))
    assert code == 1
    assert err == f"biphoton: i/o error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert os.listdir(tmp_path) == []


def test_unwritable_state_dump_is_io_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "state.json"
    code, out, err = run_cli(capsys, "premeasure", "--dump-state", str(target),
                             "--output", os.devnull)
    assert (code, out) == (1, "")
    assert err == f"biphoton: i/o error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert os.listdir(tmp_path) == []


def test_full_device_under_state_dump_is_one_line_io_error():
    proc = subprocess.run([*BIPHOTON, "premeasure", "--dump-state", "/dev/full",
                           "--output", os.devnull], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"biphoton: i/o error: [Errno 28] No space left on device\n"


def test_file_size_limit_is_one_line_io_error_and_leaves_no_file(tmp_path):
    # RLIMIT_FSIZE is set in the child alone; Python ignores SIGXFSZ, so a write past
    # the limit fails with EFBIG rather than ending the process.
    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))

    proc = subprocess.run([*BIPHOTON, "sample", "--samples", "200000", "--output",
                           str(tmp_path / "F")], capture_output=True, timeout=60, preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"biphoton: i/o error: [Errno 27] File too large\n"
    assert os.listdir(tmp_path) == []


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

    # Patched where it is defined: each handler imports it from there when it runs
    home = "analysis" if allocator == "sweep_correlation" else "montecarlo"
    monkeypatch.setattr(f"biphoton.{home}.{allocator}", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == f"biphoton: out of memory: {message}\n"


# ---------------------------------------------------------------------------
# block sizes


# Draw sizes and grids that cross the joins of the default blocks (2**14
# draws, 1024 grid points) and of every size below
BLOCKED_COMMANDS = {
    "sample": ["sample", "--samples", "16390", "--seed", "3"],
    "sweep_mc_long_draws": ["sweep", "--steps", "3", "--mc", "16390,5"],
    "sweep_mc_long_grid": ["sweep", "--steps", "1030", "--mc", "20,7"],
    "marginals": ["marginals", "--steps", "2050", "--visibility", "0.5"],
    "bell": ["bell", "--optimal", "--samples", "16390", "--seed", "11"],
}


@pytest.mark.parametrize("argv", BLOCKED_COMMANDS.values(), ids=BLOCKED_COMMANDS)
def test_block_sizes_do_not_change_output(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    for block, chunk in [(7, 3), (1000, 1000), (2**16, 4096)]:
        monkeypatch.setattr("biphoton.montecarlo.BLOCK", block)
        monkeypatch.setattr(commands, "_GRID_CHUNK", chunk)
        assert run_cli(capsys, *argv) == expected, (block, chunk)


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
    # _csv_rows formats a varying field as bytes and a constant one as text: they must agree.
    assert commands._FLOAT.encode() % x == (commands._FLOAT % x).encode()


def per_field_rows(columns: list[list[float]]) -> bytes:
    """Every field of the columns printed on its own: the reference for _csv_rows."""
    rows = list(zip(*columns))
    fields = tuple(x for row in rows for x in row)
    return ((",".join(["%.9g"] * len(columns)) + "\n") * len(rows) % fields).encode()


# A value x and its neighbours either side of a 9-digit rounding boundary
STRADDLE = 1.000000005
assert len({commands._fmt(x) for x in (math.nextafter(STRADDLE, 0.0), STRADDLE,
                                        math.nextafter(STRADDLE, 2.0))}) == 2

# Blocks whose column ends tie, straddle or hide what the middle holds
EDGE_BLOCKS = {
    "signed_zeros": [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]],
    "nan_among_values": [[1.0, math.nan], [math.nan, 2.0], [1.0, 2.0]],
    "every_nan": [[math.nan], [math.nan]],
    "infinities": [[math.inf, -math.inf, math.inf], [math.inf, -math.inf, -math.inf]],
    "subnormals": [[5e-324, -5e-324, 1e-310], [5e-324, -5e-324, 1e-310], [5e-324, -1e-323, 2e-310]],
    "straddle": [[math.nextafter(STRADDLE, 0.0), -STRADDLE], [math.nextafter(STRADDLE, 2.0), -STRADDLE]],
    "one_row": [[0.5, -0.0, math.nan, math.inf, 5e-324]],
    "every_column_constant": [[0.5, -0.25, 1e-300, math.inf]] * 5,
    "equal_at_nine_digits": [[1.0, -3.0], [1.0000000001, -3.0000000001]],
}


@pytest.mark.parametrize("rows", EDGE_BLOCKS.values(), ids=EDGE_BLOCKS)
def test_csv_rows_equal_the_per_field_format_at_the_edges(rows):
    columns = [list(column) for column in zip(*rows)]
    assert commands._csv_rows(columns) == per_field_rows(columns)


def _near(x: float) -> list[float]:
    return [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]


# What one column draws its entries from
COLUMN_POOLS = st.one_of(
    st.floats().map(lambda x: [x]),
    st.floats().map(_near),
    st.just([0.0, -0.0]),
    st.floats().map(lambda x: [x, math.nan]),
    st.lists(st.floats(), min_size=1, max_size=4),
)


@given(st.data(), st.integers(1, 12), st.integers(1, 6))
def test_csv_rows_equal_the_per_field_format(data, n, k):
    pools = [data.draw(COLUMN_POOLS) for _ in range(k)]
    columns = [data.draw(st.lists(st.sampled_from(p), min_size=n, max_size=n)) for p in pools]
    assert commands._csv_rows(columns) == per_field_rows(columns)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton", "sample", "--samples", "3", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 3


def test_module_entry_point_keeps_usage_exit():
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton", "bell", "--seed", "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "biphoton bell: error: --seed must lie in [0, 2**64), got -1\n"


def test_main_never_freezes_the_collector(capsys):
    frozen = gc.get_freeze_count()
    assert main(["premeasure"]) == 0
    assert main(["bell", "--optimal", "--samples", "10"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_process_entry_freezes_start_up_objects():
    # As `python -m biphoton` runs; at interpreter exit the hook reads the freeze
    # count, and whether numpy's namespace, which loads inside main(), is still
    # in a generation the collector walks (frozen objects are in none). A
    # sample run loads numpy; the exact grids and premeasure load none.
    code = (
        "import atexit, gc, runpy, sys\n"
        "def report():\n"
        "    ns = vars(sys.modules['numpy'])\n"
        "    walked = any(o is ns for o in gc.get_objects())\n"
        "    print('frozen', gc.get_freeze_count(), gc.is_tracked(ns), walked)\n"
        "atexit.register(report)\n"
        "runpy.run_module('biphoton', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "sample", "--samples", "2", "--output", os.devnull],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("sampled 2 events") and proc.stderr.count("\n") == 1
    label, count, tracked, walked = proc.stdout.split()
    assert label == "frozen" and int(count) > 0
    assert tracked == "True" and walked == "False"


def test_console_script_is_the_process_entry():
    # Read as text: tomllib is not in Python 3.10.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^biphoton\s*=\s*"([^"]*)"', scripts, re.M) == ["biphoton.cli:run"]


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


def run_without_stdout(*args, cwd=None):
    """`python -m biphoton ARGS >&-`, in cwd: the command starts with fd 1 closed. The child
    imports the biphoton this process did, whatever cwd is."""
    src = str(Path(commands.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        ["sh", "-c", 'exec "$0" -m biphoton "$@" >&-', sys.executable, *args],
        capture_output=True, timeout=60, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("argv", [["sample", "--samples", "3"], ["sweep", "--steps", "3"]])
def test_missing_stdout_is_one_line_io_error(argv):
    proc = run_without_stdout(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"biphoton: i/o error: ")
    assert proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("argv", [["sweep", "--steps", "3", "--output"],
                                  ["premeasure", "--output", os.devnull, "--dump-state"]],
                         ids=["sweep_output", "premeasure_dump_state"])
@pytest.mark.parametrize("spelling", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
def test_stdout_spelled_as_a_path_with_stdout_closed_names_that_path(tmp_path, argv, spelling):
    # With fd 1 closed the path names nothing, so it is a new file whose directory
    # (/proc/PID/fd) takes none: the one line names the path given, not a temporary name.
    proc = run_without_stdout(*argv, spelling, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == ("biphoton: i/o error: [Errno 2] No such file or directory:"
                           f" {spelling!r}\n").encode()
    assert os.listdir(tmp_path) == []


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


# ---------------------------------------------------------------------------
# --output spellings, against how the shell opened stdout

EARLIER = b"an earlier line\n"
BIPHOTON = [sys.executable, "-m", "biphoton"]


def run_with_stdout(how: str, log: Path, *argv: str) -> tuple[int, bytes, bytes]:
    """`biphoton ARGV | ...`, `> LOG` or `>> LOG`, after LOG is set to EARLIER: the child's
    status, its stderr, and the bytes on its stdout (for a file, all of LOG afterwards)."""
    log.write_bytes(EARLIER)
    if how == "pipe":
        proc = subprocess.run([*BIPHOTON, *argv], capture_output=True, timeout=60)
        return proc.returncode, proc.stderr, proc.stdout
    with open(log, "wb" if how == ">" else "ab") as handle:
        proc = subprocess.run([*BIPHOTON, *argv], stdout=handle, stderr=subprocess.PIPE,
                              timeout=60)
    return proc.returncode, proc.stderr, log.read_bytes()


@pytest.fixture(scope="module")
def sweep_csv():
    return subprocess.run([*BIPHOTON, "sweep", "--steps", "3"], capture_output=True,
                          check=True, timeout=60).stdout


@pytest.mark.parametrize("how", ["pipe", ">", ">>"])
@pytest.mark.parametrize("spelling", ["-", "/dev/stdout", "/dev/fd/1", "/proc/self/fd/1",
                                      "link", "log", os.devnull, "/dev/full"])
def test_output_spellings_against_how_stdout_is_opened(tmp_path, sweep_csv, spelling, how):
    # A path naming the file stdout is open on is stdout: a pipe is written, and a
    # `>>` file is appended to. The log file itself is stdout's only under > or >>.
    log = tmp_path / "log"
    (tmp_path / "link").symlink_to("/dev/stdout")
    path = str(tmp_path / spelling) if spelling in ("link", "log") else spelling
    status, err, written = run_with_stdout(how, log, "sweep", "--steps", "3", "--output", path)
    if spelling == "/dev/full":
        assert (status, err) == (1, b"biphoton: i/o error: [Errno 28] No space left on device\n")
    else:
        assert (status, err) == (0, b"")
    in_place = spelling in (os.devnull, "/dev/full")
    to_stdout = not in_place and (spelling != "log" or how != "pipe")
    assert written == (EARLIER if how == ">>" else b"") + (sweep_csv if to_stdout else b"")
    if how == "pipe":
        assert log.read_bytes() == (sweep_csv if spelling == "log" else EARLIER)
    assert sorted(os.listdir(tmp_path)) == ["link", "log"]


@pytest.fixture(scope="module")
def premeasure_streams():
    return subprocess.run([*BIPHOTON, "premeasure", "--dump-state", "-"], capture_output=True,
                          check=True, timeout=60)


@pytest.mark.parametrize("how", ["pipe", ">", ">>"])
@pytest.mark.parametrize("state,output", [("/dev/stdout", "/dev/fd/1"), ("log", "log")])
def test_premeasure_state_and_report_may_both_name_stdout(tmp_path, premeasure_streams, state,
                                                         output, how):
    # Two flags that name stdout's file write both documents through it, as `-` does;
    # one regular file that is not stdout's stays a usage error.
    log = tmp_path / "log"
    state, output = (str(tmp_path / p) if p == "log" else p for p in (state, output))
    status, err, written = run_with_stdout(how, log, "premeasure", "--dump-state", state,
                                           "--output", output)
    before = EARLIER if how == ">>" else b""
    if how == "pipe" and state == str(log):
        assert (status, written, log.read_bytes()) == (2, b"", EARLIER)
        assert err == ("biphoton premeasure: error: --dump-state and --output name the same"
                       f" file {str(log)!r}\n").encode()
    else:
        assert (status, err, written) == (0, premeasure_streams.stderr,
                                          before + premeasure_streams.stdout)


# ---------------------------------------------------------------------------
# signals


# Command lines that write their --output file for longer than a test waits
LONG_RUNS = {
    "sample": ["sample", "--samples", "100000000"],
    "sweep_mc": ["sweep", "--steps", "100000000", "--mc", "1000,1"],
}


def start_long_run(argv, target: Path, ignored: str | None = None) -> subprocess.Popen:
    """Run the process entry on argv + --output target, as the console script
    does, with SIGINT, SIGTERM and SIGHUP at their default actions (the one
    named ignored at SIG_IGN); return once its temporary file exists."""
    code = (
        "import signal, sys\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "for name in ('SIGTERM', 'SIGHUP'):\n"
        f"    action = signal.SIG_IGN if name == {ignored!r} else signal.SIG_DFL\n"
        "    signal.signal(getattr(signal, name), action)\n"
        "from biphoton.cli import run\n"
        "run()\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code, *argv, "--output", str(target)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60
    while not any(p.name.startswith(".biphoton-") for p in target.parent.iterdir()):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(f"no temporary file: {proc.communicate()[1]!r}")
        time.sleep(0.01)
    return proc


@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM", "SIGHUP"])
@pytest.mark.parametrize("argv", LONG_RUNS.values(), ids=LONG_RUNS)
def test_a_signal_ends_the_run_in_one_line_and_leaves_no_temporary_file(tmp_path, argv, signame):
    target = tmp_path / "out"
    target.write_text("earlier run\n")
    proc = start_long_run(argv, target)
    try:
        proc.send_signal(getattr(signal, signame))
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == f"biphoton: stopped by {signame}\n".encode()
    assert os.listdir(tmp_path) == ["out"]
    assert target.read_text() == "earlier run\n"


def test_a_hangup_ignored_at_start_stays_ignored(tmp_path):
    # As under nohup: the run goes on past SIGHUP, and still stops on SIGTERM.
    proc = start_long_run(LONG_RUNS["sample"], tmp_path / "out", ignored="SIGHUP")
    try:
        proc.send_signal(signal.SIGHUP)
        time.sleep(0.2)
        assert proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b"biphoton: stopped by SIGTERM\n"
    assert os.listdir(tmp_path) == []
