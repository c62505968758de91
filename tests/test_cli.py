import json
import math
import subprocess
import sys

import pytest

from biphoton.analysis import correlation, marginals
from biphoton.cli import main, parse_angle
from biphoton.montecarlo import estimate_outcomes, sample_outcomes
from biphoton.optics import PhaseSettings, Visibility, joint_distribution
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
        est = estimate_outcomes(sample_outcomes(j, 50, derive_seed(11, index)))
        fields = [delta, correlation(j), *j.probs.values(), m.a_plus, m.b_plus,
                  est.estimate, est.stderr]
        assert sweep_rows[index] == ",".join(format(x, ".9g") for x in fields)
        assert marg_rows[index] == ",".join(format(x, ".9g") for x in (delta, *m))


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


def test_unwritable_output_is_io_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--output", str(target))
    assert code == 1
    assert "i/o error" in err


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


def test_floats_printed_with_nine_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--delta-min", "pi/7", "--delta-max", "pi", "--steps", "2")
    first = out.strip().splitlines()[1].split(",")
    assert first[0] == "0.448798951"  # pi/7 at 9 significant digits


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
