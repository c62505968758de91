"""Runs of the experiment scripts at small sizes, and the claims they print."""

import csv
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton
from biphoton.rng import derive_seed

ROOT = Path(__file__).resolve().parent.parent


def run_script(script: str, *args: str) -> list[str]:
    """The stdout lines of scripts/script run with args, which must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def table(lines: list[str]) -> list[dict[str, str]]:
    """The CSV rows of a script's output, by header name; '#' lines are comments."""
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


@pytest.mark.parametrize(
    "script,args,header,rows",
    [
        ("visibility_threshold.py", ["--steps", "3", "--samples", "2000"],
         "v,S_exact,S_hat,stderr,decisive_violation", 4),
        ("coherence_budget.py", ["--points", "2"],
         "phi_a,phi_b,l1_A,purity_A,l1_B,purity_B,l1_AB,purity_AB,offdiag_phase_AB", 2),
        ("premeasure_phase_scan.py", ["--steps", "2"],
         "theta,P_A1D1,P_A2D2,off_pair_weight,l1_system,l1_detector,cross_modulus,cross_phase", 2),
    ],
)
def test_script_runs(script, args, header, rows):
    lines = run_script(script, *args)
    assert lines[0] == header
    assert len(lines) == 1 + rows


def test_visibility_threshold_prints_s_exact_2_sqrt2_v():
    rows = table(run_script("visibility_threshold.py", "--samples", "2"))
    assert len(rows) == 21
    for row in rows:
        assert row["S_exact"] == f"{2 * math.sqrt(2) * float(row['v']):.6f}"


def test_visibility_threshold_rows_share_no_sub_stream(monkeypatch):
    # derive_seed(S + 1, k) == derive_seed(S, k + 1): rows seeded S + i would
    # share three of their four settings' streams with their neighbours.
    seeds = []
    draw = biphoton.bell_experiment  # the first read binds every root name

    def recording(settings, vis, n, seed):
        seeds.append(seed)
        return draw(settings, vis, n, seed)

    monkeypatch.setattr(biphoton, "bell_experiment", recording)
    monkeypatch.setattr(sys, "argv", ["visibility_threshold.py", "--samples", "2"])
    runpy.run_path(str(ROOT / "scripts" / "visibility_threshold.py"), run_name="__main__")
    sub_seeds = [derive_seed(seed, k) for seed in seeds for k in range(4)]
    assert len(seeds) == 21
    assert len(set(sub_seeds)) == len(sub_seeds)


def test_coherence_budget_keeps_the_coherence_in_the_pair():
    rows = table(run_script("coherence_budget.py", "--points", "8"))
    assert len(rows) == 8
    for row in rows:
        for photon in "AB":
            assert float(row[f"l1_{photon}"]) == 0.0
            assert row[f"purity_{photon}"] == "0.500000"
        assert row["l1_AB"] == row["purity_AB"] == "1.000000"
        # The pair's off-diagonal phase is phi_b - phi_a, each printed to 4 decimals
        drift = float(row["offdiag_phase_AB"]) - (float(row["phi_b"]) - float(row["phi_a"]))
        assert abs(math.remainder(drift, 2 * math.pi)) < 1.1e-4


def test_premeasure_phase_scan_moves_only_the_cross_phase():
    rows = table(run_script("premeasure_phase_scan.py", "--steps", "8"))
    assert [row["theta"] for row in rows][4] == "3.1416"  # where the phase is +-pi
    for row in rows:
        assert row["P_A1D1"] == row["P_A2D2"] == "0.500000"
        for name in ("off_pair_weight", "l1_system", "l1_detector"):
            assert float(row[name]) == 0.0
        assert row["cross_modulus"] == "0.500000"
        # The cross phase is -theta, theta printed to 4 decimals
        drift = float(row["cross_phase"]) + float(row["theta"])
        assert abs(math.remainder(drift, 2 * math.pi)) < 5.1e-5
