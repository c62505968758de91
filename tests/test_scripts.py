"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
