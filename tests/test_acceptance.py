"""Acceptance suite: one test per shipped guarantee, each printing a PASS
line with its runtime (run with ``pytest tests/test_acceptance.py -s``).

Tolerances are pinned here and nowhere else; sampled checks use fixed seeds
so every value below is reproducible bit-for-bit.
"""

import cmath
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from biphoton.analysis import (
    CHSH_OPTIMAL,
    chsh,
    correlation,
    l1_coherence,
    marginals,
    purity,
    sweep_correlation,
)
from biphoton.linalg import apply, density_of, ket, partial_trace, tensor
from biphoton.montecarlo import bell_experiment, estimate_counts, sample_counts
from biphoton.optics import (
    A_PATHS,
    PhaseSettings,
    Visibility,
    joint_distribution,
    joint_tables,
    phased_biphoton_state,
    superposed_state,
)
from biphoton.premeasure import (
    correlation_report,
    detector_coupling,
    detector_ready,
    premeasure,
)
from biphoton.rng import derive_seed

from oracles import joint_probs_reference

EXACT = 1e-12
PHASE_TOL = 1e-9
SQRT2 = math.sqrt(2.0)

VISIBILITY_SET = (0.0, 0.5, 1 / SQRT2, 1.0)
THETA_GRID = [2 * math.pi * k / 16 for k in range(16)]


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(criterion: int, message: str, watch: Stopwatch, limit: float):
    assert watch.elapsed < limit, (
        f"criterion {criterion} exceeded its {limit:.0f}s budget: {watch.elapsed:.2f}s"
    )
    print(f"PASS criterion {criterion}: {message} ({watch.elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_singles_flat_on_settings_grid():
    with Stopwatch() as watch:
        grid = [2 * math.pi * i / 64 for i in range(64)]
        for v in VISIBILITY_SET:
            vis = Visibility(v)
            for phi_a in grid:
                for phi_b in grid:
                    m = marginals(joint_distribution(PhaseSettings(phi_a, phi_b), vis).probs.values())
                    for p in m:
                        assert abs(p - 0.5) < EXACT
    report(1, "all singles equal 1/2 on a 64x64 settings grid, four visibilities", watch, 1.0)


def test_criterion_2_fringe_exact_and_sampled():
    with Stopwatch() as watch:
        delta_grid = np.linspace(0.0, math.pi, 256)
        for v in (0.5, 1.0):
            result = sweep_correlation(delta_grid, Visibility(v))
            for delta, e in zip(result.delta_grid, result.correlations):
                assert abs(e - v * math.cos(delta)) < EXACT

        test_points = np.linspace(0.0, math.pi, 16)
        misses = 0
        for i, delta in enumerate(test_points):
            probs = joint_tables(float(delta), 0.0, Visibility(1.0))
            est = estimate_counts(sample_counts(probs, 100_000, derive_seed(20260810, i)))
            if abs(est.estimate - math.cos(delta)) > 4 * est.stderr:
                misses += 1
        assert misses <= 2
    report(2, f"E = v cos(delta) exactly; sampled fringe within 4 sigma at {16 - misses}/16 points", watch, 10.0)


def test_criterion_3_matched_settings_never_mismatch():
    with Stopwatch() as watch:
        counts = sample_counts(joint_tables(0.6, 0.6, Visibility(1.0)), 10_000, 123)
        # Outcome indices 1 and 2 are (+,-) and (-,+).
        assert counts[1] == counts[2] == 0
        assert counts.sum() == 10_000
    report(3, "10^4 coincidences at equal settings, zero mismatches", watch, 1.0)


def test_criterion_4_bell_violation_and_visibility_threshold():
    with Stopwatch() as watch:
        s_exact = chsh(CHSH_OPTIMAL, Visibility(1.0))
        assert abs(s_exact - 2 * SQRT2) < 1e-9

        sampled = bell_experiment(CHSH_OPTIMAL, Visibility(1.0), 100_000, 20260810)
        assert sampled.estimate - 2.0 > 5 * sampled.stderr

        s_below = chsh(CHSH_OPTIMAL, Visibility(0.65))
        assert s_below < 2.0
    report(
        4,
        f"S_exact = 2*sqrt2; sampled S beats 2 by {(sampled.estimate - 2.0) / sampled.stderr:.0f} "
        "standard errors; v = 0.65 stays classical",
        watch,
        10.0,
    )


def test_criterion_5_coherence_moves_to_the_composite():
    with Stopwatch() as watch:
        for phi_a, phi_b in [(0.0, 0.0), (1.1, 4.7), (2 * math.pi - 0.3, 0.9), (3.3, 3.3)]:
            rho = density_of(phased_biphoton_state(PhaseSettings(phi_a, phi_b)))
            rho_a, rho_b = partial_trace(rho, 0), partial_trace(rho, 1)
            assert l1_coherence(rho_a) < EXACT
            assert l1_coherence(rho_b) < EXACT
            assert abs(purity(rho_a) - 0.5) < EXACT
            assert abs(purity(rho) - 1.0) < EXACT
            assert abs(l1_coherence(rho) - 1.0) < EXACT
    report(5, "subsystems flat (l1 = 0, purity 1/2) while the composite keeps l1 = 1", watch, 1.0)


def test_criterion_6_coupling_is_linear_and_nondisturbing():
    with Stopwatch() as watch:
        target = tensor(superposed_state(0.0), detector_ready())
        coupled = apply(detector_coupling(), target)
        expected = np.zeros(6, dtype=complex)
        expected[1] = expected[5] = 1 / SQRT2
        overlap = np.vdot(expected, premeasure(0.0).amplitudes)
        assert abs(abs(overlap) ** 2 - 1.0) < EXACT
        assert np.max(np.abs(coupled.amplitudes - premeasure(0.0).amplitudes)) < EXACT

        u = detector_coupling()
        branch = [
            apply(u, tensor(ket((A_PATHS,), f"A{i}"), detector_ready())).amplitudes
            for i in (1, 2)
        ]
        for theta in THETA_GRID:
            weights = superposed_state(theta).amplitudes
            predicted = weights[0] * branch[0] + weights[1] * branch[1]
            assert np.max(np.abs(premeasure(theta).amplitudes - predicted)) < EXACT

        for i in (1, 2):
            out = apply(u, tensor(ket((A_PATHS,), f"A{i}"), detector_ready()))
            rho_sys = partial_trace(density_of(out), 0)
            ideal = density_of(ket((A_PATHS,), f"A{i}")).entries
            assert np.max(np.abs(rho_sys.entries - ideal)) < EXACT
    report(6, "coupled state exact, linear over 16 phases, eigenstates undisturbed", watch, 1.0)


def test_criterion_7_correlations_carry_the_phase():
    with Stopwatch() as watch:
        for theta in THETA_GRID:
            rep = correlation_report(premeasure(theta))
            off_dyad = (
                rep.joint_probs["A1"]["D2"]
                + rep.joint_probs["A2"]["D1"]
                + rep.joint_probs["A1"]["ready"]
                + rep.joint_probs["A2"]["ready"]
            )
            assert off_dyad < EXACT
            assert abs(rep.conditional_probs["A1"]["D1"] - 1.0) < EXACT
            assert abs(rep.conditional_probs["A2"]["D2"] - 1.0) < EXACT
            assert abs(rep.joint_probs["A1"]["D1"] - 0.5) < EXACT
            assert abs(rep.joint_probs["A2"]["D2"] - 0.5) < EXACT
            cc = rep.correlation_coherence
            assert abs(abs(cc) - 0.5) < EXACT
            assert abs(cc - 0.5 * cmath.exp(-1j * theta)) < PHASE_TOL
    report(7, "no off-pair weight, unit conditionals, cross-pair element 1/2 e^{-i theta}", watch, 1.0)


def test_criterion_8_matches_independent_amplitude_expansion():
    with Stopwatch() as watch:
        rng = np.random.default_rng(8)
        for _ in range(1000):
            phi_a = float(rng.uniform(0.0, 2 * math.pi))
            phi_b = float(rng.uniform(0.0, 2 * math.pi))
            v = float(rng.uniform(0.0, 1.0))
            j = joint_distribution(PhaseSettings(phi_a, phi_b), Visibility(v))
            ref = joint_probs_reference(phi_a, phi_b, v)
            for pair, p in j.probs.items():
                assert abs(p - ref[pair]) < EXACT
            assert abs(correlation(j.probs.values()) - (ref[("+", "+")] + ref[("-", "-")] - ref[("+", "-")] - ref[("-", "+")])) < EXACT
    report(8, "joint table equals the hand-expanded oracle on 1000 random settings", watch, 1.0)


def _run(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton", *args], capture_output=True, check=True
    )
    return proc.stdout


def test_criterion_9_cli_outputs_are_byte_stable():
    with Stopwatch() as watch:
        sample_args = ["sample", "--phi-a", "pi/3", "--phi-b", "0.2",
                       "--samples", "10000", "--seed", "99"]
        bell_args = ["bell", "--optimal", "--visibility", "0.9",
                     "--samples", "10000", "--seed", "99"]
        sample_runs = [
            _run(sample_args + ["--threads", t]) for t in ("1", "4", "1")
        ]
        bell_runs = [
            _run(bell_args + ["--threads", t]) for t in ("1", "4", "1")
        ]
        assert sample_runs[0] == sample_runs[1] == sample_runs[2]
        assert bell_runs[0] == bell_runs[1] == bell_runs[2]
        assert sample_runs[0].count(b"\n") == 10000
    report(9, "sample and bell byte-identical across repeat runs and thread counts", watch, 10.0)
