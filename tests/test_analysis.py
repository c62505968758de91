import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import analysis
from biphoton.analysis import (
    CHSH_OPTIMAL,
    ChshSettings,
    chsh,
    correlation,
    fringe_visibility,
    l1_coherence,
    marginals,
    no_signaling_check,
    purity,
    sweep_correlation,
)
from biphoton.linalg import density_of, partial_trace
from biphoton.optics import (
    PhaseSettings,
    Visibility,
    biphoton_state,
    joint_distribution,
    phased_biphoton_state,
    superposed_state,
)

from oracles import chsh_reference

TOL = 1e-12
SQRT2 = math.sqrt(2.0)


def table_at(phi_a, phi_b, v):
    """joint_distribution's four probabilities, in OUTCOMES order."""
    return joint_distribution(PhaseSettings(phi_a, phi_b), Visibility(v)).probs.values()


# ---------------------------------------------------------------------------
# marginals and correlation


def test_marginals_of_circuit_table_are_half():
    m = marginals(table_at(0.7, 2.1, 1))
    np.testing.assert_allclose(list(m), [0.5] * 4, atol=TOL)


def test_marginals_of_uniform_table():
    m = marginals([0.25] * 4)
    np.testing.assert_allclose(list(m), [0.5] * 4, atol=TOL)


def test_marginals_of_deterministic_table():
    assert marginals([1.0, 0.0, 0.0, 0.0]) == (1.0, 0.0, 1.0, 0.0)


def test_marginal_pairs_sum_to_one():
    m = marginals(table_at(1.0, 0.25, 0.6))
    assert abs(m.a_plus + m.a_minus - 1.0) < TOL
    assert abs(m.b_plus + m.b_minus - 1.0) < TOL


def test_correlation_at_matched_settings():
    e = correlation(table_at(0, 0, 1))
    assert e == pytest.approx(1.0, abs=TOL)


def test_correlation_at_quarter_turn():
    e = correlation(table_at(math.pi / 2, 0, 1))
    assert e == pytest.approx(0.0, abs=TOL)


def test_correlation_at_pi_with_reduced_visibility():
    e = correlation(table_at(math.pi, 0, 0.8))
    assert e == pytest.approx(-0.8, abs=TOL)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_endpoints_and_midpoint():
    result = sweep_correlation([0.0, math.pi / 2, math.pi], Visibility(1))
    np.testing.assert_allclose(result.correlations, [1.0, 0.0, -1.0], atol=TOL)


def test_sweep_mixed_limit():
    result = sweep_correlation([0.0], Visibility(0))
    assert result.correlations.tolist() == [0.0]


def test_sweep_singles_are_flat():
    result = sweep_correlation(np.linspace(0, 2 * math.pi, 32), Visibility(1))
    for m in np.transpose(result.singles).tolist():
        np.testing.assert_allclose(m, [0.5] * 4, atol=TOL)


@pytest.mark.parametrize(
    "bad,message",
    [
        ([1.0, -0.5, -0.5, 1.0], "correlation outside"),  # E = 3
        ([math.nan, 0.25, 0.25, 0.25], "correlation outside"),
        ([0.9, 0.3, -0.1, -0.1], "marginal outside"),  # E = 0.6, P(A+) = 1.2
    ],
)
def test_sweep_rejects_tables_outside_the_ranges(monkeypatch, bad, message):
    def table(deltas, phi_b, vis):
        return np.repeat(np.array(bad)[:, None], len(deltas), axis=1)

    monkeypatch.setattr(analysis, "joint_tables", table)
    with pytest.raises(ValueError, match=message):
        sweep_correlation([0.0, 1.0], Visibility(1))


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        sweep_correlation([], Visibility(1))


@pytest.mark.parametrize("v", [0.0, 0.3, 1 / SQRT2, 1.0])
def test_sweep_matches_cosine_on_dense_grid(v):
    grid = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    result = sweep_correlation(grid, Visibility(v))
    expected = v * np.cos(grid)
    np.testing.assert_allclose(result.correlations, expected, atol=TOL)


# ---------------------------------------------------------------------------
# fringe visibility


def test_visibility_of_flat_singles_is_zero():
    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    result = sweep_correlation(grid, Visibility(1))
    singles_series = result.singles.a_plus.tolist()
    assert fringe_visibility(singles_series) == pytest.approx(0.0, abs=TOL)


@pytest.mark.parametrize("v", [0.25, 1 / SQRT2, 1.0])
def test_visibility_of_coincidence_series_equals_v(v):
    grid = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    series = [
        joint_distribution(PhaseSettings(d, 0.0), Visibility(v)).probs[("+", "+")]
        for d in grid
    ]
    assert fringe_visibility(series) == pytest.approx(v, abs=1e-9)


def test_visibility_near_bell_threshold_value():
    grid = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    series = [
        joint_distribution(PhaseSettings(d, 0.0), Visibility(1 / SQRT2)).probs[("+", "+")]
        for d in grid
    ]
    assert fringe_visibility(series) == pytest.approx(0.7071, abs=1e-4)


def test_visibility_of_constant_series_is_zero():
    assert fringe_visibility([0.4, 0.4, 0.4]) == 0.0


def test_visibility_of_all_zero_series_is_zero():
    assert fringe_visibility([0.0, 0.0]) == 0.0


def test_visibility_needs_two_values():
    with pytest.raises(ValueError, match="two values"):
        fringe_visibility([0.5])


# ---------------------------------------------------------------------------
# CHSH


def test_chsh_optimal_settings_reach_quantum_maximum():
    s = chsh(CHSH_OPTIMAL, Visibility(1))
    assert s == pytest.approx(2.828427, abs=1e-6)
    assert s == pytest.approx(chsh_reference(0, math.pi / 2, math.pi / 4, -math.pi / 4, 1.0), abs=TOL)


def test_chsh_at_threshold_visibility():
    assert chsh(CHSH_OPTIMAL, Visibility(1 / SQRT2)) == pytest.approx(2.0, abs=1e-6)


def test_chsh_degenerate_settings():
    assert chsh(ChshSettings(0, 0, 0, 0), Visibility(1)) == pytest.approx(2.0, abs=1e-6)


def test_chsh_scales_linearly_with_visibility():
    for v in np.arange(0.0, 1.0001, 0.01):
        s = chsh(CHSH_OPTIMAL, Visibility(float(v)))
        assert s == pytest.approx(2 * SQRT2 * v, abs=1e-9)
        # Violation occurs exactly above the 1/sqrt2 visibility threshold.
        assert (s > 2.0) == (v > 1 / SQRT2 + 1e-9)


@given(
    st.floats(-6.5, 6.5, allow_nan=False),
    st.floats(-6.5, 6.5, allow_nan=False),
    st.floats(-6.5, 6.5, allow_nan=False),
    st.floats(-6.5, 6.5, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_chsh_bounded_by_quantum_maximum(a, ap, b, bp, v):
    s = chsh(ChshSettings(a, ap, b, bp), Visibility(v))
    assert abs(s) <= 2 * SQRT2 * v + TOL


def test_chsh_matches_reference_on_random_settings():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, ap, b, bp = rng.uniform(0, 2 * math.pi, size=4)
        v = float(rng.uniform(0, 1))
        assert chsh(ChshSettings(a, ap, b, bp), Visibility(v)) == pytest.approx(
            chsh_reference(a, ap, b, bp, v), abs=TOL
        )


# ---------------------------------------------------------------------------
# coherence measures


def test_subsystems_of_entangled_pair_have_no_coherence():
    rho = density_of(biphoton_state())
    assert l1_coherence(partial_trace(rho, 0)) == pytest.approx(0.0, abs=TOL)
    assert l1_coherence(partial_trace(rho, 1)) == pytest.approx(0.0, abs=TOL)


def test_split_single_photon_has_unit_coherence():
    assert l1_coherence(density_of(superposed_state(0.0))) == pytest.approx(1.0, abs=TOL)


def test_composite_pair_has_unit_coherence():
    assert l1_coherence(density_of(biphoton_state())) == pytest.approx(1.0, abs=TOL)


def test_coherence_sits_in_the_composite_at_any_phases():
    rho = density_of(phased_biphoton_state(PhaseSettings(2.2, 0.4)))
    rho_a, rho_b = partial_trace(rho, 0), partial_trace(rho, 1)
    assert l1_coherence(rho_a) < TOL and l1_coherence(rho_b) < TOL
    assert purity(rho_a) == pytest.approx(0.5, abs=TOL)
    assert purity(rho_b) == pytest.approx(0.5, abs=TOL)
    assert l1_coherence(rho) == pytest.approx(1.0, abs=TOL)
    assert purity(rho) == pytest.approx(1.0, abs=TOL)


# ---------------------------------------------------------------------------
# no-signaling


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
def test_no_signaling_deviation_is_null(v):
    grid = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    assert no_signaling_check(1.234, grid, Visibility(v)) < TOL


def test_no_signaling_rejects_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        no_signaling_check(0.0, [], Visibility(1))


# ---------------------------------------------------------------------------
# one table call per grid equals the per-point loop, bit for bit


wide_angles = st.floats(-20.0, 20.0, allow_nan=False)
visibilities_with_ends = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(wide_angles, min_size=1, max_size=40), visibilities_with_ends)
def test_sweep_correlation_equals_per_point_loop(grid, v):
    grid = grid + [0.0, math.pi, 2 * math.pi]
    vis = Visibility(v)
    tables = [list(table_at(d, 0.0, v)) for d in grid]
    result = sweep_correlation(grid, vis)
    assert result.delta_grid.tolist() == grid
    assert result.correlations.tolist() == [correlation(t) for t in tables]
    assert np.transpose(result.singles).tolist() == [list(marginals(t)) for t in tables]
    assert result.tables.T.tolist() == tables


@settings(max_examples=100, deadline=None)
@given(wide_angles, wide_angles, wide_angles, wide_angles, visibilities_with_ends)
def test_chsh_equals_per_point_loop(a, ap, b, bp, v):
    s, vis = ChshSettings(a, ap, b, bp), Visibility(v)
    pairs = [(a, b), (a, bp), (ap, b), (ap, bp)]
    e = [correlation(table_at(pa, pb, v)) for pa, pb in pairs]
    assert chsh(s, vis) == e[0] + e[1] + e[2] - e[3]


@settings(max_examples=100, deadline=None)
@given(wide_angles, st.lists(wide_angles, min_size=1, max_size=40), visibilities_with_ends)
def test_no_signaling_check_equals_per_point_loop(phi_a, grid, v):
    vis = Visibility(v)
    worst = 0.0
    for phi in grid:
        m_a = marginals(table_at(phi_a, phi, v))
        worst = max(worst, abs(m_a.a_plus - 0.5))
        m_b = marginals(table_at(phi, phi_a, v))
        worst = max(worst, abs(m_b.b_plus - 0.5))
    assert no_signaling_check(phi_a, grid, vis) == worst
