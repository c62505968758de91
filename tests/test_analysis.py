import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import analysis, optics
from biphoton.analysis import (
    Marginals,
    chsh,
    correlation,
    marginals,
    no_signaling_check,
    sweep_correlation,
)
from biphoton.linalg import (
    biphoton_state,
    density_of,
    l1_coherence,
    partial_trace,
    phased_biphoton_state,
    purity,
    superposed_state,
)
from biphoton.optics import (
    CHSH_OPTIMAL,
    ChshSettings,
    PhaseSettings,
    Visibility,
    joint_distribution,
)

from oracles import chsh_reference

TOL = 1e-12
SQRT2 = math.sqrt(2.0)


def table_at(phi_a, phi_b, v):
    """joint_distribution's four probabilities, in OUTCOMES order."""
    return joint_distribution(PhaseSettings(phi_a, phi_b), Visibility(v))


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
    assert result.correlations == [0.0]


def test_sweep_singles_are_flat():
    result = sweep_correlation(np.linspace(0, 2 * math.pi, 32), Visibility(1))
    assert [len(column) for column in result.singles] == [32] * 4
    for column in result.singles:
        np.testing.assert_allclose(column, [0.5] * 32, atol=TOL)


def assert_rejected_at_every_position(monkeypatch, bad, message):
    """sweep_correlation raises ValueError(message) when the table bad stands at
    any one point of a three-point grid whose other tables are the circuit's."""
    for k in range(3):
        def tables(phis_a, phi_b, vis, k=k):
            circuit = optics.fringe_tables(phis_a, phi_b, vis)
            circuit[k] = tuple(bad)
            return circuit

        monkeypatch.setattr(analysis, "fringe_tables", tables)
        with pytest.raises(ValueError, match=message):
            sweep_correlation([0.0, 1.0, 2.0], Visibility(1))


@pytest.mark.parametrize(
    "bad,message",
    [
        ([1.0, -0.5, -0.5, 1.0], "correlation outside"),  # E = 3
        ([math.nan, 0.25, 0.25, 0.25], "correlation outside"),
        ([0.9, 0.3, -0.1, -0.1], "marginal outside"),  # E = 0.6, P(A+) = 1.2
    ],
)
def test_sweep_rejects_tables_outside_the_ranges(monkeypatch, bad, message):
    assert_rejected_at_every_position(monkeypatch, bad, message)


# Tables on the edges of the ranges: E at +1 or -1, every single at 0 or 1.
@pytest.mark.parametrize("edge", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
def test_sweep_accepts_tables_on_the_range_ends(monkeypatch, edge):
    def tables(phis_a, phi_b, vis):
        return [tuple(edge) for _ in phis_a]

    monkeypatch.setattr(analysis, "fringe_tables", tables)
    result = sweep_correlation([0.0, 1.0], Visibility(1))
    assert result.correlations == [correlation(edge)] * 2
    assert sorted({p for column in result.singles for p in column}) == [0.0, 1.0]


ULP_PAST_ONE = 1.0 + 2.0**-52


@pytest.mark.parametrize(
    "bad,message",
    [
        ([ULP_PAST_ONE, 0.0, 0.0, 0.0], "correlation outside"),  # E = 1 + 2**-52
        ([0.0, ULP_PAST_ONE, 0.0, 0.0], "correlation outside"),  # E = -1 - 2**-52
        ([0.5, 0.5 + 2.0**-52, 0.0, 0.0], "marginal outside"),  # P(A+) = 1 + 2**-52
        ([0.25, 0.25, math.nan, 0.25], "correlation outside"),
    ],
)
def test_sweep_rejects_tables_an_ulp_outside_the_ranges(monkeypatch, bad, message):
    assert_rejected_at_every_position(monkeypatch, bad, message)


def test_sweep_forms_the_b_phase_factor_once(monkeypatch):
    # No output byte shows it: B's setting is one per sweep, so its phase
    # factor is one cmath.exp call, and each grid point's A factor one more.
    calls = []

    def counting_exp(z):
        calls.append(z)
        return cmath.exp(z)

    monkeypatch.setattr(optics, "cmath", SimpleNamespace(exp=counting_exp))
    n = 37
    sweep_correlation([0.1 * k for k in range(n)], Visibility(0.9))
    assert len(calls) == n + 1


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


def signaling_tables(party: str):
    """A stand-in for joint_tables in which party's singles follow the other
    party's setting: P(party +) = 1/2 + sin(remote phase)/20, the other party's
    singles stay at 1/2, and the four entries still sum to 1."""

    def tables(phi_a, phi_b, vis):
        s = 0.05 * math.sin(phi_b if party == "A" else phi_a)
        q = 0.25
        if party == "A":  # P(A+) = pp + pm
            return (q + s, q, q - s, q)
        return (q + s, q - s, q, q)  # P(B+) = pp + mp

    return tables


@pytest.mark.parametrize("party", ["A", "B"])
def test_no_signaling_check_reads_each_partys_scan(monkeypatch, party):
    # The scan that moves B's setting must be read at A's singles, and the one
    # that moves A's setting at B's: at phi_a = 0 the other rows stay flat.
    tables = signaling_tables(party)
    monkeypatch.setattr(analysis, "joint_tables", tables)
    monkeypatch.setattr(analysis, "fringe_tables",
                        lambda phis_a, phi_b, vis: [tables(pa, phi_b, vis) for pa in phis_a])
    grid = [0.3, 1.2, 2.0, -0.7]
    worst = no_signaling_check(0.0, grid, Visibility(1))
    assert worst == pytest.approx(max(0.05 * abs(math.sin(g)) for g in grid), abs=1e-15)
    assert worst > 0.04


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
    tables = [table_at(d, 0.0, v) for d in grid]
    result = sweep_correlation(grid, vis)
    assert result.delta_grid == grid
    assert result.correlations == [correlation(t) for t in tables]
    assert result.singles == Marginals(*map(list, zip(*[marginals(t) for t in tables])))
    assert result.tables == tables


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
