import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.analysis import CHSH_OPTIMAL, ChshSettings
from biphoton.montecarlo import (
    EstimatorResult,
    bell_experiment,
    estimate_correlation,
    estimate_outcomes,
    sample_events,
    sample_outcomes,
)
from biphoton.optics import (
    OUTCOMES,
    JointDistribution,
    PhaseSettings,
    Visibility,
    joint_distribution,
)
from biphoton.rng import SplitMix64, derive_seed

from oracles import splitmix64_reference

SQRT2 = math.sqrt(2.0)


def table_at(delta: float, v: float) -> JointDistribution:
    return joint_distribution(PhaseSettings(delta, 0.0), Visibility(v))


# ---------------------------------------------------------------------------
# generator


def test_splitmix64_canonical_seed_zero():
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix64_frozen_seed_42():
    gen = SplitMix64(42)
    assert [gen.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_splitmix64_doubles_from_top_53_bits():
    gen = SplitMix64(42)
    assert gen.next_double() == (13679457532755275413 >> 11) * 2.0**-53
    assert gen.next_double() == pytest.approx(0.1599103928769201, abs=0)


@given(st.integers(0, 2**64 - 1), st.integers(0, 300))
@settings(max_examples=60)
def test_splitmix64_matches_reference_transcription(seed, n):
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(n)] == splitmix64_reference(seed, n)


@given(st.integers(0, 2**64 - 1), st.integers(1, 500))
@settings(max_examples=60)
def test_vectorized_doubles_equal_scalar_stream(seed, n):
    block = SplitMix64(seed).doubles(n)
    scalar = SplitMix64(seed)
    assert [scalar.next_double() for _ in range(n)] == list(block)


def test_doubles_advance_state_like_scalar_calls():
    a, b = SplitMix64(9), SplitMix64(9)
    a.doubles(100)
    for _ in range(100):
        b.next_double()
    assert a.next_u64() == b.next_u64()


def test_doubles_live_in_unit_interval():
    u = SplitMix64(123).doubles(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_derive_seed_is_first_output_of_shifted_state():
    for seed, k in [(0, 0), (42, 3), (2**63, 7)]:
        assert derive_seed(seed, k) == SplitMix64(seed + k).next_u64()


# ---------------------------------------------------------------------------
# event sampling


def test_sampling_is_deterministic():
    j = table_at(0.8, 0.9)
    assert sample_events(j, 500, 77) == sample_events(j, 500, 77)


def test_sampling_rejects_zero_events():
    with pytest.raises(ValueError, match="at least one"):
        sample_events(table_at(0, 1), 0, 1)
    with pytest.raises(ValueError, match="at least one"):
        sample_outcomes(table_at(0, 1), 0, 1)


def test_trial_indices_strictly_increase():
    events = sample_events(table_at(1.0, 0.5), 50, 3)
    assert [e.trial for e in events] == list(range(50))


def test_matched_settings_give_identical_outcomes():
    events = sample_events(table_at(0.0, 1.0), 2000, 11)
    assert all(e.outcome_a == e.outcome_b for e in events)


def test_uniform_table_frequencies():
    # 4-sigma binomial band around 1/4 at a million draws.
    events = sample_events(table_at(0.0, 0.0), 1_000_000, 2026)
    counts = {pair: 0 for pair in OUTCOMES}
    for e in events:
        counts[(e.outcome_a, e.outcome_b)] += 1
    band = 4 * math.sqrt(0.25 * 0.75 / 1_000_000)
    assert band < 0.002
    for pair in OUTCOMES:
        assert abs(counts[pair] / 1_000_000 - 0.25) < 0.002


# ---------------------------------------------------------------------------
# array core against the per-event views


@given(
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(2, 50_000),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=40, deadline=None)
def test_outcome_array_equals_event_records(phi_a, phi_b, v, n, seed):
    j = joint_distribution(PhaseSettings(phi_a, phi_b), Visibility(v))
    idx = sample_outcomes(j, n, seed)
    events = sample_events(j, n, seed)
    assert idx.dtype == np.uint8
    assert [OUTCOMES[k] for k in idx] == [(e.outcome_a, e.outcome_b) for e in events]
    from_array, from_events = estimate_outcomes(idx), estimate_correlation(events)
    assert from_array.estimate == from_events.estimate
    assert from_array.stderr == from_events.stderr
    assert from_array.n == from_events.n == n


@given(
    st.floats(-10.0, 10.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(1, 300),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=40, deadline=None)
def test_outcome_array_matches_scalar_inverse_cdf(delta, v, n, seed):
    j = table_at(delta, v)
    cdf, total = [], 0.0
    for pair in OUTCOMES:
        total += j.probs[pair]
        cdf.append(total)
    gen = SplitMix64(seed)
    expected = []
    for _ in range(n):
        u = gen.next_double()
        expected.append(min(sum(c <= u for c in cdf), 3))
    assert sample_outcomes(j, n, seed).tolist() == expected


# ---------------------------------------------------------------------------
# correlation estimator


def test_all_match_stream_estimate():
    events = sample_events(table_at(0.0, 1.0), 100, 5)
    result = estimate_correlation(events)
    assert result == EstimatorResult(estimate=1.0, stderr=0.0, n=100)


def test_estimate_requires_two_events():
    events = sample_events(table_at(0.0, 1.0), 1, 5)
    with pytest.raises(ValueError, match="n >= 2"):
        estimate_correlation(events)
    with pytest.raises(ValueError, match="n >= 2"):
        estimate_outcomes(sample_outcomes(table_at(0.0, 1.0), 1, 5))


def test_estimate_at_zero_correlation():
    # E = 0 at a quarter turn; 4 sigma of the +-1 score is 4/sqrt(n).
    result = estimate_correlation(sample_events(table_at(math.pi / 2, 1.0), 100_000, 17))
    assert abs(result.estimate) < 4 / math.sqrt(100_000)
    assert abs(result.estimate) < 0.0127


def test_estimate_at_half_correlation():
    # E = 0.5 at matched settings with v = 0.5; Var(s) = 1 - E^2 = 0.75.
    result = estimate_correlation(sample_events(table_at(0.0, 0.5), 100_000, 23))
    assert abs(result.estimate - 0.5) < 4 * math.sqrt(0.75 / 100_000)
    assert abs(result.estimate - 0.5) < 0.011


def test_estimates_match_exact_fringe_on_a_grid():
    # At most 2 of 16 grid points may sit outside their own 4-sigma band.
    grid = np.linspace(0.0, math.pi, 16)
    misses = 0
    for i, delta in enumerate(grid):
        est = estimate_correlation(sample_events(table_at(float(delta), 1.0), 10_000, derive_seed(404, i)))
        band = 4 * est.stderr
        if abs(est.estimate - math.cos(delta)) > band:
            misses += 1
    assert misses <= 2


def test_singles_stay_flat_at_finite_statistics():
    # Party A's + frequency within 4 sigma of 1/2 while phi_b scans.
    n = 20_000
    for i, phi_b in enumerate(np.linspace(0.0, 2 * math.pi, 8, endpoint=False)):
        j = joint_distribution(PhaseSettings(0.4, float(phi_b)), Visibility(1.0))
        events = sample_events(j, n, derive_seed(808, i))
        freq = sum(1 for e in events if e.outcome_a == "+") / n
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / n)


def test_stderr_scales_as_inverse_root_n():
    small = estimate_correlation(sample_events(table_at(math.pi / 3, 1.0), 1_000, 91))
    large = estimate_correlation(sample_events(table_at(math.pi / 3, 1.0), 100_000, 92))
    assert small.stderr / large.stderr == pytest.approx(10.0, rel=0.1)


# ---------------------------------------------------------------------------
# Bell runs


def test_bell_experiment_detects_violation():
    result = bell_experiment(CHSH_OPTIMAL, Visibility(1.0), 100_000, 1)
    assert abs(result.estimate - 2 * SQRT2) < 4 * result.stderr
    assert result.estimate - 2.0 > 5 * result.stderr
    assert result.n == 400_000


def test_bell_experiment_below_threshold_visibility():
    v = 1 / SQRT2 - 0.05
    result = bell_experiment(CHSH_OPTIMAL, Visibility(v), 1_000_000, 2)
    assert result.estimate < 2.0 + 4 * result.stderr
    assert result.estimate == pytest.approx(2 * SQRT2 * v, abs=4 * result.stderr)


def test_bell_experiment_with_blind_instrument():
    result = bell_experiment(CHSH_OPTIMAL, Visibility(0.0), 10_000, 3)
    assert abs(result.estimate) < 4 * result.stderr


def test_bell_experiment_is_deterministic():
    sequential = bell_experiment(CHSH_OPTIMAL, Visibility(0.8), 5_000, 7)
    repeat = bell_experiment(CHSH_OPTIMAL, Visibility(0.8), 5_000, 7)
    assert sequential == repeat


def test_bell_experiment_needs_two_events_per_setting():
    with pytest.raises(ValueError, match="n_per_setting"):
        bell_experiment(ChshSettings(0, 0, 0, 0), Visibility(1.0), 1, 5)


def test_estimator_result_validation():
    with pytest.raises(ValueError, match="stderr"):
        EstimatorResult(estimate=0.0, stderr=-1.0, n=10)
    with pytest.raises(ValueError, match="count"):
        EstimatorResult(estimate=0.0, stderr=0.0, n=0)
