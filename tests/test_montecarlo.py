import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton.analysis import sweep_correlation
from biphoton.montecarlo import (
    BLOCK,
    EstimatorResult,
    bell_experiment,
    draw_outcomes,
    estimate_columns,
    estimate_correlation,
    estimate_counts,
    outcome_blocks,
    sample_counts,
    sample_events,
)
from biphoton.optics import (
    CHSH_OPTIMAL,
    OUTCOMES,
    ChshSettings,
    PhaseSettings,
    Visibility,
    joint_distribution,
    joint_tables,
)
from biphoton.rng import SplitMix64, derive_seed

from oracles import (
    pm1_estimate_reference,
    searchsorted_draw,
    splitmix64_reference,
    whole_array_draw,
)

SQRT2 = math.sqrt(2.0)


def table_at(delta: float, v: float) -> tuple[float, ...]:
    return joint_distribution(PhaseSettings(delta, 0.0), Visibility(v))


def draw(probs, n: int, seed: int) -> np.ndarray:
    """outcome_blocks for table probs, joined into one array."""
    return np.concatenate(list(outcome_blocks(probs, n, seed)))


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


def test_doubles_reject_a_negative_count_and_keep_the_state():
    rng = SplitMix64(3)
    with pytest.raises(ValueError) as err:
        rng.doubles(-1)
    assert str(err.value) == "n must be nonnegative, got -1"
    assert rng.next_u64() == SplitMix64(3).next_u64()


@given(st.integers(0, 2**64 - 1), st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=100)
def test_doubles_split_anywhere_equal_one_block(seed, a, b):
    split = SplitMix64(seed)
    first, second = split.doubles(a), split.doubles(b)
    assert np.concatenate([first, second]).tolist() == SplitMix64(seed).doubles(a + b).tolist()


def test_doubles_memory_is_two_arrays():
    n = 2**20
    tracemalloc.start()
    try:
        SplitMix64(5).doubles(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n  # the state array and the result, 8 bytes each a draw


def test_derive_seed_is_first_output_of_shifted_state():
    for seed, k in [(0, 0), (42, 3), (2**63, 7)]:
        assert derive_seed(seed, k) == SplitMix64(seed + k).next_u64()


def test_consecutive_seeds_share_all_but_one_sub_stream():
    # README and the rng docstring say so, and advise seeds spaced far apart.
    assert all(derive_seed(s + 1, k) == derive_seed(s, k + 1) for s in (0, 41, 2**63) for k in range(4))


# ---------------------------------------------------------------------------
# event sampling


def test_sampling_is_deterministic():
    j = table_at(0.8, 0.9)
    assert np.array_equal(sample_events(j, 500, 77), sample_events(j, 500, 77))


def test_sampling_rejects_zero_events():
    with pytest.raises(ValueError, match="at least one"):
        sample_events(table_at(0, 1), 0, 1)
    with pytest.raises(ValueError, match="at least one"):
        draw(table_at(0, 1), 0, 1)
    with pytest.raises(ValueError, match="at least one"):
        sample_counts(table_at(0, 1), 0, 1)


def test_matched_settings_give_identical_outcomes():
    # Only (+,+) and (-,-), indices 0 and 3 of OUTCOMES, occur.
    events = sample_events(table_at(0.0, 1.0), 2000, 11)
    assert set(np.unique(events).tolist()) <= {0, 3}


def test_uniform_table_frequencies():
    # 4-sigma binomial band around 1/4 at a million draws. The stream is the
    # one sample_events joins into one array (see
    # test_per_event_views_equal_the_core), counted by sample_counts.
    counts = sample_counts(table_at(0.0, 0.0), 1_000_000, 2026)
    band = 4 * math.sqrt(0.25 * 0.75 / 1_000_000)
    assert band < 0.002
    for count in counts:
        assert abs(count / 1_000_000 - 0.25) < 0.002


def chi2_sf_3dof(x: float) -> float:
    """Survival function of the chi-square distribution with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


def pearson_chi2(counts: np.ndarray, probs) -> float:
    expected = counts.sum() * np.asarray(probs)
    return float(((counts - expected) ** 2 / expected).sum())


def test_chi2_sf_3dof_reference_values():
    assert chi2_sf_3dof(0.0) == 1.0
    # Upper 5% and 0.1% points of chi-square with 3 degrees of freedom
    assert chi2_sf_3dof(7.814727903) == pytest.approx(0.05, rel=1e-8)
    assert chi2_sf_3dof(16.26623620) == pytest.approx(0.001, rel=1e-7)


@pytest.mark.parametrize(
    "delta,v",
    [(0.3, 0.9), (1.2, 0.5), (math.pi / 2, 1.0), (2.5, 0.7071067811865475), (math.pi, 0.2)],
)
def test_sampled_counts_fit_the_exact_table(delta, v):
    n = 200_000
    probs = joint_tables(delta, 0.0, Visibility(v))
    counts = np.bincount(draw(table_at(delta, v), n, 8128), minlength=4)
    assert chi2_sf_3dof(pearson_chi2(counts, probs)) > 0.001
    # The same counts against a table moved by 1% of its mass are rejected.
    biased = np.add(probs, [0.005, -0.005, 0.005, -0.005])
    assert chi2_sf_3dof(pearson_chi2(counts, biased)) < 1e-6


def test_package_root_exports_the_sampling_core():
    import biphoton
    from biphoton import estimate_counts as root_estimate
    from biphoton import outcome_blocks as root_blocks
    from biphoton import sample_counts as root_counts

    assert root_blocks is outcome_blocks
    assert root_counts is sample_counts
    assert root_estimate is estimate_counts
    assert {"outcome_blocks", "sample_counts", "estimate_counts"} <= set(biphoton.__all__)


# ---------------------------------------------------------------------------
# blocks and counts against the whole-array sampler and estimator


@pytest.mark.parametrize(
    "delta,v,seed", [(0.0, 1.0, 0), (1.1, 0.83, 2**64 - 1), (math.pi / 2, 0.0, 31337)]
)
def test_blocks_join_into_the_whole_array_draw(delta, v, seed):
    n = 2 * BLOCK + 3
    probs = table_at(delta, v)
    blocks = list(outcome_blocks(probs, n, seed))
    assert [len(b) for b in blocks] == [BLOCK, BLOCK, 3]
    joined = np.concatenate(blocks)
    assert (joined == whole_array_draw(probs, n, seed)).all()
    assert (sample_counts(probs, n, seed) == np.bincount(joined, minlength=4)).all()


def test_draws_past_the_table_total_are_the_last_outcome():
    # A cumulative sum that rounds below 1 leaves u in [total, 1) past every
    # entry; such draws count as (-,-). Here the gap is made wide on purpose.
    probs = [0.25, 0.25, 0.25, 0.2]
    idx = np.concatenate(list(outcome_blocks(probs, 1000, 3)))
    assert idx.max() == 3
    assert (idx == whole_array_draw(probs, 1000, 3)).all()


@pytest.mark.parametrize(
    "probs",
    [
        table_at(0.0, 1.0),  # (+,-) and (-,+) never occur: cdf[0:3] tie
        table_at(math.pi, 1.0),  # (+,+) and (-,-) all but never occur: cdf[2:4] tie
        table_at(0.7, 0.0),  # the flat table
        [0.25, 0.25, 0.25, 0.2],  # a total below 1
    ],
)
def test_draw_kernel_equals_searchsorted_at_every_cdf_entry(probs):
    cdf = np.cumsum(probs)
    edges = [0.0, *cdf, *np.nextafter(cdf, 0.0), *np.nextafter(cdf, 1.0), np.nextafter(1.0, 0.0)]
    u = np.array([x for x in edges if x < 1.0])
    idx = draw_outcomes(cdf, u)
    assert idx.dtype == np.uint8
    assert idx.tolist() == searchsorted_draw(cdf, u).tolist()


@st.composite
def outcome_counts(draw_from):
    """(pp, pm, mp, mm) with small, tiny (0, 1, 2) and huge same/opposite totals."""
    totals = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**17), st.integers(0, 2**40))
    same, diff = draw_from(totals), draw_from(totals)
    pp, pm = draw_from(st.integers(0, same)), draw_from(st.integers(0, diff))
    return [pp, pm, diff - pm, same - pp]


@given(outcome_counts())
@settings(max_examples=300, deadline=None)
def test_count_estimate_equals_score_array_estimate(counts):
    same, diff = counts[0] + counts[3], counts[1] + counts[2]
    n = same + diff
    if n < 2:
        with pytest.raises(ValueError, match="n >= 2"):
            estimate_counts(counts)
        return
    est = estimate_counts(np.array(counts, dtype=np.int64))
    mean, stderr = pm1_estimate_reference(same, diff)
    assert est.estimate == mean
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.n == n


def test_sample_counts_memory_does_not_grow_with_n():
    probs = table_at(0.7, 0.9)

    def peak(n):
        tracemalloc.start()
        try:
            sample_counts(probs, n, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(BLOCK), peak(4 * BLOCK)
    assert one >= 8 * BLOCK  # the block's doubles alone; numpy reports to tracemalloc
    assert abs(four - one) <= 0.1 * one


def test_sample_counts_block_arrays_fit_in_l2():
    # Whatever n is, one block's arrays (two of 8 bytes a trial, a few of one
    # byte) are all that is held, and they fit in a 2 MiB L2 cache.
    tracemalloc.start()
    try:
        sample_counts(table_at(0.7, 0.9), 4 * 2**20, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_bell_experiment_working_set_is_one_small_block():
    # Four settings of 2**18 draws each hold one BLOCK's arrays at a time; at
    # 2**14 trials a block they come to ~0.34 MiB, and 2**16 gives ~1.1 MiB.
    tracemalloc.start()
    try:
        bell_experiment(CHSH_OPTIMAL, Visibility(0.9), 2**18, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 2**10


# ---------------------------------------------------------------------------
# the per-event views against the array core


@st.composite
def tables(draw_from):
    """A table of the model, or any table: the model's have (+,+) = (-,-) and
    (+,-) = (-,+), so only the second kind tells the order of its entries."""
    if draw_from(st.booleans()):
        phi_a, phi_b = draw_from(st.floats(-10.0, 10.0)), draw_from(st.floats(-10.0, 10.0))
        v = draw_from(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
        return joint_distribution(PhaseSettings(phi_a, phi_b), Visibility(v))
    weights = draw_from(st.lists(st.integers(0, 1000), min_size=4, max_size=4).filter(any))
    return np.divide(weights, sum(weights))


@given(tables(), st.integers(2, 50_000), st.integers(0, 2**64 - 1))
@example(np.array([0.1, 0.2, 0.3, 0.4]), 3, 0)
@settings(max_examples=40, deadline=None)
def test_per_event_views_equal_the_core(probs, n, seed):
    events = sample_events(probs, n, seed)
    assert events.dtype == np.uint8
    assert np.array_equal(events, draw(probs, n, seed))
    from_events = estimate_correlation(events)
    from_counts = estimate_counts(sample_counts(probs, n, seed))
    assert from_events.estimate == from_counts.estimate
    assert from_events.stderr == from_counts.stderr
    assert from_events.n == from_counts.n == n


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
    for p in j:
        total += p
        cdf.append(total)
    gen = SplitMix64(seed)
    expected = []
    for _ in range(n):
        u = gen.next_double()
        expected.append(min(sum(c <= u for c in cdf), 3))
    assert draw(j, n, seed).tolist() == expected


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
        estimate_correlation(np.array([], dtype=np.uint8))
    with pytest.raises(ValueError, match="n >= 2"):
        estimate_counts(sample_counts(table_at(0.0, 1.0), 1, 5))


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
    # Party A's + frequency within 4 sigma of 1/2 while phi_b scans; A's + is
    # indices 0 and 1 of OUTCOMES.
    n = 20_000
    for i, phi_b in enumerate(np.linspace(0.0, 2 * math.pi, 8, endpoint=False)):
        j = joint_distribution(PhaseSettings(0.4, float(phi_b)), Visibility(1.0))
        events = sample_events(j, n, derive_seed(808, i))
        freq = np.count_nonzero(events < 2) / n
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / n)


def ks_distance_from_uniform(p) -> float:
    """Kolmogorov-Smirnov distance of the sample p from U(0, 1)."""
    p = sorted(p)
    k = len(p)
    return max(max((i + 1) / k - x, x - i / k) for i, x in enumerate(p))


def test_estimates_are_calibrated_over_many_points():
    # K = 4096 settings with |E| <= 0.9 (v = 0.9 round the fringe), n = 1000
    # draws each. z = (E_hat - E)/stderr must look standard normal, and each
    # point's Pearson chi-square (3 dof) p-value uniform. Over 100 seeds spaced
    # 2**40 apart, so that no two share a sub-stream, the mean of z stayed
    # within 0.034 of 0 (sd 0.014), its variance read 0.960-1.083 (mean 1.011,
    # sd 0.024) and the KS distance 0.026 at most; the bounds below held for
    # 97 of them. A stderr 5% high or low moves the variance by -9% or +11%.
    # The tables and E are the exact sweep's, which `sweep --mc` samples.
    k, n, seed, v = 4096, 1000, 20261020, 0.9
    sweep = sweep_correlation([2 * math.pi * j / k for j in range(k)], Visibility(v))
    tables, exact = sweep.tables, sweep.correlations
    z = [(r.estimate - e) / r.stderr for r, e in zip(estimate_columns(tables, n, seed), exact)]
    p_values = [
        chi2_sf_3dof(pearson_chi2(sample_counts(table, n, derive_seed(seed, j)), table))
        for j, table in enumerate(tables)
    ]
    assert abs(statistics.fmean(z)) <= 0.05
    assert abs(statistics.variance(z) - 1.0) <= 0.06
    assert ks_distance_from_uniform(p_values) <= 0.03


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


wide_angles = st.floats(-20.0, 20.0, allow_nan=False)


@given(
    st.tuples(wide_angles, wide_angles, wide_angles, wide_angles),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(2, 300),
    st.integers(0, 2**64 - 1),
)
@example((-20.0, 2 * math.pi, 19.5, -7.25), 1.0, 2, 0)
@example((0.0, 3 * math.pi, -2 * math.pi, 13.0), 0.0, 3, 2**64 - 1)
@settings(max_examples=60, deadline=None)
def test_bell_experiment_equals_per_setting_loop(angles, v, n, seed):
    a, ap, b, bp = angles
    vis = Visibility(v)
    pairs = [(a, b), (a, bp), (ap, b), (ap, bp)]
    results = [
        estimate_counts(sample_counts(
            joint_distribution(PhaseSettings(pa, pb), vis),
            n, derive_seed(seed, k),
        ))
        for k, (pa, pb) in enumerate(pairs)
    ]
    e = [r.estimate for r in results]
    result = bell_experiment(ChshSettings(a, ap, b, bp), vis, n, seed)
    assert result.estimate == e[0] + e[1] + e[2] - e[3]
    assert result.stderr == math.sqrt(sum(r.stderr**2 for r in results))
    assert result.n == 4 * n


def test_bell_experiment_needs_two_events_per_setting():
    with pytest.raises(ValueError, match="n_per_setting"):
        bell_experiment(ChshSettings(0, 0, 0, 0), Visibility(1.0), 1, 5)


def test_estimator_result_validation():
    with pytest.raises(ValueError, match="stderr"):
        EstimatorResult(estimate=0.0, stderr=-1.0, n=10)
    with pytest.raises(ValueError, match="count"):
        EstimatorResult(estimate=0.0, stderr=0.0, n=0)
