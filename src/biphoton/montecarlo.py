"""Finite-statistics simulation of coincidence counting.

Every trial yields one outcome per party (no missed detections; instrument
loss is folded into the visibility upstream). Draws are inverse-CDF over the
four outcomes in the canonical order (+,+), (+,-), (-,+), (-,-) using the
splitmix64 stream, so a (probabilities, n, seed) triple fixes the event
stream bit-for-bit. Multi-setting runs give each setting its own sub-seeded
stream (``rng.derive_seed``), so no setting's events depend on another's;
``estimate_columns`` is the one place that rule is applied. The module builds
on ``optics`` (the exact tables), ``rng`` and ``records`` alone.

The core, ``outcome_blocks``, yields uint8 indices into OUTCOMES in blocks
(drawn by ``draw_outcomes``), so memory stays bounded whatever n is. The four
counts (``sample_counts``) are all ``estimate_counts`` needs, and every command
samples through them. ``sample_events`` (the joined index array) and
``estimate_correlation`` (its estimate) are one-call views of the same core; no
command runs them, but the benchmark's library replay does.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .optics import OUTCOMES, ChshSettings, Visibility
from .records import checked_fields
from .rng import SplitMix64, derive_seed


class EstimatorResult(checked_fields("estimate", "stderr", "n")):
    __slots__ = ()

    def __new__(cls, estimate: float, stderr: float, n: int):
        for name, value in (("estimate", estimate), ("stderr", stderr)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {stderr!r}")
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n!r}")
        return super().__new__(cls, estimate, stderr, n)


# Trials drawn at a time. Bounds the arrays held at once (a tracemalloc peak of
# about 0.34 MiB: two of 8 bytes a trial, a few of one byte), so that a draw of
# any length stays well inside a 2 MiB L2 cache and adds little to a process's
# start-up RSS. On a Xeon with that L2, doubles + draw + bincount of 2**22
# trials took a median 15 ns a trial in 2**14 blocks and 14 ns in 2**16 blocks
# (quartiles 14-16 and 13-14), against 34 ns in 2**20 blocks.
BLOCK = 1 << 14


def outcome_blocks(probs, n: int, seed: int) -> Iterator[np.ndarray]:
    """n i.i.d. outcome indices into OUTCOMES, as uint8 blocks of BLOCK (the last may be shorter).

    probs is the table in OUTCOMES order. The blocks are the draws of one
    splitmix64 stream: joined, entry i is trial i, fixed by (probs, n, seed).
    """
    if n < 1:
        raise ValueError(f"need at least one event, got n = {n}")
    cdf = np.cumsum(probs)
    doubles = SplitMix64(seed).doubles
    for start in range(0, n, BLOCK):
        # Only the yielded uint8 block outlives this step, not its doubles.
        yield draw_outcomes(cdf, doubles(min(BLOCK, n - start)))


def draw_outcomes(cdf, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome indices (uint8) of the doubles u: how many of
    cdf[0..2], a nondecreasing cumulative table in OUTCOMES order, each one
    reaches. A draw past a total that rounds below 1 is the last outcome."""
    return (u >= cdf[0]).view(np.uint8) + (u >= cdf[1]) + (u >= cdf[2])


def sample_counts(probs, n: int, seed: int) -> np.ndarray:
    """How often each outcome of OUTCOMES occurs among outcome_blocks(probs, n, seed)."""
    return sum(np.bincount(b, minlength=len(OUTCOMES)) for b in outcome_blocks(probs, n, seed))


def estimate_counts(counts) -> EstimatorResult:
    """Sample mean and standard error of the +-1 outcome product from the four counts.

    With s same and d opposite outcomes in n trials, the mean is (s - d)/n and
    the sample variance 4 s d/(n (n - 1)); both are exact until the last rounding.
    """
    same, diff = int(counts[0]) + int(counts[3]), int(counts[1]) + int(counts[2])
    n = same + diff
    if n < 2:
        raise ValueError(f"correlation estimate needs n >= 2 events, got {n}")
    stderr = 2.0 * math.sqrt(same * diff / (n - 1)) / n
    return EstimatorResult(estimate=(same - diff) / n, stderr=stderr, n=n)


def estimate_columns(tables, n: int, seed: int, first: int = 0) -> list[EstimatorResult]:
    """estimate_counts of n draws from each table k of the sequence tables (each
    as joint_tables returns it), from its own stream seeded with derive_seed(seed, first + k)."""
    return [
        estimate_counts(sample_counts(table, n, derive_seed(seed, first + k)))
        for k, table in enumerate(tables)
    ]


def sample_events(probs, n: int, seed: int) -> np.ndarray:
    """outcome_blocks(probs, n, seed) joined: entry i is trial i's uint8 index into OUTCOMES."""
    return np.concatenate(list(outcome_blocks(probs, n, seed)))


def estimate_correlation(events: np.ndarray) -> EstimatorResult:
    """estimate_counts of an array of outcome indices, as sample_events returns."""
    return estimate_counts(np.bincount(events, minlength=len(OUTCOMES)))


def bell_experiment(
    s: ChshSettings,
    vis: Visibility,
    n_per_setting: int,
    seed: int,
) -> EstimatorResult:
    """Sampled CHSH value S = E1 + E2 + E3 - E4 with propagated standard error.

    Table k of s.tables(vis) is sampled from its own stream seeded with
    derive_seed(seed, k). The reported n is the total number of events consumed.
    """
    if n_per_setting < 2:
        raise ValueError(f"need n_per_setting >= 2, got {n_per_setting}")
    results = estimate_columns(s.tables(vis), n_per_setting, seed)
    e = [r.estimate for r in results]
    stderr = math.sqrt(sum(r.stderr**2 for r in results))
    return EstimatorResult(estimate=e[0] + e[1] + e[2] - e[3], stderr=stderr, n=4 * n_per_setting)
