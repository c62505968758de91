"""Finite-statistics simulation of coincidence counting.

Every trial yields one outcome per party (no missed detections; instrument
loss is folded into the visibility upstream). Draws are inverse-CDF over
the four outcomes in the canonical order (+,+), (+,-), (-,+), (-,-) using
the splitmix64 stream, so a (distribution, n, seed) triple fixes the event
stream bit-for-bit. Multi-setting runs give each setting its own sub-seeded
stream (``rng.derive_seed``), which makes results independent of whether
settings are sampled sequentially or concurrently.

The core, ``sample_outcomes``, returns the outcomes as a uint8 index array
into OUTCOMES, and ``estimate_outcomes`` reads that array directly.
``sample_events`` and ``estimate_correlation`` give the same stream and the
same numbers one EventRecord per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ChshSettings, chsh_setting_pairs
from .optics import OUTCOMES, JointDistribution, PhaseSettings, Visibility, joint_distribution
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One simulated coincidence: trial index, settings, outcome pair."""

    trial: int
    settings: PhaseSettings
    outcome_a: str
    outcome_b: str


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr!r}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n!r}")


def sample_outcomes(j: JointDistribution, n: int, seed: int) -> np.ndarray:
    """n i.i.d. outcome indices into OUTCOMES, drawn from the joint table.

    Deterministic in (j, n, seed); entry i is trial i, as a uint8 in 0..3.
    """
    if n < 1:
        raise ValueError(f"need at least one event, got n = {n}")
    cdf = np.cumsum([j.probs[pair] for pair in OUTCOMES])
    u = SplitMix64(seed).doubles(n)
    return np.minimum(np.searchsorted(cdf, u, side="right"), 3).astype(np.uint8)


# +-1 outcome product of each index into OUTCOMES
_SCORES = np.array([1.0, -1.0, -1.0, 1.0])


def estimate_outcomes(idx: np.ndarray) -> EstimatorResult:
    """Sample mean and standard error of the +-1 outcome product."""
    n = len(idx)
    if n < 2:
        raise ValueError(f"correlation estimate needs n >= 2 events, got {n}")
    scores = _SCORES[idx]
    estimate = float(scores.mean())
    stderr = float(scores.std(ddof=1) / math.sqrt(n))
    return EstimatorResult(estimate=estimate, stderr=stderr, n=n)


def sample_events(j: JointDistribution, n: int, seed: int) -> list[EventRecord]:
    """sample_outcomes as EventRecords; trial indices run 0..n-1."""
    settings = j.settings
    return [
        EventRecord(trial, settings, *OUTCOMES[k])
        for trial, k in enumerate(sample_outcomes(j, n, seed).tolist())
    ]


def estimate_correlation(events: list[EventRecord]) -> EstimatorResult:
    """estimate_outcomes over a list of EventRecords."""
    # Index 0, (+,+), scores +1 and index 1, (+,-), scores -1, so the
    # mismatch flag of each event stands in for its full outcome index.
    mismatch = np.fromiter(
        (e.outcome_a != e.outcome_b for e in events),
        dtype=np.uint8,
        count=len(events),
    )
    return estimate_outcomes(mismatch)


def bell_experiment(
    s: ChshSettings,
    vis: Visibility,
    n_per_setting: int,
    seed: int,
    map_fn=map,
) -> EstimatorResult:
    """Sampled CHSH value S = E1 + E2 + E3 - E4 with propagated standard error.

    Setting k of the fixed order (a,b), (a,b'), (a',b), (a',b') is sampled
    from its own stream seeded with derive_seed(seed, k), so any map_fn that
    preserves argument order (the builtin, or an executor's) gives identical
    results. The reported n is the total number of events consumed.
    """
    if n_per_setting < 2:
        raise ValueError(f"need n_per_setting >= 2, got {n_per_setting}")

    def estimate_one(indexed) -> EstimatorResult:
        k, settings = indexed
        j = joint_distribution(settings, vis)
        return estimate_outcomes(
            sample_outcomes(j, n_per_setting, derive_seed(seed, k))
        )

    results = list(map_fn(estimate_one, enumerate(chsh_setting_pairs(s))))
    s_value = (
        results[0].estimate + results[1].estimate + results[2].estimate
        - results[3].estimate
    )
    stderr = math.sqrt(sum(r.stderr**2 for r in results))
    return EstimatorResult(estimate=s_value, stderr=stderr, n=4 * n_per_setting)
