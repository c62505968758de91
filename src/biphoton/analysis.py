"""Statistics of the joint detection table: marginals, correlation fringes,
fringe visibility, CHSH, coherence measures, and a no-signaling scan.

The quantities here make the central dichotomy of the simulated experiment
checkable: every single-detector marginal is flat at 1/2 whatever the phase
settings, while the paired-outcome correlation carries a full-contrast
fringe v cos(phi_a - phi_b) and violates the CHSH bound exactly when
v > 1/sqrt2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import DensityMatrix
from .optics import JointDistribution, PhaseSettings, Visibility, joint_tables


class Marginals(NamedTuple):
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


# The singles and E of a joint table, from its four outcome probabilities in
# OUTCOMES order; each may be a float or an array over settings.
def _marginals(pp, pm, mp, mm) -> Marginals:
    return Marginals(a_plus=pp + pm, a_minus=mp + mm, b_plus=pp + mp, b_minus=pm + mm)


def _correlation(pp, pm, mp, mm):
    return pp + mm - pm - mp


def marginals(j: JointDistribution) -> Marginals:
    """Single-detector probabilities (row/column sums of the joint table)."""
    return _marginals(*j.probs.values())


def correlation(j: JointDistribution) -> float:
    """Expectation of the +-1 outcome product: p(same) - p(opposite)."""
    return _correlation(*j.probs.values())


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Exact correlation and singles over a grid of phase differences, and
    the joint tables they were read from (shape (4, n), as joint_tables)."""

    delta_grid: tuple[float, ...]
    correlations: tuple[float, ...]
    singles: tuple[Marginals, ...]
    visibility_used: Visibility
    tables: np.ndarray

    def __post_init__(self):
        n = len(self.delta_grid)
        if len(self.correlations) != n or len(self.singles) != n:
            raise ValueError("grid and value lists must have equal length")
        if self.tables.shape != (4, n):
            raise ValueError(f"need a (4, {n}) table array, got {self.tables.shape}")
        if any(not -1.0 <= e <= 1.0 for e in self.correlations):
            raise ValueError("correlation outside [-1, 1]")
        if any(not 0.0 <= p <= 1.0 for m in self.singles for p in m):
            raise ValueError("marginal outside [0, 1]")


def sweep_correlation(grid: Sequence[float], vis: Visibility) -> SweepResult:
    """Evaluate E and the four singles at phi_a = delta, phi_b = 0 per point."""
    if len(grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    deltas = np.asarray(grid, dtype=float)
    tables = joint_tables(deltas, 0.0, vis)
    return SweepResult(
        delta_grid=tuple(deltas.tolist()),
        correlations=tuple(_correlation(*tables).tolist()),
        singles=tuple(map(Marginals._make, np.transpose(_marginals(*tables)).tolist())),
        visibility_used=vis,
        tables=tables,
    )


def fringe_visibility(values: Iterable[float]) -> float:
    """Fringe contrast (max - min)/(max + min); 0 for an all-zero series."""
    series = [float(x) for x in values]
    if len(series) < 2:
        raise ValueError("fringe visibility needs at least two values")
    hi, lo = max(series), min(series)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class ChshSettings:
    """Two phase settings per party for the four-correlation CHSH sum."""

    a: float
    a_prime: float
    b: float
    b_prime: float


# Settings maximizing S for this instrument: S = 2 sqrt2 at full visibility.
CHSH_OPTIMAL = ChshSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


def _chsh_angles(s: ChshSettings) -> tuple[list[float], list[float]]:
    """phi_a and phi_b of the four pairs, in the order of chsh_setting_pairs."""
    return [s.a, s.a, s.a_prime, s.a_prime], [s.b, s.b_prime, s.b, s.b_prime]


def chsh_setting_pairs(s: ChshSettings) -> tuple[PhaseSettings, ...]:
    """The four (phi_a, phi_b) pairs, in the fixed order (a,b), (a,b'), (a',b), (a',b')."""
    return tuple(map(PhaseSettings, *_chsh_angles(s)))


def chsh(s: ChshSettings, vis: Visibility) -> float:
    """CHSH combination S = E(a,b) + E(a,b') + E(a',b) - E(a',b').

    Local-realistic models obey |S| <= 2; this instrument reaches
    2 sqrt2 * v, so S exceeds 2 exactly when v > 1/sqrt2.
    """
    e = _correlation(*joint_tables(*_chsh_angles(s), vis)).tolist()
    return e[0] + e[1] + e[2] - e[3]


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of moduli of off-diagonal entries in the declared basis."""
    mags = np.abs(rho.entries)
    return float(np.sum(mags) - np.sum(np.diag(mags)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.trace(rho.entries @ rho.entries).real)


def no_signaling_check(
    phi_a: float, phi_b_grid: Sequence[float], vis: Visibility
) -> float:
    """Worst deviation of either party's singles from 1/2 under remote scans.

    Scans phi_b over the grid at fixed phi_a and checks party A's marginal,
    then symmetrically scans phi_a over the same grid at fixed phi_b = phi_a
    and checks party B's. Returns the maximum |P(+) - 1/2| seen; any value
    above tolerance would mean one party's statistics respond to the other
    party's local setting.
    """
    if len(phi_b_grid) == 0:
        raise ValueError("no-signaling scan needs a non-empty grid")
    scan = np.asarray(phi_b_grid, dtype=float)
    fixed = np.full_like(scan, phi_a)
    # Row 0 scans B's setting under fixed A, row 1 scans A's under fixed B.
    m = _marginals(*joint_tables(np.array([fixed, scan]), np.array([scan, fixed]), vis))
    return float(np.abs(np.array([m.a_plus[0], m.b_plus[1]]) - 0.5).max())
