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
from .optics import Visibility, joint_tables


class Marginals(NamedTuple):
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


# A joint table is its four outcome probabilities in OUTCOMES order, each a
# float or an array over settings (as joint_tables' rows, or j.probs.values()).
def marginals(table) -> Marginals:
    """Single-detector probabilities (row/column sums of the joint table)."""
    pp, pm, mp, mm = table
    return Marginals(a_plus=pp + pm, a_minus=mp + mm, b_plus=pp + mp, b_minus=pm + mm)


def correlation(table):
    """Expectation of the +-1 outcome product: p(same) - p(opposite)."""
    pp, pm, mp, mm = table
    return pp + mm - pm - mp


class SweepResult(NamedTuple):
    """Exact correlation and singles as arrays over a grid of phase differences,
    and the joint tables they were read from (shape (4, n), as joint_tables)."""

    delta_grid: np.ndarray
    tables: np.ndarray
    correlations: np.ndarray
    singles: Marginals


def sweep_correlation(grid: Sequence[float], vis: Visibility) -> SweepResult:
    """Evaluate E and the four singles at phi_a = delta, phi_b = 0 per point."""
    if len(grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    deltas = np.asarray(grid, dtype=float)
    tables = joint_tables(deltas, 0.0, vis)
    e, singles = correlation(tables), marginals(tables)
    p = np.array(singles)
    # Written so that a NaN fails them too.
    if not np.all((-1.0 <= e) & (e <= 1.0)):
        raise ValueError("correlation outside [-1, 1]")
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("marginal outside [0, 1]")
    return SweepResult(deltas, tables, e, singles)


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
    """phi_a and phi_b of the four pairs, in the fixed order (a,b), (a,b'), (a',b), (a',b')."""
    return [s.a, s.a, s.a_prime, s.a_prime], [s.b, s.b_prime, s.b, s.b_prime]


def chsh(s: ChshSettings, vis: Visibility) -> float:
    """CHSH combination S = E(a,b) + E(a,b') + E(a',b) - E(a',b').

    Local-realistic models obey |S| <= 2; this instrument reaches
    2 sqrt2 * v, so S exceeds 2 exactly when v > 1/sqrt2.
    """
    e = correlation(joint_tables(*_chsh_angles(s), vis)).tolist()
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
    m = marginals(joint_tables(np.array([fixed, scan]), np.array([scan, fixed]), vis))
    return float(np.abs(np.array([m.a_plus[0], m.b_plus[1]]) - 0.5).max())
